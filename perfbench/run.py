"""End-to-end WatDiv benchmark of the S2RDF reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload basic --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each exists):

* ``basic`` -- WatDiv Basic (L/S/F/C, 20 templates) at scale factor 20, one
  closed-loop client on ``repro.connect(path)`` with default knobs;
* ``incremental-linear`` -- the IL-1/IL-2/IL-3 chains (diameter 5-10) on the
  same data and client;
* ``serve-mixed`` -- scale factor 10 on ``repro.connect(path,
  execution_mode="process")`` behind ``session.serve()``: client A runs Basic
  queries while client B appends novel triples or compacts, then queries;
  a fixed number of rounds.

``--trace 0`` measures the end-to-end metrics with nothing instrumented.
``--trace 1`` wraps each layer's public entry points (see ``spans.py``),
alternates untraced and traced stretches, and reports the per-layer metrics,
their reconciliation with the mean latency and the tracing overhead.

Every answer is checked against an independent evaluator (``oracle.py``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import shutil
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Seed of the WatDiv graph.  Like WatDiv's published datasets, the graph is
#: generated once per scale factor; ``--seed`` picks the query constants,
#: the query order and the appended triples.  A graph per seed made the
#: unbound IL-3 chains, and so every IL throughput figure, vary by 2x.
DATA_SEED = 2016
#: Queries whose work counters must repeat exactly for a given seed.
DETERMINISM_PREFIX = 100
QUERY_TIMEOUT_S = 120.0
#: serve-mixed: client B's write in each round, client A's queries per
#: round, and novel triples per append.  The script runs once after each
#: set-up.  Each write moves the epoch, after which the scheduler re-warms
#: every broadcast-sized table (a few seconds at scale factor 10 on 2 cores),
#: so the script is short and the operation count fixed.  The queries that
#: run beside a write or meet cold caches after it (more after a compaction,
#: which drops every cached segment) number 100-160 in a round of 600, up to
#: 280 when the host is slow, so ``query_p95_ms`` falls among them and
#: ``query_p50_ms`` among warm ones.  At 300 a round they were 23-37% of it,
#: lifted p50 1.7x above the warm median, and p50 moved with their count.
SERVE_SCRIPT = ("append", "compact")
SERVE_QUERIES_PER_ROUND = 600
SERVE_BATCH_TRIPLES = 20
#: serve-mixed traced runs first measure tracing overhead for this many
#: seconds of served queries, alternately traced and untraced, before the
#: script.
SERVE_OVERHEAD_SECONDS = 2.0


class Workload(NamedTuple):
    """Why each workload exists is recorded in ``BENCHMARK.json``."""

    scale_factor: int
    #: Instances per parameterized template in the query pool.
    instances: int
    pool: str
    knobs: Dict[str, object]
    #: Draws per template in each round of the stream: (parameterized,
    #: fixed-text).  Chosen so that neither the median nor the 95th
    #: percentile falls where one template's latencies end and the next
    #: one's begin.
    draws: tuple
    #: Set-ups per run, each followed by a measured slice; ``setup_s`` is
    #: their median.
    setups: int


WORKLOADS = {
    # C3 is the slowest Basic template: 1 in 37 draws.
    "basic": Workload(20, 40, "basic", {}, (2, 1), 2),
    # IL-3-8, the slowest chain, is 1 in 42 draws; the 95th percentile falls
    # among IL-3-5 and IL-3-6 (equally slow, 1 in 21), the median among the
    # IL-1/IL-2 chains.
    "incremental-linear": Workload(20, 20, "incremental", {}, (3, 1), 2),
    # Two set-ups, each followed by the script at 600 queries a round, keep
    # a run near a minute on 2 cores; three set-ups made it up to 80 s.
    "serve-mixed": Workload(10, 40, "basic", {"execution_mode": "process"}, (2, 1), 2),
}


class Record(NamedTuple):
    """One completed query as its client saw it."""

    template: str
    category: str
    text: str
    latency_s: float
    rows: int
    digest: tuple
    epoch: Optional[int]
    traced: bool
    queue_ms: Optional[float]
    metrics: object
    result_bytes: int


class Tally:
    """Operations attempted and failed, with the first few failures kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self._lock = threading.Lock()

    def attempt(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, note: str) -> None:
        with self._lock:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(note)


# --------------------------------------------------------------------- #
# Clients
# --------------------------------------------------------------------- #
class LocalClient:
    """``session.query`` on the caller's thread."""

    def __init__(self, session) -> None:
        self.session = session

    def query(self, text: str):
        result = self.session.query(text)
        return result, result.to_dicts(), None

    def close(self) -> None:
        self.session.close()


class ServedClient:
    """``session.serve().submit`` and wait for the handle."""

    def __init__(self, session) -> None:
        self.session = session
        self.scheduler = session.serve()

    def query(self, text: str):
        handle = self.scheduler.submit(text)
        result = handle.result(timeout=QUERY_TIMEOUT_S)
        return result, result.to_dicts(), handle.queue_ms

    def close(self) -> None:
        self.scheduler.close()
        self.session.close()


class Runner:
    """Runs queries, times them, and keeps what the checks and metrics need."""

    def __init__(self, client, digest: Callable, tally: Tally, recorder, tag: str = "query") -> None:
        self.client = client
        #: Tag of the root span each traced query opens.
        self.tag = tag
        self.digest = digest
        self.tally = tally
        self.recorder = recorder
        self.records: List[Record] = []
        #: Segment decodes counted when the first ``DETERMINISM_PREFIX``
        #: queries had completed (traced runs only).
        self.prefix_decodes: Optional[int] = None
        self._lock = threading.Lock()

    def run(self, query) -> None:
        traced = self.recorder is not None and self.recorder.active
        self.tally.attempt()
        root = self.recorder.begin("request", tag=self.tag) if traced else None
        start = time.perf_counter()
        try:
            result, rows, queue_ms = self.client.query(query.text)
        except Exception:  # noqa: BLE001 - a failed query is counted, the loop goes on
            if root is not None:
                self.recorder.finish(root)
            self.tally.fail(f"{query.template}: {traceback.format_exc(limit=-4)}")
            return
        latency_s = time.perf_counter() - start
        if root is not None:
            self.recorder.finish(root)
        size = len(pickle.dumps(result)) if traced and queue_ms is not None else 0
        record = Record(
            query.template,
            query.category,
            query.text,
            latency_s,
            len(rows),
            self.digest(query.text, result.bindings),
            result.epoch,
            traced,
            queue_ms,
            result.metrics,
            size,
        )
        with self._lock:
            self.records.append(record)
            if len(self.records) == DETERMINISM_PREFIX and self.recorder is not None:
                self.prefix_decodes = self.recorder.decode_calls


# --------------------------------------------------------------------- #
# Measurement helpers
# --------------------------------------------------------------------- #
def dir_bytes(path: Path, skip: str = "journal") -> int:
    """Bytes of every file under ``path`` except the query journal."""
    total = 0
    for directory, subdirs, files in os.walk(path):
        if skip in subdirs:
            subdirs.remove(skip)
        total += sum(os.path.getsize(os.path.join(directory, name)) for name in files)
    return total


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus each live child process (Linux /proc)."""
    pid = os.getpid()
    total = _vm_hwm_kb(pid)
    task_dir = f"/proc/{pid}/task"
    children = set()
    for task in os.listdir(task_dir):
        try:
            with open(os.path.join(task_dir, task, "children")) as handle:
                children.update(int(child) for child in handle.read().split())
        except OSError:
            continue
    total += sum(_vm_hwm_kb(child) for child in children)
    return total / 1024.0


def p95(values: List[float]) -> float:
    return statistics.quantiles(values, n=20)[-1]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


# --------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------- #
def set_up(workload: Workload, make_graph: Callable, path: Path, recorder, warm_queries):
    """``repro.create`` + ``repro.connect`` + one warm-up pass; returns the
    client and the seconds taken.

    The graph is generated afresh (not timed) and released before the
    connect, so neither the measured queries nor forked workers carry it.
    """
    import repro

    graph = make_graph()
    start = time.perf_counter()
    session = repro.create(graph, str(path))
    create_s = time.perf_counter() - start
    session.close()
    del session, graph
    gc.collect()
    if recorder is not None:
        recorder.reset_decodes()
    start = time.perf_counter()
    session = repro.connect(str(path), **workload.knobs)
    client = ServedClient(session) if "execution_mode" in workload.knobs else LocalClient(session)
    for query in warm_queries:
        client.query(query.text)
    return client, create_s + time.perf_counter() - start


# --------------------------------------------------------------------- #
# Measured phases
# --------------------------------------------------------------------- #
def closed_loop(runner: Runner, stream, seconds: float, round_size: int, recorder) -> tuple:
    """One client, back to back, for ``seconds`` and then to the end of the
    stream's current template round; returns the slice's span.

    Traced runs trace every second query.
    """
    start = now = time.perf_counter()
    traced = False
    sent = 0
    while now < start + seconds or sent % round_size:
        if recorder is not None:
            traced = recorder.active = not traced
        runner.run(next(stream))
        sent += 1
        now = time.perf_counter()
    if recorder is not None:
        recorder.active = False
    return start, now


class Writes:
    """Client B's appends: their latencies and the epochs they committed."""

    def __init__(self) -> None:
        self.append_s: List[float] = []
        #: (epoch the append committed, its triples), in commit order.
        self.appended: List[tuple] = []


def serve_rounds(runner: Runner, session, streams, batches, writes: Writes, tally: Tally, recorder) -> tuple:
    """Clients A and B in lockstep rounds; a barrier ends each round.

    Per round, client A runs a fixed number of queries while client B runs
    the next step of ``SERVE_SCRIPT`` (append the next batch, or compact)
    and then one query.  The barrier keeps the scheduler's re-warm of one
    epoch from overlapping the next write: overlapping re-warms for two
    epochs made the workers re-read the manifest for nearly every warm task.
    Traced runs trace every round.  B's writes are added to ``writes``;
    returns the measured span.
    """
    stream_a, stream_b = streams
    barrier = threading.Barrier(2, timeout=10 * QUERY_TIMEOUT_S)

    def write_op(name: str, call) -> Optional[tuple]:
        tally.attempt()
        root = recorder.begin(name, tag=name) if recorder is not None else None
        start = time.perf_counter()
        try:
            return call(), time.perf_counter() - start
        except Exception:  # noqa: BLE001 - a failed write is counted, the script goes on
            tally.fail(f"{name}: {traceback.format_exc(limit=-4)}")
            return None
        finally:
            if root is not None:
                recorder.finish(root)

    def client_a() -> None:
        for _ in SERVE_SCRIPT:
            for _ in range(SERVE_QUERIES_PER_ROUND):
                runner.run(next(stream_a))
            barrier.wait()

    def client_b() -> None:
        pending = iter(batches)
        for step in SERVE_SCRIPT:
            if step == "append":
                batch = next(pending)
                done = write_op("append", lambda: session.append_triples(batch))
                if done is not None:
                    report, elapsed = done
                    writes.append_s.append(elapsed)
                    writes.appended.append((report.epoch, batch))
            else:
                write_op("compact", session.compact)
            runner.run(next(stream_b))
            barrier.wait()

    def guarded(body) -> Callable[[], None]:
        def target() -> None:
            try:
                body()
            except threading.BrokenBarrierError:
                tally.fail("round barrier broken")
            except Exception:  # noqa: BLE001 - reported, and the other client released
                tally.fail(traceback.format_exc(limit=-4))
                barrier.abort()

        return target

    if recorder is not None:
        recorder.active = True
    start = time.perf_counter()
    threads = [threading.Thread(target=guarded(body)) for body in (client_a, client_b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.perf_counter()
    if recorder is not None:
        recorder.active = False
    return start, end


# --------------------------------------------------------------------- #
# Checks
# --------------------------------------------------------------------- #
def check_answers(records: List[Record], graph, appended, tally: Tally) -> None:
    """Compare every answer with the oracle over the graph at its epoch.

    Appends are the only content changes; an answer read at epoch ``e`` must
    match the base graph plus every batch whose append committed at or
    before ``e`` (compactions move the epoch but not the content).
    """
    from oracle import Oracle

    oracle = Oracle(graph)
    applied = 0

    def batches_at(record: Record) -> int:
        if record.epoch is None:
            return 0
        return sum(1 for epoch, _ in appended if epoch <= record.epoch)

    for record in sorted(records, key=batches_at):
        needed = batches_at(record)
        while applied < needed:
            oracle.add(appended[applied][1])
            applied += 1
        if oracle.expected(record.text) != record.digest:
            tally.fail(f"wrong answer: {record.template} at epoch {record.epoch}")


def program_key() -> str:
    """Fingerprint of the program's and the benchmark's source files.

    Work counters are a property of the code: a change that lowers them is
    what the benchmark exists to show, so a record only binds runs of the
    code that wrote it.
    """
    digest = hashlib.sha256()
    for root in (SRC / "repro", HERE):
        for path in sorted(root.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
                digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


def check_determinism(workload: str, seed: int, trace: int, counters: Dict[str, float]) -> List[str]:
    """Work counters must repeat exactly for a seed across runs of one program.

    The first run of a seed records them under the output directory, keyed
    by :func:`program_key`; later runs of the same code compare every counter
    both have and add the ones the record lacks, never overwriting one.
    Traced runs make every slice on one set-up, so they keep their own record.
    """
    path = OUT / "determinism" / f"{workload}-seed{seed}-trace{trace}-{program_key()}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    known = json.loads(path.read_text()) if path.exists() else {}
    mismatches = [
        f"{name}: {known[name]} before, {value} now"
        for name, value in counters.items()
        if name in known and known[name] != value
    ]
    if not set(counters) <= set(known):
        path.write_text(json.dumps({**counters, **known}, sort_keys=True))
    return mismatches


# --------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------- #
def end_to_end(records, measured_s: float, setup_s, peak_mb, bytes_per_triple) -> Dict[str, tuple]:
    """The contract metrics.  Rates are totals over the measured time: on a
    host whose speed swings between two levels every few seconds, that
    varies about half as much between runs as a median over rounds."""
    latencies_ms = [record.latency_s * 1000.0 for record in records]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "qps": (len(records) / measured_s, "1/s"),
        "query_p50_ms": (statistics.median(latencies_ms), "ms"),
        "query_p95_ms": (p95(latencies_ms), "ms"),
        "result_rows_per_s": (sum(record.rows for record in records) / measured_s, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "bytes_per_triple": (bytes_per_triple, "B"),
    }


def tracing_overhead(records) -> float:
    """1 - traced/untraced throughput of an equal-weight template mix.

    Each template's mean latency is taken per mode, so the comparison does
    not depend on which templates happened to fall in each mode.
    """
    latencies: Dict[tuple, List[float]] = {}
    for record in records:
        latencies.setdefault((record.template, record.traced), []).append(record.latency_s)
    templates = [t for t, traced in latencies if traced and (t, False) in latencies]
    untraced = sum(mean(latencies[(t, False)]) for t in templates)
    traced = sum(mean(latencies[(t, True)]) for t in templates)
    return 1.0 - untraced / traced if traced else 0.0


def per_layer(records, overhead_records, recorder, decodes: int, workers, append_s, tally) -> tuple:
    from layers import attr_values, durations_s, query_breakdown, segment_cache_hit_rate

    spans = recorder.spans
    traced = [record for record in records if record.traced]
    breakdown = query_breakdown(
        spans, [record.queue_ms for record in traced if record.queue_ms is not None]
    )
    layers_ms = breakdown["layers_ms"]
    count = max(len(traced), 1)
    metrics = [record.metrics for record in traced]
    scanned = sum(m.store_segments_scanned for m in metrics)
    pruned = sum(m.store_segments_pruned for m in metrics)
    produced = sum(m.input_tuples + m.intermediate_tuples for m in metrics)
    appends = attr_values(spans, "store.append", "append", "triples")

    def layer(*names: str) -> float:
        return sum(layers_ms.get(name, 0.0) for name in names)

    def mean_ms(name: str, tag: str) -> float:
        return mean(durations_s(spans, name, tag)) * 1000.0

    def once_s(name: str) -> float:
        return sum(durations_s(spans, name, "setup"))

    values = {
        "sparql.parse_ms": (layer("sparql.parse"), "ms"),
        "core.compile_ms": (layer("core.compile"), "ms"),
        "core.sql_render_ms": (layer("core.sql_render"), "ms"),
        "engine.plan_ms": (layer("engine.plan"), "ms"),
        "engine.execute_ms": (layer("engine.execute"), "ms"),
        "engine.input_tuples": (sum(m.input_tuples for m in metrics) / count, "count"),
        "engine.intermediate_tuples": (sum(m.intermediate_tuples for m in metrics) / count, "count"),
        "engine.join_comparisons": (sum(m.join_comparisons for m in metrics) / count, "count"),
        "engine.shuffled_bytes": (sum(m.shuffled_bytes for m in metrics) / count, "B"),
        "engine.vectorized_row_share": (
            sum(m.vectorized_rows for m in metrics) / produced if produced else 0.0,
            "ratio",
        ),
        "obs.journal_ms": (layer("obs.journal"), "ms"),
        "store.scan_ms": (layer("store.scan", "store.decode"), "ms"),
        "store.prune_ratio": (pruned / (scanned + pruned) if scanned + pruned else 0.0, "ratio"),
        "store.segment_decodes": (float(decodes), "count"),
        "store.segment_cache_hit_rate": (segment_cache_hit_rate(spans, workers[2], workers[1]), "ratio"),
        "store.append_ms": (mean_ms("store.append", "append"), "ms"),
        "store.refresh_ms": (
            mean(durations_s(spans, "store.refresh", "append") + durations_s(spans, "store.refresh", "compact"))
            * 1000.0,
            "ms",
        ),
        "store.delta_segments_per_append": (
            mean(attr_values(spans, "store.append", "append", "delta_segments")),
            "count",
        ),
        "store.append_bytes_per_triple": (
            sum(attr_values(spans, "store.append", "append", "bytes")) / sum(appends) if appends else 0.0,
            "B",
        ),
        "store.compact_ms": (mean_ms("store.compact", "compact"), "ms"),
        "store.compact_bytes_rewritten": (
            mean(attr_values(spans, "store.compact", "compact", "bytes")),
            "B",
        ),
        "rdf.decode_ms": (layer("rdf.decode"), "ms"),
        "rdf.terms_decoded": (
            sum(attr_values(spans, "rdf.decode", "query", "terms")) / count,
            "count",
        ),
        "serve.queue_ms": (layer("serve.queue"), "ms"),
        "serve.transport_ms": (layer("serve.transport"), "ms"),
        "serve.worker_ms": (layer("serve.worker"), "ms"),
        "serve.result_bytes": (mean(record.result_bytes for record in traced), "B"),
        "mappings.extvp_build_s": (once_s("mappings.extvp_build"), "s"),
        "mappings.extvp_tables": (
            sum(attr_values(spans, "mappings.extvp_build", "setup", "extvp_tables")),
            "count",
        ),
        "store.save_s": (once_s("store.save"), "s"),
        "store.open_s": (once_s("store.open"), "s"),
        "append_p50_ms": (
            statistics.median(append_s) * 1000.0 if append_s else 0.0,
            "ms",
        ),
        "error_rate": (tally.failed / max(tally.attempted, 1), "ratio"),
        "unaccounted_ms": (breakdown["unaccounted_ms"], "ms"),
        "trace.overhead_frac": (tracing_overhead(overhead_records), "ratio"),
    }
    return values, breakdown


def properties(records, stored_triples: int, stored_bytes: int, recorder, dataset_path) -> Dict[str, object]:
    """What the workload is: repetition, result sizes, data and working set."""
    count = len(records)
    out = {
        "queries": count,
        "template_repetition_share": 1.0 - len({r.template for r in records}) / count,
        "exact_text_repetition_share": 1.0 - len({r.text for r in records}) / count,
        "mean_result_rows": mean(r.rows for r in records),
        "triples": stored_triples,
        "stored_bytes": stored_bytes,
    }
    if recorder is not None:
        from repro.store.format import read_manifest

        manifest = read_manifest(str(dataset_path))
        out["segment_columns_in_dataset"] = sum(
            entry.segment_count() * len(entry.columns) for entry in manifest.tables.values()
        )
        out["segment_columns_decoded"] = len(recorder.decoded_set)
        out["decoded_values"] = recorder.decoded_values
        out["reader_cache"] = "unbounded (every decoded segment column stays cached)"
    return out


def per_shape_p50(records) -> Dict[str, float]:
    shapes: Dict[str, List[float]] = {}
    for record in records:
        if not record.traced:
            shapes.setdefault(record.category, []).append(record.latency_s * 1000.0)
    return {shape: statistics.median(values) for shape, values in sorted(shapes.items())}


# --------------------------------------------------------------------- #
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from queries import basic_pool, incremental_pool, novel_batches
    from oracle import digest, projected_names
    from repro.store.format import manifest_path
    from repro.watdiv import generate_dataset
    from spans import Recorder, install

    workload = WORKLOADS[args.workload]
    serve = "execution_mode" in workload.knobs
    recorder = Recorder() if args.trace else None
    if recorder is not None:
        install(recorder)
        recorder.active = True
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    names: Dict[str, List[str]] = {}

    def digest_of(text: str, bindings) -> tuple:
        if text not in names:
            names[text] = projected_names(text)
        return digest(bindings, names[text])

    tally = Tally()
    client = None
    try:
        dataset = generate_dataset(workload.scale_factor, seed=DATA_SEED)
        make_pool = basic_pool if workload.pool == "basic" else incremental_pool
        pool = make_pool(dataset, workload.instances, workload.draws, args.seed + 1)
        # Set-ups alternate with measured slices, so a run samples the host
        # over a longer span: ``--seconds / repeats`` of queries, or one pass
        # of the serve script.  A traced run sets up once and makes every
        # slice on it.
        repeats = 1 if recorder is not None else workload.setups
        batches = []
        if serve:
            appends = SERVE_SCRIPT.count("append")
            batches = novel_batches(dataset, args.seed + 7919, workload.setups * appends, SERVE_BATCH_TRIPLES)
        base_triples = len(dataset.graph)
        del dataset

        def make_graph():
            return generate_dataset(workload.scale_factor, seed=DATA_SEED).graph

        runner = Runner(None, digest_of, tally, recorder)
        probe = runner
        stream = pool.stream(args.seed + 2)
        streams = stream, pool.stream(args.seed + 3)
        round_size = len(pool.round)
        setup_s: List[float] = []
        slices: List[tuple] = []
        #: serve-mixed, per dataset: (its first record, its writes).
        served: List[tuple] = []
        for i in range(repeats):
            if client is not None:
                client.close()
                runner.client = client = None
                shutil.rmtree(dataset_path)
            dataset_path = workdir / f"dataset-{i}"
            client, seconds = set_up(workload, make_graph, dataset_path, recorder, pool.first_of_each())
            setup_s.append(seconds)
            if recorder is not None:
                recorder.active = False
                recorder.orphan_tag = "query"
                decodes_at_setup = recorder.decode_calls
                workers_at_setup = list(recorder.worker_counts)
            runner.client = client
            if not serve:
                slices.append(closed_loop(runner, stream, args.seconds / repeats, round_size, recorder))
                continue
            if recorder is not None:
                # Tracing overhead on quiet served queries, before the script
                # (whose rounds are all traced).
                probe = Runner(client, digest_of, tally, recorder, tag="overhead")
                recorder.orphan_tag = "overhead"
                closed_loop(probe, stream, SERVE_OVERHEAD_SECONDS, round_size, recorder)
                recorder.orphan_tag = "query"
            writes = Writes()
            served.append((len(runner.records), writes))
            for j in range(i, i + workload.setups // repeats):
                mine = batches[j * appends : (j + 1) * appends]
                slices.append(serve_rounds(runner, client.session, streams, mine, writes, tally, recorder))
        measured_s = sum(end - start for start, end in slices)
        peak_mb = peak_rss_mb()
        last_appended = served[-1][1].appended if serve else []
        stored_triples = base_triples + sum(len(batch) for _, batch in last_appended)
        stored_bytes = dir_bytes(dataset_path)
        data_bytes = stored_bytes - os.path.getsize(manifest_path(str(dataset_path)))
        bytes_per_triple = stored_bytes / stored_triples
        layout = properties(runner.records, stored_triples, stored_bytes, recorder, dataset_path)
    finally:
        if client is not None:
            client.close()
        shutil.rmtree(workdir, ignore_errors=True)

    records = runner.records
    # Each dataset's answers against the base graph plus that dataset's appends.
    parts = [(0, Writes())] if not served else served
    for k, (first, writes) in enumerate(parts):
        end = parts[k + 1][0] if k + 1 < len(parts) else len(records)
        checked = records[first:end] + (probe.records if k == 0 and probe is not runner else [])
        base_graph = generate_dataset(workload.scale_factor, seed=DATA_SEED).graph
        check_answers(checked, base_graph, writes.appended, tally)

    # The manifest records the layout's build time, so its length varies by a
    # few bytes between runs; the data files must not.
    counters: Dict[str, float] = {"store.data_bytes": data_bytes}
    if not serve and len(records) >= DETERMINISM_PREFIX:
        prefix = [record.metrics for record in records[:DETERMINISM_PREFIX]]
        counters["engine.input_tuples"] = sum(m.input_tuples for m in prefix)
        counters["engine.join_comparisons"] = sum(m.join_comparisons for m in prefix)
        if recorder is not None:
            counters["store.segment_decodes"] = runner.prefix_decodes
    mismatches = check_determinism(args.workload, args.seed, args.trace, counters)
    for mismatch in mismatches:
        print(f"perfbench: determinism check failed: {mismatch}", file=sys.stderr)

    print("workload " + json.dumps({"name": args.workload, **layout}))
    shapes = per_shape_p50(records)
    if shapes:
        print("per-shape query_p50_ms " + json.dumps(shapes))
    reconciled = True
    append_s = [elapsed for _, writes in served for elapsed in writes.append_s]
    if recorder is not None:
        # Worker processes count into shared memory: [decodes, columns decoded, column segments scanned].
        workers = [now - then for now, then in zip(recorder.worker_counts, workers_at_setup)]
        decodes = recorder.decode_calls - decodes_at_setup + workers[0]
        metrics, breakdown = per_layer(records, probe.records, recorder, decodes, workers, append_s, tally)
        reconciled = breakdown["reconciled"]
        print("reconciliation " + json.dumps(breakdown))
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        recorder.dump(str(trace_path))
        print(f"trace written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(records, measured_s, setup_s, peak_mb, bytes_per_triple)
        # End-to-end figures that read 0 on some workloads, so not contract
        # metrics: printed here, reported per layer by traced runs.
        print(f"{'error_rate':34s} {tally.failed / max(tally.attempted, 1):14.4f} ratio")
        if append_s:
            print(f"{'append_p50_ms':34s} {statistics.median(append_s) * 1000.0:14.4f} ms")
    for note in tally.notes:
        print(f"perfbench: failure: {note}", file=sys.stderr)

    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:14.4f} {unit}")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0 and not mismatches and reconciled,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
