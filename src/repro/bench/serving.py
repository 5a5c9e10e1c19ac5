"""Closed-loop multi-client serving benchmark on WatDiv Basic.

N client threads each run a private shuffled copy of the WatDiv Basic query
mix through one :class:`~repro.serve.scheduler.QueryScheduler` in a closed
loop (submit → await result → next query), at 1, 4 and 16 concurrent
clients.  The scheduler executes on a persisted dataset in
``execution_mode="process"`` — whole queries dispatch to the query worker
pool, so concurrent clients actually run on multiple cores instead of
time-slicing the GIL.

Every result collected during the timed runs is bag-equality-checked against
a serial single-threaded execution of the same query before any number is
reported (a throughput number for wrong answers is worthless).  Reported per
client level: total wall clock, per-query latency p50/p99, and QPS.  The
headline is the *scaling* ratio QPS(16 clients) / QPS(1 client); full
(non-smoke) mode asserts it meets ``require_scaling`` (the ISSUE's >= 2x
acceptance bar).  QPS and the scaling ratio are rendered as strings on
purpose: run-to-run noisy ratios must not become gated counters in the
machine-readable output.

Run directly (used by CI in smoke mode)::

    PYTHONPATH=src python -c "from repro.bench.serving import main; main(['--smoke', '--json'])"
"""

from __future__ import annotations

import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.reporting import ExperimentReport, write_bench_json
from repro.core.config import ServingConfig
from repro.core.session import S2RDFSession
from repro.watdiv.basic_queries import BASIC_TEMPLATES
from repro.watdiv.generator import WatDivDataset, generate_dataset
from repro.watdiv.template import instantiate_template


def _bag(relation) -> List[str]:
    return sorted(map(repr, relation.rows))


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def _run_client_level(
    session: S2RDFSession,
    serving: ServingConfig,
    queries: List[Tuple[str, str]],
    clients: int,
    reference: Dict[str, List[str]],
) -> Tuple[float, List[float], int, int]:
    """One closed-loop load level: returns (wall_ms, latencies, queries, mismatches)."""
    mismatches = [0]
    latencies: List[float] = []
    latency_lock = threading.Lock()

    with session.serve(serving=serving) as scheduler:
        # Warm the pool/caches outside the timed window (worker cold opens
        # and first-touch segment decodes are startup costs, not throughput).
        scheduler.submit(queries[0][1]).result(timeout=120)

        def client(offset: int) -> None:
            # Each client walks the mix from its own offset so concurrent
            # clients exercise different queries at any instant.
            own: List[float] = []
            for step in range(len(queries)):
                name, text = queries[(offset + step) % len(queries)]
                start = time.perf_counter()
                result = scheduler.submit(text).result(timeout=300)
                own.append((time.perf_counter() - start) * 1000.0)
                if _bag(result.relation) != reference[name]:
                    with latency_lock:
                        mismatches[0] += 1
            with latency_lock:
                latencies.extend(own)

        threads = [
            threading.Thread(target=client, args=(i * 3,), name=f"client-{i}")
            for i in range(clients)
        ]
        wall_start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_ms = (time.perf_counter() - wall_start) * 1000.0
    return wall_ms, latencies, clients * len(queries), mismatches[0]


def run_serving(
    scale_factor: float = 20.0,
    seed: int = 42,
    client_levels: Sequence[int] = (1, 4, 16),
    num_partitions: int = 2,
    worker_processes: Optional[int] = None,
    require_scaling: Optional[float] = 2.0,
    dataset: Optional[WatDivDataset] = None,
) -> ExperimentReport:
    """Measure closed-loop serving throughput at increasing client counts.

    ``require_scaling`` (when not ``None``) asserts QPS at the highest client
    level reaches that multiple of single-client QPS — smoke mode passes
    ``None`` because two-core CI runners cannot promise parallel speedups.
    """
    dataset = dataset if dataset is not None else generate_dataset(scale_factor=scale_factor, seed=seed)
    queries = [
        (template.name, instantiate_template(template, dataset))
        for template in BASIC_TEMPLATES
    ]

    report = ExperimentReport(
        name="Concurrent serving — closed-loop clients on the process worker pool",
        description=(
            f"WatDiv Basic mix at scale factor {dataset.scale_factor:g}, persisted dataset "
            f"({num_partitions} partition(s)), execution_mode='process'. Each client runs the "
            f"{len(queries)}-query mix once, closed loop, through one QueryScheduler; results "
            "are bag-equality-checked against serial execution. qps and the scaling ratio are "
            "text (noisy ratios are not gated counters)."
        ),
        columns=["clients", "queries", "rows", "wall_ms", "p50_ms", "p99_ms", "qps"],
    )

    qps_by_level: Dict[int, float] = {}
    total_mismatches = 0
    with tempfile.TemporaryDirectory() as root:
        path = f"{root}/dataset"
        builder = S2RDFSession.from_graph(
            dataset.graph, num_partitions=num_partitions, journal_enabled=False
        )
        builder.save_dataset(path)
        builder.close()

        # Serial single-threaded reference: the bag every concurrent result
        # must reproduce, and the row counts reported per level.
        serial = S2RDFSession.open_dataset(path, journal_enabled=False)
        reference = {name: _bag(serial.query(text).relation) for name, text in queries}
        reference_rows = sum(len(bag) for bag in reference.values())
        serial.close()

        session = S2RDFSession.open_dataset(
            path,
            journal_enabled=False,
            execution_mode="process",
            worker_processes=worker_processes,
        )
        try:
            for clients in client_levels:
                serving = ServingConfig(
                    # One dispatcher per client keeps the closed loop from
                    # queueing behind an artificially small concurrency cap;
                    # the worker pool bounds true parallelism.
                    max_concurrent_queries=max(4, clients),
                    admission_queue_limit=max(64, clients * len(queries)),
                    # Clients run identical texts at different times; sharing
                    # would let coalescing fake the throughput numbers.
                    share_results=False,
                )
                wall_ms, latencies, executed, mismatches = _run_client_level(
                    session, serving, queries, clients, reference
                )
                total_mismatches += mismatches
                latencies.sort()
                qps = executed / (wall_ms / 1000.0) if wall_ms > 0 else 0.0
                qps_by_level[clients] = qps
                report.add_row(
                    clients=clients,
                    queries=executed,
                    rows=reference_rows * clients,
                    wall_ms=round(wall_ms, 3),
                    p50_ms=round(_percentile(latencies, 0.50), 3),
                    p99_ms=round(_percentile(latencies, 0.99), 3),
                    qps=f"{qps:.1f}",
                )
        finally:
            session.close()

    assert total_mismatches == 0, f"{total_mismatches} results diverged from serial execution"

    low = min(client_levels)
    high = max(client_levels)
    scaling = qps_by_level[high] / qps_by_level[low] if qps_by_level[low] > 0 else 0.0
    report.add_note(
        f"QPS {qps_by_level[low]:.1f} at {low} client(s) -> {qps_by_level[high]:.1f} at "
        f"{high} clients ({scaling:.2f}x)"
    )
    report.add_note(
        f"every result bag-equality-checked against serial execution "
        f"({len(queries)} distinct queries, 0 mismatches)"
    )
    report.stash = {
        "client_levels": list(client_levels),
        "queries_per_client": len(queries),
        "mismatches": 0,  # asserted above
        "qps": {str(level): qps for level, qps in qps_by_level.items()},
        "scaling": scaling,
    }
    if require_scaling is not None:
        assert scaling >= require_scaling, (
            f"QPS scaling {scaling:.2f}x at {high} clients below required "
            f"{require_scaling:.2f}x"
        )
    return report


def main(argv: Optional[Sequence[str]] = None) -> None:
    import argparse

    parser = argparse.ArgumentParser(description="Closed-loop multi-client serving benchmark")
    parser.add_argument("--scale", type=float, default=20.0, help="WatDiv-like scale factor")
    parser.add_argument(
        "--workers", type=int, default=None, help="query worker processes (default: auto)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI mode: tiny scale, 1/4 clients, asserts bag-equality but not the scaling gate",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="also write machine-readable benchmarks/output/BENCH_serving.json",
    )
    args = parser.parse_args(argv)
    smoke = args.smoke
    report = run_serving(
        scale_factor=min(args.scale, 1.0) if smoke else args.scale,
        client_levels=(1, 4) if smoke else (1, 4, 16),
        worker_processes=args.workers if args.workers is not None else (2 if smoke else None),
        require_scaling=None if smoke else 2.0,
    )
    print(report.to_text())
    if args.json:
        print(f"wrote {write_bench_json(report, 'serving')}")
    assert report.stash["mismatches"] == 0
    print(
        f"equality check passed on {report.stash['queries_per_client']} queries; "
        f"QPS scaling {report.stash['scaling']:.2f}x"
    )


if __name__ == "__main__":
    main()
