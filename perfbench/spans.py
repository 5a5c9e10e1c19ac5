"""In-memory spans around calls into the program's layers.

The benchmark times each layer from the outside: :func:`install` replaces a
public function or method of a ``repro`` module with a wrapper that records a
span (name, start, end, parent) around the original call.  Nothing inside
``src/`` records anything.  Spans stay in memory until :meth:`Recorder.dump`
writes them as a Chrome trace at the end of the run.

A span's *self time* is its duration minus the time its direct children
covered.  Spans nest per thread; a span opened with an empty stack is a root.
Roots opened by the benchmark itself (one per measured operation) carry a
``tag`` that every descendant inherits, so the aggregation knows which spans
belong to measured queries.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class Span:
    __slots__ = ("name", "tag", "start", "end", "parent", "child_s", "thread", "attrs")

    def __init__(self, name: str, tag: str, parent: Optional["Span"], thread: int) -> None:
        self.name = name
        self.tag = tag
        self.parent = parent
        self.thread = thread
        self.child_s = 0.0
        self.attrs: Optional[Dict[str, Any]] = None
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s


class Recorder:
    """Collects spans while ``active``; counts segment decodes always.

    Worker processes forked from this one (process-mode serving) record no
    spans, but they add their segment decodes and scanned column segments to
    :attr:`worker_counts`, a shared-memory array created before they fork.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.active = False
        #: Tag given to roots opened by the program's own threads (the
        #: scheduler's dispatchers), which have no benchmark root above them.
        self.orphan_tag = "setup"
        #: Segment decodes since the last :meth:`reset_decodes`, counted in
        #: traced and untraced stretches alike.
        self.decode_calls = 0
        self.decoded_values = 0
        #: Distinct (segment file, column) pairs decoded: the working set.
        self.decoded_set: set = set()
        #: Workers' [decode calls, columns decoded, column segments scanned].
        self.worker_counts = multiprocessing.RawArray("q", 3)
        self.worker_lock = multiprocessing.Lock()
        self._pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, tag: Optional[str] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if tag is None:
            tag = parent.tag if parent is not None else self.orphan_tag
        span = Span(name, tag, parent, threading.get_ident())
        stack.append(span)
        return span

    def finish(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.duration_s
        with self._lock:
            self.spans.append(span)

    def reset_decodes(self) -> None:
        self.decode_calls = self.decoded_values = 0
        self.decoded_set = set()
        with self.worker_lock:
            self.worker_counts[:] = [0, 0, 0]

    def in_worker(self) -> bool:
        return os.getpid() != self._pid

    def count_in_worker(self, decodes: int, columns: int, scanned: int) -> None:
        with self.worker_lock:
            self.worker_counts[0] += decodes
            self.worker_counts[1] += columns
            self.worker_counts[2] += scanned

    def recording(self) -> bool:
        # Forked worker processes inherit the wrappers; they record no spans.
        return self.active and not self.in_worker()

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable[[Span, tuple, Any], None]] = None,
    ) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.recording():
                return fn(*args, **kwargs)
            span = recorder.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.finish(span)
            if after is not None:
                after(span, args, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        """Write every span as a Chrome trace (``chrome://tracing``)."""
        base = min((span.start for span in self.spans), default=0.0)
        events = [
            {
                "name": span.name,
                "cat": span.tag,
                "ph": "X",
                "ts": (span.start - base) * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": self._pid,
                "tid": span.thread,
                "args": span.attrs or {},
            }
            for span in self.spans
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)


def install(recorder: Recorder) -> None:
    """Wrap the public entry points of every layer, for the rest of the process."""
    import repro.core.session as session_mod
    import repro.store.reader as reader_mod
    from repro.core.compiler import CompiledQuery, QueryCompiler
    from repro.core.results import QueryResult
    from repro.engine.runtime.executor import ParallelExecutor
    from repro.mappings.extvp import ExtVPLayout
    from repro.obs.journal import QueryJournal
    from repro.serve.scheduler import QueryScheduler
    from repro.serve.workers import PartitionWorkerPool
    from repro.store.reader import StoredTable
    from repro.store.writer import DatasetAppender, DatasetCompactor, DatasetWriter

    def set_attrs(span: Span, **values: Any) -> None:
        span.attrs = values

    def after_execute(span, args, _result):
        set_attrs(span, plan_ms=args[0].last_plan_ms)

    def after_scan(span, _args, result):
        set_attrs(span, scanned=result.segments_scanned, pruned=result.segments_pruned)

    def after_to_dicts(span, _args, rows):
        # Every workload query is a plain BGP: all projected variables are bound.
        set_attrs(span, terms=len(rows) * len(rows[0]) if rows else 0)

    def after_build(span, args, _result):
        set_attrs(span, extvp_tables=args[0].table_counts()["extvp"])

    def after_append(span, _args, report):
        set_attrs(
            span,
            delta_segments=report.delta_segments,
            bytes=report.bytes_written,
            triples=report.triples_appended,
        )

    def after_compact(span, _args, report):
        set_attrs(span, bytes=report.bytes_written)

    def after_run_query(span, _args, outcome):
        set_attrs(span, worker_ms=outcome["result"].wall_clock_ms)

    def counting_decoder(fn: Callable) -> Callable:
        traced = recorder.wrap(
            "store.decode", fn, lambda span, _args, decoded: set_attrs(span, columns=len(decoded))
        )

        @functools.wraps(fn)
        def wrapper(path, columns=None):
            if recorder.in_worker():
                decoded = fn(path, columns)
                recorder.count_in_worker(1, len(decoded), 0)
                return decoded
            decoded = traced(path, columns)
            with recorder._lock:
                recorder.decode_calls += 1
                for column, ids in decoded.items():
                    recorder.decoded_values += len(ids)
                    recorder.decoded_set.add((path, column))
            return decoded

        return wrapper

    def counting_scan(fn: Callable) -> Callable:
        traced = recorder.wrap("store.scan", fn, after_scan)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if recorder.in_worker():
                result = fn(*args, **kwargs)
                recorder.count_in_worker(0, 0, result.segments_scanned)
                return result
            return traced(*args, **kwargs)

        return wrapper

    targets = [
        (session_mod, "parse_query", "sparql.parse", None),
        (QueryCompiler, "compile", "core.compile", None),
        (CompiledQuery, "sql", "core.sql_render", None),
        (ParallelExecutor, "execute", "engine.execute", after_execute),
        (QueryJournal, "append", "obs.journal", None),
        (QueryResult, "to_dicts", "rdf.decode", after_to_dicts),
        (ExtVPLayout, "build", "mappings.extvp_build", after_build),
        (DatasetWriter, "write", "store.save", None),
        (session_mod, "_open_stored_dataset", "store.open", None),
        (DatasetAppender, "append", "store.append", after_append),
        (session_mod, "_refresh_stored_dataset", "store.refresh", None),
        (DatasetCompactor, "compact", "store.compact", after_compact),
        (QueryScheduler, "submit", "serve.submit", None),
        (QueryScheduler, "prewarm", "serve.prewarm", None),
        (PartitionWorkerPool, "run_query", "serve.run_query", after_run_query),
    ]
    for owner, attribute, name, after in targets:
        setattr(owner, attribute, recorder.wrap(name, owner.__dict__[attribute], after))
    for attribute in ("scan", "scan_batch"):
        setattr(StoredTable, attribute, counting_scan(StoredTable.__dict__[attribute]))
    for attribute in ("read_segment_file", "read_segment_arrays"):
        setattr(reader_mod, attribute, counting_decoder(getattr(reader_mod, attribute)))
