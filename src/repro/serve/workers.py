"""Process-based query workers.

:class:`PartitionWorkerPool` is a thin policy layer over
``concurrent.futures.ProcessPoolExecutor`` whose workers run two task kinds:

* **query tasks** — parse, compile and execute one whole SPARQL query on the
  worker's own read-only session.  This is the only thing
  ``execution_mode="process"`` means: whole queries run on worker processes
  (inter-query parallelism, which is what scales QPS past the GIL), while
  joins inside a query stay on the worker's thread runtime.
* **warm tasks** — decode one stored table inside the worker, filling its
  segment caches.  The scheduler uses these to prewarm broadcast-sized tables
  across the pool.

Each worker process opens the stored dataset **read-only, once**, and keeps
its decoded segment caches keyed by the manifest's append epoch: a task
carrying a different epoch than the worker's session makes the worker re-read
the manifest (the store's atomic-rename commit point makes that safe against
a concurrent append in the parent).  A concurrent compaction may delete the
segment files of the snapshot a worker holds; segment files are immutable and
uniquely named, so a task that hits a missing file re-reads the committed
manifest and runs once more.  Workers never write — appends and compactions
stay in the owning session's process, which also records every query in its
registry and journal.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, Optional, Sequence

from repro.obs.journal import fingerprint_text, template_text

#: Default worker count: enough to matter, small enough for CI machines.
DEFAULT_WORKER_PROCESSES = max(1, min(8, (os.cpu_count() or 2)))

#: Preferred multiprocessing start methods, best first.  ``fork`` gives
#: near-free worker startup on Linux (the dataset the parent already opened
#: is inherited copy-on-write); ``spawn`` is the portable fallback.
_START_METHODS = ("fork", "spawn")


def _mp_context():
    available = multiprocessing.get_all_start_methods()
    for method in _START_METHODS:
        if method in available:
            return multiprocessing.get_context(method)
    return multiprocessing.get_context()


# --------------------------------------------------------------------- #
# Worker-side state and task entry points (must stay module-level picklable)
# --------------------------------------------------------------------- #
_WORKER_DATASET_PATH: Optional[str] = None
_WORKER_SESSION_KNOBS: Dict[str, Any] = {}
_WORKER_SESSION = None


def _worker_init(dataset_path: str, session_knobs: Dict[str, Any]) -> None:
    global _WORKER_DATASET_PATH, _WORKER_SESSION_KNOBS, _WORKER_SESSION
    _WORKER_DATASET_PATH = dataset_path
    _WORKER_SESSION_KNOBS = dict(session_knobs)
    _WORKER_SESSION = None  # opened lazily by the first task


def _worker_session(epoch: Optional[int] = None):
    """The worker's read-only session, opened once and refreshed by epoch.

    The session caches decoded segments inside its stored-table providers;
    re-reading the manifest on an epoch change drops exactly the caches the
    mutation invalidated (re-registration per table), so the cache key is in
    effect ``(table, segment, epoch)``.
    """
    global _WORKER_SESSION
    if _WORKER_SESSION is None:
        from repro.core.session import S2RDFSession

        _WORKER_SESSION = S2RDFSession.open_dataset(
            _WORKER_DATASET_PATH,
            # Workers are single-query serial executors: process-level
            # parallelism comes from running many workers, not from nested
            # pools.  Journaling/tracing happen in the owning session.
            journal_enabled=False,
            tracing_enabled=False,
            **_WORKER_SESSION_KNOBS,
        )
    if epoch is not None and _WORKER_SESSION._journal_epoch != epoch:
        # The parent committed a mutation this worker has not seen (or the
        # task was scheduled against an older snapshot than the disk now
        # holds — refresh reads whatever manifest is committed, which is
        # always a consistent snapshot thanks to the atomic rename).
        _WORKER_SESSION._refresh_from_store()
    return _WORKER_SESSION


def _snapshot_read(session, read: Callable[[], Any]) -> Any:
    """Run ``read``, re-reading the manifest once if a segment file is gone.

    A compaction in the parent deletes the delta segments it folded, which
    the snapshot this worker holds may still reference.  Segment files are
    immutable and uniquely named, so re-reading the committed manifest and
    running ``read`` again is a clean read of the newer snapshot.
    """
    try:
        return read()
    except FileNotFoundError:
        session._refresh_from_store()
        return read()


def _run_warm_task(task: Dict[str, Any]) -> None:
    """Decode (and thereby cache) one stored table inside the worker."""
    session = _worker_session(task["epoch"])
    _snapshot_read(session, lambda: session.layout.catalog.scan(task["table"]))


def _run_query_task(task: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one whole SPARQL query on the worker's read-only session.

    The query is parsed once; the template, fingerprint and root estimate the
    parent journals all come from that parse.
    """
    session = _worker_session(task["epoch"])
    observed = task["observed"]
    if observed and session._journal_epoch == task["epoch"]:
        # Cross-query cardinality sharing: observations the parent collected
        # (from any worker) seed this worker's planner, keyed on the epoch
        # they were observed at.
        for name, rows in observed.items():
            session.layout.catalog.record_observed(name, rows)
    run = _snapshot_read(session, lambda: session._run(task["query"], estimate_root=True))
    template = template_text(run.parsed)
    return {
        "result": run.result,
        "template": template,
        "fingerprint": fingerprint_text(template),
        "estimated_rows": run.root_estimate,
        "epoch": run.result.epoch,
        "observed": dict(session.layout.catalog._observed),
    }


# --------------------------------------------------------------------- #
# The pool
# --------------------------------------------------------------------- #
class PartitionWorkerPool:
    """A persistent pool of query worker processes over one stored dataset.

    The pool is safe to share between the session's query threads and the
    scheduler — submission is thread-safe and workers are stateless between
    tasks apart from their epoch-keyed caches.
    """

    def __init__(
        self,
        dataset_path: str,
        num_workers: Optional[int] = None,
        session_knobs: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.dataset_path = dataset_path
        self.num_workers = num_workers or DEFAULT_WORKER_PROCESSES
        self.session_knobs = dict(session_knobs or {})
        self._executor: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------ #
    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.num_workers,
                mp_context=_mp_context(),
                initializer=_worker_init,
                initargs=(self.dataset_path, self.session_knobs),
            )
        return self._executor

    @property
    def started(self) -> bool:
        return self._executor is not None

    def start(self) -> None:
        """Spawn every worker now instead of on first task.

        With the ``fork`` start method, worker processes should be created
        before the session's query threads exist — forking a multi-threaded
        parent risks inheriting held locks.  ``ProcessPoolExecutor`` forks one
        process per submission until ``max_workers`` exist, so submitting that
        many no-op tasks forces the whole pool up front.
        """
        pool = self._pool()
        for future in [pool.submit(os.getpid) for _ in range(self.num_workers)]:
            future.result()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "PartitionWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Task APIs
    # ------------------------------------------------------------------ #
    def warm_tables(self, tables: Sequence[str], epoch: Optional[int] = None) -> int:
        """Best-effort cache warming: ask the pool to decode ``tables``.

        One warm task per (table, worker slot) is submitted, so idle workers
        populate their segment caches for the tables the scheduler expects to
        be broadcast.  Returns the number of warm tasks that completed
        (workers that were busy may be warmed by fewer tasks — this is an
        optimisation, never a correctness hook).
        """
        futures = [
            self._pool().submit(_run_warm_task, {"table": table, "epoch": epoch})
            for _ in range(self.num_workers)
            for table in tables
        ]
        for future in futures:
            future.result()
        return len(futures)

    def run_query(
        self,
        query_text: str,
        epoch: Optional[int] = None,
        observed: Optional[Dict[str, int]] = None,
    ) -> Dict[str, Any]:
        """Execute one whole query on a worker.

        Returns the :class:`~repro.core.results.QueryResult` under
        ``"result"`` plus what the parent records: the query's ``template``
        and ``fingerprint``, the planner's root ``estimated_rows``, the
        ``epoch`` the worker read and the cardinalities it ``observed``.
        """
        return self._pool().submit(
            _run_query_task,
            {"query": query_text, "epoch": epoch, "observed": dict(observed or {})},
        ).result()
