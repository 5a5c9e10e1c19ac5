"""Per-layer numbers and their reconciliation with end-to-end latency.

Each measured query runs under a benchmark root span named ``request``
(tag ``query``).  Everything the query's thread calls into nests under it.
In process-mode serving, the scheduler's dispatcher threads do part of the
work (admission prewarm, the worker round trip, the journal write) while the
client waits; those spans are roots of their own, tagged ``query`` too.

Per query, the latency splits into:

* the self time of every layer span (a layer is the module it times);
  ``engine.execute`` is split into the physical-plan step the executor
  reports (``engine.plan``) and the rest, and a worker round trip
  (``serve.run_query``) into the worker-reported wall clock
  (``serve.worker``) and the rest (``serve.transport``);
* the admission-queue wait each handle reports (``serve.queue``);
* ``unaccounted``: root time no span or queue wait covers.

So the layer self times plus ``unaccounted`` equal the mean latency by
construction; the check that can fail is that ``unaccounted`` is not
negative, which would mean two spans were counted for the same time.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence

from spans import Span


def query_breakdown(spans: Sequence[Span], queue_ms: Sequence[float]) -> Dict[str, object]:
    """Mean per-query self time of every layer span, plus the reconciliation."""
    self_s: Dict[str, float] = defaultdict(float)
    requests = 0
    request_s = request_self_s = orphan_s = 0.0
    for span in spans:
        if span.tag != "query":
            continue
        if span.name == "request":
            requests += 1
            request_s += span.duration_s
            request_self_s += span.self_s
            continue
        if span.parent is None:
            orphan_s += span.duration_s
        if span.name == "engine.execute":
            plan_s = span.attrs["plan_ms"] / 1000.0
            self_s["engine.plan"] += plan_s
            self_s["engine.execute"] += span.self_s - plan_s
        elif span.name == "serve.run_query":
            worker_s = span.attrs["worker_ms"] / 1000.0
            self_s["serve.worker"] += worker_s
            self_s["serve.transport"] += span.self_s - worker_s
        else:
            self_s[span.name] += span.self_s
    queue_s = sum(queue_ms) / 1000.0
    if queue_ms:
        self_s["serve.queue"] += queue_s
    if not requests:
        return {"requests": 0, "layers_ms": {}, "unaccounted_ms": 0.0, "mean_latency_ms": 0.0, "reconciled": False}
    unaccounted_s = request_self_s - orphan_s - queue_s
    layers_ms = {name: value * 1000.0 / requests for name, value in sorted(self_s.items())}
    mean_ms = request_s * 1000.0 / requests
    unaccounted_ms = unaccounted_s * 1000.0 / requests
    return {
        "requests": requests,
        "mean_latency_ms": mean_ms,
        "layers_ms": layers_ms,
        "unaccounted_ms": unaccounted_ms,
        "reconciled": unaccounted_ms >= -0.01 * mean_ms,
    }


def durations_s(spans: Sequence[Span], name: str, tag: str) -> List[float]:
    return [span.duration_s for span in spans if span.name == name and span.tag == tag]


def attr_values(spans: Sequence[Span], name: str, tag: str, key: str) -> List[float]:
    return [span.attrs[key] for span in spans if span.name == name and span.tag == tag]


def segment_cache_hit_rate(
    spans: Sequence[Span], worker_scanned: int = 0, worker_decoded: int = 0, tag: str = "query"
) -> float:
    """Share of requested column segments served without a decode.

    Scans report the column segments they read (``scanned``); decodes report
    the columns they decoded.  Worker processes add their own totals.  A
    stretch with no segment reads has no misses.
    """
    requested = sum(attr_values(spans, "store.scan", tag, "scanned")) + worker_scanned
    decoded = sum(attr_values(spans, "store.decode", tag, "columns")) + worker_decoded
    if not requested:
        return 1.0
    return max(0.0, 1.0 - decoded / requested)
