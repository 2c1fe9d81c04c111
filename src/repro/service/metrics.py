"""Structured request/latency metrics for the serving front-end.

Latency distributions are tracked per phase -- admission queue wait,
service time, whole-request wall clock, and per-query stream latency -- in
bounded reservoirs of the most recent samples, from which ``/metrics``
computes nearest-rank p50/p95/p99 on demand.  Alongside the distributions
the service keeps monotonic counters (requests, queries, 429/503
rejections), and ``/metrics`` merges in the per-tenant
:class:`~repro.core.server.ServerCounters` aggregates so one endpoint tells
the whole story: how much work arrived, how long it waited, where it ran,
and how execution survived (replica retries, degradations).

Everything here is touched only from the service's event loop, so no locks
are needed; the rollup objects are not thread-safe on their own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["LatencyRollup", "ServiceMetrics"]

#: Samples retained per rollup: enough for stable tail percentiles over the
#: recent window while bounding memory on long-lived services.
DEFAULT_CAPACITY = 2048


class LatencyRollup:
    """A bounded ring of recent latency samples with percentile snapshots."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self.count = 0
        self.total_ms = 0.0
        self.max_ms = 0.0
        self._ring: list[float] = []
        self._next = 0

    def record(self, ms: float) -> None:
        self.count += 1
        self.total_ms += ms
        if ms > self.max_ms:
            self.max_ms = ms
        if len(self._ring) < self.capacity:
            self._ring.append(ms)
        else:
            self._ring[self._next] = ms
            self._next = (self._next + 1) % self.capacity

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained window (0 when empty)."""
        if not self._ring:
            return 0.0
        ordered = sorted(self._ring)
        rank = min(len(ordered), max(1, -(-int(q * 100 * len(ordered)) // 100)))
        return ordered[rank - 1]

    def snapshot(self) -> dict:
        """``count``/``mean``/``p50``/``p95``/``p99``/``max`` in milliseconds."""

        def nearest(q: float) -> float:
            return round(self.percentile(q), 3)

        return {
            "count": self.count,
            "mean_ms": round(self.total_ms / self.count, 3) if self.count else 0.0,
            "p50_ms": nearest(0.50),
            "p95_ms": nearest(0.95),
            "p99_ms": nearest(0.99),
            "max_ms": round(self.max_ms, 3),
        }


@dataclass
class ServiceMetrics:
    """The service-wide counters and latency rollups behind ``/metrics``."""

    started: float = field(default_factory=time.monotonic)
    #: Batch requests accepted for execution (not rejected at admission).
    requests_admitted: int = 0
    #: Batch requests currently executing or queued.
    requests_active: int = 0
    #: Requests bounced with 429 because the pending queue was full.
    rejected_saturated: int = 0
    #: Requests bounced with 503 because the service was draining.
    rejected_draining: int = 0
    #: Requests that failed with an internal error after admission.
    requests_failed: int = 0
    #: Individual queries answered across all sessions.
    queries_total: int = 0
    #: Sessions opened / closed over the service lifetime.
    sessions_opened: int = 0
    sessions_closed: int = 0
    #: Time a request spent waiting for an execution slot.
    queue_wait: LatencyRollup = field(default_factory=LatencyRollup)
    #: Server time of a batch: dispatch through last result collected.
    service_time: LatencyRollup = field(default_factory=LatencyRollup)
    #: Whole-request wall clock (admission + accumulation + streaming writes).
    request_time: LatencyRollup = field(default_factory=LatencyRollup)
    #: Per-query latency: batch dispatch to that query's stream write.
    query_time: LatencyRollup = field(default_factory=LatencyRollup)

    def snapshot(self) -> dict:
        return {
            "uptime_s": round(time.monotonic() - self.started, 3),
            "requests": {
                "admitted": self.requests_admitted,
                "active": self.requests_active,
                "failed": self.requests_failed,
                "rejected_saturated": self.rejected_saturated,
                "rejected_draining": self.rejected_draining,
            },
            "sessions": {
                "opened": self.sessions_opened,
                "closed": self.sessions_closed,
            },
            "queries_total": self.queries_total,
            "latency_ms": {
                "queue_wait": self.queue_wait.snapshot(),
                "service_time": self.service_time.snapshot(),
                "request": self.request_time.snapshot(),
                "per_query": self.query_time.snapshot(),
            },
        }
