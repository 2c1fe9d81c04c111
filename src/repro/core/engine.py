"""Persistent execution engine: one resident worker pool for many queries.

:class:`ExecutionEngine` owns one long-lived thread pool for the server's
whole lifetime (``docs/architecture.md``, Layer 4, tells the dispatch ->
handle -> collect -> merge story end to end).  Workers are threads of the
serving process: a payload is handed over by reference and a task's kernel
fallbacks are booked where ``/metrics`` reads them.  They overlap only while
the compiled kernel has dropped the interpreter lock, so the serving
front-end builds an engine only once its backend resolved to ``cffi``.

Lifecycle
---------
``start()`` creates the pool eagerly; any dispatching call autostarts a
not-yet-started engine lazily.  ``shutdown()`` retires the pool permanently
-- dispatching afterwards raises ``RuntimeError`` -- and the engine is a
context manager whose exit is a ``shutdown()``.  The worker count is fixed at
construction: it is the one place a deployment's worker budget is decided,
and every batch is scheduled over all of it.

Scheduling
----------
:meth:`ExecutionEngine.submit_batch` implements **hybrid batch scheduling**:
with at least as many queries as workers it dispatches one task per query
(inter-query parallelism, merge-free); when the batch is *smaller* than the
pool it splits the leftover workers into intra-query shards of the heaviest
queries (:func:`repro.core.partitioning.proportional_shares`), so small
batches -- down to a batch of one, which is how a single query is sharded --
still saturate the pool.  Each query comes back as a
:class:`~repro.core.parallel.PendingResult` handle, which is what makes
**streaming delivery** possible: callers collect results as their futures
complete, in submission order, without waiting for the whole batch.  A task
that raises surfaces its exception from the handle's ``result()``, exactly
as the in-process kernel would; the pool stays usable.

Thread safety
-------------
Lifecycle transitions (``start``, ``shutdown`` and the lazy pool start
inside every dispatch) are serialised on an internal re-entrant lock, so an
engine shared between threads -- the serving front-end's sessions, or a
signal handler racing a ``with``-block exit -- never double-starts a pool
and ``shutdown`` is idempotent (see there).  Dispatch is safe from multiple
threads: ``ThreadPoolExecutor.submit`` is thread-safe, handles are
call-local, and the counters are updated under the same lock.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Sequence

from repro.core import parallel
from repro.core.partitioning import proportional_shares
from repro.crypto import numbertheory

__all__ = [
    "EngineCounters",
    "ExecutionEngine",
]


@dataclass
class EngineCounters:
    """Dispatch statistics accumulated over an engine's lifetime."""

    #: Worker pools created (at most 1: the pool starts once, lazily).
    pool_starts: int = 0
    #: Dispatching calls served by an already-running pool.
    pool_reuses: int = 0
    #: Worker tasks (shards or whole queries) submitted to the pool.
    tasks_dispatched: int = 0
    #: Queries routed through the engine (sharded singles and batch members).
    queries_executed: int = 0

    def reset(self) -> None:
        for spec in fields(self):
            setattr(self, spec.name, 0)


@dataclass
class ExecutionEngine:
    """A long-lived thread pool plus the scheduling that feeds it.

    Parameters
    ----------
    parallelism:
        Resident worker-thread count, fixed for the engine's lifetime
        (defaults to the machine's CPU count).
    """

    parallelism: int | None = None
    counters: EngineCounters = field(default_factory=EngineCounters)

    def __post_init__(self) -> None:
        if self.parallelism is None:
            self.parallelism = os.cpu_count() or 1
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        self._executor: ThreadPoolExecutor | None = None
        self._closed = False
        #: Serialises lifecycle transitions (pool start/shutdown) so a shared
        #: engine survives concurrent and re-entrant lifecycle calls;
        #: re-entrant because a signal handler may land mid-``shutdown``.
        self._lifecycle_lock = threading.RLock()

    # -- lifecycle ----------------------------------------------------------------
    @property
    def running(self) -> bool:
        """True while a worker pool is resident."""
        return self._executor is not None

    @property
    def closed(self) -> bool:
        """True once :meth:`shutdown` has retired the engine for good."""
        return self._closed

    def start(self) -> "ExecutionEngine":
        """Create the resident pool now (idempotent while running)."""
        self._acquire(reuse=False)
        return self

    def shutdown(self, wait: bool = True) -> None:
        """Retire the pool and the engine; further dispatching raises.

        Idempotent and safe to invoke concurrently or re-entrantly (a signal
        handler firing during a ``with``-block exit): the executor handoff
        happens under the lifecycle lock, so exactly one caller performs the
        drain and every other returns immediately instead of double-shutting
        the executor or deadlocking behind it.  With ``wait=True`` the
        draining caller blocks until in-flight tasks (including a streamed
        batch's shard futures) complete; ``wait=False`` returns at once --
        what finalizers need -- while the tasks still run to completion and
        the workers then exit on their own.  Either way pending handles
        resolve bit-identically after shutdown.
        """
        with self._lifecycle_lock:
            executor, self._executor = self._executor, None
            self._closed = True
        # Drain outside the lock: a second shutdown (or any lifecycle call)
        # must not block behind a wait=True drain that can take a while.
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "ExecutionEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "ExecutionEngine has been shut down; create a new engine instead "
                "of reusing a retired one"
            )

    def _acquire(self, reuse: bool = True, tasks: int = 0) -> ThreadPoolExecutor:
        """The resident executor, autostarting it, booked for ``tasks`` tasks.

        Runs under the lifecycle lock: two threads racing the lazy start get
        the same pool instead of creating (and leaking) two, and concurrent
        dispatchers never lose a counter update.
        """
        with self._lifecycle_lock:
            self._ensure_open()
            if self._executor is None:
                self._executor = ThreadPoolExecutor(max_workers=self.parallelism)
                self.counters.pool_starts += 1
            elif reuse:
                self.counters.pool_reuses += 1
            self.counters.tasks_dispatched += tasks
            return self._executor

    # -- dispatch -----------------------------------------------------------------
    def submit_batch(
        self,
        payloads: Sequence[Sequence[parallel.TermPayload]],
        modulus: int,
        backend: str | None = None,
    ) -> list[parallel.PendingResult]:
        """Dispatch a batch under hybrid scheduling; results stream in order.

        Returns one :class:`~repro.core.parallel.PendingResult` per query, in
        query order.  A single-query batch is hybrid-scheduled like any other
        (the whole pool shards that one query).  On an engine of one worker,
        or when the whole batch is at most one worker task, the handles defer
        the work in-process (each query accumulates when its result is first
        collected), which keeps streaming semantics without touching -- or
        starting -- the pool; an empty query reports zero shards.
        ``backend`` names what every task of the batch accumulates on,
        deferred or dispatched (``None``: the library default,
        :func:`repro.crypto.numbertheory.get_backend`).
        """
        with self._lifecycle_lock:
            self._ensure_open()
            self.counters.queries_executed += len(payloads)
        if backend is None:
            backend = numbertheory.get_backend()
        # Every query starts as a deferred in-process handle; dispatch below
        # replaces the handles of the queries that get worker tasks.
        pending = [
            parallel.PendingResult(modulus, payload=payload, backend=backend)
            for payload in payloads
        ]
        if self.parallelism <= 1:
            return pending
        # Per-entry costs are computed once and shared between the hybrid
        # plan (per-query sums) and the intra-query partition.
        cost_lists = [
            [parallel.term_cost(entry) for entry in payload] for payload in payloads
        ]
        plan = proportional_shares([sum(costs) for costs in cost_lists], self.parallelism)
        shard_groups = [
            parallel.partition_payload(payload, share, costs=costs)
            for payload, share, costs in zip(payloads, plan, cost_lists)
        ]
        tasks = sum(len(group) for group in shard_groups)
        if tasks <= 1:
            # At most one worker task in the whole batch (e.g. a single
            # single-term query): the pool cannot help, run in-process.
            return pending
        executor = self._acquire(tasks=tasks)
        for position, shards in enumerate(shard_groups):
            if not shards:
                continue  # empty query: nothing to dispatch, zero shards
            pending[position] = parallel.PendingResult(
                modulus,
                futures=[
                    executor.submit(parallel.accumulate_terms, shard, modulus, backend)
                    for shard in shards
                ],
            )
        return pending

    def run_batch(
        self,
        payloads: Sequence[Sequence[parallel.TermPayload]],
        modulus: int,
    ) -> list[tuple[dict[int, int], parallel.ShardCounts, int, int]]:
        """:meth:`submit_batch`, collected: per-query merged results in order."""
        pending = self.submit_batch(payloads, modulus)
        return [handle.result() for handle in pending]
