"""Persistent execution engine: one resident worker pool for many queries.

:class:`ExecutionEngine` owns one long-lived thread pool for the server's
whole lifetime (``docs/architecture.md``, Layer 4, tells the dispatch ->
handle -> collect story end to end).  Workers are threads of the
serving process: a payload is handed over by reference and a task's kernel
fallbacks are booked where ``/metrics`` reads them.  They overlap only while
the compiled kernel has dropped the interpreter lock, and no measured shape
has shown them beating in-process, so nothing that serves builds one: the
service accumulates in-process and scales out by shards.  The engine stays
because ``benchmarks/e2e/layers.py`` still probes this placement
(``core.engine.*``); it goes when that probe does.

Lifecycle
---------
``start()`` creates the pool eagerly; any dispatching call autostarts a
not-yet-started engine lazily.  ``shutdown()`` retires the pool permanently
-- dispatching afterwards raises ``RuntimeError`` -- and the engine is a
context manager whose exit is a ``shutdown()``.  The worker count is fixed at
construction: it is the one place a deployment's worker budget is decided,
and every multi-query batch is dispatched on all of it.

Scheduling
----------
:meth:`ExecutionEngine.submit_batch` places **whole queries**: on an engine
of more than one worker, a batch with more than one non-empty query hands
each of them to the pool as one ``accumulate_terms`` task (merge-free);
anything else -- a batch of one, a one-worker engine -- accumulates
in-process and never starts or touches the pool.  Each query comes back as a
:class:`~repro.core.parallel.PendingResult` handle, which is what makes
**streaming delivery** possible: callers collect results as their futures
complete, in submission order, without waiting for the whole batch.  A task
that raises surfaces its exception from the handle's ``result()``, exactly
as the in-process kernel would; the pool stays usable.

Thread safety
-------------
Lifecycle transitions (``start``, ``shutdown`` and the lazy pool start
inside every dispatch) are serialised on an internal re-entrant lock, so an
engine shared between threads -- several servers, or a shutdown racing a
``with``-block exit -- never double-starts a pool
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
    #: Worker tasks (one whole query each) submitted to the pool.
    tasks_dispatched: int = 0
    #: Queries routed through the engine, dispatched or answered in-process.
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
        batch's futures) complete; ``wait=False`` returns at once --
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
    ) -> list[parallel.PendingResult]:
        """Dispatch a batch, one worker task per query; results stream in order.

        Returns one :class:`~repro.core.parallel.PendingResult` per query, in
        query order.  On an engine of one worker, or when at most one query
        of the batch has any terms, the handles defer the work in-process
        (each query accumulates when its result is first collected), which
        keeps streaming semantics without touching -- or starting -- the
        pool; an empty query is never dispatched and reports zero shards.
        """
        with self._lifecycle_lock:
            self._ensure_open()
            self.counters.queries_executed += len(payloads)
        tasks = sum(1 for payload in payloads if payload)
        executor = (
            self._acquire(tasks=tasks) if self.parallelism > 1 and tasks > 1 else None
        )
        return [
            parallel.PendingResult(
                modulus,
                payload,
                future=executor.submit(parallel.accumulate_terms, payload, modulus)
                if executor is not None and payload
                else None,
            )
            for payload in payloads
        ]

    def run_batch(
        self,
        payloads: Sequence[Sequence[parallel.TermPayload]],
        modulus: int,
    ) -> list[tuple[parallel.EncryptedResult, parallel.ServerCounters]]:
        """:meth:`submit_batch`, collected: per-query results in order."""
        pending = self.submit_batch(payloads, modulus)
        return [handle.result() for handle in pending]
