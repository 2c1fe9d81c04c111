"""Persistent execution engine: one resident worker pool for many queries.

:class:`ExecutionEngine` owns one long-lived pool for the server's whole
lifetime -- the resident-node-controller architecture of long-lived
data-parallel query engines -- so the path the paper's server-side cost model
(Section 5.2, Algorithm 4) says should be pure modular arithmetic pays the
fork/spawn cost once, not per query or batch.  (``docs/architecture.md``,
Layer 4, tells the dispatch -> handle -> collect/retry/degrade -> merge story
end to end.)

Lifecycle
---------
``start()`` forks the pool eagerly (workers warm up by pre-importing the
crypto layer; the backend a task runs on travels in the task); any dispatching
call autostarts a not-yet-started engine lazily.  ``shutdown()`` retires the pool
permanently -- dispatching afterwards raises ``RuntimeError`` -- and the
engine is a context manager whose exit is a ``shutdown()``.  The worker count
is fixed at construction: it is the one place a deployment's worker budget is
decided, and every batch is scheduled over all of it.

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
complete, in submission order, without waiting for the whole batch.

Fault tolerance
---------------
Collecting a handle survives worker death, hung tasks, and transient errors.
The accumulation kernel is an associative product in Z*_n, so re-running a
lost shard is idempotent down to the bit: the engine retires a broken pool
(``cancel_futures=True``), restarts it lazily, and re-dispatches *only the
lost shards* -- the same task tuple -- under :class:`RetryPolicy`'s
bounded, seeded-jitter backoff (clock and sleep injectable, so fault suites
run fast and deterministically).  A shard that exhausts its budget
**degrades** to in-process execution through the same kernel instead of
failing the query.  Every restart, retry, timeout and degradation is booked
on the lifetime :class:`EngineCounters` *and* on the handle whose collection
caused it -- the per-query numbers the server forwards into
:meth:`repro.core.costs.CostModel.pr_report`.  Installing a
:class:`repro.core.faults.FaultInjector` makes workers fail on a seeded
schedule: the test/bench substrate for all of the above.

Thread safety
-------------
Lifecycle transitions (``start``, ``shutdown``, broken-pool retirement, and
the lazy pool start inside every dispatch) are serialised on
an internal re-entrant lock, so an engine shared between threads -- the
serving front-end's sessions, or a signal handler racing a ``with``-block
exit -- never double-starts a pool and ``shutdown`` is idempotent (see
there).  Dispatch (``submit_task`` / ``submit_batch``) is safe from multiple
threads: ``ProcessPoolExecutor.submit`` is thread-safe and task indices are
call-local.  Resilience events are booked under the same lock, so per-query
attribution is exact however many sessions collect at once; the dispatch
statistics (``tasks_dispatched``, ``queries_executed``, ``pool_reuses``) are
plain integer updates.
"""

from __future__ import annotations

import hashlib
import os
import threading
import time
from concurrent.futures import BrokenExecutor, CancelledError, Future
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Callable, Iterator, Sequence

from repro.core import faults, parallel
from repro.core.partitioning import proportional_shares
from repro.crypto import numbertheory

__all__ = [
    "EngineCounters",
    "ExecutionEngine",
    "RetryPolicy",
]

#: Exceptions that mean "this attempt is lost but the task is retryable"
#: (see :func:`repro.core.faults.retryable`): pool loss, cancellation (a
#: sibling recovery retired the pool under this future), expired deadlines.
#: ``concurrent.futures.TimeoutError`` is a distinct class before 3.11.
_TIMEOUT_ERRORS = (TimeoutError, FuturesTimeoutError)
_LOST_ATTEMPT_ERRORS = (BrokenExecutor, CancelledError) + _TIMEOUT_ERRORS


def _pool_loss(exc: BaseException) -> bool:
    """Whether the failure implies the resident pool is unusable.

    A broken executor obviously is; a timeout means a worker slot is wedged
    on a hung task, so the pool restarts too (the hung worker would otherwise
    occupy a slot forever); a cancellation means some other recovery already
    retired it.  A transient *error* came from a healthy worker -- the pool
    survives.
    """
    return isinstance(exc, _LOST_ATTEMPT_ERRORS)


def _warm_worker() -> None:
    """Pool initializer: pre-import the crypto layer.

    Runs once per worker process at pool start, so the first real task does
    not pay the import cost of the crypto modules.  An optimisation, not a
    correctness requirement: tasks name their backend themselves.
    """
    from repro.crypto import benaloh, paillier  # noqa: F401  (import warm-up)


@dataclass
class RetryPolicy:
    """Deadline/retry/backoff knobs for shard collection.

    ``clock`` and ``sleep`` are injectable (monotonic seconds / blocking
    sleep) so fault-injection suites drive deadlines with a fake clock and
    collapse backoff waits to zero, keeping the whole suite deterministic
    and fast.  Jitter is seeded -- a pure function of ``(jitter_seed,
    task_index, attempt)`` -- never drawn from a shared RNG.
    """

    #: Re-dispatch attempts per task after the initial one; beyond this the
    #: task degrades to in-process sequential execution.
    max_retries: int = 3
    #: Per-attempt deadline in seconds (None: wait indefinitely).
    timeout: float | None = None
    #: First backoff delay; doubles per attempt up to ``backoff_max``.
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    jitter_seed: int = 0x5EED
    clock: Callable[[], float] = time.monotonic
    sleep: Callable[[float], None] = time.sleep

    def backoff(self, task_index: int, attempt: int) -> float:
        """Bounded exponential backoff with seeded jitter in [50%, 100%]."""
        if attempt <= 0 or self.backoff_base <= 0:
            return 0.0
        bounded = min(self.backoff_max, self.backoff_base * 2 ** (attempt - 1))
        digest = hashlib.sha256(
            f"{self.jitter_seed}:{task_index}:{attempt}".encode()
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return bounded * (0.5 + 0.5 * fraction)

    def attempts(self, key: int) -> Iterator[int]:
        """Attempt numbers ``0..max_retries``, backing off before each retry.

        The one retry loop: the engine collecting (then re-dispatching) a
        shard and the coordinator walking a shard's replicas both iterate
        this, so the budget, the backoff schedule and the injectable sleep
        mean the same thing at both levels.  ``key`` (task index / shard id)
        seeds the jitter.
        """
        for attempt in range(max(0, self.max_retries) + 1):
            delay = self.backoff(key, attempt)
            if delay > 0:
                self.sleep(delay)
            yield attempt


@dataclass
class EngineCounters:
    """Dispatch statistics accumulated over an engine's lifetime."""

    #: Worker pools forked/spawned (1 for life, plus one per pool restart).
    pool_starts: int = 0
    #: Dispatching calls served by an already-running pool -- the start-up
    #: cost these calls did *not* pay is the engine's whole reason to exist.
    pool_reuses: int = 0
    #: Worker tasks (shards or whole queries) submitted to the pool.  Counts
    #: initial dispatches only; re-dispatches show up in ``tasks_retried``.
    tasks_dispatched: int = 0
    #: Queries routed through the engine (sharded singles and batch members).
    queries_executed: int = 0
    #: Broken/hung pools retired by the recovery path (each restarts lazily,
    #: so a restart also increments ``pool_starts`` on the next dispatch).
    pool_restarts: int = 0
    #: Shard attempts re-dispatched after worker death/timeout/transient error.
    tasks_retried: int = 0
    #: Shard attempts that outlived their per-task deadline.
    tasks_timed_out: int = 0
    #: Queries that fell back to in-process sequential execution after a
    #: shard exhausted its retry budget (results stay bit-identical).
    degraded_queries: int = 0

    def reset(self) -> None:
        for spec in fields(self):
            setattr(self, spec.name, 0)


@dataclass
class ExecutionEngine:
    """A long-lived process pool plus the scheduling that feeds it.

    Parameters
    ----------
    parallelism:
        Resident worker-process count, fixed for the engine's lifetime
        (defaults to the machine's CPU count).
    retry_policy:
        Deadlines, retry budget, and backoff for shard collection.
    fault_injector:
        Optional :class:`repro.core.faults.FaultInjector`; when set, shard
        tasks run through :func:`repro.core.faults.faulted_shard_task` and
        fail on the injector's seeded schedule.
    """

    parallelism: int | None = None
    counters: EngineCounters = field(default_factory=EngineCounters)
    retry_policy: RetryPolicy = field(default_factory=RetryPolicy)
    fault_injector: faults.FaultInjector | None = None

    def __post_init__(self) -> None:
        if self.parallelism is None:
            self.parallelism = os.cpu_count() or 1
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        self._executor = None
        self._closed = False
        #: Serialises lifecycle transitions (pool start/retire/shutdown) so a
        #: shared engine survives concurrent and re-entrant lifecycle calls;
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
        """Fork the resident pool now (idempotent while running)."""
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
        resolve bit-identically after shutdown.  Tolerates a pool whose
        workers already died: shutting down a broken executor must never
        raise out of lifecycle paths.
        """
        with self._lifecycle_lock:
            executor, self._executor = self._executor, None
            self._closed = True
        # Drain outside the lock: a second shutdown (or any lifecycle call)
        # must not block behind a wait=True drain that can take a while.
        if executor is not None:
            try:
                executor.shutdown(wait=wait)
            except Exception:
                pass

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

    def _acquire(self, reuse: bool = True):
        """The resident executor, autostarting (and warm-up-initialising) it.

        A pool left broken by worker death is retired here and replaced, so
        every dispatch path -- including generic :meth:`submit_task` work --
        self-heals instead of rethrowing ``BrokenProcessPool`` forever.
        Runs under the lifecycle lock: two threads racing the lazy start get
        the same pool instead of forking (and leaking) two.
        """
        with self._lifecycle_lock:
            self._ensure_open()
            if self._executor is not None and getattr(self._executor, "_broken", False):
                self._retire_broken_pool()
            if self._executor is None:
                from concurrent.futures import ProcessPoolExecutor

                self._executor = ProcessPoolExecutor(
                    max_workers=self.parallelism,
                    initializer=_warm_worker,
                )
                self.counters.pool_starts += 1
            elif reuse:
                self.counters.pool_reuses += 1
            return self._executor

    def _book(self, handle, event: str) -> None:
        """Count one resilience event on the lifetime counters and on the
        handle whose collection caused it (``None``: a dispatch-time heal no
        query is waiting on).  Locked, so concurrent collectors never lose an
        update and per-handle sums equal the lifetime totals."""
        with self._lifecycle_lock:
            setattr(self.counters, event, getattr(self.counters, event) + 1)
            if handle is not None:
                setattr(handle, event, getattr(handle, event) + 1)

    def _retire_broken_pool(self, origin=None, handle=None) -> None:
        """Drop the resident pool after a failure; the next dispatch restarts.

        ``origin`` is the executor the failed future was dispatched on: when
        one worker death breaks a pool, every sibling future of that pool
        fails too, and each failure must retire the *old* pool only -- not
        the healthy replacement a sibling's recovery already started.
        Pending futures are cancelled rather than awaited -- with workers
        dead there is nothing to wait for, and cancelled siblings are healed
        by their own collection's retry path.
        """
        with self._lifecycle_lock:
            if origin is not None and self._executor is not origin:
                return
            executor, self._executor = self._executor, None
            if executor is None:
                return
            self._book(handle, "pool_restarts")
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    # -- dispatch -----------------------------------------------------------------
    def submit_task(self, fn, /, *args):
        """Dispatch one generic task to the resident pool; returns its future.

        This is the engine's background-work entry point for non-query
        maintenance -- most notably the segment-merge kernel dispatched by
        :meth:`repro.textsearch.inverted_index.InvertedIndex.begin_merges`,
        which lets index compaction overlap query serving on the same
        resident pool.  ``fn`` must be a module-level callable and the
        arguments picklable.  Generic tasks are *not*
        retried -- unlike the associative shard kernel, the engine cannot
        know an arbitrary ``fn`` is idempotent -- but a pool they broke is
        healed on the next acquire.
        """
        executor = self._acquire()
        self.counters.tasks_dispatched += 1
        return executor.submit(fn, *args)

    def _dispatch(self, executor, task, task_index: int, attempt: int = 0):
        """Submit one shard task; a failed submission becomes a failed future.

        Submission itself can raise (the pool broke while earlier tasks of
        the same call were being submitted); folding that into an
        exception-bearing future funnels every failure through the one
        recovery path in :meth:`_collect_partials`.
        """
        if self.fault_injector is not None:
            submission = (
                faults.faulted_shard_task,
                self.fault_injector.plan,
                task_index,
                attempt,
                task,
            )
        else:
            submission = (parallel.accumulate_terms, *task)
        try:
            future = executor.submit(*submission)
        except BaseException as exc:  # noqa: BLE001 -- folded into the future
            future = Future()
            future.set_exception(exc)
        future._origin_executor = executor
        return future

    def _wait(self, future, handle):
        """Await one shard future under the policy's per-attempt deadline."""
        policy = self.retry_policy
        if policy.timeout is None:
            return future.result()
        deadline = policy.clock() + policy.timeout
        try:
            return future.result(timeout=max(0.0, deadline - policy.clock()))
        except _TIMEOUT_ERRORS:
            self._book(handle, "tasks_timed_out")
            raise

    def _collect_partials(self, tasks, indices, futures, handle):
        """Gather one query's shard partials, healing lost attempts.

        The ``collect`` callable of every dispatched
        :class:`~repro.core.parallel.PendingResult`, and the engine's whole
        recovery path (module docstring, *Fault tolerance*): attempt 0 of a
        shard is the future dispatched with the batch; each retry
        re-dispatches the same task tuple at the same call-scoped index
        (``indices`` -- the fault-plan and jitter coordinates); a shard out
        of budget runs in-process.  Every restart, retry, timeout and
        degradation is booked on ``handle`` as well as the lifetime counters.
        """
        partials = []
        degraded = False
        for future, task, task_index in zip(futures, tasks, indices):
            for attempt in self.retry_policy.attempts(task_index):
                try:
                    if attempt:
                        self._book(handle, "tasks_retried")
                        executor = self._acquire(reuse=False)
                        future = self._dispatch(executor, task, task_index, attempt)
                    partials.append(self._wait(future, handle))
                    break
                except BaseException as exc:  # includes CancelledError
                    if not faults.retryable(exc, _LOST_ATTEMPT_ERRORS):
                        raise
                    if _pool_loss(exc):
                        self._retire_broken_pool(future._origin_executor, handle)
            else:
                partials.append(parallel.accumulate_terms(*task))
                degraded = True
        if degraded:
            self._book(handle, "degraded_queries")
        return partials

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
        starting -- the pool; an empty query reports zero shards.  Dispatched
        queries' handles collect through :meth:`_collect_partials`, healing
        worker death, deadlines and transient errors per shard.  ``backend``
        names what every task of the batch accumulates on, deferred or
        dispatched (``None``: the library default,
        :func:`repro.crypto.numbertheory.get_backend`).
        """
        self._ensure_open()
        if backend is None:
            backend = numbertheory.get_backend()
        self.counters.queries_executed += len(payloads)
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
        if sum(len(group) for group in shard_groups) <= 1:
            # At most one worker task in the whole batch (e.g. a single
            # single-term query): the pool cannot help, run in-process.
            return pending
        executor = self._acquire()
        task_index = 0
        for position, shards in enumerate(shard_groups):
            if not shards:
                continue  # empty query: nothing to dispatch, zero shards
            tasks = [(shard, modulus, backend) for shard in shards]
            self.counters.tasks_dispatched += len(tasks)
            futures = [
                self._dispatch(executor, task, task_index + offset)
                for offset, task in enumerate(tasks)
            ]
            indices = range(task_index, task_index + len(tasks))
            task_index += len(tasks)
            pending[position] = parallel.PendingResult(
                modulus,
                futures=futures,
                collect=partial(self._collect_partials, tasks, indices),
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
