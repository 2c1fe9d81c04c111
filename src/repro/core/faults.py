"""Deterministic fault injection for the execution engine and storage I/O.

The resilience layer (pool restarts, retries, timeouts, degradation in
:mod:`repro.core.engine`; manifest-generation recovery in
:mod:`repro.textsearch.segments`) is only trustworthy if its failure paths
are exercised on a *schedule*, not by luck.  This module provides that
schedule:

* :class:`FaultPlan` -- a pure, picklable description of which worker task
  attempts and which I/O operations fail, and how.  Decisions are derived
  from ``sha256(seed, scope, index, attempt)``, so the same plan replays the
  same faults in every run, on every platform, with no mutable state to
  ship to worker processes.
* :class:`FaultInjector` -- the engine-side carrier: holds a plan plus the
  parent-side accounting of what actually fired.
* :func:`faulted_shard_task` -- the worker entry point the engine dispatches
  instead of :func:`repro.core.parallel.accumulate_terms` when an injector is
  installed.  It applies the planned fault (process kill, delay, transient
  or permanent error) and then runs the real kernel, so a surviving attempt
  produces bit-identical results.
* :func:`io_fault_hook` -- a hook for the storage layer's read/write call
  sites (see ``repro.textsearch.segments.install_io_fault_hook``) raising
  transient/permanent errors on the same kind of schedule.

Error types deliberately do **not** leak into the storage package's imports:
retry sites classify exceptions by the duck-typed ``transient`` attribute
(``getattr(exc, "transient", False)``), so any layer can participate without
importing this module.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable

__all__ = [
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "PermanentFaultError",
    "TransientFaultError",
    "faulted_shard_task",
    "io_fault_hook",
    "retryable",
]

#: Decision kinds a plan can emit for a worker task attempt.
KILL = "kill"
DELAY = "delay"
TRANSIENT = "transient"
PERMANENT = "permanent"

#: Exit code used for injected worker kills; visible in BrokenProcessPool
#: diagnostics and distinct from real crashes (which are typically signals).
KILL_EXIT_CODE = 73


class FaultError(RuntimeError):
    """Base class for injected faults."""

    #: Duck-typed retry marker: resilience layers retry exceptions whose
    #: ``transient`` attribute is true, without importing this module.
    transient = False


class TransientFaultError(FaultError):
    """An injected fault that a retry is expected to clear."""

    transient = True


class PermanentFaultError(FaultError):
    """An injected fault that must propagate to the caller (no retry)."""

    transient = False


def retryable(exc: BaseException, lost_attempt: tuple = ()) -> bool:
    """Whether a failed attempt may be tried again (the one retry predicate).

    ``lost_attempt`` are the exception classes that, for the calling layer's
    transport, mean "this attempt is lost but the work is intact" -- a broken
    pool or expired deadline for the engine, a dead connection or skewed
    replica for the scatter-gather.  Beyond those, any error whose duck-typed
    ``transient`` attribute is true is retryable; everything else --
    :class:`PermanentFaultError`, real bugs -- propagates to the caller.
    """
    return isinstance(exc, lost_attempt) or bool(getattr(exc, "transient", False))


def _draw(seed: int, scope: str, index: int, attempt: int) -> float:
    """Uniform [0, 1) draw, a pure function of the decision coordinates."""
    digest = hashlib.sha256(f"{seed}:{scope}:{index}:{attempt}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, stateless schedule of faults.

    Rate-driven faults draw once per ``(scope, index, attempt)`` coordinate:
    a retried task (same index, next attempt) gets an independent draw, so
    with rates below 1.0 retries eventually succeed.  Explicit schedules
    (``kill_at`` etc., sets of ``(index, attempt)`` pairs, and ``kill_every``)
    override the rates and make single-shot scenarios exact.

    Worker-task indices are call-local (a shard's position among the tasks
    one ``submit_batch`` call dispatches), so ``kill_at={(0, 0)}`` kills the
    first shard's first attempt of *every* engine call: one guaranteed
    recovery exercise per call.
    """

    seed: int = 0xFA117
    #: Probability a worker task attempt dies mid-shard (process exit).
    kill_rate: float = 0.0
    #: Probability a worker task attempt sleeps ``delay_seconds`` first.
    delay_rate: float = 0.0
    #: Probability a worker task attempt raises TransientFaultError.
    transient_rate: float = 0.0
    #: Probability a worker task attempt raises PermanentFaultError.
    permanent_rate: float = 0.0
    delay_seconds: float = 0.05
    #: Kill attempt 0 of every Nth task (task_index % kill_every == 0).
    kill_every: int | None = None
    #: Explicit (task_index, attempt) schedules; override everything else.
    kill_at: frozenset = frozenset()
    delay_at: frozenset = frozenset()
    transient_at: frozenset = frozenset()
    permanent_at: frozenset = frozenset()
    #: Probability an I/O operation raises TransientFaultError.
    io_transient_rate: float = 0.0
    #: Probability an I/O operation raises PermanentFaultError.
    io_permanent_rate: float = 0.0
    #: Explicit I/O schedules keyed by operation ordinal.
    io_transient_at: frozenset = frozenset()
    io_permanent_at: frozenset = frozenset()

    def decide(self, task_index: int, attempt: int) -> str | None:
        """The fault (if any) for one worker task attempt."""
        coordinate = (task_index, attempt)
        if coordinate in self.kill_at:
            return KILL
        if coordinate in self.delay_at:
            return DELAY
        if coordinate in self.transient_at:
            return TRANSIENT
        if coordinate in self.permanent_at:
            return PERMANENT
        if self.kill_every and attempt == 0 and task_index % self.kill_every == 0:
            return KILL
        draw = _draw(self.seed, "task", task_index, attempt)
        for rate, kind in (
            (self.kill_rate, KILL),
            (self.delay_rate, DELAY),
            (self.transient_rate, TRANSIENT),
            (self.permanent_rate, PERMANENT),
        ):
            if draw < rate:
                return kind
            draw -= rate
        return None

    def decide_io(self, op_index: int) -> str | None:
        """The fault (if any) for the ``op_index``-th I/O operation."""
        if op_index in self.io_transient_at:
            return TRANSIENT
        if op_index in self.io_permanent_at:
            return PERMANENT
        draw = _draw(self.seed, "io", op_index, 0)
        if draw < self.io_transient_rate:
            return TRANSIENT
        draw -= self.io_transient_rate
        if draw < self.io_permanent_rate:
            return PERMANENT
        return None

    def quiet(self) -> "FaultPlan":
        """A copy with every fault disabled (same seed; useful to compare)."""
        return replace(
            self,
            kill_rate=0.0,
            delay_rate=0.0,
            transient_rate=0.0,
            permanent_rate=0.0,
            kill_every=None,
            kill_at=frozenset(),
            delay_at=frozenset(),
            transient_at=frozenset(),
            permanent_at=frozenset(),
            io_transient_rate=0.0,
            io_permanent_rate=0.0,
            io_transient_at=frozenset(),
            io_permanent_at=frozenset(),
        )


@dataclass
class FaultInjector:
    """A plan plus parent-side accounting of the faults that fired.

    Installed on an :class:`~repro.core.engine.ExecutionEngine` (attribute
    ``fault_injector``) the engine ships ``(plan, task_index, attempt)`` to
    workers; the worker-side kill/delay/error accounting is therefore lost
    with the worker, and only parent-side observations (engine retry/restart
    counters, the I/O hook's ``io_faults``) are authoritative.
    """

    plan: FaultPlan = field(default_factory=FaultPlan)
    #: I/O operations intercepted by :meth:`io_hook` (parent-side).
    io_operations: int = 0
    #: I/O faults raised by :meth:`io_hook` (parent-side).
    io_faults: int = 0

    def io_hook(self) -> Callable[[str, str], None]:
        """A hook for ``repro.textsearch.segments.install_io_fault_hook``.

        Each intercepted operation consumes one ordinal from the plan's I/O
        schedule, in call order -- deterministic as long as the sequence of
        storage operations is.
        """

        def hook(op: str, path: str) -> None:
            index = self.io_operations
            self.io_operations += 1
            kind = self.plan.decide_io(index)
            if kind is None:
                return
            self.io_faults += 1
            error = TransientFaultError if kind == TRANSIENT else PermanentFaultError
            raise error(f"injected {kind} I/O fault #{index} during {op} of {path}")

        return hook


def io_fault_hook(plan: FaultPlan) -> Callable[[str, str], None]:
    """Convenience: an I/O hook for a bare plan (fresh injector)."""
    return FaultInjector(plan=plan).io_hook()


def _apply_task_fault(plan: FaultPlan, task_index: int, attempt: int) -> None:
    """Execute the planned fault for one worker task attempt, if any."""
    kind = plan.decide(task_index, attempt)
    if kind is None:
        return
    if kind == KILL:
        # A hard exit, not an exception: the pool observes a dead worker and
        # breaks, exactly like a segfault or OOM kill would present.
        os._exit(KILL_EXIT_CODE)
    if kind == DELAY:
        time.sleep(plan.delay_seconds)
        return
    error = TransientFaultError if kind == TRANSIENT else PermanentFaultError
    raise error(
        f"injected {kind} fault for task {task_index} attempt {attempt}"
    )


def faulted_shard_task(plan: FaultPlan, task_index: int, attempt: int, task):
    """Worker entry point: apply the planned fault, then run the real kernel.

    Dispatched by the engine in place of ``parallel.accumulate_terms`` when a
    :class:`FaultInjector` is installed.  A surviving attempt accumulates
    exactly like the clean path, so results stay bit-identical.
    """
    from repro.core import parallel

    _apply_task_fault(plan, task_index, attempt)
    return parallel.accumulate_terms(*task)


def exit_worker(code: int = KILL_EXIT_CODE) -> None:
    """Module-level task that kills its worker process outright.

    Useful to break a pool on purpose in tests (e.g. via
    ``engine.submit_task(faults.exit_worker)``).
    """
    os._exit(code)
