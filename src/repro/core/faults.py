"""Retry policy and deterministic fault injection for replicas and storage I/O.

The recovery paths (replica failover in :mod:`repro.core.coordinator`;
manifest-generation recovery in :mod:`repro.textsearch.segments`) are only
trustworthy if they are exercised on a *schedule*, not by luck.  This module
provides the one retry policy and that schedule:

* :class:`RetryPolicy` / :func:`retryable` -- the budget, backoff and
  predicate of the one retry loop, the coordinator's walk over a shard's
  replicas (a remote replica is the one kind of worker that really dies).
* :class:`FaultPlan` -- a pure, frozen description of which replica calls
  and which I/O operations fail, and how.  Decisions are derived from
  ``sha256(seed, scope, index, attempt)``, so the same plan replays the same
  faults in every run, on every platform, with no mutable state.
* :class:`FaultInjector` -- a plan plus the accounting of the I/O faults that
  actually fired.
* :func:`io_fault_hook` -- a hook for the storage layer's read/write call
  sites (see ``repro.textsearch.segments.install_io_fault_hook``) raising
  :class:`PermanentFaultError` on the same kind of schedule.  Nothing
  retries storage I/O; these faults exercise the crash-recovery paths.

Error types deliberately do **not** leak into other packages' imports: the
retry predicate classifies exceptions by the duck-typed ``transient``
attribute (``getattr(exc, "transient", False)``), so a transport can mark
its errors retryable without importing this module.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

__all__ = [
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "PermanentFaultError",
    "RetryPolicy",
    "TransientFaultError",
    "io_fault_hook",
    "retryable",
]

#: Decision kinds a plan can emit for one attempt.
KILL = "kill"
TRANSIENT = "transient"
PERMANENT = "permanent"


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
    transport, mean "this attempt is lost but the work is intact" -- a dead
    connection or skewed replica for the scatter-gather.  Beyond those, any
    error whose duck-typed ``transient`` attribute is true is retryable;
    everything else -- :class:`PermanentFaultError`, real bugs -- propagates
    to the caller.
    """
    return isinstance(exc, lost_attempt) or bool(getattr(exc, "transient", False))


@dataclass
class RetryPolicy:
    """Retry budget and backoff for the coordinator's replica failover.

    ``sleep`` is injectable so failover suites collapse backoff waits to
    zero, keeping them deterministic and fast.  Jitter is seeded -- a pure
    function of ``(jitter_seed, key, attempt)`` -- never drawn from a shared
    RNG.
    """

    #: Attempts per shard after the initial one, spread over its replicas.
    max_retries: int = 3
    #: First backoff delay; doubles per attempt up to ``backoff_max``.
    backoff_base: float = 0.05
    backoff_max: float = 2.0
    jitter_seed: int = 0x5EED
    sleep: Callable[[float], None] = time.sleep

    def backoff(self, key: int, attempt: int) -> float:
        """Bounded exponential backoff with seeded jitter in [50%, 100%]."""
        if attempt <= 0 or self.backoff_base <= 0:
            return 0.0
        bounded = min(self.backoff_max, self.backoff_base * 2 ** (attempt - 1))
        return bounded * (0.5 + 0.5 * _draw(self.jitter_seed, key, attempt))

    def attempts(self, key: int) -> Iterator[int]:
        """Attempt numbers ``0..max_retries``, backing off before each retry.

        What the one retry loop (the coordinator's replica walk) iterates;
        ``key`` (the shard id) seeds the jitter.
        """
        for attempt in range(max(0, self.max_retries) + 1):
            delay = self.backoff(key, attempt)
            if delay > 0:
                self.sleep(delay)
            yield attempt


def _draw(*coordinates) -> float:
    """Uniform [0, 1) draw, a pure function of the decision coordinates."""
    digest = hashlib.sha256(":".join(map(str, coordinates)).encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, stateless schedule of faults.

    Rate-driven faults draw once per ``(scope, index, attempt)`` coordinate:
    a retry (same index, next attempt) gets an independent draw, so with
    rates below 1.0 retries eventually succeed.  Explicit schedules
    (``kill_at`` etc., sets of ``(index, attempt)`` pairs) override the rates
    and make single-shot scenarios exact.

    The task coordinates are whatever the injection site passes to
    :meth:`decide`: :class:`repro.core.coordinator.FaultedBackend` uses
    ``(replica_index, call)``, so ``kill_at={(0, 0)}`` kills replica 0 on its
    first call.
    """

    seed: int = 0xFA117
    #: Probability an attempt kills its replica (dead from then on).
    kill_rate: float = 0.0
    #: Probability an attempt raises TransientFaultError.
    transient_rate: float = 0.0
    #: Probability an attempt raises PermanentFaultError.
    permanent_rate: float = 0.0
    #: Explicit (task_index, attempt) schedules; override everything else.
    kill_at: frozenset = frozenset()
    transient_at: frozenset = frozenset()
    permanent_at: frozenset = frozenset()
    #: Probability an I/O operation raises PermanentFaultError.
    io_permanent_rate: float = 0.0
    #: Explicit I/O schedule keyed by operation ordinal.
    io_permanent_at: frozenset = frozenset()

    def decide(self, task_index: int, attempt: int) -> str | None:
        """The fault (if any) for one attempt at ``task_index``."""
        coordinate = (task_index, attempt)
        if coordinate in self.kill_at:
            return KILL
        if coordinate in self.transient_at:
            return TRANSIENT
        if coordinate in self.permanent_at:
            return PERMANENT
        draw = _draw(self.seed, "task", task_index, attempt)
        for rate, kind in (
            (self.kill_rate, KILL),
            (self.transient_rate, TRANSIENT),
            (self.permanent_rate, PERMANENT),
        ):
            if draw < rate:
                return kind
            draw -= rate
        return None

    def decide_io(self, op_index: int) -> str | None:
        """The fault (if any) for the ``op_index``-th I/O operation."""
        if (
            op_index in self.io_permanent_at
            or _draw(self.seed, "io", op_index, 0) < self.io_permanent_rate
        ):
            return PERMANENT
        return None


@dataclass
class FaultInjector:
    """A plan plus accounting of the I/O faults that fired."""

    plan: FaultPlan = field(default_factory=FaultPlan)
    #: I/O operations intercepted by :meth:`io_hook`.
    io_operations: int = 0
    #: I/O faults raised by :meth:`io_hook`.
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
            raise PermanentFaultError(
                f"injected {kind} I/O fault #{index} during {op} of {path}"
            )

        return hook


def io_fault_hook(plan: FaultPlan) -> Callable[[str, str], None]:
    """Convenience: an I/O hook for a bare plan (fresh injector)."""
    return FaultInjector(plan=plan).io_hook()
