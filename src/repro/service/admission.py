"""Admission control: bounded pending queue with explicit backpressure.

The serving process's CPU is a fixed resource; unbounded acceptance would
just move the queue into memory and turn overload into latency collapse.
The controller therefore admits at most ``max_active`` concurrently
executing batch requests, lets at most ``max_pending`` more wait their turn
(FIFO), and *refuses* everything beyond that immediately with
:class:`ServiceSaturatedError` -- which the HTTP layer answers as ``429``
with a ``Retry-After`` hint, the standard contract for load-shedding
clients.  The central invariant: **an admitted request is never dropped** --
queued requests always receive a slot (or a cancellation initiated by their
own client), and draining only stops *new* admissions.

Draining is the graceful-shutdown half of the same mechanism:
:meth:`AdmissionController.drain` flips the controller so new requests get
:class:`ServiceDrainingError` (``503``), while active and already-queued
work runs to completion; :meth:`wait_idle` resolves once the last admitted
request releases its slot.

Single event loop only: the controller relies on the loop's cooperative
scheduling instead of locks, so every method must be called from the
service's loop -- where admitted batches also accumulate, interleaving one
query at a time, so ``max_active`` bounds how many interleave.
"""

from __future__ import annotations

import asyncio
from collections import deque

__all__ = [
    "AdmissionController",
    "AdmissionPermit",
    "ServiceDrainingError",
    "ServiceSaturatedError",
]


class ServiceSaturatedError(RuntimeError):
    """Active slots and the pending queue are both full; retry later (429)."""

    def __init__(self, retry_after: float, detail: str) -> None:
        super().__init__(detail)
        self.retry_after = retry_after


class ServiceDrainingError(RuntimeError):
    """The service is draining and admits no new work (503)."""


class AdmissionPermit:
    """One granted execution slot; release exactly once (idempotent)."""

    def __init__(self, controller: "AdmissionController", queue_wait_s: float) -> None:
        self._controller = controller
        #: Seconds the request waited in the pending queue (0 if it ran at once).
        self.queue_wait_s = queue_wait_s
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._controller._release()

    def __enter__(self) -> "AdmissionPermit":
        return self

    def __exit__(self, *exc_info) -> None:
        self.release()


class AdmissionController:
    """Bounded active slots + bounded FIFO pending queue + drain latch."""

    def __init__(
        self,
        max_active: int,
        max_pending: int,
        retry_after: float = 1.0,
    ) -> None:
        if max_active < 1:
            raise ValueError("max_active must be at least 1")
        if max_pending < 0:
            raise ValueError("max_pending must be non-negative")
        self.max_active = max_active
        self.max_pending = max_pending
        self.retry_after = retry_after
        self._active = 0
        self._waiters: deque[asyncio.Future] = deque()
        self._draining = False
        self._idle = asyncio.Event()
        self._idle.set()

    # -- introspection ------------------------------------------------------------
    @property
    def active(self) -> int:
        return self._active

    @property
    def pending(self) -> int:
        return len(self._waiters)

    @property
    def draining(self) -> bool:
        return self._draining

    def snapshot(self) -> dict:
        return {
            "max_active": self.max_active,
            "max_pending": self.max_pending,
            "active": self._active,
            "pending": self.pending,
            "draining": self._draining,
        }

    # -- admission ----------------------------------------------------------------
    async def admit(self) -> AdmissionPermit:
        """Acquire an execution slot, queuing up to ``max_pending`` deep.

        Raises :class:`ServiceDrainingError` once :meth:`drain` has been
        called, and :class:`ServiceSaturatedError` (with the configured
        ``retry_after``) when both the active slots and the queue are full.
        A request cancelled *while queued* (its client went away) gives its
        claim back without consuming a slot.
        """
        if self._draining:
            raise ServiceDrainingError("service is draining; no new work admitted")
        if self._active < self.max_active:
            self._active += 1
            self._idle.clear()
            return AdmissionPermit(self, 0.0)
        if len(self._waiters) >= self.max_pending:
            raise ServiceSaturatedError(
                self.retry_after,
                f"{self._active} active and {len(self._waiters)} pending "
                f"requests (limits {self.max_active}/{self.max_pending})",
            )
        loop = asyncio.get_running_loop()
        waiter: asyncio.Future = loop.create_future()
        self._waiters.append(waiter)
        started = loop.time()
        try:
            await waiter
        except asyncio.CancelledError:
            if waiter.done() and not waiter.cancelled():
                # The slot was handed over in the same tick the client went
                # away; give it straight back so no capacity leaks.
                self._release()
            else:
                self._waiters.remove(waiter)
            raise
        # The releaser transferred its slot to this waiter: _active is
        # unchanged (the releaser's claim became ours).
        return AdmissionPermit(self, loop.time() - started)

    def _release(self) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.done():
                waiter.set_result(None)  # slot transferred, _active unchanged
                return
        self._active -= 1
        if self._active == 0:
            self._idle.set()

    # -- drain --------------------------------------------------------------------
    def drain(self) -> None:
        """Stop admitting; active and queued work still runs to completion."""
        self._draining = True
        if self._active == 0 and not self._waiters:
            self._idle.set()

    async def wait_idle(self) -> None:
        """Resolve once every admitted request has released its slot."""
        await self._idle.wait()
