"""Run a :class:`RetrievalService` on a dedicated background thread.

The service is a pure-asyncio citizen; the tests are synchronous callers
(``scripts/serve.py`` and the benchmark's server child run the service with
``asyncio.run`` instead).  :class:`ServiceRunner` bridges the two: it spins up an event loop on a daemon thread, starts the
service there, hands the bound address back to the caller, and exposes
blocking ``drain()`` / ``stop()`` that marshal into the loop via
``asyncio.run_coroutine_threadsafe``.

Use as a context manager::

    with ServiceRunner(service) as (host, port):
        client = ServiceClient(host, port)
        ...
    # exiting drains gracefully: in-flight batches finish, 503 for new work
"""

from __future__ import annotations

import asyncio
import threading

from repro.service.app import RetrievalService

__all__ = ["ServiceRunner"]

#: How long :meth:`ServiceRunner.start` waits for the service to bind.
_STARTUP_TIMEOUT_S = 10.0


class ServiceRunner:
    """Own a service's event loop on a background thread."""

    def __init__(self, service: RetrievalService):
        self.service = service
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> tuple[str, int]:
        """Start the loop thread and the service; returns ``(host, port)``."""
        if self._thread is not None:
            raise RuntimeError("runner already started")
        self._thread = threading.Thread(
            target=self._run, name="retrieval-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(_STARTUP_TIMEOUT_S):
            raise RuntimeError("service failed to start within timeout")
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        assert self.service.address is not None
        return self.service.address

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            try:
                loop.run_until_complete(self.service.start())
            except BaseException as exc:
                self._startup_error = exc
                return
            finally:
                self._started.set()
            loop.run_forever()
        finally:
            # Drain any loose callbacks scheduled during shutdown, then close.
            loop.run_until_complete(asyncio.sleep(0))
            loop.close()

    def drain(self, wait: bool = True, timeout: float | None = None) -> None:
        """Gracefully drain the service from any thread (blocking)."""
        if self._loop is None:
            return
        future = asyncio.run_coroutine_threadsafe(
            self.service.drain(wait=wait), self._loop
        )
        future.result(timeout)

    def stop(self, timeout: float = 30.0) -> None:
        """Drain, stop the loop, and join the thread.  Idempotent."""
        if self._loop is None or self._thread is None:
            return
        try:
            self.drain(timeout=timeout)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)
            self._loop = None
            self._thread = None

    # -- context manager ----------------------------------------------------------
    def __enter__(self) -> tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
