"""Shard-server processes and cluster assembly for distributed serving.

This module wires the pieces of the scatter-gather architecture together:

* :class:`HttpShardBackend` -- the transport the
  :class:`~repro.core.coordinator.QueryCoordinator` speaks to a remote shard
  replica: ``POST /shards/{tenant}/partials`` against any
  :class:`~repro.service.app.RetrievalService` serving that shard's index,
  decoding the epoch-stamped, modulus-tagged
  :class:`~repro.core.coordinator.ShardResponse`.  Failures come back typed
  (:class:`~repro.service.client.ServiceUnavailableError`, plain
  ``ConnectionError``), all duck-typed retryable, so the coordinator's
  replica failover treats a remote replica exactly like a local one.
* :class:`ShardServerProcess` -- one shard replica as a real OS process
  (``python -m repro.service.cluster`` serving one shard directory),
  reporting its ephemeral port on stdout.  Processes, not threads: shard
  accumulation is CPU-bound, and the point of scattering is to run on
  cores the GIL would otherwise serialise -- so a shard server
  accumulates in-process and nests no worker pool of its own.
* :class:`LocalShardCluster` -- a whole topology on one machine: split a
  saved :func:`~repro.core.partitioning.save_sharded` layout into N shard
  processes x R replicas, hand out coordinator-ready
  :class:`~repro.core.coordinator.ShardTopology` objects with the layout's
  epochs pinned, and kill/terminate replicas on demand (failover drills and
  the ``distributed_scatter_gather`` bench use exactly this).

The wire format never assumes same-box: addresses are ``(host, port)``
pairs, and everything a backend needs travels in the request.
"""

from __future__ import annotations

import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.core.coordinator import QueryCoordinator, ShardResponse, ShardTopology
from repro.core.faults import RetryPolicy
from repro.core.partitioning import ShardedIndexLayout, load_sharded
from repro.service.client import ServiceClient

__all__ = [
    "HttpShardBackend",
    "LocalShardCluster",
    "ShardServerProcess",
]


@dataclass
class HttpShardBackend:
    """A remote shard replica, addressed over the partials route.

    Duck-types the coordinator's backend protocol
    (``accumulate(subqueries) -> ShardResponse``) over HTTP.  Each call is
    one request (the scatter is already batched per shard) in the frame
    codec, through
    :meth:`~repro.service.client.ServiceClient.shard_partials` on
    ``client``, which keeps its connection to the replica between calls.  A
    dead replica still fails fast and retryable: a kept connection the
    replica dropped is retried once on a fresh one, which is refused.

    Without a ``client`` the backend makes its own and :meth:`close` closes
    it.  A caller that passes one shares it among many backends (a front
    end's sessions share one per replica, since the public key travels in
    each request) and closes it itself.
    """

    host: str
    port: int
    tenant: str
    public_key: object
    timeout: float = 60.0
    client: ServiceClient | None = field(default=None, repr=False)
    _owns_client: bool = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._owns_client = self.client is None
        if self._owns_client:
            self.client = ServiceClient(self.host, self.port, timeout=self.timeout)

    def accumulate(
        self, subqueries: Sequence[tuple[Sequence[str], Sequence[int]]]
    ) -> ShardResponse:
        return self.client.shard_partials(self.tenant, self.public_key, subqueries)

    def close(self) -> None:
        """Close the backend's own client's kept connection (a coordinator's
        ``close`` does); a shared client stays open."""
        if self._owns_client:
            self.client.close()


@dataclass
class ShardServerProcess:
    """One shard replica running as a child process.

    The child is ``python -m repro.service.cluster --serve-shard`` binding an
    ephemeral port and printing ``HOST PORT`` on stdout once listening; the
    parent blocks on that line, so a returned instance is always ready to
    answer.  Its stderr is the parent's, so a shard server's kernel-downgrade
    warning or traceback is never swallowed.  ``kill()`` is the failover
    drill (SIGKILL, no drain -- the coordinator must discover the death via
    connection errors); ``terminate()`` asks politely.
    """

    index_dir: Path
    tenant: str
    host: str = "127.0.0.1"
    process: subprocess.Popen = field(init=False, repr=False)
    address: tuple[str, int] = field(init=False)

    def __post_init__(self) -> None:
        # The child must find the repro package no matter how the parent was
        # launched (pytest rootdir, an installed checkout, PYTHONPATH=src).
        package_root = str(Path(__file__).resolve().parents[2])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [package_root, env.get("PYTHONPATH", "")]
        ).rstrip(os.pathsep)
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-Wignore::RuntimeWarning:runpy",  # the package imports this module
                "-m",
                "repro.service.cluster",
                "--serve-shard",
                str(self.index_dir),
                "--tenant",
                self.tenant,
                "--host",
                self.host,
            ],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        line = self.process.stdout.readline().strip()
        parts = line.split()
        if len(parts) != 2:
            self.kill()
            raise RuntimeError(
                f"shard server for {self.index_dir} failed to report an "
                f"address (got {line!r})"
            )
        self.address = (parts[0], int(parts[1]))

    @property
    def alive(self) -> bool:
        return self.process.poll() is None

    def kill(self) -> None:
        """Hard-kill the replica (no drain), as a crash would."""
        self.process.kill()
        self._reap()

    def terminate(self) -> None:
        """Ask the replica to drain and exit; kill it after 10 s.  A no-op
        signal on a replica that has already exited."""
        self.process.terminate()
        try:
            self.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.process.kill()
        self._reap()

    def _reap(self) -> None:
        """Wait for the child and close the pipe it reported its address on."""
        self.process.wait()
        self.process.stdout.close()


class LocalShardCluster:
    """All of a sharded layout's replicas as processes on this machine.

    Spawns ``replicas_per_shard`` :class:`ShardServerProcess`\\ es per shard
    of a :func:`~repro.core.partitioning.save_sharded` layout -- every
    replica of a shard serves the *same* shard directory, which is exactly
    the replication model (read replicas over identical data) -- and builds
    coordinator topologies with the layout's epochs pinned.
    """

    def __init__(
        self,
        root: str | Path,
        *,
        tenant: str = "shard",
        replicas_per_shard: int = 1,
    ) -> None:
        self.layout: ShardedIndexLayout = load_sharded(root)
        self.tenant = tenant
        self.replicas: list[list[ShardServerProcess]] = [
            [
                ShardServerProcess(index_dir=shard_dir, tenant=tenant)
                for _ in range(replicas_per_shard)
            ]
            for shard_dir in self.layout.shard_dirs
        ]

    # -- coordinator assembly -----------------------------------------------------
    def topology(self, public_key, *, timeout: float = 60.0) -> ShardTopology:
        return ShardTopology(
            partitioner=self.layout.partitioner,
            replicas=tuple(
                tuple(
                    HttpShardBackend(
                        host=replica.address[0],
                        port=replica.address[1],
                        tenant=self.tenant,
                        public_key=public_key,
                        timeout=timeout,
                    )
                    for replica in shard
                )
                for shard in self.replicas
            ),
            expected_epochs=self.layout.epochs,
        )

    def coordinator(
        self,
        public_key,
        *,
        retry: RetryPolicy | None = None,
        allow_partial: bool = False,
        timeout: float = 60.0,
    ) -> QueryCoordinator:
        return QueryCoordinator(
            topology=self.topology(public_key, timeout=timeout),
            public_key=public_key,
            retry=retry or RetryPolicy(),
            allow_partial=allow_partial,
        )

    # -- failover drills ----------------------------------------------------------
    def kill_replica(self, shard_id: int, replica: int = 0) -> None:
        """SIGKILL one replica, as a crash would take it."""
        self.replicas[shard_id][replica].kill()

    # -- lifecycle ----------------------------------------------------------------
    def close(self) -> None:
        for shard in self.replicas:
            for replica in shard:
                replica.terminate()

    def __enter__(self) -> "LocalShardCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# -- shard-server child entry point ------------------------------------------------
def _serve_shard_main(argv: Sequence[str] | None = None) -> None:
    """``python -m repro.service.cluster --serve-shard DIR ...``

    Serve one shard directory as one tenant, print the bound address, and
    run until terminated.  Kept tiny on purpose: a shard server is just a
    :class:`~repro.service.app.RetrievalService` whose only tenant is the
    shard's (perfectly normal) index directory.
    """
    import argparse
    import asyncio
    import contextlib
    import signal

    from repro.service.app import RetrievalService, ServiceConfig

    parser = argparse.ArgumentParser(description="serve one index shard")
    parser.add_argument("--serve-shard", required=True, metavar="INDEX_DIR")
    parser.add_argument("--tenant", default="shard")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    args = parser.parse_args(argv)

    async def run() -> None:
        service = RetrievalService(ServiceConfig(host=args.host, port=args.port))
        service.add_tenant(args.tenant, index_dir=args.serve_shard)
        host, port = await service.start()
        print(f"{host} {port}", flush=True)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError):
                loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        await service.drain()

    asyncio.run(run())


if __name__ == "__main__":
    _serve_shard_main()
