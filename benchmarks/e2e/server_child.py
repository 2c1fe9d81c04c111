"""The benchmark-owned server process.

One of these is the *front-end* of every workload.  It builds a
:class:`~repro.service.app.RetrievalService` through the public API with the
default :class:`~repro.service.app.ServiceConfig` (only host and port are
set), so what the benchmark measures changes when the library's defaults
change, never because this file was edited.

Modes:

``--index-dir DIR``
    one disk-backed tenant, loaded the way ``scripts/serve.py`` loads it.
``--index-dir DIR --shard-root ROOT``
    a distributed tenant over the shard-server processes of a
    ``save_sharded`` layout (``LocalShardCluster``); ``DIR`` is the unsplit
    index, read once for the shared bucket organisation.
neither flag
    no tenant until a ``reset`` command builds one in memory.

Control protocol: the first stdout line is ``HOST PORT`` (the address the
listener actually bound).  After that every stdin line is one JSON command
and gets exactly one JSON reply line.  Commands run on the event-loop
thread: the load generator is closed-loop, so nothing else is in flight
while it waits for the reply.  End of stdin means the parent is gone, and
the child shuts down.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import os
import sys
import time
from pathlib import Path

from reference_kernel import kernel_ms

TENANT = "bench"


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class UpdateStream:
    """The mixed workload's update op: add the next documents of the stream,
    retire the oldest base documents, seal.

    The child applies it to the live tenant and the runner's oracle and
    replay apply it to an index of their own, through this one routine, so
    the two sides cannot drift apart.
    """

    def __init__(self, stream) -> None:
        from repro.textsearch.corpus import Document

        self.stream = [Document(doc_id=d, text=t) for d, t in stream]
        self.oldest = 0  # next base document id to retire

    def apply(self, index, add: int, remove: int) -> dict:
        documents, self.stream = self.stream[:add], self.stream[add:]
        retired = list(range(self.oldest, self.oldest + remove))
        self.oldest += remove
        t0 = time.perf_counter()
        index.add_documents(documents)
        t1 = time.perf_counter()
        index.remove_documents(retired)
        t2 = time.perf_counter()
        report = index.maintain(force_seal=True)
        t3 = time.perf_counter()
        return {
            "add_ms": (t1 - t0) * 1e3,
            "remove_ms": (t2 - t1) * 1e3,
            "maintain_ms": (t3 - t2) * 1e3,
            "merges_committed": report["merges_committed"],
            "added": len(documents),
            "removed": len(retired),
        }


class Child:
    def __init__(self, args) -> None:
        from repro.service.app import RetrievalService, ServiceConfig

        self.service = RetrievalService(ServiceConfig(host="127.0.0.1", port=0))
        self.cluster = None
        self.index = None  # the live tenant's index
        self.updates: UpdateStream | None = None
        self.save_dir: Path | None = None
        self.saved_bytes = 0  # size of save_dir after the last save
        self.generation = 0
        if args.shard_root:
            self._add_distributed(args.index_dir, args.shard_root)
        elif args.index_dir:
            self.service.add_tenant(TENANT, index_dir=args.index_dir)

    def _add_distributed(self, index_dir: str, shard_root: str) -> None:
        from repro.service.app import chunked_organization
        from repro.service.cluster import LocalShardCluster
        from repro.textsearch.inverted_index import InvertedIndex

        self.cluster = LocalShardCluster(shard_root, tenant=TENANT)
        unsplit = InvertedIndex.load(index_dir, mmap=True)
        self.service.add_distributed_tenant(
            TENANT,
            organization=chunked_organization(unsplit, self.service.config.bucket_size),
            partitioner=self.cluster.layout.partitioner,
            replicas=[[r.address for r in shard] for shard in self.cluster.replicas],
            expected_epochs=self.cluster.layout.epochs,
        )

    def cmd_info(self, _request) -> dict:
        """The server side's processes: this one first, then its shard servers."""
        replicas = [] if self.cluster is None else self.cluster.replicas
        return {"pids": [os.getpid(), *(r.process.pid for shard in replicas for r in shard)]}

    def cmd_cluster(self, request) -> dict:
        """Addresses of the shard servers, started here (in this process group,
        so they are reaped with it) over ``root`` if the tenant has none: the
        sharded layer probes of a single-node workload."""
        if self.cluster is None:
            from repro.service.cluster import LocalShardCluster

            self.cluster = LocalShardCluster(request["root"], tenant=TENANT)
        return {
            "shards": [[list(r.address) for r in shard] for shard in self.cluster.replicas]
        }

    def cmd_reference(self, _request) -> dict:
        """The reference kernel, run here: how fast the server side's core is."""
        return {"ms": kernel_ms()}

    def cmd_reset(self, request) -> dict:
        """Replace the live tenant with a freshly built one.

        The previous tenant is dropped first so the process never holds two
        indexes; the new one is built from the corpus file, saved wholesale
        (later ``checkpoint`` commands are then incremental) and served
        under a new tenant name.
        """
        from repro.textsearch.corpus import Corpus, Document
        from repro.textsearch.inverted_index import InvertedIndex

        self.service.tenants.clear()
        self.service.sessions.clear()
        self.index = None
        spec = json.loads(Path(request["corpus"]).read_text())
        corpus = Corpus(Document(doc_id=d, text=t) for d, t in spec["base"])
        self.updates = UpdateStream(spec["stream"])
        started = time.perf_counter()
        self.index = InvertedIndex.build(corpus)
        built = time.perf_counter()
        self.save_dir = Path(request["save_dir"])
        self.index.save(self.save_dir)
        saved = time.perf_counter()
        self.saved_bytes = _dir_bytes(self.save_dir)
        self.generation += 1
        name = f"{TENANT}{self.generation}"
        self.service.add_tenant(name, index=self.index)
        # Every pass then meets the collector in the same state, so its
        # pauses fall on the same ops of every pass (measured: the quartile
        # spread of op_ms_p50 over ten runs fell from 7 % to 2 %).
        gc.collect()
        return {
            "tenant": name,
            "build_ms": (built - started) * 1e3,
            "save_full_ms": (saved - built) * 1e3,
        }

    def cmd_update(self, request) -> dict:
        return self.updates.apply(self.index, request["add"], request["remove"])

    def cmd_checkpoint(self, _request) -> dict:
        started = time.perf_counter()
        self.index.save(self.save_dir)
        elapsed = time.perf_counter() - started
        before, self.saved_bytes = self.saved_bytes, _dir_bytes(self.save_dir)
        return {"save_ms": elapsed * 1e3, "bytes": self.saved_bytes - before}

    # -- lifecycle ----------------------------------------------------------------
    async def run(self) -> None:
        host, port = await self.service.start()
        print(f"{host} {port}", flush=True)
        loop = asyncio.get_running_loop()
        try:
            while True:
                line = await loop.run_in_executor(None, sys.stdin.readline)
                if not line:
                    break
                request = json.loads(line)
                if request["cmd"] == "stop":
                    break
                try:
                    reply = getattr(self, "cmd_" + request["cmd"])(request)
                except Exception as exc:  # reported, so the parent can fail the op
                    reply = {"error": repr(exc)}
                print(json.dumps(reply), flush=True)
        finally:
            await self.service.drain()
            if self.cluster is not None:
                self.cluster.close()
            print(json.dumps({"stopped": True}), flush=True)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="the repository's src/ directory")
    parser.add_argument("--index-dir")
    parser.add_argument("--shard-root")
    args = parser.parse_args(argv)
    sys.path.insert(0, args.src)
    asyncio.run(Child(args).run())


if __name__ == "__main__":
    main()
