#!/usr/bin/env python
"""Serve a saved index over HTTP -- the deployable entry point.

Loads one or more saved index directories (``InvertedIndex.load`` with
memory-mapping, so start-up cost is metadata-only and postings page in on
demand), registers each as a tenant of a
:class:`~repro.service.app.RetrievalService`, and runs the asyncio service
until SIGTERM/SIGINT, then drains gracefully: in-flight batches finish, new
requests are refused, the worker pool shuts down.

Examples
--------
Serve one index as tenant ``corpus`` on port 8080::

    python scripts/serve.py --tenant corpus=/var/indexes/corpus --port 8080

Multiple tenants, tuned admission control::

    python scripts/serve.py --tenant med=/idx/med --tenant web=/idx/web \\
        --max-active 8 --max-pending 32 --retry-after 0.5

See ``docs/operations.md`` for the full runbook (tuning, metrics, index
verification and repair).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import logging
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service.app import RetrievalService, ServiceConfig  # noqa: E402

log = logging.getLogger("serve")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tenant",
        action="append",
        required=True,
        metavar="NAME=INDEX_DIR",
        help="tenant name and saved index directory; repeatable",
    )
    parser.add_argument("--host", default="0.0.0.0")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument(
        "--parallelism",
        type=int,
        default=1,
        help="worker threads of the service's one pool (1 = in-process, no pool; "
        "ignored without the compiled kernel)",
    )
    parser.add_argument(
        "--bucket-size",
        type=int,
        default=4,
        help="BktSz for the derived bucket organisation",
    )
    parser.add_argument(
        "--max-active",
        type=int,
        default=4,
        help="concurrently executing batch requests",
    )
    parser.add_argument(
        "--max-pending",
        type=int,
        default=16,
        help="batch requests allowed to queue before 429s",
    )
    parser.add_argument(
        "--retry-after",
        type=float,
        default=1.0,
        help="Retry-After seconds attached to 429 responses",
    )
    parser.add_argument(
        "--no-mmap",
        action="store_true",
        help="materialise indexes in memory instead of memory-mapping",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    if args.parallelism < 1:
        parser.error("--parallelism must be at least 1")
    return args


async def serve(args: argparse.Namespace) -> None:
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        bucket_size=args.bucket_size,
        parallelism=args.parallelism,
        max_active=args.max_active,
        max_pending=args.max_pending,
        retry_after=args.retry_after,
        mmap_indexes=not args.no_mmap,
    )
    service = RetrievalService(config)
    for spec in args.tenant:
        name, sep, index_dir = spec.partition("=")
        if not sep or not name or not index_dir:
            raise SystemExit(f"--tenant must be NAME=INDEX_DIR (got {spec!r})")
        tenant = service.add_tenant(name, index_dir=index_dir)
        log.info(
            "tenant %s: %d terms from %s", name, tenant.index.num_terms, index_dir
        )

    host, port = await service.start()
    workers = service.engine.parallelism if service.engine is not None else 0
    log.info(
        "listening on %s:%d (pool workers=%d, kernel backend=%s)",
        host, port, workers, service.backend,
    )

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        # set() is idempotent, so a second signal during the drain is harmless
        # (and the engine shutdown underneath is concurrency-safe too).
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(signum, stop.set)
    await stop.wait()
    log.info("draining: finishing in-flight batches, refusing new work")
    await service.drain()
    log.info("drained; bye")


def main(argv=None) -> None:
    args = parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(levelname)s %(name)s: %(message)s",
    )
    asyncio.run(serve(args))


if __name__ == "__main__":
    main()
