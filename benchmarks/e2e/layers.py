"""Per-layer numbers for ``run.py --trace 1``: spans recorded outside-in.

A layer is a module of ``src/repro``.  Nothing inside the library is
instrumented here (that is a later change); every span is recorded from this
file around a *public* call into the layer.  Three sources feed the metrics:

* the wire: NDJSON ``done`` lines and the update replies of the
  benchmark-owned child, collected by the same HTTP rounds an untraced run
  times (medians over the rounds, in milliseconds as measured: the host
  factors of ``run.py`` divide the end-to-end metrics only, and are
  themselves reported here as ``loadgen.host_factor*``);
* an **in-process replay** of one round: the client and server halves of a
  request run back to back in this process -- embellish, encode, decode,
  ``process_batch``, encode, decode, post-filter -- each under a span whose
  parent is the op's span, so self time and uncovered time are defined;
* **layer probes**: the calls ``process_batch`` makes internally (snapshot,
  columns, ``accumulate_terms``) and the placements no end-to-end workload
  uses (compiled kernel, two pool workers, shard coordinator and shard
  servers), on a sample of the same queries.

Spans stay in memory; ``Tracer.write`` dumps them when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import nullcontext
from pathlib import Path

from repro.core import parallel
from repro.core.coordinator import LocalShardBackend, QueryCoordinator, ShardTopology
from repro.core.engine import ExecutionEngine
from repro.core.partitioning import (
    HashPartitioner,
    load_sharded,
    save_sharded,
    split_query_terms,
)
from repro.core.postfilter import PostFilterCounters, post_filter
from repro.core.server import PrivateRetrievalServer
from repro.crypto import numbertheory
from repro.service import wire
from repro.service.app import chunked_organization
from repro.service.cluster import HttpShardBackend
from repro.textsearch.inverted_index import InvertedIndex

from server_child import UpdateStream

TOP_K = 20
#: Batches the layer probes replay (they repeat work the replay already did).
PROBE_BATCHES = 12
#: Shards the sharded probes split a single-node workload's index into.
PROBE_SHARDS = 2

#: Every per-layer metric and its unit, in the order BENCHMARK.json lists them.
LAYERS = {
    "core.embellish.embellish_ms_per_query": "ms",
    "core.embellish.selectors_per_query": "count",
    "crypto.benaloh.replenish_ms_per_selector": "ms",
    "core.postfilter.post_filter_ms_per_query": "ms",
    "core.postfilter.decryptions_per_query": "count",
    "core.postfilter.share_of_op": "share",
    "crypto.benaloh.decrypt_ms_per_candidate": "ms",
    "service.wire.encode_query_ms_per_query": "ms",
    "service.wire.decode_result_ms_per_query": "ms",
    "service.wire.decode_query_ms_per_query": "ms",
    "service.wire.encode_result_ms_per_query": "ms",
    "service.wire.request_bytes_per_query": "B",
    "service.wire.response_bytes_per_query": "B",
    "service.app.service_ms_per_query": "ms",
    "service.app.transport_residual_ms_per_op": "ms",
    "service.admission.queue_wait_ms_p50": "ms",
    "service.client.open_session_ms_p50": "ms",
    "core.server.process_batch_ms_per_query": "ms",
    "core.server.modmuls_per_query": "count",
    "core.server.table_mults_per_query": "count",
    "core.server.postings_per_query": "count",
    "core.server.blocks_read_per_query": "count",
    "textsearch.inverted_index.snapshot_ms": "ms",
    "textsearch.inverted_index.columns_ms_per_term": "ms",
    "core.parallel.accumulate_terms_ms_per_query": "ms",
    "crypto.kernels.accumulate_cffi_ms_per_query": "ms",
    "core.engine.run_batch_p2_ms_per_query": "ms",
    "core.engine.tasks_dispatched_per_query": "count",
    "core.engine.pool_start_ms": "ms",
    "core.partitioning.split_query_ms_per_query": "ms",
    "core.coordinator.process_batch_ms_per_query": "ms",
    "core.coordinator.merge_mults_per_query": "count",
    "service.cluster.partials_rtt_ms_p50": "ms",
    "service.cluster.partials_bytes_per_query": "B",
    "service.wire.partial_codec_ms_per_query": "ms",
    "textsearch.inverted_index.build_ms": "ms",
    "textsearch.inverted_index.save_full_ms": "ms",
    "textsearch.inverted_index.load_mmap_ms": "ms",
    "crypto.benaloh.keygen_ms": "ms",
    "textsearch.inverted_index.add_documents_ms_per_doc": "ms",
    "textsearch.inverted_index.remove_documents_ms_per_doc": "ms",
    "textsearch.inverted_index.maintain_ms_p50": "ms",
    "textsearch.inverted_index.merges_committed": "count",
    "textsearch.inverted_index.save_incremental_ms_p50": "ms",
    "textsearch.inverted_index.save_bytes_per_checkpoint": "B",
    "loadgen.host_factor": "ratio",
    "loadgen.host_factor_server": "ratio",
    "loadgen.op_ms_p50": "ms",
    "loadgen.op_ms_p90": "ms",
    "loadgen.op_ms_max": "ms",
    "loadgen.round_wall_spread": "ratio",
    "trace.overhead_share": "share",
    "trace.unattributed_share": "share",
}


# -- spans -------------------------------------------------------------------------
class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record) -> None:
        self.tracer, self.record = tracer, record

    def __enter__(self) -> None:
        tracer, record = self.tracer, self.record
        if tracer.stack:
            record[3] = tracer.stack[-1]
            if record[4] is None:
                record[4] = tracer.spans[record[3]][4]
        tracer.stack.append(len(tracer.spans))
        tracer.spans.append(record)
        record[1] = time.perf_counter()

    def __exit__(self, *exc_info) -> None:
        self.record[2] = time.perf_counter()
        self.tracer.stack.pop()


class Tracer:
    """Spans as ``[name, start, end, parent, op]`` rows; ``parent`` indexes
    the row that was open when this one started (-1 at the top), ``op`` is
    the op-list position shared by every span of one request."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []

    def span(self, name: str, op: int | None = None) -> _Span:
        return _Span(self, [name, 0.0, 0.0, -1, op])

    def ms(self, name: str) -> list[float]:
        return [(end - start) * 1e3 for n, start, end, _, _ in self.spans if n == name]

    def total_ms(self, name: str) -> float:
        return sum(self.ms(name))

    def self_ms(self, name: str) -> float:
        """Time in ``name`` spans that none of their child spans cover."""
        covered: dict[int, float] = {}
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        return sum(
            (end - start - covered.get(i, 0.0)) * 1e3
            for i, (n, start, end, _, _) in enumerate(self.spans)
            if n == name
        )

    def write(self, path: Path) -> None:
        with path.open("w") as out:
            for name, start, end, parent, op in self.spans:
                out.write(json.dumps(
                    {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                ) + "\n")


class _NoTrace:
    """Tracing off: one shared do-nothing context, nothing recorded."""

    _off = nullcontext()

    def span(self, name: str, op: int | None = None):
        return self._off


NO_TRACE = _NoTrace()


def span_cost_ms(samples: int = 20000) -> float:
    """What entering and leaving one span costs, by timing empty ones."""
    tracer = Tracer()
    started = time.perf_counter()
    for _ in range(samples):
        with tracer.span("empty"):
            pass
    return (time.perf_counter() - started) * 1e3 / samples


# -- the in-process replay ---------------------------------------------------------
def replay(dep, prepared, tracer) -> tuple[list[float], int, int]:
    """One round without sockets: both halves of every read op, spanned.

    Returns each read op's client-side span time (what the load generator
    also spends on the op over HTTP) and the selector and decryption counts.
    The mixed workload replays its updates on a local index so each session
    sees the segments it saw over the wire.
    """
    inputs = dep.inputs
    public, private = dep.keypair.public, dep.keypair.private
    modulus = public.n
    index = dep.index or InvertedIndex.build(inputs.corpus())
    organization = dep.embellisher.organization  # the one the server serves
    updates = UpdateStream(inputs.stream)
    span = tracer.span
    server = None
    client_ms, selectors, decryptions = [], 0, 0

    def open_session(position):
        with span("textsearch.inverted_index.snapshot", position):
            view = index.snapshot()
        return PrivateRetrievalServer(index=view, organization=organization, public_key=public)

    for position, op in enumerate(inputs.ops):
        if op.kind == "update":
            updates.apply(index, inputs.spec["add"], inputs.spec["remove"])
        elif op.kind == "open" or (server is None and op.queries):
            server = open_session(position)
        if not op.queries:
            continue
        with span("op", position):
            client = 0.0
            if op.kind == "search":
                t = time.perf_counter()
                with span("core.embellish.embellish"):
                    queries = [dep.embellisher.embellish(op.queries[0])]
                client += time.perf_counter() - t
            else:
                queries = prepared[position]
            selectors += sum(len(query) for query in queries)
            t = time.perf_counter()
            with span("service.wire.encode_query"):
                body = json.dumps(
                    {"queries": [wire.encode_query(query) for query in queries]}
                ).encode("utf-8")
            client += time.perf_counter() - t
            with span("service.wire.decode_query"):
                decoded = [
                    wire.decode_query(query, modulus)
                    for query in json.loads(body)["queries"]
                ]
            with span("core.server.process_batch"):
                results = server.process_batch(decoded)
            with span("service.wire.encode_result"):
                lines = [
                    json.dumps({
                        "kind": "result",
                        "index": i,
                        **wire.encode_result(result),
                        "counters": wire.encode_counters(counters),
                        "ms": 0.0,
                    }).encode("utf-8") + b"\n"
                    for i, (result, counters) in enumerate(
                        zip(results, server.last_batch_counters)
                    )
                ]
            t = time.perf_counter()
            with span("service.wire.decode_result"):
                received = [wire.decode_result(json.loads(line), modulus) for line in lines]
            if op.kind == "search":
                counters = PostFilterCounters()
                with span("core.postfilter.post_filter"):
                    post_filter(received[0], private, k=TOP_K, counters=counters)
                decryptions += counters.decryptions
            client += time.perf_counter() - t
        client_ms.append(client * 1e3)
    return client_ms, selectors, decryptions


# -- layer probes ------------------------------------------------------------------
def probe_accumulation(dep, index, batches, tracer) -> dict:
    """What ``process_batch`` does inside, and what other placements cost."""
    span = tracer.span
    public = dep.keypair.public
    organization = dep.embellisher.organization
    queries = [query for batch in batches for query in batch]
    view = index.snapshot()
    payloads = []
    for query in queries:
        with span("textsearch.inverted_index.columns"):
            columns = [view.columns(term) for term in query.terms]
        payloads.append(
            [(selector, *pair) for selector, pair in zip(query.encrypted_selectors, columns)]
        )
    for payload in payloads:
        with span("core.parallel.accumulate_terms"):
            parallel.accumulate_terms(payload, public.n)
    if "cffi" in numbertheory.available_backends():
        try:
            previous = numbertheory.set_backend("cffi")
        except RuntimeError:  # no compiler here: the metric reads 0
            previous = None
        if previous is not None:
            try:
                parallel.accumulate_terms(payloads[0], public.n)  # load the kernel
                for payload in payloads:
                    with span("crypto.kernels.accumulate_cffi"):
                        parallel.accumulate_terms(payload, public.n)
            finally:
                numbertheory.set_backend(previous)
    engine = ExecutionEngine(parallelism=2)
    try:
        server = PrivateRetrievalServer(
            index=view, organization=organization, public_key=public,
            parallelism=2, engine=engine,
        )
        with span("core.engine.pool_start"):  # until both workers have answered
            engine.start()
            server.process_batch(batches[0][:1] * 2)
        engine.counters.reset()
        for batch in batches:
            with span("core.engine.run_batch_p2"):
                server.process_batch(batch)
        dispatched = engine.counters.tasks_dispatched
    finally:
        engine.shutdown()
    terms = sum(len(query) for query in queries)
    return {"queries": len(queries), "terms": terms, "tasks_dispatched": dispatched}


def probe_sharded(dep, batches, tracer, wire_total) -> dict:
    """The coordinator's own work, without (then with) the network.

    On ``batch_sharded`` over the layout and shard servers the workload runs
    on; on a single-node batch workload over a split of the same index made
    here, served by shard servers the child starts for the probe.
    """
    span = tracer.span
    public = dep.keypair.public
    root = dep.workdir / "shards"
    if not root.exists():
        save_sharded(dep.index, root, HashPartitioner(num_shards=PROBE_SHARDS))
    layout = load_sharded(root)
    bucket_size = dep.embellisher.organization.bucket_size
    queries = [query for batch in batches for query in batch]
    backends = []
    for shard_dir in layout.shard_dirs:
        shard = InvertedIndex.load(shard_dir, mmap=True)
        backends.append((LocalShardBackend(PrivateRetrievalServer(
            index=shard,
            organization=chunked_organization(shard, bucket_size),
            public_key=public,
        )),))
    coordinator = QueryCoordinator(
        topology=ShardTopology(
            partitioner=layout.partitioner,
            replicas=tuple(backends),
            expected_epochs=layout.epochs,
        ),
        public_key=public,
    )
    merge_mults = 0
    for batch in batches:
        with span("core.coordinator.process_batch"):
            coordinator.process_batch(batch)
        merge_mults += coordinator.counters.merge_multiplications
    scattered: dict[int, list] = {}
    for query in queries:
        with span("core.partitioning.split_query"):
            split = split_query_terms(
                query.terms, query.encrypted_selectors, layout.partitioner
            )
        for shard_id, subquery in split.items():
            scattered.setdefault(shard_id, []).append(subquery)
    # The same sub-batches to the real shard servers, one request at a time,
    # and the partial codec on what they answered.
    addresses = dep.child.command(cmd="cluster", root=str(root))["shards"]
    before = wire_total()
    for shard_id, subqueries in sorted(scattered.items()):
        host, port = addresses[shard_id][0]
        backend = HttpShardBackend(host, port, tenant=dep.tenant, public_key=public)
        for start in range(0, len(subqueries), 4):
            chunk = subqueries[start : start + 4]
            with span("service.cluster.partials_rtt"):
                response = backend.accumulate(chunk)
            with span("service.wire.partial_codec"):
                request = json.dumps(wire.encode_partial_request(public, chunk))
                wire.decode_partial_request(json.loads(request))
                document = json.dumps(wire.encode_shard_response(
                    response.epoch, response.modulus, response.partials, response.counters
                ))
                wire.decode_shard_response(json.loads(document))
    return {
        "queries": len(queries),
        "merge_mults": merge_mults,
        "partials_bytes": wire_total() - before,
    }


# -- assembly ----------------------------------------------------------------------
def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(dep, rounds, tracer, prepare_round, wire_total, out_dir: Path) -> dict:
    """Every metric of LAYERS for this workload (0 where a layer is not used)."""
    inputs, spec = dep.inputs, dep.inputs.spec
    ops = inputs.ops
    queries = inputs.queries_per_round
    reads = [i for i, op in enumerate(ops) if op.queries]
    m = dict.fromkeys(LAYERS, 0.0)

    # -- set-up spans (the mixed workload's build and save ran in the child)
    reset = dep.reset_reply or {}
    m["textsearch.inverted_index.build_ms"] = (
        reset.get("build_ms") or tracer.total_ms("textsearch.inverted_index.build")
    )
    m["textsearch.inverted_index.save_full_ms"] = (
        reset.get("save_full_ms") or tracer.total_ms("textsearch.inverted_index.save_full")
    )
    m["crypto.benaloh.keygen_ms"] = tracer.total_ms("crypto.benaloh.keygen")
    saved = dep.workdir / ("live" if spec["kind"] == "mixed" else "index")
    with tracer.span("textsearch.inverted_index.load_mmap"):
        loaded = InvertedIndex.load(saved, mmap=True)
    m["textsearch.inverted_index.load_mmap_ms"] = tracer.total_ms(
        "textsearch.inverted_index.load_mmap"
    )

    # -- the wire: done lines, byte counts, child replies
    op_ms = [_median(r.op_ms[i] for r in rounds) for i in range(len(ops))]
    done = [[r.replies[i] for i in reads] for r in rounds]
    service_ms = [_median(line[k]["service_ms"] for line in done) for k in range(len(reads))]
    m["service.app.service_ms_per_query"] = sum(service_ms) / queries
    m["service.admission.queue_wait_ms_p50"] = _median(
        reply["queue_wait_ms"] for line in done for reply in line
    )
    totals = [reply["counters"] for reply in done[0]]
    for name, field in (
        ("modmuls", "modular_multiplications"),
        ("table_mults", "table_multiplications"),
        ("postings", "postings_processed"),
        ("blocks_read", "blocks_read"),
    ):
        m[f"core.server.{name}_per_query"] = sum(c[field] for c in totals) / queries
    m["service.wire.request_bytes_per_query"] = _median(r.wire_up for r in rounds) / queries
    m["service.wire.response_bytes_per_query"] = _median(r.wire_down for r in rounds) / queries
    opens = [i for i, op in enumerate(ops) if op.kind == "open"]
    if opens:
        m["service.client.open_session_ms_p50"] = _median(op_ms[i] for i in opens)
    else:
        samples = []
        for _ in range(9):
            started = time.perf_counter()
            session = dep.client.open_session(dep.tenant, dep.keypair.public)
            samples.append((time.perf_counter() - started) * 1e3)
            dep.client.close_session(session)
        m["service.client.open_session_ms_p50"] = _median(samples)
    updates = [r.replies[i] for r in rounds for i, op in enumerate(ops) if op.kind == "update"]
    if updates:
        m["textsearch.inverted_index.add_documents_ms_per_doc"] = sum(
            u["add_ms"] for u in updates
        ) / sum(u["added"] for u in updates)
        m["textsearch.inverted_index.remove_documents_ms_per_doc"] = sum(
            u["remove_ms"] for u in updates
        ) / sum(u["removed"] for u in updates)
        m["textsearch.inverted_index.maintain_ms_p50"] = _median(
            u["maintain_ms"] for u in updates
        )
        m["textsearch.inverted_index.merges_committed"] = sum(
            u["merges_committed"] for u in updates
        ) / len(rounds)
        saves = [
            r.replies[i] for r in rounds for i, op in enumerate(ops) if op.kind == "checkpoint"
        ]
        m["textsearch.inverted_index.save_incremental_ms_p50"] = _median(
            s["save_ms"] for s in saves
        )
        m["textsearch.inverted_index.save_bytes_per_checkpoint"] = sum(
            s["bytes"] for s in saves
        ) / len(saves)
    read_ms = [op_ms[i] for i in reads]
    m["loadgen.host_factor"] = _median(factor for r in rounds for factor in r.host)
    m["loadgen.host_factor_server"] = _median(
        factor for r in rounds for factor in r.host_server
    )
    m["loadgen.op_ms_p50"] = _median(read_ms)
    m["loadgen.op_ms_p90"] = statistics.quantiles(read_ms, n=10)[-1]
    m["loadgen.op_ms_max"] = max(read_ms)
    m["loadgen.round_wall_spread"] = max(r.wall_s for r in rounds) / min(
        r.wall_s for r in rounds
    )

    # -- the replay
    prepared = prepare_round(dep, fresh=False)
    with tracer.span("crypto.benaloh.replenish"):
        dep.embellisher.pool.replenish(256)
    m["crypto.benaloh.replenish_ms_per_selector"] = (
        tracer.total_ms("crypto.benaloh.replenish") / 256
    )
    before = len(tracer.spans)
    client_ms, selectors, decryptions = replay(dep, prepared, tracer)
    replay_ms = tracer.total_ms("op")
    # A traced and an untraced replay differ by less than two replays of the
    # same kind do on this host, so the overhead is counted instead: spans
    # recorded, times what recording an empty span costs.
    m["trace.overhead_share"] = (len(tracer.spans) - before) * span_cost_ms() / replay_ms
    m["trace.unattributed_share"] = tracer.self_ms("op") / replay_ms
    for layer in (
        "core.embellish.embellish", "core.postfilter.post_filter",
        "service.wire.encode_query", "service.wire.decode_result",
        "service.wire.decode_query", "service.wire.encode_result",
        "core.server.process_batch",
    ):
        m[f"{layer}_ms_per_query"] = tracer.total_ms(layer) / queries
    m["core.embellish.selectors_per_query"] = selectors / queries
    m["core.postfilter.decryptions_per_query"] = decryptions / queries
    m["core.postfilter.share_of_op"] = tracer.total_ms("core.postfilter.post_filter") / replay_ms
    if decryptions:
        m["crypto.benaloh.decrypt_ms_per_candidate"] = (
            tracer.total_ms("core.postfilter.post_filter") / decryptions
        )
    m["textsearch.inverted_index.snapshot_ms"] = _median(
        tracer.ms("textsearch.inverted_index.snapshot")
    )
    # What HTTP adds to an op: its wall time over the wire, less what the
    # client and the server's executor thread each account for themselves.
    m["service.app.transport_residual_ms_per_op"] = statistics.fmean(
        wall - own - served
        for wall, own, served in zip(read_ms, client_ms, service_ms)
    )

    # -- probes
    if spec["kind"] == "search":
        embellish = dep.embellisher.embellish
        batches = [[embellish(ops[i].queries[0])] for i in reads[:PROBE_BATCHES]]
    else:
        batches = [prepared[i] for i in reads[:PROBE_BATCHES]]
    probe = probe_accumulation(dep, loaded, batches, tracer)
    per_probe_query = 1.0 / probe["queries"]
    m["textsearch.inverted_index.columns_ms_per_term"] = (
        tracer.total_ms("textsearch.inverted_index.columns") / probe["terms"]
    )
    for layer in (
        "core.parallel.accumulate_terms", "crypto.kernels.accumulate_cffi",
        "core.engine.run_batch_p2",
    ):
        m[f"{layer}_ms_per_query"] = tracer.total_ms(layer) * per_probe_query
    m["core.engine.tasks_dispatched_per_query"] = probe["tasks_dispatched"] * per_probe_query
    m["core.engine.pool_start_ms"] = tracer.total_ms("core.engine.pool_start")
    if spec["kind"] == "batch":
        sharded = probe_sharded(dep, batches, tracer, wire_total)
        for layer in ("core.partitioning.split_query", "core.coordinator.process_batch"):
            m[f"{layer}_ms_per_query"] = tracer.total_ms(layer) / sharded["queries"]
        m["core.coordinator.merge_mults_per_query"] = (
            sharded["merge_mults"] / sharded["queries"]
        )
        m["service.cluster.partials_rtt_ms_p50"] = _median(
            tracer.ms("service.cluster.partials_rtt")
        )
        m["service.cluster.partials_bytes_per_query"] = (
            sharded["partials_bytes"] / sharded["queries"]
        )
        m["service.wire.partial_codec_ms_per_query"] = (
            tracer.total_ms("service.wire.partial_codec") / sharded["queries"]
        )

    tracer.write(out_dir / f"trace_{inputs.name}.jsonl")
    return {name: {"value": m[name], "unit": unit} for name, unit in LAYERS.items()}
