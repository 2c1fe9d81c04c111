#!/usr/bin/env python3
"""Paired naive/fast benchmarks of the fast execution layer.

Measures the four optimised hot paths against their naive reference
implementations --

* homomorphic score accumulation (power-table server vs per-posting modexp),
* query embellishment (zero-pool selectors vs full Benaloh encryptions),
* KO PIR answer generation (packed row masks vs per-cell scan),
* inverted-index construction (columnar arrays vs per-posting objects),

plus the batch series introduced with the parallel execution subsystem:

* session embellishment off one pre-stocked zero pool vs per-query naive
  encryption (the batch API's client-side amortisation),

plus the incremental-update series introduced with the update subsystem:

* incremental update + query (``InvertedIndex.add_documents`` on a resident
  index, then reading the query terms' columns) vs a full rebuild + query,
  asserted bit-identical before timing,

plus the two series introduced with the segmented storage engine:

* sustained interleaved add/remove/query throughput -- generational delta
  segments with tiered merges (``maintain``) vs the PR-4 single-delta
  strategy (``compact()`` per batch), and
* cold-start -- ``InvertedIndex.load(mmap=True)`` + first query vs
  rebuilding the index from raw text + first query,

plus the series introduced with the snapshot (MVCC) read layer:

* pinned-reader concurrency -- a server over one ``index.snapshot()``
  answering the same queries quiesced vs during live seal/merge/compact on
  a writer thread (answers asserted bit-identical first), and incremental
  ``save`` (append newly sealed blobs + one manifest-log record) vs a
  wholesale save of the same index, with append-only asserted,

plus the series introduced with the serving front-end:

* serving throughput -- a multi-threaded load generator driving concurrent
  sessions against the real HTTP service (saved index, ``mmap`` load,
  chunked frame streaming) recording queries/sec and batch-latency
  p50/p95/p99, with correctness asserted bit-identical to the in-process
  path and saturation (429) / graceful-drain probes riding along,

plus the series introduced with the distributed scatter-gather layer:

* distributed scatter-gather -- a ``QueryCoordinator`` over 1, 2 and 4
  local shard-server *processes* (``save_sharded`` layout, HTTP partials
  route, epoch-stamped merge), asserted bit-identical to the single-node
  server at every shard count, with a replica-failover probe (one replica
  of a 2-replica shard SIGKILLed; the batch in flight must complete
  bit-identically off the survivor); its throughput is recorded, not gated,

-- and writes a ``BENCH_fastpath.json`` summary next to the other benchmark
results so the performance trajectory is tracked from PR to PR:

    python benchmarks/run_bench.py [--key-bits 768] [--repeats 5] [--check]

``--check`` exits non-zero unless the accumulation speedup is >= 5x, the
embellishment speedup is >= 3x, the incremental update+query beats a full
rebuild+query by >= 1.5x, the segmented sustained-update series and the
save/load cold-start series are each >= 1.5x, the pinned snapshot reader
sustains >= 0.4x its quiesced throughput during concurrent maintenance and
the incremental save beats a wholesale save by >= 1.1x, the served (HTTP) throughput
is >= 0.3x the in-process direct path with working 429 shedding and
graceful drain, and the replica-failover probe completes its batch
bit-identically with at least one failover retry.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import random  # noqa: E402

from repro.core.embellish import QueryEmbellisher  # noqa: E402
from repro.core.server import PrivateRetrievalServer  # noqa: E402
from repro.core.workloads import QueryWorkloadGenerator  # noqa: E402
from repro.crypto import numbertheory  # noqa: E402
from repro.crypto.benaloh import generate_keypair  # noqa: E402
from repro.crypto.pir import PIRClient, PIRDatabase, PIRServer  # noqa: E402
from repro.experiments.harness import ExperimentContext  # noqa: E402
from repro.textsearch.inverted_index import InvertedIndex, Posting  # noqa: E402
from repro.textsearch.segments import quantise_impact  # noqa: E402
from repro.textsearch.synthetic import SyntheticCorpusGenerator  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"


def timed_pair(naive_fn, fast_fn, repeats: int) -> dict[str, float]:
    """Time a naive/fast pair with interleaved samples, reporting the minimum.

    Alternating the two candidates spreads any transient machine load across
    both sides instead of penalising whichever happened to run second, and
    the minimum is the standard microbenchmark statistic (cf. ``timeit``):
    every sample carries the true cost plus non-negative scheduling noise,
    so the smallest sample is the least-noisy estimate.
    """
    naive_samples, fast_samples = [], []
    for _ in range(repeats):
        start = time.perf_counter()
        naive_fn()
        naive_samples.append((time.perf_counter() - start) * 1000.0)
        start = time.perf_counter()
        fast_fn()
        fast_samples.append((time.perf_counter() - start) * 1000.0)
    return {"naive": min(naive_samples), "fast": min(fast_samples)}


def bench_accumulation(context, keypair, repeats):
    organization = context.buckets(8, None, searchable_only=True)
    embellisher = QueryEmbellisher(
        organization=organization, keypair=keypair, rng=random.Random(3)
    )
    # Frequency-weighted query: server CPU is dominated by the longest
    # inverted lists, the regime the power table is built for.
    query = embellisher.embellish(
        QueryWorkloadGenerator(context.index, seed=4).frequency_weighted_query(4)
    )
    servers = {
        mode: PrivateRetrievalServer(
            index=context.index,
            organization=organization,
            public_key=keypair.public,
            naive=(mode == "naive"),
        )
        for mode in ("naive", "fast")
    }
    fast = servers["fast"].process_query(query)
    naive = servers["naive"].process_query(query)
    assert fast.encrypted_scores == naive.encrypted_scores, "fast path diverged!"
    return timed_pair(
        lambda: servers["naive"].process_query(query),
        lambda: servers["fast"].process_query(query),
        repeats,
    )


def bench_embellishment(context, keypair, repeats):
    organization = context.buckets(8, None, searchable_only=True)
    query = QueryWorkloadGenerator(context.index, seed=2).random_query(12)
    naive_embellisher = QueryEmbellisher(
        organization=organization, keypair=keypair, rng=random.Random(1), naive=True
    )
    fast_embellisher = QueryEmbellisher(
        organization=organization, keypair=keypair, rng=random.Random(1)
    )
    # Pre-stock the one-time zero pool for the whole timed phase: in a
    # deployed client this precomputation runs during idle time, so the
    # benchmark times the query-path cost only (plus slack so a refill
    # never fires mid-measurement).
    selectors_per_query = len(fast_embellisher.embellish(query))
    fast_embellisher.pool.replenish((repeats + 2) * selectors_per_query)
    return timed_pair(
        lambda: naive_embellisher.embellish(query),
        lambda: fast_embellisher.embellish(query),
        repeats,
    )


def bench_vectorised_accumulation(context, keypair, repeats, batch_size=48, terms=6):
    """Compiled batch kernels vs the pure-python loop, both in-process.

    The workload is 48 frequency-weighted embellished queries over the
    longest lists, answered in-process first under the default ``python``
    backend and then under the ``cffi`` backend, so the only variable is the
    kernel implementation.  Encrypted scores *and* the per-query operation
    counters (postings, table multiplications, modular multiplications) are
    asserted bit-identical before any timing.  When the compiled backend is
    unavailable (no cffi, no C toolchain) the series records why
    and the ``--check`` gate for it is skipped with a warning.
    """
    from repro.crypto import kernels, numbertheory

    organization = context.buckets(8, None, searchable_only=True)
    embellisher = QueryEmbellisher(
        organization=organization, keypair=keypair, rng=random.Random(6)
    )
    generator = QueryWorkloadGenerator(context.index, seed=7)
    queries = [
        embellisher.embellish(generator.frequency_weighted_query(terms))
        for _ in range(batch_size)
    ]
    server = PrivateRetrievalServer(
        index=context.index, organization=organization, public_key=keypair.public
    )

    def counter_rows():
        return [
            (
                c.postings_processed,
                c.table_multiplications,
                c.modular_multiplications,
            )
            for c in server.last_batch_counters
        ]

    try:
        kernels.ensure_compiled()
        available = True
        unavailable_reason = None
    except RuntimeError as exc:
        available = False
        unavailable_reason = str(exc).splitlines()[0]

    result = {
        "batch_size": batch_size,
        "terms": terms,
        "workers": 1,
        "backend": "cffi" if available else "python",
        "compiled_available": available,
    }
    if not available:
        result["unavailable_reason"] = unavailable_reason

    numbertheory.set_backend("python")
    try:
        baseline = server.process_batch(queries)
        baseline_counters = counter_rows()
        python_samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            server.process_batch(queries)
            python_samples.append((time.perf_counter() - start) * 1000.0)
        result["python_ms"] = round(min(python_samples), 4)

        if available:
            numbertheory.set_backend("cffi")
            vectorised = server.process_batch(queries)
            assert [r.encrypted_scores for r in vectorised] == [
                r.encrypted_scores for r in baseline
            ], "vectorised kernels diverged from the python oracle!"
            assert counter_rows() == baseline_counters, (
                "vectorised kernels changed the operation counters!"
            )
            cffi_samples = []
            for _ in range(repeats):
                start = time.perf_counter()
                server.process_batch(queries)
                cffi_samples.append((time.perf_counter() - start) * 1000.0)
            result["cffi_ms"] = round(min(cffi_samples), 4)
            result["speedup"] = round(result["python_ms"] / result["cffi_ms"], 2)
    finally:
        numbertheory.set_backend("python")
        server.close()
    return result


def bench_distributed_scatter_gather(
    context, keypair, repeats, batch_size=8, terms=3, shard_counts=(1, 2, 4)
):
    """Coordinator batch throughput over 1/2/4 local shard-server processes.

    The real distributed read path, end to end: the context index is
    :func:`~repro.core.partitioning.save_sharded` under a hash term->shard
    map, a :class:`~repro.service.cluster.LocalShardCluster` spawns one
    child process per shard (each a full ``RetrievalService`` over its
    shard's WAL directory), and a
    :class:`~repro.core.coordinator.QueryCoordinator` scatters each batch
    over HTTP and merges the epoch-stamped partials.  Before any timing,
    every shard count's first batch is asserted **bit-identical** to the
    same batch through an in-process single-node server -- the merge is a
    product in Z*_n, so sharding must never change a single bit.

    Throughput per shard count is recorded, not gated: a speed-up from
    shard processes needs more free cores than any runner this series has
    been observed on, so shards are gated on bit-identity and failover.

    A replica-failover probe rides along: a 2-shard topology with two
    replica processes per shard, the preferred replica of shard 0 SIGKILLed
    so the batch in flight hits a dead socket mid-gather -- the batch must
    still complete, bit-identical, off the surviving replica.
    """
    import shutil
    import tempfile

    from repro.core.faults import RetryPolicy
    from repro.core.partitioning import HashPartitioner, save_sharded
    from repro.service.app import chunked_organization
    from repro.service.cluster import LocalShardCluster

    organization = chunked_organization(context.index, 4)
    embellisher = QueryEmbellisher(
        organization=organization, keypair=keypair, rng=random.Random(91)
    )
    workload = QueryWorkloadGenerator(context.index, seed=92)
    batch = [
        embellisher.embellish(workload.frequency_weighted_query(terms))
        for _ in range(batch_size)
    ]
    direct = PrivateRetrievalServer(
        index=context.index, organization=organization, public_key=keypair.public
    )
    expected = [r.encrypted_scores for r in direct.process_batch(batch)]

    root = Path(tempfile.mkdtemp(prefix="bench_distributed_"))
    result: dict = {
        "batch_size": batch_size,
        "terms": terms,
        "cpu_count": os.cpu_count() or 1,
        "series_ms": {},
        "throughput_qps": {},
    }
    try:
        for num_shards in shard_counts:
            shard_root = root / f"shards-{num_shards}"
            save_sharded(
                context.index, shard_root, HashPartitioner(num_shards=num_shards)
            )
            with LocalShardCluster(shard_root, tenant="bench") as cluster:
                with cluster.coordinator(keypair.public) as coordinator:
                    got = [
                        r.encrypted_scores for r in coordinator.process_batch(batch)
                    ]
                    assert got == expected, (
                        f"distributed batch diverged from single-node at "
                        f"{num_shards} shards!"
                    )
                    samples = []
                    for _ in range(repeats):
                        start = time.perf_counter()
                        coordinator.process_batch(batch)
                        samples.append((time.perf_counter() - start) * 1000.0)
            best = min(samples)
            result["series_ms"][str(num_shards)] = round(best, 3)
            result["throughput_qps"][str(num_shards)] = round(
                batch_size / (best / 1000.0), 2
            )
        one = result["series_ms"].get("1")
        four = result["series_ms"].get("4")
        result["speedup_at_4"] = round(one / four, 2) if one and four else None

        # -- replica-failover probe ---------------------------------------------
        failover_root = root / "failover"
        save_sharded(context.index, failover_root, HashPartitioner(num_shards=2))
        with LocalShardCluster(
            failover_root, tenant="bench", replicas_per_shard=2
        ) as cluster:
            with cluster.coordinator(
                keypair.public,
                retry=RetryPolicy(max_retries=3, backoff_base=0.01),
            ) as coordinator:
                cluster.kill_replica(0, 0)  # batch in flight hits a dead socket
                got = [r.encrypted_scores for r in coordinator.process_batch(batch)]
                result["failover_bit_identical"] = got == expected
                result["failover_retries"] = coordinator.counters.tasks_retried
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return result


def bench_session_embellishment(context, keypair, repeats, num_queries=6):
    """The batch API's client-side amortisation: one pre-stocked zero pool
    serving a whole session vs per-query naive encryption."""
    from repro.core.session import QuerySession

    organization = context.buckets(8, None, searchable_only=True)
    generator = QueryWorkloadGenerator(context.index, seed=9)
    session = QuerySession(
        queries=tuple(tuple(generator.random_query(6)) for _ in range(num_queries))
    )
    naive_embellisher = QueryEmbellisher(
        organization=organization, keypair=keypair, rng=random.Random(1), naive=True
    )
    fast_embellisher = QueryEmbellisher(
        organization=organization, keypair=keypair, rng=random.Random(1)
    )
    budget = session.selector_budget(organization)
    # Idle-time precomputation: stock the whole run's draws up front so the
    # timed phase is pure query-path work, as deployed clients experience it.
    fast_embellisher.prestock((repeats + 2) * budget)

    def naive_session():
        for query in session:
            naive_embellisher.embellish(list(query))

    def fast_session():
        for query in session:
            fast_embellisher.embellish(list(query))

    times = timed_pair(naive_session, fast_session, repeats)
    times["num_queries"] = num_queries
    times["selector_budget"] = budget
    return times


def bench_pir_answer(repeats):
    # Uneven column lengths: realistic buckets pad short lists with zeros,
    # which the packed path skips entirely.
    columns = [bytes([i + 1] * (16 + 24 * i)) for i in range(8)]
    database = PIRDatabase.from_columns(columns)
    client = PIRClient.with_new_group(key_bits=192, rng=random.Random(11))
    query = client.build_query(database.cols, 3)
    fast_server = PIRServer(database)
    naive_server = PIRServer(database, naive=True)
    assert fast_server.answer(query).elements == naive_server.answer(query).elements
    return timed_pair(
        lambda: naive_server.answer(query),
        lambda: fast_server.answer(query),
        repeats,
    )


def bench_incremental_update(context, repeats, base_documents=400, update_batch=24):
    """Incremental update + query vs full rebuild + query.

    The baseline answers a corpus change the way the pre-update index had
    to: rebuild the whole index from scratch, then read the query terms'
    columns.  The incremental side starts from an index of the base corpus
    (built outside the timing, once per repeat -- it represents the index
    already resident before the change), applies the same ``update_batch``
    documents through ``add_documents`` and reads the same columns, paying
    tokenisation only for the new text plus one lazy impact refresh.  Both
    sides are asserted bit-identical before timing; ``compact_ms`` and the
    cost model's view of the update counters are recorded alongside.
    """
    from repro.core.costs import CostModel
    from repro.textsearch.corpus import Corpus

    corpus = SyntheticCorpusGenerator(
        lexicon=context.lexicon,
        num_documents=base_documents + update_batch,
        seed=8,
    ).generate()
    documents = list(corpus)
    base_corpus = Corpus(documents[:base_documents])
    new_documents = documents[base_documents:]
    full_corpus = Corpus(documents)

    rebuilt = InvertedIndex.build(full_corpus)
    incremental = InvertedIndex.build(base_corpus)
    incremental.add_documents(new_documents)
    query_terms = QueryWorkloadGenerator(rebuilt, seed=14).frequency_weighted_query(6)
    assert set(incremental.terms) == set(rebuilt.terms), "incremental path diverged!"
    for term in rebuilt.terms:
        assert incremental.columns(term) == rebuilt.columns(term), (
            f"incremental path diverged on {term!r}!"
        )

    naive_samples, fast_samples, compact_samples = [], [], []
    for _ in range(repeats):
        start = time.perf_counter()
        fresh = InvertedIndex.build(full_corpus)
        for term in query_terms:
            fresh.columns(term)
        naive_samples.append((time.perf_counter() - start) * 1000.0)

        base = InvertedIndex.build(base_corpus)  # resident index, untimed
        start = time.perf_counter()
        base.add_documents(new_documents)
        for term in query_terms:
            base.columns(term)
        fast_samples.append((time.perf_counter() - start) * 1000.0)
        start = time.perf_counter()
        base.compact()
        compact_samples.append((time.perf_counter() - start) * 1000.0)

    counters = incremental.update_counters
    modelled = CostModel().index_update_report(
        documents_added=counters.documents_added,
        tokens_tokenised=counters.tokens_tokenised,
        postings_rescored=counters.postings_rescored,
        documents_factored=counters.documents_factored,
        postings_merged=counters.postings_merged,
        postings_dropped=counters.postings_dropped,
    )
    return {
        "naive": min(naive_samples),
        "fast": min(fast_samples),
        "base_documents": base_documents,
        "update_batch": update_batch,
        "compact_ms": round(min(compact_samples), 4),
        "modelled_update_ms": round(modelled.server_cpu_ms, 4),
    }


def bench_segment_sustained_updates(
    context,
    repeats,
    base_documents=700,
    batches=12,
    batch_add=8,
    batch_remove=4,
    query_terms_count=4,
):
    """Sustained interleaved add/remove/query: segmented engine vs single delta.

    Both sides absorb the same update stream -- per batch, ``batch_add`` new
    documents, ``batch_remove`` removals and ``query_terms_count`` term
    reads -- and both keep their read paths maintained.  The *naive* side is
    the PR-4 single-delta strategy: ``compact()`` after every batch, which
    folds the delta into the base and (with the deferred-rewrite read path)
    pays the post-update array rewrite for **every** term, every batch.  The
    *fast* side is the segmented engine: ``maintain(force_seal=True)`` seals
    the delta into a generation-0 segment (O(batch)) and lets the tiered
    policy amortise merges, so per batch it rewrites only the lists the
    queries actually touch.  Both sides are asserted bit-identical to a
    from-scratch rebuild of the final corpus before timing.
    """
    from repro.textsearch.corpus import Corpus
    from repro.textsearch.segments import TieredMergePolicy

    corpus = SyntheticCorpusGenerator(
        lexicon=context.lexicon,
        num_documents=base_documents + batches * batch_add,
        seed=21,
    ).generate()
    documents = list(corpus)
    base_docs, stream = documents[:base_documents], documents[base_documents:]

    def run(kind):
        if kind == "naive":
            index = InvertedIndex.build(Corpus(base_docs))
        else:
            index = InvertedIndex.build(
                Corpus(base_docs), merge_policy=TieredMergePolicy(fanout=4)
            )
        query_terms = QueryWorkloadGenerator(index, seed=31).frequency_weighted_query(
            query_terms_count
        )
        removable = [doc.doc_id for doc in base_docs]
        start = time.perf_counter()
        for batch in range(batches):
            index.add_documents(stream[batch * batch_add : (batch + 1) * batch_add])
            for doc_id in removable[batch * batch_remove : (batch + 1) * batch_remove]:
                index.remove_document(doc_id)
            if kind == "naive":
                index.compact()
            else:
                index.maintain(force_seal=True)
            for term in query_terms:
                index.columns(term)
        elapsed = (time.perf_counter() - start) * 1000.0
        return elapsed, index

    # Correctness before timing: both strategies must serve the rebuilt truth.
    _, single_delta = run("naive")
    _, segmented = run("fast")
    live = [
        d
        for d in documents
        if d.doc_id not in {doc.doc_id for doc in base_docs[: batches * batch_remove]}
    ]
    rebuilt = InvertedIndex.build(Corpus(live))
    for candidate, label in ((single_delta, "single-delta"), (segmented, "segmented")):
        assert set(candidate.terms) == set(rebuilt.terms), f"{label} path diverged!"
        for term in rebuilt.terms:
            assert candidate.columns(term) == rebuilt.columns(term), (
                f"{label} path diverged on {term!r}!"
            )

    naive_samples, fast_samples = [], []
    for _ in range(repeats):
        elapsed, _ = run("naive")
        naive_samples.append(elapsed)
        elapsed, index = run("fast")
        fast_samples.append(elapsed)
    manifest = index.segment_manifest()
    return {
        "naive": min(naive_samples),
        "fast": min(fast_samples),
        "base_documents": base_documents,
        "batches": batches,
        "batch_add": batch_add,
        "batch_remove": batch_remove,
        "final_segments": manifest.num_segments,
        "generations": list(manifest.generations),
        "merges_committed": index.update_counters.merges,
    }


def bench_save_load_coldstart(context, repeats, num_documents=600):
    """Cold-start: load a persisted index (mmap) vs rebuild from raw text.

    The naive side is what every restart cost before persistence existed:
    re-tokenise, re-score and re-sort the whole corpus, then answer the
    first query.  The fast side restores the columnar segment directory
    with ``InvertedIndex.load(mmap=True)`` -- manifest I/O plus lazily
    materialised columns for exactly the terms the first query touches --
    and answers the same query.  Loaded and rebuilt indexes are asserted
    bit-identical before timing; the eager (non-mmap) load time is recorded
    alongside.
    """
    import shutil
    import tempfile

    from repro.textsearch.corpus import Corpus

    corpus = SyntheticCorpusGenerator(
        lexicon=context.lexicon, num_documents=num_documents, seed=23
    ).generate()
    corpus = Corpus(list(corpus))
    reference = InvertedIndex.build(corpus)
    query_terms = QueryWorkloadGenerator(reference, seed=33).frequency_weighted_query(6)
    save_dir = Path(tempfile.mkdtemp(prefix="bench_index_")) / "index"
    try:
        reference.save(save_dir)
        loaded = InvertedIndex.load(save_dir, mmap=True)
        assert set(loaded.terms) == set(reference.terms), "loaded index diverged!"
        for term in reference.terms:
            assert loaded.columns(term) == reference.columns(term), (
                f"loaded index diverged on {term!r}!"
            )
        disk_bytes = sum(f.stat().st_size for f in save_dir.iterdir())

        naive_samples, mmap_samples, eager_samples = [], [], []
        for _ in range(repeats):
            start = time.perf_counter()
            rebuilt = InvertedIndex.build(corpus)
            for term in query_terms:
                rebuilt.columns(term)
            naive_samples.append((time.perf_counter() - start) * 1000.0)

            start = time.perf_counter()
            restored = InvertedIndex.load(save_dir, mmap=True)
            for term in query_terms:
                restored.columns(term)
            mmap_samples.append((time.perf_counter() - start) * 1000.0)

            start = time.perf_counter()
            restored = InvertedIndex.load(save_dir)
            for term in query_terms:
                restored.columns(term)
            eager_samples.append((time.perf_counter() - start) * 1000.0)
    finally:
        shutil.rmtree(save_dir.parent, ignore_errors=True)
    return {
        "naive": min(naive_samples),
        "fast": min(mmap_samples),
        "eager_load_ms": round(min(eager_samples), 4),
        "num_documents": num_documents,
        "saved_bytes": disk_bytes,
    }


def bench_serving_throughput(
    context,
    keypair,
    repeats,
    clients=4,
    batches_per_client=2,
    queries_per_batch=4,
):
    """Load-generate against the HTTP serving front-end and record qps + tails.

    Deploys the real thing: the context index is saved to disk, a
    :class:`RetrievalService` loads it back (``mmap=True``, the
    ``scripts/serve.py`` path) on a background event loop, and ``clients``
    threads each open their own session and fire ``batches_per_client``
    batches of ``queries_per_batch`` single-term embellished queries over
    actual sockets.  Recorded: sustained queries/sec, per-batch p50/p95/p99
    wall-clock, and the service's own ``/metrics`` latency rollups.

    Three contract probes ride along and are gated by ``--check``:

    * the first remote batch is asserted **bit-identical** to an in-process
      ``process_batch`` before any timing starts;
    * a burst against a 1-active/0-pending service must shed with 429
      (and the one admitted batch must still complete);
    * a drain issued mid-stream must finish the in-flight batch and refuse
      new work afterwards.

    The throughput gate is relative: the service (transport + frames + event
    loop + admission) must sustain >= 0.3x the qps of the same work run
    directly through ``PrivateRetrievalServer.process_batch`` in-process,
    which pays for no codec and no socket.  What the gate catches is the
    serving layer *collapsing* throughput.
    """
    import shutil
    import tempfile
    import threading

    from repro.service import (
        RetrievalService,
        ServiceClient,
        ServiceConfig,
        ServiceError,
        ServiceRunner,
    )
    from repro.service.metrics import LatencyRollup

    save_dir = Path(tempfile.mkdtemp(prefix="bench_serving_")) / "index"
    context.index.save(save_dir)
    result: dict = {
        "clients": clients,
        "batches_per_client": batches_per_client,
        "queries_per_batch": queries_per_batch,
    }
    try:
        service = RetrievalService(
            ServiceConfig(bucket_size=4, max_active=2, max_pending=32)
        )
        service.add_tenant("bench", index_dir=save_dir)
        runner = ServiceRunner(service)
        try:
            host, port = runner.start()
            client = ServiceClient(host, port)
            organization = client.organization("bench")
            embellisher = QueryEmbellisher(
                organization=organization, keypair=keypair, rng=random.Random(77)
            )
            # 3 genuine terms per query (typical web-query length, mid-range
            # of the paper's 1-6 sweep): per-query crypto work must dominate
            # transport for the relative-throughput gate to measure overhead
            # rather than socket round-trips.
            workload = QueryWorkloadGenerator(context.index, seed=88)
            batches = [
                [
                    embellisher.embellish(workload.frequency_weighted_query(3))
                    for _ in range(queries_per_batch)
                ]
                for _ in range(clients * batches_per_client)
            ]

            # correctness probe: remote == direct, bit for bit
            probe_session = client.open_session("bench", keypair.public)
            remote_probe, _ = client.run_batch(
                probe_session, batches[0], keypair.public.n
            )
            direct_server = PrivateRetrievalServer(
                index=context.index,
                organization=organization,
                public_key=keypair.public,
            )
            direct_probe = direct_server.process_batch(batches[0])
            assert [r.encrypted_scores for r in remote_probe] == [
                d.encrypted_scores for d in direct_probe
            ], "served results diverged from in-process results!"

            # load phase: every client thread owns a session, fires its share
            sessions = [
                client.open_session("bench", keypair.public) for _ in range(clients)
            ]
            batch_latency = LatencyRollup()
            errors: list[BaseException] = []
            lock = threading.Lock()

            def drive(slot: int) -> None:
                try:
                    for i in range(batches_per_client):
                        batch = batches[slot * batches_per_client + i]
                        start = time.perf_counter()
                        _, done = client.run_batch(
                            sessions[slot], batch, keypair.public.n
                        )
                        elapsed_ms = (time.perf_counter() - start) * 1000.0
                        with lock:
                            batch_latency.record(elapsed_ms)
                            assert done["queries"] == len(batch)
                except BaseException as exc:
                    with lock:
                        errors.append(exc)

            wall_start = time.perf_counter()
            threads = [
                threading.Thread(target=drive, args=(slot,))
                for slot in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall_s = time.perf_counter() - wall_start
            assert not errors, f"load generation failed: {errors[0]!r}"

            total_queries = clients * batches_per_client * queries_per_batch
            metrics = client.metrics()
            result.update(
                {
                    "queries": total_queries,
                    "wall_ms": round(wall_s * 1000.0, 1),
                    "qps": round(total_queries / wall_s, 2),
                    "batch_p50_ms": batch_latency.snapshot()["p50_ms"],
                    "batch_p95_ms": batch_latency.snapshot()["p95_ms"],
                    "batch_p99_ms": batch_latency.snapshot()["p99_ms"],
                    "service_latency_ms": metrics["service"]["latency_ms"],
                    "admitted": metrics["service"]["requests"]["admitted"],
                    "failed": metrics["service"]["requests"]["failed"],
                }
            )

            # drain probe: in-flight batch finishes, new work is refused
            stream = client.submit_batch(
                sessions[0], batches[0], keypair.public.n
            )
            first_line = next(stream)
            assert first_line["kind"] == "result"
            drain_thread = threading.Thread(target=runner.drain)
            drain_thread.start()
            tail = list(stream)  # consumed while the service drains
            drain_thread.join(timeout=120)
            result["drain_inflight_completed"] = bool(
                tail
                and tail[-1].get("kind") == "done"
                and tail[-1].get("queries") == len(batches[0])
            )
            try:
                client.run_batch(sessions[0], batches[0], keypair.public.n)
                result["drain_rejects_new"] = False
            except (ServiceError, OSError):
                result["drain_rejects_new"] = True
        finally:
            runner.stop()
    finally:
        shutil.rmtree(save_dir.parent, ignore_errors=True)

    # saturation probe: its own tiny service so limits are explicit
    sat_dir = Path(tempfile.mkdtemp(prefix="bench_serving_sat_")) / "index"
    context.index.save(sat_dir)
    try:
        sat_service = RetrievalService(
            ServiceConfig(bucket_size=4, max_active=1, max_pending=0,
                          retry_after=0.1)
        )
        sat_service.add_tenant("bench", index_dir=sat_dir)
        with ServiceRunner(sat_service) as (host, port):
            sat_client = ServiceClient(host, port)
            organization = sat_client.organization("bench")
            embellisher = QueryEmbellisher(
                organization=organization, keypair=keypair, rng=random.Random(79)
            )
            workload = QueryWorkloadGenerator(context.index, seed=89)
            burst_batch = [
                embellisher.embellish(workload.frequency_weighted_query(3))
                for _ in range(queries_per_batch)
            ]
            sat_sessions = [
                sat_client.open_session("bench", keypair.public) for _ in range(3)
            ]
            outcomes: list[str] = []
            lock = threading.Lock()

            def burst(session_id: str) -> None:
                try:
                    _, done = sat_client.run_batch(
                        session_id, burst_batch, keypair.public.n
                    )
                    with lock:
                        outcomes.append(
                            "served" if done["queries"] == len(burst_batch)
                            else "partial"
                        )
                except ServiceError as error:
                    with lock:
                        outcomes.append(f"http_{error.status}")

            burst_threads = [
                threading.Thread(target=burst, args=(session_id,))
                for session_id in sat_sessions
            ]
            for thread in burst_threads:
                thread.start()
            for thread in burst_threads:
                thread.join()
        result["saturation_outcomes"] = sorted(outcomes)
        result["saturated_429s"] = sum(1 for o in outcomes if o == "http_429")
        result["saturation_partial"] = sum(1 for o in outcomes if o == "partial")
    finally:
        shutil.rmtree(sat_dir.parent, ignore_errors=True)

    # direct in-process baseline: the load phase's exact batches, sequentially
    direct_server = PrivateRetrievalServer(
        index=context.index,
        organization=organization,
        public_key=keypair.public,
    )
    start = time.perf_counter()
    for batch in batches:
        direct_server.process_batch(batch)
    direct_s = time.perf_counter() - start
    direct_total = sum(len(batch) for batch in batches)
    result["direct_qps"] = round(direct_total / direct_s, 2)
    result["relative_to_direct"] = (
        round(result["qps"] / result["direct_qps"], 3)
        if result["direct_qps"] > 0
        else None
    )
    return result


def bench_snapshot_read_concurrency(
    context,
    keypair,
    repeats,
    num_documents=500,
    reader_queries=10,
    save_batches=None,
):
    """Pinned-reader throughput under concurrent maintenance + save latency.

    Two series for the MVCC snapshot layer:

    * **reader concurrency** -- a server pinned to one ``index.snapshot()``
      answers the same query batch (a) on a quiesced index and (b) while a
      writer thread drives adds/removes/seals/tiered merges/compactions on
      the live index.  Every concurrent answer is asserted bit-identical to
      the quiesced baseline first (the snapshot isolation contract); the
      recorded ratio is concurrent/quiesced reader throughput.  Python's GIL
      means the writer steals CPU -- the gate (>= 0.4x) catches the read
      path re-acquiring locks or copying state per query, not scheduler
      fairness.
    * **incremental save latency** -- ``save`` back onto the directory the
      index was last saved to (appends the newly sealed segment files plus
      one CRC-framed manifest-log record) vs a wholesale save of the same
      index to a fresh directory.  Previously referenced segment files are
      asserted byte-identical after every incremental save: append, never
      rewrite.
    """
    import shutil
    import tempfile
    import threading

    from repro.core.buckets import simple_buckets
    from repro.textsearch.corpus import Corpus, Document
    from repro.textsearch.segments import TieredMergePolicy

    if save_batches is None:
        save_batches = max(3, repeats)
    corpus = SyntheticCorpusGenerator(
        lexicon=context.lexicon,
        num_documents=num_documents + 120 + save_batches * 8,
        seed=41,
    ).generate()
    documents = list(corpus)
    base_docs = documents[:num_documents]
    writer_stream = documents[num_documents : num_documents + 120]
    save_stream = documents[num_documents + 120 :]
    index = InvertedIndex.build(
        Corpus(base_docs), merge_policy=TieredMergePolicy(fanout=4)
    )
    snapshot = index.snapshot()
    organization = simple_buckets(sorted(snapshot.terms), {}, bucket_size=8)
    embellisher = QueryEmbellisher(
        organization=organization, keypair=keypair, rng=random.Random(43)
    )
    workload = QueryWorkloadGenerator(index, seed=44)
    queries = [
        embellisher.embellish(workload.frequency_weighted_query(4))
        for _ in range(reader_queries)
    ]
    server = PrivateRetrievalServer(
        index=snapshot, organization=organization, public_key=keypair.public
    )
    baseline = [server.process_query(q).encrypted_scores for q in queries]

    def read_pass():
        return [server.process_query(q).encrypted_scores for q in queries]

    quiesced_samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        answers = read_pass()
        quiesced_samples.append((time.perf_counter() - start) * 1000.0)
        assert answers == baseline, "quiesced pinned reader diverged!"

    stop = threading.Event()
    removable = [doc.doc_id for doc in base_docs]

    def writer() -> None:
        round_no = 0
        while not stop.is_set():
            doc = writer_stream[round_no % len(writer_stream)]
            index.add_document(
                Document(doc_id=10_000_000 + round_no, text=doc.text)
            )
            if round_no % 3 == 0 and removable:
                index.remove_document(removable.pop())
            index.maintain(force_seal=round_no % 2 == 0)
            if round_no % 25 == 24:
                index.compact()
            round_no += 1

    concurrent_samples = []
    writer_thread = threading.Thread(target=writer)
    writer_thread.start()
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            answers = read_pass()
            concurrent_samples.append((time.perf_counter() - start) * 1000.0)
            assert answers == baseline, (
                "pinned reader diverged under concurrent maintenance!"
            )
    finally:
        stop.set()
        writer_thread.join()

    quiesced_ms, concurrent_ms = min(quiesced_samples), min(concurrent_samples)
    reader_ratio = quiesced_ms / concurrent_ms if concurrent_ms > 0 else None

    # -- incremental vs wholesale save latency ---------------------------------
    save_root = Path(tempfile.mkdtemp(prefix="bench_snapshot_")) / "index"
    incremental_samples, wholesale_samples = [], []
    try:
        index.save(save_root)  # prime: the resident full checkpoint, untimed
        for batch in range(save_batches):
            for doc in save_stream[batch * 8 : (batch + 1) * 8]:
                index.add_document(
                    Document(doc_id=20_000_000 + doc.doc_id, text=doc.text)
                )
            index.maintain(force_seal=True)
            before = {
                p.name: p.read_bytes() for p in save_root.glob("segment_*.bin")
            }
            start = time.perf_counter()
            index.save(save_root)
            incremental_samples.append((time.perf_counter() - start) * 1000.0)
            assert index.last_save_report["mode"] == "incremental"
            for name, blob in before.items():
                if (save_root / name).exists():
                    assert (save_root / name).read_bytes() == blob, (
                        f"incremental save rewrote previously referenced {name}!"
                    )
        for _ in range(repeats):
            fresh = Path(tempfile.mkdtemp(prefix="bench_snapshot_full_")) / "index"
            try:
                start = time.perf_counter()
                index.save(fresh)
                wholesale_samples.append((time.perf_counter() - start) * 1000.0)
                assert index.last_save_report["mode"] == "full"
            finally:
                shutil.rmtree(fresh.parent, ignore_errors=True)
    finally:
        shutil.rmtree(save_root.parent, ignore_errors=True)
    incremental_ms = min(incremental_samples)
    wholesale_ms = min(wholesale_samples)

    return {
        "num_documents": num_documents,
        "reader_queries": reader_queries,
        "quiesced_ms": round(quiesced_ms, 4),
        "concurrent_ms": round(concurrent_ms, 4),
        "reader_ratio": round(reader_ratio, 3) if reader_ratio is not None else None,
        "save_batches": save_batches,
        "incremental_save_ms": round(incremental_ms, 4),
        "wholesale_save_ms": round(wholesale_ms, 4),
        "save_speedup": round(wholesale_ms / incremental_ms, 2)
        if incremental_ms > 0
        else None,
    }


def _reference_index_build(corpus):
    """The seed's per-posting-object index construction, kept as the baseline."""
    from repro.textsearch.scoring import CorpusStatistics, CosineScorer
    from repro.textsearch.tokenizer import Tokenizer

    tokenizer, scorer = Tokenizer(), CosineScorer()
    term_frequencies, document_frequencies, total_length = {}, {}, 0
    for document in corpus:
        frequencies = tokenizer.term_frequencies(document.text)
        term_frequencies[document.doc_id] = frequencies
        total_length += sum(frequencies.values())
        for term in frequencies:
            document_frequencies[term] = document_frequencies.get(term, 0) + 1
    stats = CorpusStatistics(
        num_documents=len(corpus),
        document_frequencies=document_frequencies,
        average_document_length=total_length / max(len(corpus), 1),
    )
    raw_lists, max_impact = {}, 0.0
    for doc_id, frequencies in term_frequencies.items():
        for term, impact in scorer.document_impacts(frequencies, stats).items():
            if impact <= 0.0:
                continue
            raw_lists.setdefault(term, []).append((doc_id, impact))
            max_impact = max(max_impact, impact)
    postings = {}
    for term, entries in raw_lists.items():
        term_postings = [
            Posting(
                doc_id=doc_id,
                impact=impact,
                quantised_impact=quantise_impact(impact, max_impact, 255),
            )
            for doc_id, impact in entries
        ]
        term_postings.sort(key=lambda p: (-p.impact, p.doc_id))
        postings[term] = term_postings
    return InvertedIndex(postings=postings, stats=stats, quantise_levels=255)


def bench_index_build(context, repeats):
    corpus = SyntheticCorpusGenerator(
        lexicon=context.lexicon, num_documents=min(context.num_documents, 500), seed=5
    ).generate()
    return timed_pair(
        lambda: _reference_index_build(corpus),
        lambda: InvertedIndex.build(corpus),
        repeats,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--key-bits", type=int, default=1024,
                        help="Benaloh modulus size (the paper sweeps 512-1280; "
                             "1024 is the realistic deployment floor)")
    parser.add_argument("--synsets", type=int, default=2500)
    parser.add_argument("--documents", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--check", action="store_true",
                        help="fail unless accumulation >= 5x and embellishment >= 3x")
    parser.add_argument("--output", type=Path, default=RESULTS_DIR / "BENCH_fastpath.json")
    args = parser.parse_args()

    context = ExperimentContext(
        num_synsets=args.synsets, num_documents=args.documents, seed=2010
    )
    print(f"building context (synsets={args.synsets}, documents={args.documents}) ...")
    context.index  # force the expensive build outside the timings
    print(f"generating {args.key_bits}-bit Benaloh keypair ...")
    keypair = generate_keypair(key_bits=args.key_bits, block_size=3**9, rng=random.Random(42))

    benches = {
        "homomorphic_accumulation": bench_accumulation(context, keypair, args.repeats),
        "query_embellishment": bench_embellishment(context, keypair, args.repeats),
        "session_embellishment": bench_session_embellishment(context, keypair, args.repeats),
        "pir_answer": bench_pir_answer(args.repeats),
        "index_build": bench_index_build(context, args.repeats),
        "incremental_update": bench_incremental_update(context, args.repeats),
        "segment_sustained_updates": bench_segment_sustained_updates(context, args.repeats),
        "save_load_coldstart": bench_save_load_coldstart(context, args.repeats),
    }

    results = {}
    print(f"\n{'benchmark':<28} {'naive ms':>10} {'fast ms':>10} {'speedup':>8}")
    for name, times in benches.items():
        speedup = times["naive"] / times["fast"] if times["fast"] > 0 else float("inf")
        results[name] = {
            "naive_ms": round(times["naive"], 4),
            "fast_ms": round(times["fast"], 4),
            "speedup": round(speedup, 2),
        }
        results[name].update(
            {k: v for k, v in times.items() if k not in ("naive", "fast")}
        )
        print(f"{name:<28} {times['naive']:>10.3f} {times['fast']:>10.3f} {speedup:>7.1f}x")

    vectorised = bench_vectorised_accumulation(context, keypair, args.repeats)
    vectorised["vectorised_gate"] = (
        "enforced when --check (compiled backend available)"
        if vectorised["compiled_available"]
        else "not enforceable: compiled backend unavailable "
        f"({vectorised.get('unavailable_reason', 'unknown')})"
    )
    results["vectorised_accumulation"] = vectorised
    print(f"\nvectorised accumulation ({vectorised['batch_size']} queries, "
          f"1 worker, bit-identity + counters asserted):")
    print(f"  python {vectorised['python_ms']:>10.3f} ms")
    if vectorised["compiled_available"]:
        print(f"  cffi   {vectorised['cffi_ms']:>10.3f} ms  "
              f"({vectorised['speedup']:.2f}x)")
    else:
        print(f"  cffi   unavailable: {vectorised.get('unavailable_reason')}")

    serving = bench_serving_throughput(context, keypair, args.repeats)
    results["serving_throughput"] = serving
    print(f"\nserving throughput ({serving['clients']} client threads x "
          f"{serving['batches_per_client']} batches x "
          f"{serving['queries_per_batch']} queries, HTTP + frame streaming):")
    print(f"  {serving['qps']:>8.2f} q/s over the wire "
          f"({serving['relative_to_direct']}x in-process direct)")
    print(f"  batch latency p50/p95/p99: {serving['batch_p50_ms']:.1f} / "
          f"{serving['batch_p95_ms']:.1f} / {serving['batch_p99_ms']:.1f} ms")
    print(f"  saturation burst: {serving['saturated_429s']} x 429, "
          f"outcomes {serving['saturation_outcomes']}; "
          f"drain finished in-flight: {serving['drain_inflight_completed']}, "
          f"refused new: {serving['drain_rejects_new']}")

    distributed = bench_distributed_scatter_gather(context, keypair, args.repeats)
    distributed["distributed_gate"] = "bit-identity and replica failover; throughput recorded"
    results["distributed_scatter_gather"] = distributed
    print(f"\ndistributed scatter-gather ({distributed['batch_size']} queries, "
          f"shard processes over HTTP, bit-identity asserted):")
    for n, ms in distributed["series_ms"].items():
        qps = distributed["throughput_qps"][n]
        print(f"  shards={n:<3} {ms:>10.3f} ms  {qps:>8.2f} q/s")
    if distributed["speedup_at_4"] is not None:
        print(f"  speedup at 4 shards: {distributed['speedup_at_4']:.2f}x")
    print(f"  failover probe: bit-identical={distributed['failover_bit_identical']}, "
          f"{distributed['failover_retries']} failover retries")

    snapshot_rc = bench_snapshot_read_concurrency(context, keypair, args.repeats)
    results["snapshot_read_concurrency"] = snapshot_rc
    print(f"\nsnapshot read concurrency ({snapshot_rc['reader_queries']} pinned "
          f"queries over {snapshot_rc['num_documents']} documents):")
    print(f"  quiesced   {snapshot_rc['quiesced_ms']:>10.3f} ms")
    print(f"  concurrent {snapshot_rc['concurrent_ms']:>10.3f} ms  "
          f"({snapshot_rc['reader_ratio']}x quiesced throughput during live "
          f"seal/merge/compact, answers bit-identical)")
    print(f"  save latency: incremental {snapshot_rc['incremental_save_ms']:.3f} ms "
          f"vs wholesale {snapshot_rc['wholesale_save_ms']:.3f} ms "
          f"({snapshot_rc['save_speedup']}x, append-only asserted)")

    # Every series records which numbertheory backend its timings ran under
    # (the vectorised series, which switches backends itself, sets its own).
    for series in results.values():
        series.setdefault("backend", numbertheory.get_backend())

    summary = {
        "benchmark": "fastpath",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "parameters": {
            "key_bits": args.key_bits,
            "num_synsets": args.synsets,
            "num_documents": args.documents,
            "repeats": args.repeats,
        },
        "results": results,
    }
    args.output.parent.mkdir(parents=True, exist_ok=True)
    args.output.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {args.output}")

    if args.check:
        failures = []
        if results["homomorphic_accumulation"]["speedup"] < 5.0:
            failures.append("homomorphic accumulation speedup < 5x")
        if results["query_embellishment"]["speedup"] < 3.0:
            failures.append("query embellishment speedup < 3x")
        if results["session_embellishment"]["speedup"] < 3.0:
            failures.append("session embellishment speedup < 3x")
        if results["incremental_update"]["speedup"] < 1.5:
            # Update + query must beat a full rebuild + query: the
            # incremental path skips re-tokenising the resident corpus, which
            # alone is worth > 2x at these corpus sizes.
            failures.append("incremental update + query < 1.5x over full rebuild")
        if results["segment_sustained_updates"]["speedup"] < 1.5:
            # Seal + tiered merge + per-touched-term rewrites must beat
            # compact-per-batch (which rewrites and re-merges every term);
            # ~3.5x on the calibration machine.
            failures.append("segmented sustained updates < 1.5x over single delta")
        if results["save_load_coldstart"]["speedup"] < 1.5:
            # Loading columnar segments must beat re-tokenising and
            # re-scoring the corpus; mmap loads are I/O-bound and typically
            # two orders of magnitude faster.
            failures.append("save/load cold start < 1.5x over rebuild")
        if serving["failed"]:
            failures.append(f"{serving['failed']} admitted batches failed server-side")
        if serving["relative_to_direct"] is None or serving["relative_to_direct"] < 0.3:
            # The serving layer may tax throughput but must not collapse it:
            # framing, sockets and the event loop are work the in-process
            # baseline never does; 0.3x is the regression bar.
            failures.append(
                f"serving throughput < 0.3x in-process direct "
                f"({serving['relative_to_direct']}x)"
            )
        if serving["saturated_429s"] < 1:
            failures.append("saturation burst produced no 429 (load shedding broken)")
        if serving["saturation_partial"]:
            failures.append("a saturated batch was admitted but not completed")
        if not serving["drain_inflight_completed"]:
            failures.append("drain did not complete the in-flight batch")
        if not serving["drain_rejects_new"]:
            failures.append("drain kept admitting new work")
        reader_ratio = snapshot_rc["reader_ratio"]
        if reader_ratio is None or reader_ratio < 0.4:
            # The pinned read path takes no lock and copies no state per
            # query; under a concurrent writer the only legitimate cost is
            # GIL contention.  Falling below 0.4x means reads started
            # serialising against maintenance again.
            failures.append(
                f"pinned reader under concurrent maintenance < 0.4x quiesced "
                f"({reader_ratio}x)"
            )
        save_speedup = snapshot_rc["save_speedup"]
        if save_speedup is None or save_speedup < 1.1:
            # An incremental save appends the newly sealed blobs plus one
            # manifest-log record instead of rewriting every segment blob.
            # Both sides still rewrite the doc_terms sidecar in full, which
            # dominates the wall-clock and lands the honest ratio near 1.2x
            # on the calibration machine; 1.1x is the regression bar beneath
            # it (an incremental save that stops reusing blobs falls to 1.0x).
            failures.append(
                f"incremental save < 1.1x over wholesale ({save_speedup}x)"
            )
        if not distributed["failover_bit_identical"]:
            failures.append(
                "replica failover batch diverged from the single-node oracle"
            )
        if distributed["failover_retries"] < 1:
            failures.append(
                "replica failover probe recorded no retries (the kill was not "
                "exercised)"
            )
        if vectorised["compiled_available"]:
            # The compiled kernels replace the same per-posting loop at the
            # same worker count, so the bar is pure constant-factor: batched
            # Montgomery folds must land >= 5x over the python oracle.
            if vectorised.get("speedup") is None or vectorised["speedup"] < 5.0:
                failures.append(
                    f"vectorised accumulation < 5x python at 1 worker "
                    f"({vectorised.get('speedup')}x)"
                )
        else:
            print(
                f"WARNING: vectorised >=5x kernel gate SKIPPED -- compiled "
                f"backend unavailable on this machine "
                f"({vectorised.get('unavailable_reason')}); the gate is "
                f"enforced where cffi + a C toolchain are present (CI)."
            )
        if failures:
            print("CHECK FAILED: " + "; ".join(failures))
            return 1
        gates = (
            "accumulation >= 5x, embellishment >= 3x, session >= 3x, "
            "incremental update >= 1.5x, "
            "sustained updates >= 1.5x, cold start >= 1.5x, "
            f"pinned reader >= 0.4x quiesced ({reader_ratio}x), "
            f"incremental save >= 1.1x wholesale ({save_speedup}x), "
            f"serving >= 0.3x direct ({serving['relative_to_direct']}x) "
            "with 429 shedding and graceful drain, "
            f"1/2/4 shards and replica failover bit-identical with "
            f"{distributed['failover_retries']} retries"
        )
        if vectorised["compiled_available"]:
            gates += f", vectorised kernels >= 5x ({vectorised['speedup']}x)"
        print(f"CHECK PASSED: {gates}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
