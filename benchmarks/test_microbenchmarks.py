"""Microbenchmarks of the individual pipeline stages.

These do not correspond to a specific figure; they quantify the cost of each
moving part (index construction, sequencing, embellishment, homomorphic
accumulation, Benaloh decryption, KO answer generation) so that changes to
the implementation are easy to track over time.
"""

import random
from collections import Counter

import pytest

from repro.core.embellish import QueryEmbellisher
from repro.core.sequencing import sequence_dictionary
from repro.core.server import PrivateRetrievalServer
from repro.core.workloads import QueryWorkloadGenerator
from repro.crypto.benaloh import generate_keypair
from repro.crypto.pir import PIRClient, PIRDatabase, PIRServer
from repro.service import wire
from repro.service.app import chunked_organization
from repro.textsearch.corpus import Corpus
from repro.textsearch.inverted_index import IndexSnapshot, InvertedIndex
from repro.textsearch.segments import TieredMergePolicy, merge_segment_parts
from repro.textsearch.synthetic import SyntheticCorpusGenerator
from repro.textsearch.tokenizer import Tokenizer
from tests.textsearch import oracles


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(key_bits=256, block_size=3**9, rng=random.Random(42))


def test_bench_index_build(benchmark, context):
    corpus = SyntheticCorpusGenerator(
        lexicon=context.lexicon, num_documents=300, seed=5
    ).generate()
    benchmark(InvertedIndex.build, corpus)


def test_bench_dictionary_sequencing(benchmark, context):
    benchmark(sequence_dictionary, context.lexicon)


def test_bench_query_embellishment_fast(benchmark, context, keypair):
    """Default path: one-time zero-stock selectors (query-path cost only).

    The stock is pre-filled for the whole measurement, mirroring a deployed
    client that replenishes during idle time; bounded rounds keep the
    consumption predictable.
    """
    organization = context.buckets(8, None, searchable_only=True)
    embellisher = QueryEmbellisher(
        organization=organization, keypair=keypair, rng=random.Random(1)
    )
    query = QueryWorkloadGenerator(context.index, seed=2).random_query(12)
    selectors_per_query = len(embellisher.embellish(query))
    rounds = 30
    embellisher.pool.replenish((rounds + 5) * selectors_per_query)
    benchmark.pedantic(embellisher.embellish, args=(query,), rounds=rounds, warmup_rounds=2)


def test_bench_query_embellishment_naive(benchmark, context, keypair):
    """Reference path: one full Benaloh encryption (two modexps) per selector."""
    organization = context.buckets(8, None, searchable_only=True)
    embellisher = QueryEmbellisher(
        organization=organization, keypair=keypair, rng=random.Random(1), naive=True
    )
    query = QueryWorkloadGenerator(context.index, seed=2).random_query(12)
    benchmark(embellisher.embellish, query)


def test_bench_server_homomorphic_accumulation_fast(benchmark, context, keypair):
    """Default path: power-table accumulation (amortised ~1 modmul/posting).

    Uses a frequency-weighted query: the server's CPU time is dominated by
    the longest inverted lists, which is also where the power table pays off.
    """
    organization = context.buckets(8, None, searchable_only=True)
    embellisher = QueryEmbellisher(
        organization=organization, keypair=keypair, rng=random.Random(3)
    )
    server = PrivateRetrievalServer(
        index=context.index, organization=organization, public_key=keypair.public
    )
    query = embellisher.embellish(
        QueryWorkloadGenerator(context.index, seed=4).frequency_weighted_query(4)
    )
    benchmark(server.process_query, query)


def test_bench_server_homomorphic_accumulation_naive(benchmark, context, keypair):
    """Reference path: one modular exponentiation per posting (Algorithm 4 verbatim)."""
    organization = context.buckets(8, None, searchable_only=True)
    embellisher = QueryEmbellisher(
        organization=organization, keypair=keypair, rng=random.Random(3)
    )
    server = PrivateRetrievalServer(
        index=context.index, organization=organization, public_key=keypair.public, naive=True
    )
    query = embellisher.embellish(
        QueryWorkloadGenerator(context.index, seed=4).frequency_weighted_query(4)
    )
    benchmark(server.process_query, query)


def test_bench_benaloh_encrypt(benchmark, keypair):
    rng = random.Random(9)
    benchmark(keypair.public.encrypt, 1, rng)


def test_bench_benaloh_decrypt(benchmark, keypair):
    rng = random.Random(10)
    ciphertext = keypair.public.encrypt(1234, rng)
    benchmark(keypair.private.decrypt, ciphertext)


@pytest.fixture(scope="module", params=[256, 1024], ids=lambda bits: f"{bits}bit")
def result_column(request):
    """A search result's shape: 24 candidates, half of them decoy-only zeros."""
    keypair = generate_keypair(key_bits=request.param, block_size=3**9, rng=random.Random(43))
    rng = random.Random(12)
    messages = [0 if i % 2 else rng.randrange(1, 3**9) for i in range(24)]
    column = [keypair.public.encrypt(m, rng) for m in messages]
    assert keypair.private.decrypt_many(column) == messages
    return keypair.private, column


def test_bench_benaloh_decrypt_per_candidate(benchmark, result_column):
    """One ``decrypt`` call per candidate."""
    private, column = result_column
    benchmark(lambda: [private.decrypt(c) for c in column])


def test_bench_benaloh_decrypt_column(benchmark, result_column):
    """The whole result as one column: one common-exponent batch (a sliding
    window on the compiled kernel), then one discrete-log table lookup per
    non-zero candidate.  The fixture builds the key's table, so this times
    the steady state; the fixture's own call checks every message."""
    private, column = result_column
    benchmark(private.decrypt_many, column)


def _pir_setup():
    # Columns of uneven length: the padding is what the packed path skips.
    columns = [bytes([i] * (16 + 12 * i)) for i in range(8)]
    database = PIRDatabase.from_columns(columns)
    client = PIRClient.with_new_group(key_bits=192, rng=random.Random(11))
    query = client.build_query(database.cols, 3)
    return database, query


def test_bench_pir_answer_generation_fast(benchmark):
    """Default path: packed row masks, set-bit-only multiplications."""
    database, query = _pir_setup()
    server = PIRServer(database)
    benchmark(server.answer, query)


def test_bench_pir_answer_generation_naive(benchmark):
    """Reference path: per-cell scan of the unpacked bit matrix."""
    database, query = _pir_setup()
    server = PIRServer(database, naive=True)
    benchmark(server.answer, query)


def test_bench_pir_database_build(benchmark):
    columns = [bytes([i] * (16 + 12 * i)) for i in range(8)]
    benchmark(PIRDatabase.from_columns, columns)


@pytest.fixture(scope="module")
def updated_index(context):
    """500 documents, four cycles of +8/-4 documents, each sealed by
    ``maintain``, and every embellished term of 64 3-term queries at BktSz 4:
    ``(index, embellished terms, a rebuild of the live corpus)``."""
    documents = list(
        SyntheticCorpusGenerator(lexicon=context.lexicon, num_documents=532, seed=19).generate()
    )
    index = InvertedIndex.build(Corpus(documents[:500]))
    for cycle in range(4):
        index.add_documents(documents[500 + 8 * cycle : 508 + 8 * cycle])
        index.remove_documents(d.doc_id for d in documents[4 * cycle : 4 * cycle + 4])
        index.maintain(force_seal=True)
    organization = chunked_organization(index, 4)
    rng = random.Random(23)
    terms = sorted(index.terms)
    embellished = [
        term
        for _ in range(64)
        for bucket in organization.buckets_for_query(rng.sample(terms, 3)).values()
        for term in bucket
    ]
    return index, embellished, InvertedIndex.build(Corpus(documents[16:]))


def test_bench_first_read_after_update(benchmark, updated_index):
    """The server's first read of each term after updates: ``columns()``
    over every embellished term on a freshly pinned snapshot (every sealed
    run is stale, the memo cold)."""
    index, embellished, rebuilt = updated_index

    def first_reads(view):
        return [view.columns(term) for term in embellished]

    served = benchmark.pedantic(
        first_reads, setup=lambda: ((IndexSnapshot(index),), {}), rounds=20, warmup_rounds=1
    )
    # columns() serves each live row once, in run order: a rebuild's rows.
    for term, rows in zip(embellished, served):
        assert Counter(zip(*rows)) == Counter(zip(*rebuilt.columns(term))), term


def test_bench_ordered_read_after_update(benchmark, updated_index):
    """The ordered read of each term after updates: ``postings()`` over the
    same embellished terms on a freshly pinned snapshot -- the plaintext
    engine's and PIR's read, every stale run recomposed and put in order."""
    index, embellished, rebuilt = updated_index

    def ordered_reads(view):
        return [view.postings(term) for term in embellished]

    served = benchmark.pedantic(
        ordered_reads, setup=lambda: ((IndexSnapshot(index),), {}), rounds=20, warmup_rounds=1
    )
    for term, postings in zip(embellished, served):
        assert postings == rebuilt.postings(term), term


def test_bench_maintain_after_update(benchmark, context):
    """One +8/-4 update at ``updated_index``'s shape (500 documents), sealed
    by ``maintain(force_seal=True)``: the refresh (the max over impact-class
    representatives, the delta's lists) and, every fourth cycle, a tiered
    merge.  Each round is the next cycle of one update stream."""
    documents = list(
        SyntheticCorpusGenerator(lexicon=context.lexicon, num_documents=700, seed=19).generate()
    )
    index = InvertedIndex.build(Corpus(documents[:500]))
    cycles = []

    def next_cycle():
        cycle = len(cycles)
        cycles.append(cycle)
        added = documents[500 + 8 * cycle : 508 + 8 * cycle]
        return (added, [d.doc_id for d in documents[4 * cycle : 4 * cycle + 4]]), {}

    def update(added, removed):
        index.add_documents(added)
        index.remove_documents(removed)
        return index.maintain(force_seal=True)

    benchmark.pedantic(update, setup=next_cycle, rounds=20, warmup_rounds=1)
    done = len(cycles)
    rebuilt = InvertedIndex.build(Corpus(documents[4 * done : 500 + 8 * done]))
    assert index.max_impact == rebuilt.max_impact
    assert set(index.terms) == set(rebuilt.terms)
    for term in rebuilt.terms:
        assert index.postings(term) == rebuilt.postings(term), term


def test_bench_merge_after_updates(benchmark, context):
    """The tiered merge of ``test_bench_maintain_after_update``'s shape: four
    generation-0 segments of +8/-4 updates over 500 documents, three of them
    stale, folded by ``merge_segment_parts`` as ``maintain`` folds them.
    Checked against the per-term merge: lists in the same order, with the
    same rows, documents and tombstones."""
    documents = list(
        SyntheticCorpusGenerator(lexicon=context.lexicon, num_documents=700, seed=19).generate()
    )
    # Fanout 5 keeps the four segments apart until the benchmark merges them.
    index = InvertedIndex.build(Corpus(documents[:500]), merge_policy=TieredMergePolicy(5))
    for cycle in range(4):
        index.add_documents(documents[500 + 8 * cycle : 508 + 8 * cycle])
        index.remove_documents(d.doc_id for d in documents[4 * cycle : 4 * cycle + 4])
        index.maintain(force_seal=True)
    segments = index._segments
    older_docs, external_dead = segments[0].documents, index._dead_sets()[-1]
    assert [s.generation for s in segments[1:]] == [0, 0, 0, 0]
    merged = benchmark.pedantic(
        merge_segment_parts, args=(segments[1:], older_docs, external_dead), rounds=30
    )
    want = oracles.merge_segment_parts(segments[1:], older_docs, external_dead)
    assert list(merged[0]) == list(want[0])
    for term, columns in want[0].items():
        assert (merged[0][term].doc_ids, merged[0][term].quants) == (
            columns.doc_ids,
            columns.quants,
        ), term
    assert merged[1:] == want[1:]


def test_bench_tokenize_document(benchmark, context):
    """Term frequencies of 64 documents of the update workload's shape (~120
    tokens each): one update round's adds.  Checked against the per-token
    tokenizer, key order included (doc-terms links are written in it)."""
    texts = [
        document.text
        for document in SyntheticCorpusGenerator(
            lexicon=context.lexicon, num_documents=64, seed=19
        ).generate()
    ]
    tokenizer = Tokenizer()
    counts = benchmark(lambda: [tokenizer.term_frequencies(text) for text in texts])
    for got, text in zip(counts, texts):
        assert list(got.items()) == list(oracles.term_frequencies(tokenizer, text).items())


@pytest.fixture(scope="module")
def pinned_batch(context):
    """``batch_single_node``'s shape: a 1024-bit key, bucket size 4 over the
    sorted dictionary, four 3-term queries per batch on one pinned snapshot,
    and each query's result frame from the ``naive=True`` answer."""
    keypair = generate_keypair(key_bits=1024, block_size=3**9, rng=random.Random(44))
    view = context.index.snapshot()
    organization = chunked_organization(context.index, 4)
    embellisher = QueryEmbellisher(
        organization=organization, keypair=keypair, rng=random.Random(6)
    )
    generator = QueryWorkloadGenerator(context.index, seed=7)
    batch = [embellisher.embellish(generator.frequency_weighted_query(3)) for _ in range(4)]
    kwargs = dict(index=view, organization=organization, public_key=keypair.public)
    naive = PrivateRetrievalServer(naive=True, **kwargs).process_batch(batch)
    want = [_result_frame(i, result) for i, result in enumerate(naive)]
    return PrivateRetrievalServer(**kwargs), batch, want


def _result_frame(index, result):
    return wire.encode_result_frame({"kind": "result", "index": index}, result)


def test_bench_answer_to_frame(benchmark, pinned_batch):
    """From pinned snapshot to result frames: accumulate a batch and encode
    each answer as the session stream does, on the process's arithmetic."""
    server, batch, want = pinned_batch

    def answer():
        return [_result_frame(i, result) for i, (result, _) in enumerate(server.iter_batch(batch))]

    frames = benchmark.pedantic(answer, rounds=30, warmup_rounds=2)
    assert frames == want
