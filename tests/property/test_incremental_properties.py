"""Property tests: incremental index updates are equivalent to a rebuild.

The acceptance property of the incremental-update subsystem: for random
corpora, random add/remove sequences and both scorers, a query answered against the
incrementally-updated index produces **bit-identical ciphertexts** and
**conserved operation counters** versus a from-scratch
:meth:`InvertedIndex.build` of the equivalent corpus -- both *before* and
*after* :meth:`InvertedIndex.compact`.  The same embellished query (same
selector ciphertexts) is submitted to servers over both indexes, so any
divergence in list content, impact order, quantisation or statistics would
surface as a differing ciphertext or counter.
"""

import random
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core.buckets import simple_buckets
from repro.core.embellish import QueryEmbellisher
from repro.core.server import PrivateRetrievalServer
from repro.crypto import kernels, numbertheory
from repro.crypto.benaloh import generate_keypair
from repro.textsearch.corpus import Corpus, Document
from repro.textsearch.inverted_index import InvertedIndex
from repro.textsearch.scoring import BM25Scorer, CorpusStatistics, CosineScorer
from repro.textsearch.segments import TieredMergePolicy, quantise_column, quantise_impact

# One small key pair for the whole module: key size affects only ciphertext
# width, never the equivalence being tested.
KEYPAIR = generate_keypair(key_bits=128, block_size=3**6, rng=random.Random(401))

# A tiny closed vocabulary keeps generated corpora overlapping enough to be
# interesting (shared terms across documents) while staying fast.
VOCABULARY = [
    "osteosarcoma", "radiation", "therapy", "water", "soaked", "tissues",
    "yeast", "nitrogen", "diving", "wine", "terrorism", "huntsville",
]

SCORERS = {"cosine": CosineScorer(), "bm25": BM25Scorer()}

document_text = st.lists(
    st.sampled_from(VOCABULARY), min_size=1, max_size=12
).map(" ".join)


@st.composite
def update_scenarios(draw):
    """A base corpus plus a random interleaved add/remove sequence."""
    base_texts = draw(st.lists(document_text, min_size=2, max_size=8))
    base = [Document(doc_id=i, text=t) for i, t in enumerate(base_texts)]
    operations = []
    live_ids = [doc.doc_id for doc in base]
    next_id = 100
    for _ in range(draw(st.integers(1, 6))):
        if live_ids and draw(st.booleans()):
            victim = draw(st.sampled_from(live_ids))
            live_ids.remove(victim)
            operations.append(("remove", victim))
        else:
            operations.append(
                ("add", Document(doc_id=next_id, text=draw(document_text)))
            )
            live_ids.append(next_id)
            next_id += 1
    return base, operations


def _apply(operations, index, live):
    """Apply the operation sequence to the index and the mirror document list."""
    for kind, payload in operations:
        if kind == "add":
            index.add_document(payload)
            live.append(payload)
        else:
            index.remove_document(payload)
            live[:] = [doc for doc in live if doc.doc_id != payload]


def _query_both(incremental, rebuilt, seed):
    """Answer one embellished query on both indexes; ciphertexts + counters."""
    terms = sorted(rebuilt.terms)
    if not terms:
        return
    organization = simple_buckets(terms, {}, bucket_size=min(3, len(terms)))
    rng = random.Random(seed)
    genuine = rng.sample(terms, k=min(2, len(terms)))
    embellisher = QueryEmbellisher(
        organization=organization, keypair=KEYPAIR, rng=random.Random(seed + 1)
    )
    query = embellisher.embellish(genuine)
    results = []
    for index in (incremental, rebuilt):
        server = PrivateRetrievalServer(
            index=index, organization=organization, public_key=KEYPAIR.public
        )
        result = server.process_query(query)
        results.append((result, server.counters))
    (inc_result, inc_counters), (ref_result, ref_counters) = results
    assert inc_result.encrypted_scores == ref_result.encrypted_scores
    assert inc_counters == ref_counters


class TestIncrementalEquivalence:
    @given(
        scenario=update_scenarios(),
        seed=st.integers(0, 2**16),
        scorer_name=st.sampled_from(sorted(SCORERS)),
    )
    @settings(max_examples=40, deadline=None)
    def test_queries_bit_identical_to_rebuild(self, scenario, seed, scorer_name):
        base, operations = scenario
        scorer = SCORERS[scorer_name]
        incremental = InvertedIndex.build(Corpus(base), scorer=scorer)
        live = list(base)
        _apply(operations, incremental, live)
        rebuilt = InvertedIndex.build(Corpus(live), scorer=scorer)

        # Structural identity: dictionary, statistics, calibration, columns.
        for index_state in ("delta", "compacted"):
            assert set(incremental.terms) == set(rebuilt.terms), index_state
            assert incremental.max_impact == rebuilt.max_impact
            assert incremental.stats.num_documents == rebuilt.stats.num_documents
            assert (
                incremental.stats.average_document_length
                == rebuilt.stats.average_document_length
            )
            assert dict(incremental.stats.document_frequencies) == dict(
                rebuilt.stats.document_frequencies
            )
            for term in rebuilt.terms:
                # columns() serves each live row once, in run order.
                assert Counter(zip(*incremental.columns(term))) == Counter(
                    zip(*rebuilt.columns(term))
                ), (index_state, term)
                assert incremental.serialise_list(term) == rebuilt.serialise_list(term)
                assert incremental.document_frequency(term) == rebuilt.document_frequency(term)
                # The maintained statistics agree with the live lists.
                assert (
                    incremental.stats.document_frequencies[term]
                    == incremental.document_frequency(term)
                )

            # Ciphertext identity under the same embellished query.
            _query_both(incremental, rebuilt, seed)
            if index_state == "delta":
                incremental.compact()
        assert not incremental.has_pending_updates

    @given(scenario=update_scenarios(), scorer_name=st.sampled_from(sorted(SCORERS)))
    @settings(max_examples=40, deadline=None)
    def test_max_impact_matches_rebuild_after_every_step(self, scenario, scorer_name):
        """Each update is followed by a read, so every step runs its own
        refresh: the factored max scan must equal the rebuild's maximum
        over composed impacts bit for bit, step by step."""
        base, operations = scenario
        scorer = SCORERS[scorer_name]
        stepwise = InvertedIndex.build(Corpus(base), scorer=scorer)
        live = list(base)
        for operation in operations:
            _apply([operation], stepwise, live)
            rebuilt = InvertedIndex.build(Corpus(live), scorer=scorer)
            assert stepwise.max_impact.hex() == rebuilt.max_impact.hex(), operation

    @given(
        scenario=update_scenarios(),
        seed=st.integers(0, 2**16),
        scorer_name=st.sampled_from(sorted(SCORERS)),
    )
    @settings(max_examples=10, deadline=None)
    def test_naive_oracle_agrees_on_updated_index(self, scenario, seed, scorer_name):
        """The fast path over an updated index matches the naive oracle over
        that index and over a rebuild, document by document, on either
        arithmetic.  Each update is sealed, so stale runs (and, at fanout 2,
        merged ones) are served unmerged."""
        base, operations = scenario
        scorer = SCORERS[scorer_name]
        incremental = InvertedIndex.build(
            Corpus(base), scorer=scorer, merge_policy=TieredMergePolicy(fanout=2)
        )
        live = list(base)
        for operation in operations:
            _apply([operation], incremental, live)
            incremental.maintain(force_seal=True)
        rebuilt = InvertedIndex.build(Corpus(live), scorer=scorer)
        terms = sorted(incremental.terms)
        if not terms:
            return
        organization = simple_buckets(terms, {}, bucket_size=min(3, len(terms)))
        embellisher = QueryEmbellisher(
            organization=organization, keypair=KEYPAIR, rng=random.Random(seed)
        )
        query = embellisher.embellish([terms[seed % len(terms)]])

        def answer(index, naive=False):
            server = PrivateRetrievalServer(
                index=index, organization=organization, public_key=KEYPAIR.public, naive=naive
            )
            return server.process_query(query).encrypted_scores, server.counters

        naive, _ = answer(incremental, naive=True)
        assert naive == answer(rebuilt, naive=True)[0]
        _, rebuilt_counters = answer(rebuilt)
        for backend in ["python"] + (["cffi"] if "cffi" in kernels.resolve_backend() else []):
            previous = numbertheory.set_backend(backend)
            try:
                fast, counters = answer(incremental)
            finally:
                numbertheory.set_backend(previous)
            assert fast == naive, backend
            assert counters == rebuilt_counters, backend

frequencies = st.dictionaries(
    st.sampled_from(VOCABULARY), st.integers(1, 5), min_size=0, max_size=6
)


class TestColumnKernels:
    """The one-pass kernels a stale run is recomposed with: each scorer's
    ``impact_column`` and ``quantise_column`` equal the per-row compositions
    (``impact``, ``quantise_impact``) bit for bit."""

    @given(
        documents=st.lists(frequencies, min_size=0, max_size=8),
        corpus_documents=st.lists(frequencies, min_size=1, max_size=8),
        term=st.sampled_from(VOCABULARY + ["absent"]),
        k1=st.floats(0.1, 3.0),
        b=st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_impact_column_equals_impact_per_row(self, documents, corpus_documents, term, k1, b):
        stats = CorpusStatistics.of_documents(dict(enumerate(corpus_documents)))
        for scorer in (CosineScorer(), BM25Scorer(k1=k1, b=b)):
            corpus = scorer.corpus_factor(stats)
            factors = [scorer.document_factor(f) for f in documents]
            # An empty document: zero norm under cosine, zero length under BM25.
            factors.append(scorer.document_factor({}))
            if isinstance(scorer, CosineScorer):
                factors.append(({term: 1.5}, 0.0))  # the term, but a zero norm
            expected = [scorer.impact(factor, term, corpus) for factor in factors]
            column = scorer.impact_column(iter(factors), term, corpus)
            assert [x.hex() for x in column] == [x.hex() for x in expected], scorer

    @given(
        max_impact=st.floats(-1.0, 1e3, allow_nan=False),
        fractions=st.lists(st.floats(0.0, 1.5), max_size=24),
        levels=st.integers(1, 400),
    )
    @settings(max_examples=120, deadline=None)
    def test_quantise_column_equals_quantise_impact(self, max_impact, fractions, levels):
        impacts = [fraction * max_impact for fraction in fractions]
        # The top of the scale, and values that round to level 0.
        impacts += [max_impact, 0.0, max_impact / (4 * levels), max_impact / (2 * levels)]
        column = quantise_column(impacts, max_impact, levels)
        assert column.typecode == "I"
        assert list(column) == [quantise_impact(x, max_impact, levels) for x in impacts]
