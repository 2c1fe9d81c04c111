"""Property tests: every segment configuration is equivalent to a rebuild.

The acceptance property of the segmented storage engine: for random corpora,
random interleaved add/remove/seal sequences and both scorers, a query
answered against the segmented index produces **bit-identical ciphertexts**
and **conserved operation counters** versus a from-scratch
:meth:`InvertedIndex.build` of the equivalent corpus -- across *every*
configuration the engine can be in:

* an unsealed delta (plus pending tombstones),
* multiple sealed generation-0 segments,
* after every due merge, and after a full compaction,
* after a ``save``/``load`` round trip, with and without ``mmap``.

The same embellished query (same selector ciphertexts) is submitted to
servers over both indexes, so any divergence in list content, impact order,
quantisation or statistics would surface as a differing ciphertext or
counter.
"""

import random
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.buckets import simple_buckets
from repro.core.embellish import QueryEmbellisher
from repro.core.server import PrivateRetrievalServer
from repro.crypto.benaloh import generate_keypair
from repro.textsearch.corpus import Corpus, Document
from repro.textsearch.inverted_index import InvertedIndex
from repro.textsearch.scoring import BM25Scorer, CosineScorer
from repro.textsearch.segments import TieredMergePolicy

# One small key pair for the whole module: key size affects only ciphertext
# width, never the equivalence being tested.
KEYPAIR = generate_keypair(key_bits=128, block_size=3**6, rng=random.Random(977))

VOCABULARY = [
    "osteosarcoma", "radiation", "therapy", "water", "soaked", "tissues",
    "yeast", "nitrogen", "diving", "wine", "terrorism", "huntsville",
]

SCORERS = {"cosine": CosineScorer(), "bm25": BM25Scorer()}

document_text = st.lists(
    st.sampled_from(VOCABULARY), min_size=1, max_size=12
).map(" ".join)


@st.composite
def segmented_scenarios(draw):
    """A base corpus plus interleaved add/remove/seal/maintain operations."""
    base_texts = draw(st.lists(document_text, min_size=2, max_size=7))
    base = [Document(doc_id=i, text=t) for i, t in enumerate(base_texts)]
    operations = []
    live_ids = [doc.doc_id for doc in base]
    next_id = 100
    for _ in range(draw(st.integers(2, 9))):
        choice = draw(st.integers(0, 9))
        if choice <= 3 or not live_ids:
            operations.append(
                ("add", Document(doc_id=next_id, text=draw(document_text)))
            )
            live_ids.append(next_id)
            next_id += 1
        elif choice <= 6:
            victim = draw(st.sampled_from(live_ids))
            live_ids.remove(victim)
            operations.append(("remove", victim))
        elif choice <= 8:
            operations.append(("seal", None))
        else:
            operations.append(("maintain", None))
    fanout = draw(st.integers(2, 3))
    return base, operations, fanout


def _apply(operations, index, live, seal_adds=False):
    """Apply the operation sequence to the index and the mirror document list
    (with ``seal_adds``, each add is sealed into a segment of its own)."""
    for kind, payload in operations:
        if kind == "add":
            index.add_document(payload)
            live.append(payload)
            if seal_adds:
                index.seal_delta()
        elif kind == "remove":
            index.remove_document(payload)
            live[:] = [doc for doc in live if doc.doc_id != payload]
        elif kind == "seal":
            index.seal_delta()
        else:
            index.maintain(force_seal=True)


def assert_structurally_identical(candidate, rebuilt, context=""):
    assert set(candidate.terms) == set(rebuilt.terms), context
    assert candidate.max_impact == rebuilt.max_impact, context
    assert candidate.stats.num_documents == rebuilt.stats.num_documents, context
    assert (
        candidate.stats.average_document_length
        == rebuilt.stats.average_document_length
    ), context
    assert dict(candidate.stats.document_frequencies) == dict(
        rebuilt.stats.document_frequencies
    ), context
    for term in rebuilt.terms:
        # columns() serves each live row once, in run order: compare rows.
        assert Counter(zip(*candidate.columns(term))) == Counter(
            zip(*rebuilt.columns(term))
        ), (context, term)
        assert candidate.serialise_list(term) == rebuilt.serialise_list(term), (
            context,
            term,
        )
        assert candidate.document_frequency(term) == rebuilt.document_frequency(term)


def assert_lists_in_impact_order(index, context=""):
    """Every sealed segment's every list runs by ``(-quant, doc_id)``."""
    for segment in index._segments:
        for term, columns in segment.lists.items():
            rows = list(zip(columns.quants, columns.doc_ids))
            assert rows == sorted(rows, key=lambda row: (-row[0], row[1])), (
                context,
                segment.segment_id,
                term,
            )


def assert_query_identical(candidate, rebuilt, seed, context=""):
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
    for index in (candidate, rebuilt):
        server = PrivateRetrievalServer(
            index=index, organization=organization, public_key=KEYPAIR.public
        )
        result = server.process_query(query)
        results.append((result, server.counters))
    (cand_result, cand_counters), (ref_result, ref_counters) = results
    assert cand_result.encrypted_scores == ref_result.encrypted_scores, context
    assert cand_counters == ref_counters, context


class TestSegmentedEquivalence:
    @pytest.mark.parametrize("scorer_name", ["cosine", "bm25"])
    @given(scenario=segmented_scenarios(), seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_any_configuration_matches_rebuild(self, scorer_name, scenario, seed):
        base, operations, fanout = scenario
        scorer = SCORERS[scorer_name]
        segmented = InvertedIndex.build(
            Corpus(base), scorer=scorer, merge_policy=TieredMergePolicy(fanout=fanout)
        )
        live = list(base)
        _apply(operations, segmented, live)
        rebuilt = InvertedIndex.build(Corpus(live), scorer=scorer)

        assert_structurally_identical(segmented, rebuilt, "as-left")
        assert_query_identical(segmented, rebuilt, seed, "as-left")
        # ... after running every due merge ...
        segmented.maintain(force_seal=True)
        assert_structurally_identical(segmented, rebuilt, "maintained")
        assert_query_identical(segmented, rebuilt, seed, "maintained")
        # ... and after folding everything back into one base segment.
        segmented.compact()
        assert segmented.num_segments == 1
        assert_structurally_identical(segmented, rebuilt, "compacted")
        assert_query_identical(segmented, rebuilt, seed, "compacted")

    @pytest.mark.parametrize("scorer_name", ["cosine", "bm25"])
    @pytest.mark.parametrize("use_mmap", [False, True])
    @given(scenario=segmented_scenarios(), seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_save_load_round_trip_matches_rebuild(
        self, scorer_name, use_mmap, scenario, seed
    ):
        base, operations, fanout = scenario
        scorer = SCORERS[scorer_name]
        segmented = InvertedIndex.build(
            Corpus(base), scorer=scorer, merge_policy=TieredMergePolicy(fanout=fanout)
        )
        live = list(base)
        _apply(operations, segmented, live)
        rebuilt = InvertedIndex.build(Corpus(live), scorer=scorer)
        with tempfile.TemporaryDirectory() as tmp:
            segmented.save(tmp)
            loaded = InvertedIndex.load(tmp, mmap=use_mmap)
            assert_structurally_identical(loaded, rebuilt, "loaded")
            assert_query_identical(loaded, rebuilt, seed, "loaded")
            # The reloaded index keeps taking updates bit-identically.
            follow_up = Document(doc_id=2000, text="wine soaked tissues")
            loaded.add_document(follow_up)
            rebuilt_after = InvertedIndex.build(
                Corpus(live + [follow_up]), scorer=scorer
            )
            assert_structurally_identical(loaded, rebuilt_after, "loaded+updated")
            assert_query_identical(loaded, rebuilt_after, seed, "loaded+updated")

    @pytest.mark.parametrize("scorer_name", ["cosine", "bm25"])
    @given(scenario=segmented_scenarios(), extra=st.lists(document_text, min_size=3, max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_every_list_a_writer_produces_is_in_impact_order(
        self, scorer_name, scenario, extra
    ):
        """Build, tiered merges, a wholesale save after updates and
        ``compact`` each write lists by ``(-impact, doc_id)`` -- reads would
        hide a writer that did not, since the ordered read sorts its runs."""
        base, operations, fanout = scenario
        index = InvertedIndex.build(
            Corpus(base), scorer=SCORERS[scorer_name], merge_policy=TieredMergePolicy(fanout=fanout)
        )
        assert_lists_in_impact_order(index, "built")
        live = list(base)
        _apply(operations, index, live, seal_adds=True)
        # At least ``fanout`` fresh generation-0 segments: a merge is due.
        added = [Document(doc_id=3000 + k, text=text) for k, text in enumerate(extra)]
        _apply([("add", document) for document in added], index, live, seal_adds=True)
        index.maintain(force_seal=True)
        assert index.update_counters.merges > 0
        assert_lists_in_impact_order(index, "merged")
        # Updates leave every sealed segment stale; a wholesale save installs
        # its rewritten copies.
        follow_up = [("remove", added[0].doc_id), ("add", Document(doc_id=4000, text="wine"))]
        _apply(follow_up, index, live)
        with tempfile.TemporaryDirectory() as tmp:
            index.save(tmp)
            assert index.last_save_report["mode"] == "full"
            assert_lists_in_impact_order(index, "saved")
            assert_lists_in_impact_order(InvertedIndex.load(tmp), "loaded")
        index.compact()
        assert_lists_in_impact_order(index, "compacted")
        (segment,) = index._segments
        for term, columns in segment.lists.items():
            assert index.postings(term) is columns.view(), term  # zero-copy
        assert_structurally_identical(
            index, InvertedIndex.build(Corpus(live), scorer=SCORERS[scorer_name]), "compacted"
        )

    @given(scenario=segmented_scenarios(), seed=st.integers(0, 2**16))
    @settings(max_examples=8, deadline=None)
    def test_naive_oracle_agrees_on_segmented_index(self, scenario, seed):
        """The fast path over a segmented index still matches the naive oracle."""
        base, operations, fanout = scenario
        segmented = InvertedIndex.build(
            Corpus(base), merge_policy=TieredMergePolicy(fanout=fanout)
        )
        live = list(base)
        _apply(operations, segmented, live, seal_adds=True)
        terms = sorted(segmented.terms)
        if not terms:
            return
        organization = simple_buckets(terms, {}, bucket_size=min(3, len(terms)))
        embellisher = QueryEmbellisher(
            organization=organization, keypair=KEYPAIR, rng=random.Random(seed)
        )
        query = embellisher.embellish([terms[seed % len(terms)]])
        fast = PrivateRetrievalServer(
            index=segmented, organization=organization, public_key=KEYPAIR.public
        ).process_query(query)
        naive = PrivateRetrievalServer(
            index=segmented,
            organization=organization,
            public_key=KEYPAIR.public,
            naive=True,
        ).process_query(query)
        assert fast.encrypted_scores == naive.encrypted_scores
