"""The index's row-at-once kernels equal their per-term reference loops.

Four kernels of a live tenant's update -> read cycle work on whole columns:
the merge (``merge_segment_parts``), a snapshot's first read of a term
(``IndexSnapshot.columns``), the delta build (``_compose_lists``) and the
tokenizer.  Each is checked against the loop it replaced
(``tests/textsearch/oracles.py``): same output, same order -- term order,
row order and dictionary key order, since saved segment files and doc-terms
links are written in those orders -- and, where the loop hands back a stored
list or array itself, the kernel hands back that same object.
"""

from array import array
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.textsearch import inverted_index
from repro.textsearch.corpus import Corpus, Document
from repro.textsearch.inverted_index import InvertedIndex, _compose_lists
from repro.textsearch.scoring import BM25Scorer, CosineScorer
from repro.textsearch.segments import (
    IndexSegment,
    PostingColumns,
    TieredMergePolicy,
    dead_sets,
    merge_segment_parts,
)
from repro.textsearch.tokenizer import DEFAULT_STOPWORDS, Tokenizer
from tests.textsearch import oracles
from tests.textsearch.test_segments import _GivenImpacts

TERMS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
DOC_IDS = st.integers(0, 11)  # few ids: re-added and tombstoned ids collide often


# -- the merge kernel -----------------------------------------------------------
@st.composite
def segment_stacks(draw):
    """Oldest-first segments whose lists are in writer order, plus the
    documents older segments hold and those newer ones tombstone."""
    segments = []
    for number in range(draw(st.integers(1, 5))):
        rows = draw(
            st.dictionaries(
                DOC_IDS,
                st.dictionaries(st.sampled_from(TERMS), st.integers(1, 6), max_size=4),
                max_size=5,
            )
        )
        lists = {}
        for term in draw(st.permutations(TERMS)):
            held = sorted((-terms[term], doc) for doc, terms in rows.items() if term in terms)
            if held:
                lists[term] = PostingColumns(
                    array("I", [doc for _, doc in held]), array("I", [-q for q, _ in held])
                )
        segments.append(
            IndexSegment(
                segment_id=number,
                generation=0,
                seq_lo=number,
                seq_hi=number,
                lists=lists,
                documents=set(rows),
                tombstones=draw(st.sets(DOC_IDS, max_size=4)),
            )
        )
    older_docs = draw(st.sets(DOC_IDS, max_size=6))
    external_dead = draw(st.sets(DOC_IDS, max_size=4))
    return segments, older_docs, external_dead


def assert_merges_equal(got, want, segments, external_dead) -> None:
    (lists, documents, tombstones), (want_lists, want_documents, want_tombstones) = got, want
    assert list(lists) == list(want_lists), "term order"
    for term, columns in want_lists.items():
        assert lists[term].doc_ids == columns.doc_ids, term
        assert lists[term].quants == columns.quants, term
    assert documents == want_documents
    assert tombstones == want_tombstones
    # A list held by one input that lost no row is that input's own object.
    dead_for = dead_sets(segments, external_dead)
    for term, columns in lists.items():
        holders = [(s, d) for s, d in zip(segments, dead_for) if term in s.lists]
        if len(holders) == 1:
            (segment, dead), stored = holders[0], holders[0][0].lists[term]
            if dead.isdisjoint(stored.doc_ids):
                assert columns is stored, term
                assert want_lists[term] is stored, term


@given(segment_stacks())
@settings(max_examples=120, deadline=None)
def test_the_merge_is_the_per_term_merge(stack):
    segments, older_docs, external_dead = stack
    assert_merges_equal(
        merge_segment_parts(segments, older_docs, external_dead),
        oracles.merge_segment_parts(segments, older_docs, external_dead),
        segments,
        external_dead,
    )


# -- the index: merges of stale and fresh inputs, and first reads ------------------
SCORERS = {"cosine": CosineScorer(), "bm25": BM25Scorer()}

text = st.lists(st.sampled_from(TERMS), min_size=1, max_size=8).map(" ".join)

operation = st.one_of(
    st.tuples(st.just("add"), DOC_IDS, text),
    st.tuples(st.just("remove"), DOC_IDS),
    st.tuples(st.just("seal")),
    st.tuples(st.just("maintain"), st.booleans()),  # force_seal
    st.tuples(st.just("read")),
    st.tuples(st.just("compact")),
)


@contextmanager
def merges_checked_against_the_oracle():
    """Every merge the index runs, also run by the oracle and compared."""
    kernel = inverted_index.merge_segment_parts
    merged = []

    def checked(segments, older_docs, external_dead):
        got = kernel(segments, older_docs, external_dead)
        want = oracles.merge_segment_parts(segments, older_docs, external_dead)
        assert_merges_equal(got, want, segments, external_dead)
        merged.append(len(segments))
        return got

    with mock.patch.object(inverted_index, "merge_segment_parts", checked):
        yield merged


def assert_reads_are_the_per_run_reads(index) -> None:
    """``columns`` of every term, on a fresh pin, against the per-run read:
    same rows in the same order, and a stored array exactly where the
    per-run read gives one."""
    view = index.snapshot()
    for term in [*view.terms, "unknown"]:
        stored = {
            id(array_)
            for lists, _, _ in view._records
            if (run := lists.get(term)) is not None
            for array_ in (run.doc_ids, run.quants)
        }
        got, want = view.columns(term), oracles.columns(view, term)
        assert got == want, term
        for got_array, want_array in zip(got, want):
            assert (id(got_array) in stored) == (id(want_array) in stored), term


@pytest.mark.parametrize("scorer_name", sorted(SCORERS))
@given(
    base=st.lists(text, min_size=1, max_size=6),
    operations=st.lists(operation, max_size=16),
)
@settings(max_examples=60, deadline=None)
def test_an_index_merges_and_reads_as_the_per_term_loops(scorer_name, base, operations):
    live = dict(enumerate(base))
    index = InvertedIndex.build(
        Corpus(Document(doc_id=d, text=t) for d, t in live.items()),
        scorer=SCORERS[scorer_name],
        merge_policy=TieredMergePolicy(fanout=2),
    )
    with merges_checked_against_the_oracle():
        for op in operations:
            kind = op[0]
            if kind == "add" and op[1] not in live:
                index.add_document(Document(doc_id=op[1], text=op[2]))
                live[op[1]] = op[2]
            elif kind == "remove" and op[1] in live:
                index.remove_document(op[1])
                del live[op[1]]
            elif kind == "seal":
                index.seal_delta()
            elif kind == "maintain":
                index.maintain(force_seal=op[1])
            elif kind == "read":
                assert_reads_are_the_per_run_reads(index)
            elif kind == "compact":
                index.compact()
        assert_reads_are_the_per_run_reads(index)
    rebuilt = InvertedIndex.build(
        Corpus(Document(doc_id=d, text=t) for d, t in live.items()), scorer=SCORERS[scorer_name]
    )
    for term in rebuilt.terms:
        assert index.postings(term) == rebuilt.postings(term), term


def test_the_index_property_meets_stale_merges():
    """The operations above reach a merge of stale inputs: a refresh
    between two seals leaves both sealed segments stale."""
    index = InvertedIndex.build(
        Corpus([Document(doc_id=0, text="alpha beta"), Document(doc_id=1, text="beta")]),
        merge_policy=TieredMergePolicy(fanout=2),
    )
    with merges_checked_against_the_oracle() as merged:
        for doc_id, words in ((2, "alpha gamma"), (3, "beta gamma")):
            index.add_document(Document(doc_id=doc_id, text=words))
            index.seal_delta()
        index.remove_document(2)
        _ = index.terms
        inputs = {segment.segment_id for segment in index._segments if not segment.base}
        assert len(inputs) == 2 and inputs <= index._stale_ids
        assert index.maintain()["merges_committed"] == 1
    assert merged == [2]
    assert_reads_are_the_per_run_reads(index)


# -- the delta build --------------------------------------------------------------
@given(
    factors=st.dictionaries(
        DOC_IDS,
        st.dictionaries(
            st.sampled_from(TERMS),
            st.one_of(st.just(0.0), st.floats(0.001, 4.0)),
            max_size=5,
        ),
        max_size=8,
    ),
    levels=st.sampled_from([1, 2, 7, 255]),
)
@settings(max_examples=100, deadline=None)
def test_the_delta_build_is_the_per_term_build(factors, levels):
    impacts = [i for document in factors.values() for i in document.values()]
    max_impact = max(impacts, default=0.0)
    args = (_GivenImpacts(), list(factors.items()), None, max_impact, levels)
    got, want = _compose_lists(*args), oracles.compose_lists(*args)
    assert list(got) == list(want), "term order"
    for term, columns in want.items():
        assert (got[term].doc_ids, got[term].quants) == (columns.doc_ids, columns.quants)


# -- the tokenizer ------------------------------------------------------------------
WORDS = [
    "The", "a", "I", "x", "it's", "Don't", "o'", "'tis", "abu_sayyaf", "_lead_",
    "new_york,", "(a_b)", "_", "__", "the_", "1992", "b2b", "naïve", "ÉCOLE",
    "straße", "İstanbul", "über_alles", "Ω", "of", "AND",
]
SEPARATORS = [" ", "  ", "\t", "\n", " ", " ", "\x1c", ",", ".", "-", ""]

texts = st.lists(
    st.one_of(
        st.sampled_from(WORDS),
        st.text(alphabet="aZ9'_-.,;:!?()[]\"é ", max_size=6),
    ),
    max_size=20,
).flatmap(
    lambda words: st.lists(
        st.sampled_from(SEPARATORS), min_size=len(words), max_size=len(words)
    ).map(lambda separators: "".join(w + s for w, s in zip(words, separators)))
)

tokenizers = st.builds(
    Tokenizer,
    stopwords=st.sampled_from(
        [DEFAULT_STOPWORDS, frozenset(), frozenset({"abu_sayyaf", "it's", "x", "1992"})]
    ),
    min_token_length=st.integers(1, 3),
    keep_phrases=st.booleans(),
)


@given(tokenizer=tokenizers, text=texts)
@settings(max_examples=200, deadline=None)
def test_the_tokenizer_is_the_per_token_tokenizer(tokenizer, text):
    assert tokenizer.tokenize(text) == oracles.tokenize(tokenizer, text)
    got = tokenizer.term_frequencies(text)
    assert type(got) is dict
    # Same keys in the same order: doc-terms links are written as the dict.
    assert list(got.items()) == list(oracles.term_frequencies(tokenizer, text).items())
