"""The refresh's ``max_impact`` is the scan over every live posting.

A refresh takes the exact global ``max_impact`` (Equations 3/4 quantise
against it) from one representative per impact class -- the member of
smallest rank among the documents sharing a term and its per-term key --
instead of scanning every posting.  For random add, remove, ``maintain``,
save and load sequences under both scorers, every check compares the index
with the oracle the scan computes from the live documents alone: the max bit
for bit, and the index's class state slot for slot (one slot per live
``(term, key)`` class, holding the class's smallest rank).
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.textsearch.corpus import Corpus, Document
from repro.textsearch.inverted_index import InvertedIndex
from repro.textsearch.scoring import BM25Scorer, CorpusStatistics, CosineScorer
from repro.textsearch.segments import TieredMergePolicy
from repro.textsearch.tokenizer import Tokenizer
from tests.textsearch.test_scoring import representatives, scan_max_impact

VOCABULARY = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "theta", "kappa"]

SCORERS = {"cosine": CosineScorer(), "bm25": BM25Scorer()}

text = st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=10).map(" ".join)

operation = st.one_of(
    st.tuples(st.just("add"), st.integers(0, 11), text),
    st.tuples(st.just("remove"), st.integers(0, 11)),
    st.tuples(st.just("maintain"), st.booleans()),  # force_seal
    st.tuples(st.just("save"), st.booleans()),  # to the last directory, or a new one
    st.tuples(st.just("load"), st.booleans()),  # mmap
)


def assert_max_is_the_scan(index, live: dict[int, str], scorer) -> None:
    """``index`` against the scan over the documents ``live`` maps id -> text."""
    tokenizer = Tokenizer()
    frequencies = {doc_id: tokenizer.term_frequencies(t) for doc_id, t in live.items()}
    stats = CorpusStatistics.of_documents(frequencies)
    factors = [scorer.document_factor(f) for f in frequencies.values()]
    expected = scan_max_impact(scorer, factors, scorer.corpus_factor(stats))
    assert index.max_impact.hex() == expected.hex()
    classes = index._classes
    if classes is None:  # a loaded index before its first refresh
        return
    assert not classes.dirty
    slots = list(zip(classes.terms, classes.keys))
    assert len(set(slots)) == len(slots), "a class holds more than one slot"
    terms, keys, ranks = representatives(factors, stats.document_frequencies)
    assert dict(zip(slots, classes.ranks)) == dict(zip(zip(terms, keys), ranks))


@pytest.mark.parametrize("scorer_name", sorted(SCORERS))
@given(
    base=st.lists(text, min_size=1, max_size=6),
    operations=st.lists(operation, max_size=14),
)
@settings(max_examples=60, deadline=None)
def test_the_max_over_representatives_is_the_scan(scorer_name, base, operations):
    scorer = SCORERS[scorer_name]
    live = dict(enumerate(base))
    index = InvertedIndex.build(
        Corpus(Document(doc_id=d, text=t) for d, t in live.items()),
        scorer=scorer,
        merge_policy=TieredMergePolicy(fanout=2),
    )
    assert_max_is_the_scan(index, live, scorer)
    with tempfile.TemporaryDirectory() as scratch:
        saved: dict[Path, dict[int, str]] = {}
        target = None
        for op in operations:
            assert_stale_ids_name_segments(index)
            kind = op[0]
            if kind == "add" and op[1] not in live:
                index.add_document(Document(doc_id=op[1], text=op[2]))
                live[op[1]] = op[2]
            elif kind == "remove" and op[1] in live:
                index.remove_document(op[1])
                del live[op[1]]
            elif kind == "maintain":
                index.maintain(force_seal=op[1])
                assert_max_is_the_scan(index, live, scorer)
            elif kind == "save":
                if target is None or not op[1]:
                    target = Path(scratch) / f"tree{len(saved)}"
                index.save(target)
                saved[target] = dict(live)
                assert_max_is_the_scan(index, live, scorer)
            elif kind == "load" and target is not None:
                index = InvertedIndex.load(target, mmap=op[1])
                live = dict(saved[target])
                assert_max_is_the_scan(index, live, scorer)
        assert_stale_ids_name_segments(index)
        assert_max_is_the_scan(index, live, scorer)


def assert_stale_ids_name_segments(index) -> None:
    """A stale id names a segment the index holds: a merge or a compaction
    consumes its inputs' ids."""
    assert index._stale_ids <= {segment.segment_id for segment in index._segments}


@pytest.mark.parametrize("scorer", SCORERS.values(), ids=sorted(SCORERS))
class TestImpactClassEvents:
    """One case per event that moves a class's representative."""

    def build(self, scorer, texts):
        live = dict(enumerate(texts))
        index = InvertedIndex.build(
            Corpus(Document(doc_id=d, text=t) for d, t in live.items()), scorer=scorer
        )
        return index, live

    def remove(self, index, live, doc_id):
        index.remove_document(doc_id)
        del live[doc_id]

    def test_a_representative_is_removed(self, scorer):
        # "alpha" once in each: one class, whose representative is the
        # shortest document.
        index, live = self.build(scorer, ["alpha", "alpha beta", "alpha beta gamma"])
        self.remove(index, live, 0)
        assert "alpha" in index._classes.dirty
        assert_max_is_the_scan(index, live, scorer)
        slots = [k for k, term in enumerate(index._classes.terms) if term == "alpha"]
        assert len(slots) == 1
        assert index._classes.ranks[slots[0]] == scorer.document_factor({"alpha": 1, "beta": 1})[1]

    def test_a_class_loses_its_last_member(self, scorer):
        index, live = self.build(scorer, ["alpha alpha", "alpha beta", "gamma"])
        self.remove(index, live, 0)  # the only "alpha" twice
        self.remove(index, live, 2)  # the only "gamma"
        assert_max_is_the_scan(index, live, scorer)
        assert "gamma" not in index._classes.terms
        assert index._classes.terms.count("alpha") == 1
        assert len(index._classes) == 2

    def test_two_members_of_equal_rank(self, scorer):
        index, live = self.build(scorer, ["alpha beta", "beta alpha", "alpha beta gamma"])
        self.remove(index, live, 0)  # a tied representative: its twin still attains the rank
        assert_max_is_the_scan(index, live, scorer)
        self.remove(index, live, 1)
        assert_max_is_the_scan(index, live, scorer)

    def test_an_id_re_added_with_different_text(self, scorer):
        index, live = self.build(scorer, ["alpha", "alpha beta gamma", "beta"])
        self.remove(index, live, 0)
        index.add_document(Document(doc_id=0, text="alpha alpha beta delta"))
        live[0] = "alpha alpha beta delta"
        assert_max_is_the_scan(index, live, scorer)
        self.remove(index, live, 0)
        index.add_document(Document(doc_id=0, text="gamma"))
        live[0] = "gamma"
        assert_max_is_the_scan(index, live, scorer)

    def test_a_loaded_index_runs_its_first_refresh(self, scorer, tmp_path):
        index, live = self.build(scorer, ["alpha", "alpha beta", "beta gamma gamma"])
        index.save(tmp_path / "tree")
        loaded = InvertedIndex.load(tmp_path / "tree")
        assert loaded._classes is None  # a server that never updates never builds them
        loaded.remove_document(0)
        del live[0]
        assert loaded._classes is None
        assert_max_is_the_scan(loaded, live, scorer)
        assert len(loaded._classes) == 3  # (alpha, 1), (beta, 1), (gamma, 2)
