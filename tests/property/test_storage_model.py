"""One stateful model of the storage engine: every state is a rebuild.

Whatever segment layout updates, seals, merges, compactions, saves, crashes
and loads leave behind, the index serves what :meth:`InvertedIndex.build` of
its live documents serves: the same lists, statistics and calibration, so
the same ciphertexts and counters for an embellished query, naive or fast
on every backend.  :class:`StorageModel` drives a live index beside a mirror
``{doc_id: text}`` and checks that after every step, with the index's
internal state well-formed and every pinned snapshot reading what it read
when pinned.

What the model cannot express stays beside the code it checks:
``TestConcurrentReaderThread`` (a real reader thread; the model is one) and
``TestServingCacheRegression`` (the PIR consumer side: databases kept by
identity, a fresh server's resync) in ``tests/core/test_incremental_serving.py``;
``TestColumnKernels`` (arbitrary floats and BM25 parameters no corpus here
reaches) in ``tests/textsearch/test_scoring.py``; ``TestImpactClassEvents``
(exact class events random steps hit only by chance) in
``tests/textsearch/test_incremental_updates.py``; ``TestEngineInvariants``
and ``TestPostingRoundtrip`` (the plaintext engine, one posting: no state)
in ``tests/textsearch/test_engine.py`` and ``test_inverted_index.py``.
"""

import random
import tempfile
from collections import Counter
from operator import neg
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.core.buckets import simple_buckets
from repro.core.embellish import QueryEmbellisher
from repro.core.faults import FaultInjector, FaultPlan, PermanentFaultError
from repro.core.partitioning import HashPartitioner
from repro.core.server import PrivateRetrievalServer
from repro.crypto import kernels, numbertheory
from repro.crypto.benaloh import generate_keypair
from repro.textsearch.corpus import Corpus, Document
from repro.textsearch.inverted_index import IndexSnapshot, InvertedIndex
from repro.textsearch.scoring import BM25Scorer, CorpusStatistics, CosineScorer
from repro.textsearch.segments import TieredMergePolicy, install_io_fault_hook
from repro.textsearch.tokenizer import Tokenizer
from tests.textsearch.test_incremental_updates import assert_max_is_the_scan

VOCABULARY = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "theta", "kappa"]
SCORERS = {"cosine": CosineScorer(), "bm25": BM25Scorer()}
text = st.lists(st.sampled_from(VOCABULARY), min_size=1, max_size=8).map(" ".join)
#: What follows an update (``StorageModel._settle``).
SETTLE = ["delta", "seal", "maintain"]
# Key size changes only the ciphertexts' width, never what is compared.
KEYPAIR = generate_keypair(key_bits=128, block_size=3**6, rng=random.Random(401))
# Every vocabulary term is in a bucket, present in the index or not.
ORGANIZATION = simple_buckets(VOCABULARY, {}, bucket_size=3)


def _reads(view) -> dict:
    """Everything a reader of ``view`` (an index or a snapshot) sees:
    ``columns`` rows as a multiset (their order is the runs'), the ordered
    lists, their bytes, the dictionary, the statistics and the calibration."""
    reads = {
        term: (
            Counter(zip(*view.columns(term))),
            view.postings(term),
            view.serialise_list(term),
            view.document_frequency(term),
        )
        for term in VOCABULARY
    }
    reads["terms"], reads["max_impact"] = sorted(view.terms), view.max_impact.hex()
    stats = view.stats
    reads["stats"] = (stats.num_documents, stats.average_document_length)
    reads["frequencies"] = dict(stats.document_frequencies)
    return reads


def _rebuild(live: dict[int, str], scorer) -> InvertedIndex:
    documents = (Document(doc_id=d, text=t) for d, t in live.items())
    return InvertedIndex.build(Corpus(documents), scorer=scorer)


def _assert_kept_dictionary_is_derived(index) -> None:
    """The pinned dictionary is the one the lists derive (their terms with
    rows, each row count the term's ``f_t``), and reading it on a fresh pin
    merges no list."""
    view = IndexSnapshot(index)
    candidates = {term for lists, _, _ in view._records for term in lists} | set(view.terms)
    for term in candidates:
        _ = term in view, view.document_frequency(term), view.list_size_bytes(term)
    assert view.num_terms == len(view.terms) and not view._merged and not view._live
    derived = {term: len(view.postings(term)) for term in candidates}
    assert set(view.terms) == {term for term, rows in derived.items() if rows}
    for term, rows in derived.items():
        assert view.document_frequency(term) == rows == view.list_size_bytes(term) // 8, term
        assert (term in view) == bool(rows), term


class StorageModel(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.scratch = tempfile.TemporaryDirectory()
        self.live: dict[int, str] = {}  # the mirror
        self.known: set[int] = set()  # every id ever added
        self.saved: dict[Path, dict[int, str]] = {}  # what each directory's newest record holds
        self.target: Path | None = None  # the last save or load: an incremental save's
        self.pins: list[tuple] = []  # (snapshot, its reads, its runs' lists)

    def teardown(self) -> None:
        self.scratch.cleanup()

    @initialize(
        scorer_name=st.sampled_from(sorted(SCORERS)),
        fanout=st.sampled_from([2, 3]),
        base=st.lists(text, min_size=1, max_size=6),
        seed=st.integers(0, 2**16),
    )
    def build(self, scorer_name, fanout, base, seed):
        self.scorer, self.live = SCORERS[scorer_name], dict(enumerate(base))
        self.known = set(self.live)
        documents = [Document(doc_id=d, text=t) for d, t in self.live.items()]
        policy = TieredMergePolicy(fanout=fanout)
        self.index = InvertedIndex.build(Corpus(documents), scorer=self.scorer, merge_policy=policy)
        # A build lists its terms in first-occurrence order over the corpus.
        tokenizer = Tokenizer()
        assert self.index.terms == tuple(
            dict.fromkeys(t for doc in documents for t in tokenizer.term_frequencies(doc.text))
        )
        # One genuine term per bucket: every term's list enters the answer.
        embellisher = QueryEmbellisher(ORGANIZATION, KEYPAIR, rng=random.Random(seed))
        self.query = embellisher.embellish([bucket[0] for bucket in ORGANIZATION.buckets])

    # -- updates (each publishes a new snapshot) ------------------------------
    def _add(self, doc_id: int, document_text: str) -> None:
        before = self.index.snapshot()
        self.index.add_document(Document(doc_id=doc_id, text=document_text))
        self.live[doc_id] = document_text
        self.known.add(doc_id)
        assert self.index.snapshot() is not before

    def _remove(self, doc_id: int) -> None:
        before = self.index.snapshot()
        self.index.remove_document(doc_id)
        del self.live[doc_id]
        assert self.index.snapshot() is not before

    def _settle(self, then: str) -> None:
        """After an update: nothing, a seal, or ``maintain``, which seals and
        runs the merges that are due."""
        pending = self.index.has_pending_updates
        if then == "seal":
            assert self.index.seal_delta() == pending
        elif then == "maintain":
            assert self.index.maintain(force_seal=True)["sealed"] == pending
            assert self.index.merge_policy.plan(self.index._segments) == []

    @rule(documents=st.lists(st.tuples(text, st.sampled_from(SETTLE)), min_size=1, max_size=3))
    def add(self, documents):
        for document_text, then in documents:
            self._add(max(self.known, default=-1) + 1, document_text)
            self._settle(then)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def remove(self, data):
        """A live id, as often as not one the newest segment holds when that
        is not the base: merged with its tombstone's segment, its rows must
        go, as nothing older holds them."""
        newest = self.index._segments[-1]
        held = [] if newest.base else sorted(self.live.keys() & newest.documents)
        if not held or data.draw(st.booleans(), label="any live id"):
            held = sorted(self.live)
        self._remove(data.draw(st.sampled_from(held), label="doc_id"))
        self._settle(data.draw(st.sampled_from(SETTLE), label="then"))

    @precondition(lambda self: self.known - self.live.keys())
    @rule(data=st.data(), document_text=text)
    def re_add(self, data, document_text):
        removed = sorted(self.known - self.live.keys())
        self._add(data.draw(st.sampled_from(removed), label="doc_id"), document_text)
        self._settle(data.draw(st.sampled_from(SETTLE), label="then"))

    # -- segment lifecycle ----------------------------------------------------
    @precondition(lambda self: self.index.has_pending_updates)
    @rule()
    def seal(self):
        before = self.index.snapshot()
        assert self.index.seal_delta() and not self.index.has_pending_updates
        assert self.index.snapshot() is not before

    @rule(force_seal=st.booleans())
    def maintain(self, force_seal):
        """Seals on request and leaves nothing due."""
        pending = self.index.has_pending_updates
        assert self.index.maintain(force_seal=force_seal)["sealed"] == (force_seal and pending)
        assert self.index.merge_policy.plan(self.index._segments) == []

    @precondition(lambda self: self.index.num_segments > 1 or self.index.has_pending_updates)
    @rule(again=st.booleans())
    def compact(self, again):
        """One base segment, whose lists the reads serve as they are;
        ``again``: compacting that is a no-op."""
        assert self.index.compact()
        (segment,) = self.index._segments
        assert not self.index.has_pending_updates
        for term, columns in segment.lists.items():
            assert self.index.postings(term) is columns.view(), term
        if again:
            assert self.index.compact() is False and self.index._segments[0] is segment

    # -- persistence ----------------------------------------------------------
    @rule(incremental=st.booleans())
    def save(self, incremental):
        """Incrementally to the last directory, or wholesale to a new one;
        the deep audit folds the record's doc-terms chain against its stats."""
        if incremental and self.target is not None:
            target, mode = self.target, "incremental"
        else:
            target, mode = Path(self.scratch.name) / f"tree{len(self.saved)}", "full"
        assert self.index.save(target)["mode"] == mode
        self.saved[target], self.target = dict(self.live), target
        assert InvertedIndex.verify_directory(target)["ok"]

    @precondition(lambda self: self.target is not None)
    @rule(back=st.integers(0, 1))
    def crash_mid_save(self, back):
        """An incremental save that compacts the log fails at its last write
        (``back=0``) or the one before, then is retried.  It writes the
        blobs of the segments not in the directory's record (the delta's
        too), its doc-terms link, then the ``wal.log`` rewrite that commits
        it, so after the crash the directory still loads the save before
        and verifies.  The retry compacts a log of two records, appends to
        a shorter one, and leaves no orphans."""
        persisted = {entry["segment_id"] for entry in self.index._persist["record"]["segments"]}
        blobs = sum(segment.segment_id not in persisted for segment in self.index._segments)
        at = max(blobs + self.index.has_pending_updates + 1 - back, 0)
        plan = FaultPlan(io_permanent_at=frozenset({at}))
        previous = install_io_fault_hook(FaultInjector(plan=plan).io_hook())
        try:
            with pytest.raises(PermanentFaultError):
                self.index.save(self.target, wal_compact_records=1)
        finally:
            install_io_fault_hook(previous)
        served = _reads(InvertedIndex.load(self.target))
        assert served == _reads(_rebuild(self.saved[self.target], self.scorer))
        assert InvertedIndex.verify_directory(self.target)["ok"]
        self.index.save(self.target, wal_compact_records=2)
        self.saved[self.target] = dict(self.live)
        report = InvertedIndex.verify_directory(self.target)
        assert report["ok"] and report["orphans"] == []

    @precondition(lambda self: self.target is not None)
    @rule(mmap=st.booleans())
    def load(self, mmap):
        self.index = InvertedIndex.load(self.target, mmap=mmap)
        self.live = dict(self.saved[self.target])

    # -- snapshots ------------------------------------------------------------
    @rule(split=st.booleans())
    def pin(self, split):
        """The published snapshot, until the next change.  With ``split``,
        its shards (and an index hand-built from a shard's lists, whatever
        statistics it is handed) keep the derived dictionary."""
        snapshot = self.index.snapshot()
        assert self.index.snapshot() is snapshot
        runs = [(lists, dict(lists)) for lists, _, _ in snapshot._records]
        # A reader releases its pin in time: the model checks the last three.
        self.pins = [*self.pins[-2:], (snapshot, _reads(snapshot), runs)]
        if not split:
            return
        shards = self.index.split(HashPartitioner(num_shards=2))
        assert sorted(t for shard in shards for t in shard.terms) == sorted(snapshot.terms)
        phantom = CorpusStatistics(1, {"phantom": 3}, 1.0)
        for shard in shards:
            lists = {term: shard.postings(term) for term in shard.terms}
            hand_built = InvertedIndex({**lists, "never-indexed": []}, phantom, 255)
            _assert_kept_dictionary_is_derived(shard)
            _assert_kept_dictionary_is_derived(hand_built)
            assert hand_built.terms == shard.terms

    # -- the invariant --------------------------------------------------------
    @invariant()
    def equals_the_rebuild(self):
        index, rebuilt, tokenizer = self.index, _rebuild(self.live, self.scorer), Tokenizer()
        assert _reads(index) == _reads(rebuilt)
        assert_max_is_the_scan(index, self.live, self.scorer)
        assert index.stats.document_frequencies == Counter(
            term for text in self.live.values() for term in tokenizer.term_frequencies(text)
        )
        for term in index.terms:
            served = index.serialise_list(term)
            assert InvertedIndex.deserialise_list(served) == index.postings(term), term

        segment_ids = [segment.segment_id for segment in index._segments]
        assert len(set(segment_ids)) == len(segment_ids)
        assert index._stale_ids <= set(segment_ids)
        # Every sealed list runs by (-quant, doc_id) with quants from 1,
        # each row a document of its segment's, each document once.
        for segment in index._segments:
            for term, columns in segment.lists.items():
                rows = list(zip(map(neg, columns.quants), columns.doc_ids))
                assert all(a < b for a, b in zip(rows, rows[1:])), term
                assert not rows or rows[-1][0] <= -1, term
                assert len(set(columns.doc_ids)) == len(rows), term
                assert segment.documents.issuperset(columns.doc_ids), term
        _assert_kept_dictionary_is_derived(index)

        for snapshot, reads, runs in self.pins:
            snapshot._merged.clear()  # read the pinned runs again, not the memo
            snapshot._live.clear()
            assert _reads(snapshot) == reads
            for lists, kept in runs:
                assert lists.keys() == kept.keys()
                assert all(lists[term] is columns for term, columns in kept.items())

        def answer(view, naive=False):
            server = PrivateRetrievalServer(view, ORGANIZATION, KEYPAIR.public, naive=naive)
            return server.process_query(self.query).encrypted_scores, server.counters

        naive, _ = answer(index, naive=True)
        expected, expected_counters = answer(rebuilt)
        assert naive == expected
        for backend in ["python"] + (["cffi"] if "cffi" in kernels.resolve_backend() else []):
            previous = numbertheory.set_backend(backend)
            try:
                fast, counters = answer(index)
            finally:
                numbertheory.set_backend(previous)
            assert fast == naive and counters == expected_counters, backend


StorageModel.TestCase.settings = settings(max_examples=50, stateful_step_count=20, deadline=None)
TestStorageModel = StorageModel.TestCase
