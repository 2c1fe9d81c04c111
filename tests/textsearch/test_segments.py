"""Unit tests for the segmented storage engine (seal, merge, persist)."""

import os
import random
from array import array
from pathlib import Path

import pytest

from repro.core.partitioning import HashPartitioner
from repro.textsearch.corpus import Corpus, Document
from repro.textsearch.inverted_index import InvertedIndex, _compose_lists
from repro.textsearch.scoring import BM25Scorer
from repro.textsearch.segments import (
    IndexSegment,
    PostingColumns,
    TieredMergePolicy,
    _frame_wal_record,
    impact_order,
    live_columns,
    read_manifest_log,
)
from tests.textsearch.test_incremental_updates import assert_indexes_identical


@pytest.fixture()
def base_documents():
    return [
        Document(doc_id=1, text="the old night keeper keeps the keep in the town"),
        Document(doc_id=2, text="in the big old house in the big old gown"),
        Document(doc_id=3, text="the house in the town had the big old keep"),
        Document(doc_id=4, text="where the old night keeper never did sleep"),
    ]


@pytest.fixture()
def extra_documents():
    return [
        Document(doc_id=10, text="wine cellar below the old house"),
        Document(doc_id=11, text="the night train to huntsville"),
        Document(doc_id=12, text="gown of the town keeper"),
        Document(doc_id=13, text="yeast and nitrogen in the cellar air"),
        Document(doc_id=14, text="diving for wine in the old town"),
        Document(doc_id=15, text="terrorism never did sleep in huntsville"),
    ]


class TestSealing:
    def test_seal_freezes_delta_into_generation_zero_segment(self, base_documents, extra_documents):
        index = InvertedIndex.build(Corpus(base_documents))
        index.add_document(extra_documents[0])
        assert index.has_pending_updates
        assert index.seal_delta()
        sealed = index._segments[-1]
        assert sealed.generation == 0 and not sealed.base
        assert sealed.documents == {extra_documents[0].doc_id}
        assert not index.has_pending_updates
        assert index.num_segments == 2
        rebuilt = InvertedIndex.build(Corpus(base_documents + extra_documents[:1]))
        assert_indexes_identical(index, rebuilt)

    def test_seal_with_nothing_staged_is_a_noop(self, base_documents):
        index = InvertedIndex.build(Corpus(base_documents))
        assert index.seal_delta() is False
        assert index.num_segments == 1

    def test_tombstone_only_seal_filters_older_rows(self, base_documents):
        index = InvertedIndex.build(Corpus(base_documents))
        index.remove_document(2)
        assert index.seal_delta()
        assert index._segments[-1].tombstones == {2}
        assert index.num_segments == 2
        assert index.num_tombstones == 1  # resident in the sealed segment now
        rebuilt = InvertedIndex.build(
            Corpus([d for d in base_documents if d.doc_id != 2])
        )
        assert_indexes_identical(index, rebuilt)

    def test_remove_after_seal_tombstones_the_sealed_rows(self, base_documents, extra_documents):
        index = InvertedIndex.build(Corpus(base_documents))
        index.add_document(extra_documents[0])
        index.seal_delta()
        index.remove_document(extra_documents[0].doc_id)
        rebuilt = InvertedIndex.build(Corpus(base_documents))
        assert_indexes_identical(index, rebuilt)

    def test_re_add_after_sealed_remove_serves_only_fresh_rows(self, base_documents):
        index = InvertedIndex.build(Corpus(base_documents))
        index.remove_document(2)
        index.seal_delta()
        index.add_document(base_documents[1])
        ordered = [d for d in base_documents if d.doc_id != 2] + [base_documents[1]]
        assert_indexes_identical(index, InvertedIndex.build(Corpus(ordered)))

    @pytest.mark.parametrize("use_mmap", [False, True])
    def test_sealed_segment_lists_are_never_replaced(
        self, tmp_path, base_documents, extra_documents, use_mmap
    ):
        """``PostingColumns.doc_ids`` / ``quants`` are plain slots: nothing
        the index does afterwards -- reads, updates, merges, compaction,
        saves -- may assign or mutate a sealed segment's arrays, which a
        pinned snapshot shares."""
        index = InvertedIndex.build(Corpus(base_documents))
        index.add_document(extra_documents[0])
        index.seal_delta()
        index.save(tmp_path / "tree")
        index = InvertedIndex.load(tmp_path / "tree", mmap=use_mmap)
        pinned = index.snapshot()
        for term in pinned.terms:  # materialise every lazy list once
            pinned.columns(term)
            pinned.postings(term)

        def held():
            return {
                (segment.segment_id, term): (columns, columns.doc_ids, columns.quants)
                for segment in index._segments
                for term, columns in segment.lists.items()
            }

        before = held()
        contents = {key: (d.tolist(), q.tolist()) for key, (_, d, q) in before.items()}
        index.remove_document(2)
        for document in extra_documents[1:]:
            index.add_document(document)
        index.maintain(force_seal=True)
        for term in index.terms:
            index.columns(term)
            index.postings(term)
        index.save(tmp_path / "tree")
        index.compact()
        index.save(tmp_path / "tree")
        for key, (columns, doc_ids, quants) in before.items():
            assert columns.doc_ids is doc_ids and columns.quants is quants, key
            assert (doc_ids.tolist(), quants.tolist()) == contents[key], key


class TestTieredMergePolicy:
    def _segment(self, segment_id, generation, seq, base=False):
        return IndexSegment(
            segment_id=segment_id,
            generation=generation,
            seq_lo=seq[0],
            seq_hi=seq[1],
            lists={},
            documents=set(),
            base=base,
        )

    def test_plans_oldest_fanout_of_a_full_tier(self):
        policy = TieredMergePolicy(fanout=2)
        segments = [
            self._segment(0, 0, (0, 0), base=True),
            self._segment(1, 0, (1, 1)),
            self._segment(2, 0, (2, 2)),
            self._segment(3, 0, (3, 3)),
        ]
        assert policy.plan(segments) == [(1, 2)]

    def test_base_segment_never_selected(self):
        policy = TieredMergePolicy(fanout=2)
        segments = [
            self._segment(0, 0, (0, 0), base=True),
            self._segment(1, 0, (1, 1)),
        ]
        assert policy.plan(segments) == []

    def test_one_group_per_generation(self):
        policy = TieredMergePolicy(fanout=2)
        segments = [
            self._segment(0, 0, (0, 0), base=True),
            self._segment(5, 1, (1, 4)),
            self._segment(6, 1, (5, 8)),
            self._segment(7, 0, (9, 9)),
            self._segment(8, 0, (10, 10)),
        ]
        assert policy.plan(segments) == [(7, 8), (5, 6)]

    def test_fanout_below_two_rejected(self):
        with pytest.raises(ValueError, match="fanout"):
            TieredMergePolicy(fanout=1)


class TestTieredMerging:
    def test_maintain_merges_full_tier_and_content_is_preserved(
        self, base_documents, extra_documents
    ):
        index = InvertedIndex.build(
            Corpus(base_documents), merge_policy=TieredMergePolicy(fanout=2)
        )
        for document in extra_documents[:4]:  # four generation-0 seals
            index.add_document(document)
            index.seal_delta()
        assert index.num_segments == 5
        # Two generation-1 merges fill that tier, whose merge follows in
        # the same call.
        assert index.maintain()["merges_committed"] == 3
        assert [s.generation for s in index._segments if not s.base] == [2]
        assert index.merge_policy.plan(index._segments) == []
        rebuilt = InvertedIndex.build(Corpus(base_documents + extra_documents[:4]))
        assert_indexes_identical(index, rebuilt)
        assert index.update_counters.merges == 3
        assert index.update_counters.merge_postings_written > 0

    def test_maintain_merges_until_nothing_is_due(self, base_documents, extra_documents):
        """A merge that fills the next generation's tier is due at once: a
        ``maintain`` after every second seal leaves no plan behind."""
        index = InvertedIndex.build(
            Corpus(base_documents), merge_policy=TieredMergePolicy(fanout=2)
        )
        committed = []
        for count, document in enumerate(extra_documents[:4], start=1):
            index.add_document(document)
            index.seal_delta()
            if count % 2 == 0:
                committed.append(index.maintain()["merges_committed"])
        assert committed == [1, 2]
        assert index.merge_policy.plan(index._segments) == []
        (merged,) = [s for s in index._segments if not s.base]
        assert merged.generation == 2 and merged.seq_lo == 1 and merged.seq_hi == 4
        rebuilt = InvertedIndex.build(Corpus(base_documents + extra_documents[:4]))
        assert_indexes_identical(index, rebuilt)

    def test_merge_consumes_tombstones_and_drops_dead_rows(
        self, base_documents, extra_documents
    ):
        index = InvertedIndex.build(
            Corpus(base_documents), merge_policy=TieredMergePolicy(fanout=2)
        )
        index.add_document(extra_documents[0])
        index.seal_delta()
        index.remove_document(extra_documents[0].doc_id)
        index.add_document(extra_documents[1])
        index.seal_delta()
        # Two generation-0 segments; the newer one's tombstone kills the
        # older one's rows, and since doc 10 lives nowhere older than the
        # merged range the tombstone must be consumed by the merge.
        assert index.maintain()["merges_committed"] == 1
        assert index.num_tombstones == 0
        assert index.update_counters.merge_postings_dropped > 0
        rebuilt = InvertedIndex.build(Corpus(base_documents + [extra_documents[1]]))
        assert_indexes_identical(index, rebuilt)

    def test_merge_keeps_tombstones_of_base_resident_documents(self, base_documents, extra_documents):
        index = InvertedIndex.build(
            Corpus(base_documents), merge_policy=TieredMergePolicy(fanout=2)
        )
        index.add_document(extra_documents[0])
        index.seal_delta()
        index.remove_document(2)  # rows live in the base segment
        index.add_document(extra_documents[1])
        index.seal_delta()
        assert index.maintain()["merges_committed"] == 1
        # The tombstone survives the merge (its rows are in the base,
        # outside the merged range) and keeps filtering reads.
        assert index.num_tombstones == 1
        rebuilt = InvertedIndex.build(
            Corpus(
                [d for d in base_documents if d.doc_id != 2] + extra_documents[:2]
            )
        )
        assert_indexes_identical(index, rebuilt)

    def test_merge_drops_rows_tombstoned_outside_the_range(self, base_documents, extra_documents):
        """Regression: rows tombstoned by a segment *newer than the merged
        range* carry pre-removal impacts (the deferred rewrite skips dead
        rows), so leaving them in the merged runs fed heapq.merge unsorted
        input and scrambled the order of live rows around them."""
        index = InvertedIndex.build(
            Corpus(base_documents), merge_policy=TieredMergePolicy(fanout=2)
        )
        index.add_document(extra_documents[0])
        index.seal_delta()
        index.add_document(extra_documents[1])
        index.seal_delta()
        # Tombstone a doc of the to-be-merged range *and* drift the stats so
        # its dead rows' stale impacts diverge from the fresh ones.
        index.remove_document(extra_documents[0].doc_id)
        index.remove_document(1)
        index.remove_document(2)
        index.seal_delta()  # external tombstones live in this newer segment
        assert index.maintain()["merges_committed"] == 1
        merged = [s for s in index._segments if not s.base][0]
        assert extra_documents[0].doc_id not in merged.documents
        assert all(
            extra_documents[0].doc_id not in set(columns.doc_ids)
            for columns in merged.lists.values()
        )
        live = [d for d in base_documents if d.doc_id not in (1, 2)] + [extra_documents[1]]
        assert_indexes_identical(index, InvertedIndex.build(Corpus(live)))


class _GivenImpacts:
    """A scorer whose document factor is the document's impacts."""

    def impacts(self, document, corpus):
        return document


def _composed(entries, max_impact, levels):
    """One term's list from ``(doc_id, impact)`` pairs, composed as a build is."""
    factors = ((doc_id, {"t": impact}) for doc_id, impact in entries)
    return _compose_lists(_GivenImpacts(), factors, None, max_impact, levels)["t"]


class TestImpactOrder:
    def test_single_clean_run_is_returned_zero_copy(self):
        columns = _composed([(1, 2.0), (2, 1.0)], 2.0, 255)
        assert live_columns(columns, "t", frozenset()) is columns
        assert impact_order([columns]) is columns

    def test_a_recomposed_run_with_unchanged_quants_is_returned_as_itself(self):
        columns = _composed([(1, 2.0), (2, 1.0)], 2.0, 255)
        def compose(quants):
            return lambda doc_ids, term: array("I", quants)

        assert live_columns(columns, "t", frozenset(), compose([255, 128])) is columns
        moved = live_columns(columns, "t", frozenset(), compose([255, 127]))
        assert (list(moved.doc_ids), list(moved.quants)) == ([1, 2], [255, 127])

    def test_dead_rows_filtered_and_order_preserved(self):
        old = _composed([(1, 3.0), (2, 2.0), (3, 1.0)], 3.0, 255)
        new = _composed([(4, 2.5), (5, 0.5)], 3.0, 255)
        merged = impact_order(
            [live_columns(old, "t", frozenset({2})), live_columns(new, "t", frozenset())]
        )
        assert list(merged.doc_ids) == [1, 4, 3, 5]
        assert list(merged.quants) == [old.quants[0], new.quants[0], old.quants[2], new.quants[1]]

    def test_a_run_out_of_order_is_sorted_with_ties_by_doc_id(self):
        run = PostingColumns(array("I", [5, 2, 9, 1]), array("I", [1, 3, 3, 4]))
        ordered = impact_order([run])
        assert list(ordered.doc_ids) == [1, 2, 9, 5]
        assert list(ordered.quants) == [4, 3, 3, 1]
        assert impact_order([ordered]) is ordered

    def test_rows_tied_on_quant_run_by_doc_id_whatever_their_floats(self):
        # 1.0 and 0.999 both quantise to 2 of 2 levels: the float order
        # (9 before 3) is not the list's order.
        columns = _composed([(9, 1.0), (3, 0.999), (4, 0.2)], 1.0, 2)
        assert (list(columns.doc_ids), list(columns.quants)) == ([3, 9, 4], [2, 2, 1])

    def test_zero_impacts_never_enter_a_list(self):
        columns = _composed([(1, 0.0), (2, 1.0), (3, 0.0)], 1.0, 255)
        assert (list(columns.doc_ids), list(columns.quants)) == ([2], [255])

    def test_empty_result_is_none(self):
        columns = _composed([(7, 1.0)], 1.0, 255)
        assert impact_order([live_columns(columns, "t", frozenset({7}))]) is None
        assert impact_order([]) is None


class TestSegmentCounters:
    def test_counters_reflect_configuration(self, base_documents, extra_documents):
        index = InvertedIndex.build(Corpus(base_documents))
        assert index.num_segments == 1 and index._segments[0].base
        assert not index.has_pending_updates
        index.add_document(extra_documents[0])
        index.remove_document(1)
        assert index.has_pending_updates
        assert index.num_delta_documents == 1
        assert index.num_tombstones == 1
        epoch = index.update_epoch
        index.seal_delta()
        assert index.num_segments == 2 and not index.has_pending_updates
        assert [s.generation for s in index._segments if not s.base] == [0]
        assert index.num_tombstones == 1
        assert index.update_epoch == epoch


class TestPostingCounts:
    def test_counts_follow_the_deferred_rewrite(self, tmp_path):
        """A wholesale save flushes the deferred rewrites into copies that
        hold only live rows, and each segment's count follows its lists."""
        rng = random.Random(0)
        words = "alpha beta gamma delta epsilon zeta eta theta".split()

        def text(length):
            return " ".join(rng.choice(words) for _ in range(length))

        base = [Document(doc_id=i, text=text(rng.randint(2, 12))) for i in range(8)]
        index = InvertedIndex.build(Corpus(base), scorer=BM25Scorer())
        index.remove_documents([0, 1])
        index.seal_delta()
        index.add_documents(Document(doc_id=100 + k, text=text(40)) for k in range(3))
        counted = index._segments[0].num_postings
        index.save(tmp_path / "flushed")
        assert index.update_counters.lists_requantised > 0
        assert index._segments[0].num_postings < counted
        for segment in index._segments:
            assert segment.num_postings == sum(map(len, segment.lists.values()))


def _save_target(tmp_path: Path, name: str) -> Path:
    """Honour SAVED_INDEX_ARTIFACT_DIR so CI can upload the saved tree."""
    artifact_root = os.environ.get("SAVED_INDEX_ARTIFACT_DIR")
    if artifact_root:
        return Path(artifact_root) / name
    return tmp_path / name


class TestPersistence:
    @pytest.mark.parametrize("use_mmap", [False, True])
    def test_save_load_round_trip(self, tmp_path, base_documents, extra_documents, use_mmap):
        index = InvertedIndex.build(Corpus(base_documents))
        index.add_document(extra_documents[0])
        index.remove_document(2)
        target = _save_target(tmp_path, f"roundtrip_mmap_{use_mmap}")
        index.save(target)
        assert not index.has_pending_updates
        loaded = InvertedIndex.load(target, mmap=use_mmap)
        live = [d for d in base_documents if d.doc_id != 2] + [extra_documents[0]]
        rebuilt = InvertedIndex.build(Corpus(live))
        assert_indexes_identical(loaded, rebuilt)
        assert loaded.stats.average_document_length == rebuilt.stats.average_document_length

    def test_incremental_saves_round_trip(self, tmp_path, base_documents, extra_documents):
        """A tree written by incremental saves (exported for CI, which
        deep-verifies every exported tree) loads bit-identical to a rebuild."""
        index = InvertedIndex.build(Corpus(base_documents))
        target = _save_target(tmp_path, "incremental")
        index.save(target)
        index.add_document(extra_documents[0])
        index.save(target)
        index.remove_document(2)
        index.add_documents(extra_documents[1:3])
        index.maintain(force_seal=True)
        assert index.save(target)["mode"] == "incremental"
        live = [d for d in base_documents if d.doc_id != 2] + extra_documents[:3]
        for use_mmap in (False, True):
            loaded = InvertedIndex.load(target, mmap=use_mmap)
            assert_indexes_identical(loaded, InvertedIndex.build(Corpus(live)))

    def test_mmap_load_materialises_columns_lazily(self, tmp_path, base_documents):
        index = InvertedIndex.build(Corpus(base_documents))
        index.save(tmp_path / "lazy")
        loaded = InvertedIndex.load(tmp_path / "lazy", mmap=True)
        segment = loaded._segments[0]
        assert all(not columns.materialised for columns in segment.lists.values())
        # No float column exists, and asking for one loads nothing.
        assert not hasattr(segment.lists["keep"], "impacts")
        assert not segment.lists["keep"].materialised
        loaded.columns("keep")  # touch one term
        assert segment.lists["keep"].materialised
        untouched = [t for t in segment.lists if t != "keep"]
        assert any(not segment.lists[t].materialised for t in untouched)

    def test_loaded_index_supports_further_updates(self, tmp_path, base_documents, extra_documents):
        index = InvertedIndex.build(Corpus(base_documents))
        index.save(tmp_path / "updatable")
        loaded = InvertedIndex.load(tmp_path / "updatable", mmap=True)
        loaded.add_document(extra_documents[0])
        loaded.remove_document(1)
        live = [d for d in base_documents if d.doc_id != 1] + [extra_documents[0]]
        assert_indexes_identical(loaded, InvertedIndex.build(Corpus(live)))

    def test_load_without_document_terms_is_read_only(self, tmp_path, base_documents):
        index = InvertedIndex.build(Corpus(base_documents))
        (shard,) = index.split(HashPartitioner(num_shards=1))
        shard.save(tmp_path / "frozen")
        loaded = InvertedIndex.load(tmp_path / "frozen")
        assert not loaded.supports_updates
        assert_indexes_identical(loaded, index)
        with pytest.raises(RuntimeError, match="does not support incremental updates"):
            loaded.add_document(Document(doc_id=99, text="anything"))

    def test_bm25_scorer_round_trips_through_manifest(self, tmp_path, base_documents, extra_documents):
        scorer = BM25Scorer(k1=1.6, b=0.6)
        index = InvertedIndex.build(Corpus(base_documents), scorer=scorer)
        index.save(tmp_path / "bm25")
        loaded = InvertedIndex.load(tmp_path / "bm25")
        assert loaded._scorer == scorer
        loaded.add_document(extra_documents[0])
        rebuilt = InvertedIndex.build(
            Corpus(base_documents + [extra_documents[0]]), scorer=scorer
        )
        assert_indexes_identical(loaded, rebuilt)

    def test_unknown_scorer_requires_explicit_argument(self, tmp_path, base_documents):
        class OddScorer:
            """Every term of every document has impact 1.0."""

            def document_factor(self, term_frequencies):
                return dict.fromkeys(term_frequencies, 1.0), 1.0

            def corpus_factor(self, stats):
                return None

            def impacts(self, document, corpus):
                return dict.fromkeys(document[0], 1.0)

            def impact(self, document, term, corpus):
                return 1.0 if term in document[0] else 0.0

            def max_impact(self, terms, keys, ranks, corpus):
                return 1.0 if terms else 0.0

        index = InvertedIndex.build(Corpus(base_documents), scorer=OddScorer())
        index.save(tmp_path / "odd")
        with pytest.raises(ValueError, match="pass scorer="):
            InvertedIndex.load(tmp_path / "odd")
        loaded = InvertedIndex.load(tmp_path / "odd", scorer=OddScorer())
        assert_indexes_identical(loaded, index)

    def test_save_seals_the_pending_delta(self, tmp_path, base_documents, extra_documents):
        index = InvertedIndex.build(Corpus(base_documents))
        index.add_document(extra_documents[0])
        assert index.has_pending_updates
        index.save(tmp_path / "sealed")
        assert not index.has_pending_updates
        assert index.num_segments == 2

    def test_segment_structure_survives_the_round_trip(self, tmp_path, base_documents, extra_documents):
        index = InvertedIndex.build(Corpus(base_documents))
        for document in extra_documents[:3]:
            index.add_document(document)
            index.seal_delta()
        index.save(tmp_path / "segmented")
        loaded = InvertedIndex.load(tmp_path / "segmented")

        def layout(of):
            return [(s.segment_id, s.generation, s.base) for s in of._segments]

        assert layout(loaded) == layout(index)
        # Maintenance keeps working after the reload.
        loaded.add_documents(extra_documents[3:])
        loaded.maintain(force_seal=True)
        rebuilt = InvertedIndex.build(Corpus(base_documents + extra_documents))
        assert_indexes_identical(loaded, rebuilt)

    def test_resave_reclaims_orphaned_segment_files(self, tmp_path, base_documents, extra_documents):
        """Regression: segment ids only grow, so repeated checkpoints to one
        path used to accumulate unreferenced segment_<id>.bin blobs.
        Retention for crash recovery is bounded by the manifest log: every
        file a surviving ``wal.log`` record references is kept, and log
        compaction (here forced with ``wal_compact_records=1``) drops the
        older records and reclaims the blobs only they referenced."""
        index = InvertedIndex.build(Corpus(base_documents))
        target = tmp_path / "checkpoint"
        index.save(target)
        first_gen = {p.name for p in target.glob("segment_*.bin")}
        index.add_document(extra_documents[0])
        index.maintain(force_seal=True)
        index.compact()
        index.save(target)
        manifest = read_manifest_log(target)[-1]
        referenced = {entry["file"] for entry in manifest["segments"]}
        on_disk = {p.name for p in target.glob("segment_*.bin")}
        # Current checkpoint plus the retained previous record's files.
        assert on_disk == referenced | first_gen
        index.add_document(extra_documents[1])
        index.save(target, wal_compact_records=1)
        manifest = read_manifest_log(target)[-1]
        referenced = {entry["file"] for entry in manifest["segments"]}
        on_disk = {p.name for p in target.glob("segment_*.bin")}
        # Compacted to a single record: exactly its files survive.
        assert on_disk == referenced
        assert not (on_disk & first_gen)  # bounded: generation 0 reclaimed
        loaded = InvertedIndex.load(target)
        rebuilt = InvertedIndex.build(
            Corpus(base_documents + [extra_documents[0], extra_documents[1]])
        )
        assert_indexes_identical(loaded, rebuilt)

    def test_resave_never_rewrites_previously_referenced_files(
        self, tmp_path, base_documents, extra_documents
    ):
        """Crash safety: a re-save must not rewrite any file the previous
        manifest references -- a crash mid-save would otherwise corrupt a
        previously valid checkpoint.  An incremental re-save *reuses* the
        previous segment blobs by reference (byte-identical on disk) and
        appends blobs only for newly sealed segments; the per-save
        ``doc_terms_<seq>.json`` carries the save sequence in its name."""
        index = InvertedIndex.build(Corpus(base_documents))
        target = tmp_path / "checkpoint"
        index.save(target)
        old_manifest = read_manifest_log(target)[-1]
        old_files = {e["file"] for e in old_manifest["segments"]}
        old_bytes = {name: (target / name).read_bytes() for name in old_files}
        index.add_document(extra_documents[0])
        report = index.save(target)
        new_manifest = read_manifest_log(target)[-1]
        new_files = {e["file"] for e in new_manifest["segments"]}
        # The base segment is reused by reference, bit-identical on disk;
        # only the newly sealed delta segment got a new blob.
        assert old_files < new_files
        for name, payload in old_bytes.items():
            assert (target / name).read_bytes() == payload
        assert report["mode"] == "incremental"
        assert report["segments_reused"] == len(old_files)
        assert new_manifest["doc_terms_file"] != old_manifest["doc_terms_file"]
        assert new_manifest["save_seq"] == old_manifest["save_seq"] + 1

    def test_maintenance_config_round_trips_through_save_load(self, tmp_path, base_documents):
        """Regression: the merge fanout used to be lost on load."""
        index = InvertedIndex.build(
            Corpus(base_documents), merge_policy=TieredMergePolicy(fanout=3)
        )
        index.save(tmp_path / "configured")
        loaded = InvertedIndex.load(tmp_path / "configured")
        assert loaded.merge_policy == TieredMergePolicy(fanout=3)
        # Explicit overrides still win.
        overridden = InvertedIndex.load(
            tmp_path / "configured", merge_policy=TieredMergePolicy(fanout=2)
        )
        assert overridden.merge_policy == TieredMergePolicy(fanout=2)

    def test_load_rejects_non_index_directory(self, tmp_path):
        (tmp_path / "wal.log").write_bytes(_frame_wal_record({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a repro-index-segments"):
            InvertedIndex.load(tmp_path)
