"""Write-ahead manifest-log tests: incremental saves, replay, compaction.

The persistence contract of the WAL storage layer:

* ``save`` after N update batches **appends** -- previously referenced
  segment files are reused by reference and never rewritten;
* ``load`` replays the log to the newest consistent record, so truncating
  the log to any record-prefix boundary recovers *that* save bit-identically,
  and truncating at any other byte recovers a recorded save or raises the
  typed :class:`CorruptIndexError` (the PR 6 sweep, extended to the log);
* log compaction bounds the record count and reclaims the files only the
  dropped records referenced;
* ``verify_directory(deep=True)`` audits WAL record CRCs and reports the
  orphans an interrupted compaction leaves; ``repair_directory`` removes
  them.
"""

import json
import shutil
import struct
import sys
import zlib
from array import array
from pathlib import Path

import pytest

from repro.core.faults import FaultInjector, FaultPlan, PermanentFaultError
from repro.textsearch import (
    Corpus,
    CorruptIndexError,
    Document,
    InvertedIndex,
    segments,
)
from repro.textsearch.segments import (
    INDEX_FORMAT_VERSION,
    install_io_fault_hook,
    read_manifest_log,
    repair_index_directory,
    verify_index_directory,
)

_WORDS = (
    "alpha beta gamma delta epsilon zeta eta theta iota kappa "
    "lambda sigma omega"
).split()
_FRAME = struct.Struct("<II")


def _documents(num_docs: int) -> list[Document]:
    return [
        Document(
            doc_id=i,
            text=" ".join(_WORDS[(i + k) % len(_WORDS)] for k in range(2 + i % 5)),
        )
        for i in range(num_docs)
    ]


def _build_index(num_docs: int = 10) -> InvertedIndex:
    return InvertedIndex.build(Corpus(_documents(num_docs)))


def _snapshot(index: InvertedIndex):
    """The logical content of an index: every term's full posting list."""
    return {
        term: tuple(
            (p.doc_id, p.quantised_impact) for p in index.postings(term)
        )
        for term in sorted(index.terms)
    }


def _record_boundaries(blob: bytes):
    """Byte offsets in ``wal.log`` at which each CRC-framed record ends."""
    boundaries = []
    offset = 0
    while offset + _FRAME.size <= len(blob):
        length, _crc = _FRAME.unpack_from(blob, offset)
        offset += _FRAME.size + length
        if offset > len(blob):
            break
        boundaries.append(offset)
    return boundaries


def _sweep_target(root: Path, target: str) -> tuple[str, int]:
    """The file a damage sweep targets and the offset its piece starts at:
    the whole log, the footer of the segment only the newest record names,
    or the newest record's doc-terms link (the delta its save wrote)."""
    *older, newest = read_manifest_log(root)
    if target == "wal.log":
        return "wal.log", 0
    assert newest["version"] == INDEX_FORMAT_VERSION and newest["doc_terms_chain"]
    if target == "doc-terms-delta":
        return newest["doc_terms_file"], 0
    (name,) = {e["file"] for e in newest["segments"]} - {e["file"] for e in older[-1]["segments"]}
    size = (root / name).stat().st_size
    (length, _crc) = _FRAME.unpack((root / name).read_bytes()[-_FRAME.size :])
    return name, size - _FRAME.size - length


def _flip(blob: bytes, offset: int) -> bytes:
    damaged = bytearray(blob)
    damaged[offset] ^= 1 << offset % 8
    return bytes(damaged)


def _incremental_history(tmp_path, saves: int = 4):
    """One initial full save plus ``saves`` incremental ones; returns the
    directory, the per-save logical snapshots, and each save's report."""
    index = _build_index()
    root = tmp_path / "ckpt"
    reports = [index.save(root)]
    snapshots = [_snapshot(InvertedIndex.load(root))]
    for i in range(saves):
        index.add_document(
            Document(doc_id=500 + i, text=f"omega alpha sigma fresh{i}")
        )
        index.maintain(force_seal=True)
        reports.append(index.save(root))
        snapshots.append(_snapshot(InvertedIndex.load(root)))
    return root, snapshots, reports


class TestAppendOnlyIncrementalSaves:
    def test_save_appends_and_never_rewrites_referenced_files(self, tmp_path):
        index = _build_index()
        root = tmp_path / "ckpt"
        assert index.save(root)["mode"] == "full"
        for i in range(4):
            before = {
                p.name: p.read_bytes() for p in root.glob("segment_*.bin")
            }
            wal_before = (root / "wal.log").read_bytes()
            index.add_document(
                Document(doc_id=500 + i, text=f"omega alpha sigma fresh{i}")
            )
            index.maintain(force_seal=True)
            report = index.save(root)
            assert report["mode"] == "incremental"
            # Background merges may fold small segments into new files, but
            # at least the bulk segment is always reused by reference.
            assert report["segments_reused"] >= 1
            # Every previously referenced blob is still there, byte for byte.
            for name, blob in before.items():
                assert (root / name).read_bytes() == blob, name
            # The log grew by appending; the old bytes are a strict prefix.
            wal_after = (root / "wal.log").read_bytes()
            assert wal_after[: len(wal_before)] == wal_before
            assert len(wal_after) > len(wal_before)

    def test_incremental_directory_loads_bit_identical_to_fresh_full_save(
        self, tmp_path
    ):
        root, snapshots, _reports = _incremental_history(tmp_path)
        incremental = InvertedIndex.load(root)
        fresh_dir = tmp_path / "fresh"
        # A new path: wholesale by construction.
        assert incremental.save(fresh_dir)["mode"] == "full"
        assert _snapshot(InvertedIndex.load(fresh_dir)) == snapshots[-1]
        assert _snapshot(incremental) == snapshots[-1]

    def test_an_incremental_save_writes_its_delta_not_the_corpus(self, tmp_path):
        """The same +8/-4 checkpoint over 100 and over 1,000 documents writes
        the same bytes to within 10 %: new files plus the log's growth."""
        written = []
        for num_docs in (100, 1000):
            index = _build_index(num_docs)
            root = tmp_path / f"docs_{num_docs}"
            index.save(root)
            before = {p.name: p.stat().st_size for p in root.iterdir()}
            index.add_documents(
                Document(doc_id=5000 + i, text=f"omega alpha sigma fresh{i}") for i in range(8)
            )
            index.remove_documents(range(4))
            assert index.save(root)["mode"] == "incremental"
            after = {p.name: p.stat().st_size for p in root.iterdir()}
            written.append(sum(size - before.get(name, 0) for name, size in after.items()))
        assert max(written) < 1.1 * min(written), written

    def test_save_seq_and_wal_records_advance_per_save(self, tmp_path):
        root, _snapshots, reports = _incremental_history(tmp_path, saves=3)
        assert [r["save_seq"] for r in reports] == [1, 2, 3, 4]
        assert [r["wal_records"] for r in reports] == [1, 2, 3, 4]
        assert [r["save_seq"] for r in read_manifest_log(root)] == [1, 2, 3, 4]


def _swapped_segment(path: Path) -> bytes:
    """A segment file with every column word in the other byte order (the
    per-term CRCs are over the stored bytes, so the footer is rewritten)."""
    blob = path.read_bytes()
    footer = segments._segment_footer(blob, path)
    length, _crc = _FRAME.unpack_from(blob, len(blob) - _FRAME.size)
    body = bytearray(blob[: len(blob) - _FRAME.size - length])
    for term, (offset, rows, _crc) in footer["terms"].items():
        block = array("I", body[offset : offset + 8 * rows])
        block.byteswap()
        body[offset : offset + 8 * rows] = block.tobytes()
        footer["terms"][term] = [offset, rows, zlib.crc32(block.tobytes())]
    payload = json.dumps(footer).encode()
    return bytes(body) + payload + _FRAME.pack(len(payload), zlib.crc32(payload))


def _swapped_link(data: bytes) -> bytes:
    """A doc-terms link with every u32 in the other byte order (the UTF-8
    of its term table as it was)."""
    (num_terms,) = struct.unpack_from("=I", data)
    head = array("I", data[: 8 + 4 * num_terms])
    text_end = len(head) * 4 + sum(head[2:])
    tail = array("I", data[text_end:])
    head.byteswap()
    tail.byteswap()
    return head.tobytes() + data[len(head) * 4 : text_end] + tail.tobytes()


class TestForwardIndexRoundTrip:
    def _writer(self, root: Path, compact: bool = True) -> InvertedIndex:
        """A full link, then one delta link holding a live document with no
        indexable terms, a removed document and a re-added id.  Removing
        document 0 leaves its first term ("alpha", also in document 9) where
        the writer's f_t map had it, not where a fold would put it.  The
        compaction leaves no segment stale, so no read of the saved record
        refreshes."""
        index = _build_index()
        index.save(root)
        index.add_document(Document(doc_id=77, text="the and of to in a"))
        index.remove_documents([0, 3])
        index.add_document(Document(doc_id=3, text="sigma omega sigma alpha"))
        if compact:
            index.compact()
        assert index.save(root)["mode"] == "incremental"
        (record,) = read_manifest_log(root)[-1:]
        assert len(record["doc_terms_chain"]) == 1
        return index

    def test_a_load_takes_the_writers_stats_and_folds_nothing_until_the_first_mutation(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "ckpt"
        writer = self._writer(root)
        folds = []
        fold = segments.fold_doc_terms
        monkeypatch.setattr(
            segments, "fold_doc_terms", lambda *args: folds.append(args) or fold(*args)
        )
        loaded = InvertedIndex.load(root, mmap=True)
        assert loaded.stats == writer.stats
        assert list(loaded.stats.document_frequencies) == list(writer.stats.document_frequencies)
        for term in loaded.terms:
            loaded.columns(term)
        assert (loaded._doc_terms, loaded._doc_factors, folds) == (None, None, [])
        for doc_id in (90, 91):
            for index in (writer, loaded):
                index.add_document(Document(doc_id=doc_id, text=f"beta omega fresh{doc_id}"))
        assert len(folds) == 1
        assert list(loaded._doc_terms.items()) == list(writer._doc_terms.items())
        for (_, got), (_, want) in zip(loaded._doc_terms.items(), writer._doc_terms.items()):
            assert list(got.items()) == list(want.items())
        assert _snapshot(loaded) == _snapshot(writer)
        assert loaded.stats == writer.stats

    def test_a_tree_written_in_the_other_byte_order_loads_and_folds(self, tmp_path):
        """Every column and link word swapped, the records saying so: a load
        byteswaps them back (eagerly), and the first mutation folds."""
        root = tmp_path / "ckpt"
        writer = self._writer(root)
        records = read_manifest_log(root)
        for name in records[-1]["integrity"]:
            if name.startswith("segment_"):
                blob = _swapped_segment(root / name)
            else:
                blob = _swapped_link((root / name).read_bytes())
            (root / name).write_bytes(blob)
            for record in records:
                if name in record["integrity"]:
                    record["integrity"][name] = [len(blob), zlib.crc32(blob)]
        for record in records:
            record["byteorder"] = "big" if sys.byteorder == "little" else "little"
        (root / "wal.log").write_bytes(b"".join(map(segments._frame_wal_record, records)))
        loaded = InvertedIndex.load(root, mmap=True)
        assert _snapshot(loaded) == _snapshot(writer)
        for index in (writer, loaded):
            index.add_document(Document(doc_id=90, text="beta omega fresh"))
        assert list(loaded._doc_terms.items()) == list(writer._doc_terms.items())
        assert _snapshot(loaded) == _snapshot(writer)

    @staticmethod
    def _rot(root: Path, rot: str) -> None:
        """Rewrite the newest link's rows, well formed but wrong, and record
        its true CRC-32.  The link is document 77 (no rows), 0 (removed),
        then 3, whose three rows end it."""
        records = read_manifest_log(root)
        name = records[-1]["doc_terms_file"]
        blob = bytearray((root / name).read_bytes())
        if rot == "frequency":  # the last f_dt one higher
            blob[-4:] = struct.pack("=I", struct.unpack("=I", blob[-4:])[0] + 1)
        else:  # row 2 names row 1's term
            blob[-16:-12] = blob[-24:-20]
        (root / name).write_bytes(blob)
        records[-1]["integrity"][name] = [len(blob), zlib.crc32(blob)]
        (root / "wal.log").write_bytes(b"".join(map(segments._frame_wal_record, records)))

    @pytest.mark.parametrize("rot", ["frequency", "term-twice-in-a-document"])
    def test_a_chain_that_does_not_match_its_record_fails_the_first_mutation(
        self, tmp_path, rot
    ):
        """A CRC-valid link whose rows are well formed but wrong loads, since
        load checks structure only; the first mutation's fold refuses it and
        changes nothing, and deep verify runs the same fold."""
        root = tmp_path / "ckpt"
        self._writer(root)
        self._rot(root, rot)
        loaded = InvertedIndex.load(root)
        snapshot = _snapshot(loaded)
        with pytest.raises(CorruptIndexError, match="corpus statistics"):
            loaded.add_document(Document(doc_id=90, text="beta"))
        assert _snapshot(loaded) == snapshot
        report = verify_index_directory(root)
        assert "corpus statistics" in report["problems"]["wal.log#2"][0]
        assert report["recoverable"] == "wal.log#1"

    def test_a_chain_that_renames_a_live_document_fails_the_first_mutation(self, tmp_path):
        """A changed document id keeps the statistics, so the fold also checks
        that every live document of the record's segments is in the chain."""
        root = tmp_path / "ckpt"
        _build_index().save(root)
        (record,) = read_manifest_log(root)
        name = record["doc_terms_file"]
        data = (root / name).read_bytes()
        num_terms, _num_docs = struct.unpack_from("=II", data)
        at = 8 + 4 * num_terms + sum(struct.unpack_from(f"={num_terms}I", data, 8))
        blob = data[:at] + struct.pack("=I", 4000) + data[at + 4 :]  # document 0 is 4000
        (root / name).write_bytes(blob)
        record["integrity"][name] = [len(blob), zlib.crc32(blob)]
        (root / "wal.log").write_bytes(segments._frame_wal_record(record))
        loaded = InvertedIndex.load(root)
        snapshot = _snapshot(loaded)
        with pytest.raises(CorruptIndexError, match="every live document"):
            loaded.remove_document(1)
        assert _snapshot(loaded) == snapshot
        assert "every live document" in verify_index_directory(root)["problems"]["wal.log#1"][0]

    def test_a_stale_refresh_whose_fold_fails_keeps_failing(self, tmp_path):
        """A record saved with deferred rewrites refreshes on its first read,
        which folds the chain: a fold that fails fails that read and every
        later one, and no read serves the stored quants."""
        root = tmp_path / "ckpt"
        self._writer(root, compact=False)
        assert read_manifest_log(root)[-1]["arrays_fresh"] is False
        self._rot(root, "frequency")
        loaded = InvertedIndex.load(root, mmap=True)
        for _ in range(2):
            with pytest.raises(CorruptIndexError, match="corpus statistics"):
                loaded.columns("alpha")


def _update(index: InvertedIndex, doc_id: int) -> None:
    index.add_document(Document(doc_id=doc_id, text=f"omega alpha sigma fresh{doc_id}"))
    index.maintain(force_seal=True)


@pytest.fixture()
def wal_scans(monkeypatch):
    """Every ``_scan_wal`` call, recorded, then run as usual."""
    scans = []
    scan = segments._scan_wal

    def spy(*args):
        scans.append(args[0].name)
        return scan(*args)

    monkeypatch.setattr(segments, "_scan_wal", spy)
    return scans


class TestSaveSkipsDecodingItsOwnLog:
    def test_saves_over_a_log_this_instance_wrote_decode_nothing(self, tmp_path, wal_scans):
        index = _build_index()
        root = tmp_path / "ckpt"
        index.save(root)
        assert wal_scans == ["wal.log"]  # the first save has no fingerprint yet
        for doc_id in range(500, 504):
            _update(index, doc_id)
            report = index.save(root, wal_compact_records=3)
            assert report["mode"] == "incremental"
        assert wal_scans == ["wal.log"]
        assert report["wal_records"] == len(read_manifest_log(root)) <= 3
        assert _snapshot(InvertedIndex.load(root)) == _snapshot(index)
        report = verify_index_directory(root)
        assert report["ok"] and report["orphans"] == []

    @pytest.mark.parametrize("tamper", ["truncate", "append", "flip"])
    def test_a_log_changed_behind_the_instance_takes_the_full_scan(
        self, tmp_path, wal_scans, tamper
    ):
        index = _build_index()
        root = tmp_path / "ckpt"
        index.save(root)
        _update(index, 500)
        index.save(root)
        blob = bytearray((root / "wal.log").read_bytes())
        if tamper == "truncate":
            blob = blob[: _record_boundaries(bytes(blob))[0]]
        elif tamper == "append":
            blob += b"\x00" * 3
        else:  # same length, one bit of the newest record
            blob[-1] ^= 0x01
        (root / "wal.log").write_bytes(bytes(blob))
        wal_scans.clear()
        _update(index, 501)
        index.save(root)
        assert wal_scans == ["wal.log"]
        assert _snapshot(InvertedIndex.load(root)) == _snapshot(index)
        assert verify_index_directory(root)["ok"]

    def test_a_save_aborted_at_any_write_then_retried_on_the_same_instance(self, tmp_path):
        """Abort an undecoded save at each write: the directory loads as the
        state before or after it, and the instance's retry (still undecoded)
        commits the new state and reclaims the aborted save's debris."""
        probe = _build_index()
        probe.save(tmp_path / "probe")
        _update(probe, 500)
        counter = FaultInjector(plan=FaultPlan())
        previous = install_io_fault_hook(counter.io_hook())
        try:
            probe.save(tmp_path / "probe")
        finally:
            install_io_fault_hook(previous)
        total_writes = counter.io_operations
        assert total_writes >= 3
        for op in range(total_writes):
            index = _build_index()
            work = tmp_path / f"abort_{op}"
            index.save(work)
            before = _snapshot(index)
            _update(index, 500)
            after = _snapshot(index)
            previous = install_io_fault_hook(
                FaultInjector(plan=FaultPlan(io_permanent_at=frozenset({op}))).io_hook()
            )
            try:
                with pytest.raises(PermanentFaultError):
                    index.save(work)
            finally:
                install_io_fault_hook(previous)
            assert _snapshot(InvertedIndex.load(work)) in (before, after), op
            assert index.save(work)["mode"] == "incremental"
            assert _snapshot(InvertedIndex.load(work)) == after
            assert verify_index_directory(work)["orphans"] == []


class TestLogReplayRecovery:
    def test_every_record_prefix_recovers_that_save_bit_identically(self, tmp_path):
        root, snapshots, _reports = _incremental_history(tmp_path)
        blob = (root / "wal.log").read_bytes()
        boundaries = _record_boundaries(blob)
        assert len(boundaries) == len(snapshots)
        for which, boundary in enumerate(boundaries):
            work = tmp_path / f"prefix_{which}"
            shutil.copytree(root, work)
            (work / "wal.log").write_bytes(blob[:boundary])
            assert _snapshot(InvertedIndex.load(work)) == snapshots[which], (
                f"replaying the log truncated after record {which} did not "
                "recover that save"
            )

    @pytest.mark.parametrize("target", ["wal.log", "segment-footer", "doc-terms-delta"])
    def test_truncating_the_log_at_every_byte_recovers_or_raises(self, tmp_path, target):
        """``wal.log`` cut at every byte recovers a recorded save or raises.
        The two pieces only the newest save wrote -- its new segment's
        footer and its doc-terms delta -- are cut at every byte of the piece
        and have each byte's bit ``offset % 8`` flipped, loading eagerly and
        by mmap in turn: every case falls back to the save before."""
        root, snapshots, _reports = _incremental_history(tmp_path, saves=2)
        name, start = _sweep_target(root, target)
        blob = (root / name).read_bytes()
        cases = [blob[:cut] for cut in range(start, len(blob))]
        if target != "wal.log":
            cases += [_flip(blob, offset) for offset in range(start, len(blob))]
        recovered, rejected = 0, 0
        for case, damaged in enumerate(cases):
            work = tmp_path / f"cut_{case}"
            shutil.copytree(root, work)
            (work / name).write_bytes(damaged)
            try:
                loaded = InvertedIndex.load(work, mmap=target != "wal.log" and case % 2 == 1)
            except CorruptIndexError:
                rejected += 1
                continue
            assert _snapshot(loaded) in (snapshots if target == "wal.log" else snapshots[:-1]), (
                f"damage case {case} of {name} produced an index "
                "matching no recorded save"
            )
            recovered += 1
            shutil.rmtree(work)
        if target != "wal.log":
            assert (recovered, rejected) == (len(cases), 0)
            return
        # A mid-record tear keeps every earlier record replayable, so every
        # cut past the first record boundary recovers; only cuts starving
        # the very first record (no candidate manifest left) may reject.
        boundaries = _record_boundaries(blob)
        assert recovered > 0
        assert rejected > 0  # both contract outcomes must actually occur
        assert rejected <= boundaries[0]

    def test_corrupting_a_mid_log_record_flags_wal_and_loads_the_prefix(self, tmp_path):
        root, snapshots, _reports = _incremental_history(tmp_path, saves=2)
        blob = bytearray((root / "wal.log").read_bytes())
        boundaries = _record_boundaries(bytes(blob))
        # Flip a payload bit inside the *second* record.
        blob[boundaries[0] + _FRAME.size + 4] ^= 0x01
        (root / "wal.log").write_bytes(bytes(blob))
        report = verify_index_directory(root)
        assert report["wal"]["torn"] is True
        assert report["problems"]["wal.log"]
        # The framing behind the rotted record is lost, and the log is the
        # only copy of the manifests: the directory loads the save the
        # consistent prefix ends at, never a guess at a newer one.
        assert report["recoverable"] == "wal.log#1"
        assert _snapshot(InvertedIndex.load(root)) == snapshots[0]

    def test_a_crc_valid_record_nested_past_the_recursion_limit_is_reported(self, tmp_path):
        """JSON nested deeper than the decoder recurses raises RecursionError,
        not ValueError: the record is reported like any non-JSON one and
        load falls back to the record behind it."""
        root, snapshots, _reports = _incremental_history(tmp_path, saves=1)
        payload = b"[" * 100_000
        with open(root / "wal.log", "ab") as log:
            log.write(_FRAME.pack(len(payload), zlib.crc32(payload)) + payload)
        report = verify_index_directory(root)
        assert report["ok"] is False
        assert "not valid JSON" in report["problems"]["wal.log"][0]
        assert report["recoverable"] == "wal.log#2"
        assert _snapshot(InvertedIndex.load(root)) == snapshots[-1]

    def test_a_crc_valid_frame_that_is_no_record_keeps_the_records_after_it(
        self, tmp_path, monkeypatch
    ):
        """Its framing is intact, so the walk reads past it: load takes the
        newest record, parsing no older one, and verify reports the frame."""
        root, snapshots, _reports = _incremental_history(tmp_path, saves=1)
        frames, _torn = segments._wal_frames(root / "wal.log")
        cut = frames[1][0]  # where the second record's frame starts
        payload = b'"not a record"'
        log = (root / "wal.log").read_bytes()
        (root / "wal.log").write_bytes(
            log[:cut] + _FRAME.pack(len(payload), zlib.crc32(payload)) + payload + log[cut:]
        )
        report = verify_index_directory(root)
        assert report["ok"] is False
        assert "record 1 at byte" in report["problems"]["wal.log"][0]
        assert report["recoverable"] == "wal.log#2"
        parsed = []
        parse = segments._parsed
        monkeypatch.setattr(
            segments, "_parsed", lambda *args: parsed.append(args[1]) or parse(*args)
        )
        assert _snapshot(InvertedIndex.load(root)) == snapshots[-1]
        assert parsed == [2]


class TestLogCompaction:
    def test_compaction_bounds_records_and_reclaims_dropped_files(self, tmp_path):
        index = _build_index()
        root = tmp_path / "ckpt"
        index.save(root, wal_compact_records=3)
        for i in range(6):
            index.add_document(
                Document(doc_id=500 + i, text=f"omega alpha sigma fresh{i}")
            )
            index.maintain(force_seal=True)
            assert index.save(root, wal_compact_records=3)["wal_records"] <= 3
        records = read_manifest_log(root)
        assert len(records) <= 3
        # Every file on disk is referenced by a surviving record: the blobs
        # only dropped records referenced were reclaimed.
        referenced = {
            entry["file"] for record in records for entry in record["segments"]
        }
        referenced |= {record["doc_terms_file"] for record in records}
        on_disk = {
            p.name
            for p in root.iterdir()
            if p.name.startswith(("segment_", "doc_terms"))
        }
        assert on_disk == referenced
        # And the compacted directory still loads to the current state.
        assert _snapshot(InvertedIndex.load(root)) == _snapshot(index)

    def test_compaction_report_and_single_record_rewrite(self, tmp_path):
        root, _snapshots, _reports = _incremental_history(tmp_path, saves=3)
        index = InvertedIndex.load(root)
        index.add_document(Document(doc_id=900, text="omega beta sigma last"))
        index.maintain(force_seal=True)
        report = index.save(root, wal_compact_records=1)
        assert report["compacted"] is True
        assert report["wal_records"] == 1
        records = read_manifest_log(root)
        assert len(records) == 1
        assert records[0]["save_seq"] == report["save_seq"]


class TestVerifyAndRepairWal:
    def test_verify_reports_wal_records_and_no_orphans_when_healthy(self, tmp_path):
        root, _snapshots, reports = _incremental_history(tmp_path, saves=2)
        report = verify_index_directory(root, deep=True)
        assert report["ok"] is True
        assert report["wal"] == {"records": reports[-1]["wal_records"], "torn": False}
        assert report["orphans"] == []

    def test_interrupted_compaction_debris_is_reported_and_repaired(self, tmp_path):
        root, snapshots, _reports = _incremental_history(tmp_path, saves=2)
        # Simulate a compaction that died mid-swap: a staged log rewrite and
        # a segment blob no surviving record references.
        (root / "wal.log.tmp").write_bytes(b"staged log rewrite, never swapped")
        orphan = root / "segment_999_9.bin"
        orphan.write_bytes(b"\x00" * 64)
        (root / "manifest.json").write_text("{}")  # an older build's copy

        report = verify_index_directory(root, deep=True)
        assert "segment_999_9.bin" in report["orphans"]
        assert "wal.log.tmp" in report["orphans"]
        # Debris never blocks recovery of the committed state.
        assert report["recoverable"] == "wal.log#3"

        outcome = repair_index_directory(root)
        assert {"segment_999_9.bin", "manifest.json"} <= set(outcome["removed"])
        # The staged log is consumed by repair's own atomic rewrite; either
        # way no debris survives.
        assert not orphan.exists()
        assert not (root / "wal.log.tmp").exists()
        healed = verify_index_directory(root, deep=True)
        assert healed["ok"] is True
        assert healed["orphans"] == []
        assert _snapshot(InvertedIndex.load(root)) == snapshots[-1]

    def test_deep_verify_audits_wal_record_crcs(self, tmp_path):
        root, _snapshots, _reports = _incremental_history(tmp_path, saves=2)
        blob = bytearray((root / "wal.log").read_bytes())
        boundaries = _record_boundaries(bytes(blob))
        blob[boundaries[0] + _FRAME.size + 2] ^= 0x01
        (root / "wal.log").write_bytes(bytes(blob))
        report = verify_index_directory(root, deep=True)
        assert report["wal"]["torn"] is True
        assert any("wal" in key for key in report["problems"])

    def test_repair_after_log_rewrite_is_a_compacted_save(self, tmp_path):
        root, snapshots, _reports = _incremental_history(tmp_path, saves=2)
        repair_index_directory(root)
        records = read_manifest_log(root)
        assert len(records) == 1
        assert _snapshot(InvertedIndex.load(root)) == snapshots[-1]
        assert verify_index_directory(root)["ok"] is True

    @pytest.mark.parametrize("escape", ["absolute", "parent"])
    @pytest.mark.parametrize("kind", ["segment", "doc_terms"])
    def test_a_record_naming_a_file_outside_its_directory_is_refused(
        self, tmp_path, kind, escape
    ):
        """A CRC-valid record whose file name leads out of the tree (an
        absolute path, or ``..``) is a shape problem: load and verify both
        refuse it rather than read the file it points at."""
        root = tmp_path / "ckpt"
        _build_index().save(root)
        (record,) = read_manifest_log(root)
        name = record["segments"][0]["file"] if kind == "segment" else record["doc_terms_file"]
        outside = tmp_path / "elsewhere"
        outside.mkdir()
        (root / name).rename(outside / name)
        moved = str(outside / name) if escape == "absolute" else f"../elsewhere/{name}"
        if kind == "segment":
            record["segments"][0]["file"] = moved
        else:
            record["doc_terms_file"] = moved
        record["integrity"][moved] = record["integrity"].pop(name)
        (root / "wal.log").write_bytes(segments._frame_wal_record(record))
        with pytest.raises(CorruptIndexError, match="well-formed"):
            InvertedIndex.load(root)
        report = verify_index_directory(root)
        assert report["ok"] is False and report["recoverable"] is None


class TestLogIsTheOnlyManifest:
    @pytest.mark.parametrize(
        "claim",
        [{"save_seq": 99}, {"format": "something-else"}, None],
        ids=["higher-save-seq", "foreign-format", "unparseable"],
    )
    def test_stale_manifest_json_is_ignored_reported_and_reclaimed(self, tmp_path, claim):
        """An older build's ``manifest.json`` copy -- here of the *first*
        save, whatever it claims -- never outvotes the log."""
        root, snapshots, _reports = _incremental_history(tmp_path, saves=1)
        stale = json.dumps({**read_manifest_log(root)[0], **claim}) if claim else "{ no"
        (root / "manifest.json").write_text(stale)
        loaded = InvertedIndex.load(root)
        assert _snapshot(loaded) == snapshots[-1]
        report = verify_index_directory(root)
        assert report["ok"] is True
        assert report["orphans"] == ["manifest.json"]
        loaded.add_document(Document(doc_id=900, text="omega beta sigma last"))
        assert loaded.save(root)["mode"] == "incremental"
        assert not (root / "manifest.json").exists()

    def _recorded_save(self, tmp_path, monkeypatch):
        """One incremental save with every hooked write and every directory
        fsync recorded in order; returns the directory and the events."""
        root, _snapshots, _reports = _incremental_history(tmp_path, saves=2)
        index = InvertedIndex.load(root)
        index.add_document(Document(doc_id=900, text="omega beta sigma last"))
        events = []
        fsync_directory = segments._fsync_directory
        monkeypatch.setattr(
            segments,
            "_fsync_directory",
            lambda path: (events.append(("fsync-dir", "")), fsync_directory(path)),
        )
        previous = install_io_fault_hook(
            lambda op, path: events.append((op, Path(path).name))
        )
        try:
            index.save(root)
        finally:
            install_io_fault_hook(previous)
        return root, events

    def test_new_names_are_durable_before_the_record_that_references_them(
        self, tmp_path, monkeypatch
    ):
        root, events = self._recorded_save(tmp_path, monkeypatch)
        commit = events.index(("write", "wal.log"))
        newest = read_manifest_log(root)[-1]
        assert events[commit - 2] == ("write", newest["doc_terms_file"])
        assert events[commit - 1] == ("fsync-dir", "")

    def test_save_writes_no_manifest_copy(self, tmp_path, monkeypatch):
        root, events = self._recorded_save(tmp_path, monkeypatch)
        assert "manifest.json" not in [name for _op, name in events]
        records = read_manifest_log(root)
        on_disk = sorted(p.name for p in root.iterdir())
        assert [n for n in on_disk if not n.startswith("segment_")] == sorted(
            [r["doc_terms_file"] for r in records] + ["wal.log"]
        )
        assert {n for n in on_disk if n.startswith("segment_")} == {
            entry["file"] for r in records for entry in r["segments"]
        }


@pytest.mark.parametrize("version", [4, 5, 6], ids=lambda v: f"v{v}")
def test_an_older_format_tree_is_refused_by_name_and_left_as_it_is(tmp_path, version):
    """A tree whose record is of format 4, 5 or 6 -- here a saved tree's
    record re-framed with that version, a JSON doc-terms link and no stats,
    as those writers left it -- is refused naming its version: load raises,
    verify finds nothing recoverable, and repair raises and deletes nothing.
    The upgrade is a rebuild from the corpus: a wholesale save into the
    directory, then a compaction, leaves none of the old JSON links."""
    index = _build_index()
    root = tmp_path / "old"
    index.save(root)
    (record,) = read_manifest_log(root)
    (root / record["doc_terms_file"]).unlink()
    link = json.dumps({str(doc_id): freqs for doc_id, freqs in index._forward().items()}).encode()
    record.update(version=version, stats=None, doc_terms_file="doc_terms_1.json")
    record["integrity"]["doc_terms_1.json"] = [len(link), zlib.crc32(link)]
    (root / "doc_terms_1.json").write_bytes(link)
    (root / "wal.log").write_bytes(segments._frame_wal_record(record))
    before = {path.name: path.read_bytes() for path in root.iterdir()}

    for use_mmap in (False, True):
        with pytest.raises(CorruptIndexError, match=f"format version {version} is not 7"):
            InvertedIndex.load(root, mmap=use_mmap)
    report = verify_index_directory(root)
    assert (report["ok"], report["recoverable"]) == (False, None)
    assert f"format version {version}" in report["problems"]["wal.log#1"][0]
    with pytest.raises(CorruptIndexError, match=f"format version {version}"):
        repair_index_directory(root)
    assert {path.name: path.read_bytes() for path in root.iterdir()} == before

    rebuilt = _build_index()
    assert rebuilt.save(root)["mode"] == "full"
    rebuilt.save(root, wal_compact_records=1)
    (record,) = read_manifest_log(root)
    assert record["version"] == INDEX_FORMAT_VERSION == 7
    assert not list(root.glob("doc_terms_*.json"))
    assert verify_index_directory(root)["ok"]
    assert _snapshot(InvertedIndex.load(root)) == _snapshot(index)
