"""Crash-recovery tests for the on-disk index directory.

The storage contract under failure is absolute: after tearing a saved
directory at *any* byte -- truncating any file at any boundary, flipping any
bit, or aborting a re-save at any write operation -- :meth:`InvertedIndex.load`
either reconstructs a fully-consistent saved generation **bit-identically**
or raises a typed :class:`CorruptIndexError`.  Silent wrong answers are the
one outcome these tests exist to rule out.
"""

import json
import shutil
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.faults import FaultInjector, FaultPlan, PermanentFaultError
from repro.textsearch import Corpus, CorruptIndexError, Document, InvertedIndex
from repro.textsearch.segments import (
    _TERM_BLOCK_FACTOR,
    _WAL_FRAME,
    TieredMergePolicy,
    _frame_wal_record,
    _save_seq,
    _segment_footer,
    install_io_fault_hook,
    read_index_directory,
    read_manifest_log,
    repair_index_directory,
    verify_index_directory,
)
from tests.textsearch.test_wal_recovery import _build_index, _documents, _snapshot


def _saved_directory(tmp_path):
    root = tmp_path / "ckpt"
    _build_index().save(root)
    return root


def _flip_a_bit_in_the_first_segment(root):
    """Flip one bit mid-way through the first segment's first term block
    (found through the footer's directory), never in the footer itself:
    the per-term CRC, not the footer's, must be what catches it."""
    victim = root / read_manifest_log(root)[-1]["segments"][0]["file"]
    blob = bytearray(victim.read_bytes())
    offset, rows, _crc = min(_segment_footer(blob, victim)["terms"].values())
    blob[offset + rows * _TERM_BLOCK_FACTOR // 2] ^= 0x01
    victim.write_bytes(bytes(blob))


def _two_generation_directory(tmp_path):
    """Save, mutate, re-save: a directory holding generations A and B."""
    index = _build_index()
    root = tmp_path / "ckpt"
    index.save(root)
    snap_a = _snapshot(InvertedIndex.load(root))
    index.add_document(Document(doc_id=500, text="omega alpha sigma fresh"))
    index.save(root)
    snap_b = _snapshot(InvertedIndex.load(root))
    assert snap_a != snap_b
    return root, snap_a, snap_b


def _cut_points(name: str, size: int):
    """Truncation offsets for one file: start, mid-record, record boundaries,
    and one byte short of complete."""
    cuts = {0, 1, size // 3, size // 2, size - 1}
    if name.endswith(".bin"):
        rows = size // _TERM_BLOCK_FACTOR
        cuts.update(
            _TERM_BLOCK_FACTOR * k for k in (1, rows // 2, rows - 1) if k > 0
        )
    return sorted(cut for cut in cuts if 0 <= cut < size)


def _torn(record, root):
    """The tail a crash mid-append leaves: half of ``record``'s frame."""
    frame = _frame_wal_record(record)
    return frame[: len(frame) // 2], "wal.log"


def _malformed(*path, value):
    """Damage that keeps the record parseable and its frame CRC-valid: store
    ``value`` at ``path`` (``...`` stands for the first key of a mapping)."""

    def damage(record, root):
        node = record
        for depth, key in enumerate(path):
            if key is ...:
                key = next(iter(node))
            if depth == len(path) - 1:
                node[key] = value
            node = node[key]
        return _frame_wal_record(record), f"wal.log#{_save_seq(record)}"

    return damage


def _rotten_footer(key, value):
    """Damage to the first segment's footer, in a copy of its file the record
    then names: the footer's ``key`` holds ``value``, and the footer's CRC,
    the file's length and its CRC-32 all check out, so only the footer's
    shape check can object."""

    def damage(record, root):
        entry = record["segments"][0]
        blob = (root / entry["file"]).read_bytes()
        length, _crc = _WAL_FRAME.unpack(blob[-_WAL_FRAME.size :])
        start = len(blob) - _WAL_FRAME.size - length
        footer = {**json.loads(blob[start : -_WAL_FRAME.size]), key: value}
        payload = json.dumps(footer).encode()
        bad = blob[:start] + payload + _WAL_FRAME.pack(len(payload), zlib.crc32(payload))
        entry["file"] = f"segment_{entry['segment_id']}_{record['save_seq']}.bin"
        (root / entry["file"]).write_bytes(bad)
        record["integrity"][entry["file"]] = [len(bad), zlib.crc32(bad)]
        return _frame_wal_record(record), f"wal.log#{record['save_seq']}"

    return damage


def _link_parts(data: bytes):
    """A doc-terms link's term table (UTF-8 bytes), ``[doc id, row count]``
    pairs and ``[term id, f_dt]`` rows, as the writer laid them out."""
    num_terms, num_docs = struct.unpack_from("=II", data)
    at = 8 + 4 * num_terms
    terms = []
    for length in struct.unpack_from(f"={num_terms}I", data, 8):
        terms.append(data[at : at + length])
        at += length
    pairs = [list(pair) for pair in struct.iter_unpack("=II", data[at:])]
    return terms, pairs[:num_docs], pairs[num_docs:]


def _link_bytes(terms, docs, rows, num_terms=None):
    """:func:`_link_parts` inverted; ``num_terms`` overrides the header's."""
    header = struct.pack("=II", len(terms) if num_terms is None else num_terms, len(docs))
    table = struct.pack(f"={len(terms)}I", *map(len, terms)) + b"".join(terms)
    return header + table + b"".join(struct.pack("=II", *pair) for pair in docs + rows)


def _rotten_doc_terms(malform=None):
    """Damage to the record's doc-terms link, written under a new name the
    record then names.  With ``malform`` (``(terms, docs, rows) -> bytes``,
    over :func:`_link_parts`) the link is its result, recorded with its true
    length and CRC-32, so only the link's own check can object; without,
    one byte flips and the recorded CRC-32 is the original's."""

    def damage(record, root):
        data = (root / record["doc_terms_file"]).read_bytes()
        bad = data[:-1] + bytes([data[-1] ^ 1]) if malform is None else malform(*_link_parts(data))
        name = f"doc_terms_{record['save_seq']}.bin"
        (root / name).write_bytes(bad)
        record["integrity"][name] = [len(bad), zlib.crc32(data if malform is None else bad)]
        record["doc_terms_file"] = name
        return _frame_wal_record(record), f"wal.log#{record['save_seq']}"

    return damage


class TestTruncationAtEveryBoundary:
    def test_every_file_every_boundary_recovers_or_raises(self, tmp_path):
        root, snap_a, snap_b = _two_generation_directory(tmp_path)
        pristine = {p.name: p.read_bytes() for p in root.iterdir()}
        scenarios = 0
        recovered, rejected = 0, 0
        for name, data in pristine.items():
            for cut in _cut_points(name, len(data)):
                scenarios += 1
                work = tmp_path / f"torn_{name}_{cut}"
                work.mkdir()
                for other, blob in pristine.items():
                    (work / other).write_bytes(blob if other != name else blob[:cut])
                try:
                    loaded = InvertedIndex.load(work)
                except CorruptIndexError:
                    rejected += 1
                    continue
                assert _snapshot(loaded) in (snap_a, snap_b), (
                    f"truncating {name} at byte {cut} produced an index that "
                    "matches no saved generation"
                )
                recovered += 1
        assert scenarios > 20
        # Both outcomes must actually occur across the sweep, or the
        # either/or contract is vacuous: tearing a file only one record
        # references rolls back to the other record, while tearing the base
        # blob both records share by reference leaves nothing to load.
        assert recovered > 0
        assert rejected > 0

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(_torn, id="torn"),
            pytest.param(_rotten_footer("terms", {"alpha": 5}), id="term-entry-scalar"),
            pytest.param(_rotten_footer("terms", {"alpha": [0]}), id="term-entry-short"),
            pytest.param(_rotten_footer("terms", [1, 2]), id="terms-not-a-mapping"),
            pytest.param(_malformed("segments", 0, "seq", value="0-1"), id="seq"),
            pytest.param(_rotten_footer("documents", 7), id="documents"),
            pytest.param(_malformed("save_seq", value="two"), id="save-seq"),
            pytest.param(_malformed("version", value=2), id="version-2"),
            pytest.param(_rotten_doc_terms(), id="doc-terms-crc"),
            pytest.param(
                _rotten_doc_terms(lambda t, d, r: _link_bytes(t, d, [[len(t), r[0][1]], *r[1:]])),
                id="doc-terms-term-id",
            ),
            pytest.param(
                _rotten_doc_terms(lambda t, d, r: _link_bytes(t, d, [[r[0][0], 0], *r[1:]])),
                id="doc-terms-zero-frequency",
            ),
            pytest.param(
                _rotten_doc_terms(
                    lambda t, d, r: _link_bytes(t, [[d[0][0], d[0][1] + 1], *d[1:]], r)
                ),
                id="doc-terms-row-overrun",
            ),
            pytest.param(
                _rotten_doc_terms(lambda t, d, r: _link_bytes(t, d, r) + bytes(8)),
                id="doc-terms-trailing",
            ),
            pytest.param(
                _rotten_doc_terms(lambda t, d, r: _link_bytes(t, d + d[:1], r + r[: d[0][1]])),
                id="doc-terms-duplicate-doc",
            ),
            pytest.param(
                _rotten_doc_terms(lambda t, d, r: _link_bytes(t + t[:1], d, r)),
                id="doc-terms-duplicate-term",
            ),
            pytest.param(
                _rotten_doc_terms(lambda t, d, r: _link_bytes([b"\xff" + t[0][1:], *t[1:]], d, r)),
                id="doc-terms-utf8",
            ),
            pytest.param(
                _rotten_doc_terms(lambda t, d, r: _link_bytes(t, d, r, num_terms=2**32 - 1)),
                id="doc-terms-huge-table",
            ),
        ],
    )
    def test_damaged_newest_record_falls_back_to_the_record_behind_it(
        self, tmp_path, damage
    ):
        """A newest record that is torn -- or CRC-valid but malformed, of
        another format version, or naming a malformed segment footer or a
        rotted or malformed doc-terms link -- is *reported* and the walk
        falls through to the record behind it; untyped errors never escape
        load or verify."""
        root, _snap_a, snap_b = _two_generation_directory(tmp_path)
        record = read_manifest_log(root)[-1]
        behind = f"wal.log#{record['save_seq']}"
        record["save_seq"] += 1
        frame, source = damage(record, root)
        with open(root / "wal.log", "ab") as log:
            log.write(frame)
        report = verify_index_directory(root)
        assert report["ok"] is False
        assert report["problems"][source]
        assert report["recoverable"] == behind
        # The damaged record is a copy of the one behind it, so the
        # fallback must serve exactly generation B.
        assert _snapshot(InvertedIndex.load(root)) == snap_b
        (root / "wal.log").unlink()
        assert verify_index_directory(root)["recoverable"] is None
        with pytest.raises(CorruptIndexError):
            InvertedIndex.load(root)

    @pytest.mark.parametrize(
        "key, value",
        [
            pytest.param(("stats",), {"document_frequencies": "abc"}, id="stats"),
            pytest.param(("stats",), None, id="stats-null"),
            pytest.param(("stats", "num_documents"), -1, id="stats-n-negative"),
            pytest.param(("stats", "num_documents"), True, id="stats-n-bool"),
            pytest.param(("stats", "document_frequencies", ...), True, id="stats-df-bool"),
            pytest.param(("stats", "document_frequencies", ...), 0, id="stats-df-zero"),
            pytest.param(("stats", "document_frequencies", ...), -2, id="stats-df-negative"),
            pytest.param(("quantise_levels",), "x", id="quantise-levels"),
            pytest.param(("block_size",), 0, id="block-size"),
            pytest.param(("next_seq",), "x", id="next-seq"),
            pytest.param(("tokenizer",), {"bogus": 1}, id="tokenizer"),
            pytest.param(("scorer",), [1], id="scorer"),
            pytest.param(("merge_policy",), {"fanout": "x"}, id="merge-policy-type"),
            pytest.param(("merge_policy",), {"fanout": 1}, id="merge-policy-fanout"),
            pytest.param(("byteorder",), "middle", id="byteorder"),
            pytest.param(("arrays_fresh",), 0, id="arrays-fresh"),
            pytest.param(("segments", 0, "base"), "yes", id="segment-base"),
            pytest.param(("segments", 0, "segment_id"), True, id="segment-id-bool"),
            pytest.param(("segments", 1, "segment_id"), 0, id="segment-id-repeated"),
            pytest.param(("segments", 0, "generation"), -3, id="generation-negative"),
            pytest.param(("segments", 0, "seq"), [True, 0], id="seq-bool"),
            pytest.param(("save_seq",), True, id="save-seq-bool"),
            pytest.param(("next_seq",), True, id="next-seq-bool"),
            pytest.param(("next_seq",), 1, id="next-seq-in-use"),
            pytest.param(("next_segment_id",), -7, id="next-segment-id-negative"),
            pytest.param(("next_segment_id",), 0, id="next-segment-id-in-use"),
            pytest.param(("segments", 1, "file"), "segment_0_1.bin", id="segment-file-repeated"),
            pytest.param(
                ("doc_terms_chain",),
                ["doc_terms_1.bin", "doc_terms_2.bin"],  # the tip's name
                id="doc-terms-link-repeated",
            ),
            pytest.param(("segments", 0, "seq"), [1, 0], id="seq-reversed"),
            pytest.param(("segments", 1, "seq"), [0, 1], id="seq-overlapping"),
            pytest.param(("tokenizer", "min_token_length"), True, id="min-token-length-bool"),
            pytest.param(("tokenizer", "min_token_length"), -4, id="min-token-length-negative"),
        ],
    )
    def test_malformed_index_metadata_is_a_damaged_record(self, tmp_path, key, value):
        """A record's index-level metadata is checked like its segment
        entries: reported, passed over for the record behind it, and a typed
        error when nothing is behind it -- never a load that fails on first
        read or save."""
        root, _snap_a, snap_b = _two_generation_directory(tmp_path)
        record = read_manifest_log(root)[-1]
        behind = f"wal.log#{record['save_seq']}"
        record["save_seq"] += 1
        frame, source = _malformed(*key, value=value)(record, root)
        with open(root / "wal.log", "ab") as log:
            log.write(frame)
        report = verify_index_directory(root)
        assert report["problems"][source]
        assert report["recoverable"] == behind
        assert read_index_directory(root)[0]["recovered_from"] == behind
        loaded = InvertedIndex.load(root)
        assert _snapshot(loaded) == snap_b
        loaded.save(root)
        (root / "wal.log").write_bytes(frame)
        with pytest.raises(CorruptIndexError, match="well-formed"):
            InvertedIndex.load(root)

    def test_a_record_that_reuses_segment_ids_is_passed_over(self, tmp_path):
        """A record whose ``next_segment_id`` is an id in use would have the
        next seal take that id, and an incremental save reuse the file it
        names for the new segment: the reload would serve the old rows twice
        and the new ones never.  The record is damaged; the save behind it
        serves, and takes updates and saves exactly as a rebuild would."""
        root = tmp_path / "ckpt"
        _build_index().save(root)
        record = read_manifest_log(root)[-1]
        behind = f"wal.log#{record['save_seq']}"
        record["save_seq"] += 1
        record["next_segment_id"] = 0
        with open(root / "wal.log", "ab") as log:
            log.write(_frame_wal_record(record))
        report = verify_index_directory(root)
        assert report["ok"] is False
        assert report["recoverable"] == behind
        loaded = InvertedIndex.load(root)
        added = Document(doc_id=100, text="alpha delta")
        loaded.add_document(added)
        loaded.save(root)
        assert verify_index_directory(root)["ok"] is True
        segment_ids = [entry["segment_id"] for entry in read_manifest_log(root)[-1]["segments"]]
        assert len(set(segment_ids)) == len(segment_ids)
        reloaded = InvertedIndex.load(root)
        rebuilt = InvertedIndex.build(Corpus([*_documents(10), added]))
        assert _snapshot(reloaded) == _snapshot(rebuilt)
        assert len(reloaded.postings("delta")) == reloaded.document_frequency("delta")

    def test_torn_current_data_file_falls_back_to_previous_generation(self, tmp_path):
        root, snap_a, snap_b = _two_generation_directory(tmp_path)
        manifest = read_manifest_log(root)[-1]
        current_files = {entry["file"] for entry in manifest["segments"]}
        previous_only_ok = False
        for name in current_files:
            work = tmp_path / f"gen_{name}"
            shutil.copytree(root, work)
            victim = work / name
            data = victim.read_bytes()
            victim.write_bytes(data[: len(data) // 2])
            try:
                loaded = InvertedIndex.load(work)
            except CorruptIndexError:
                continue
            snap = _snapshot(loaded)
            assert snap in (snap_a, snap_b)
            if snap == snap_a:
                previous_only_ok = True
        # At least one current-generation data file is not shared with the
        # previous generation, so its loss must roll back to snapshot A.
        assert previous_only_ok


def _served(index: InvertedIndex):
    """What a read of ``index`` serves, ``None`` when it raises
    :class:`CorruptIndexError`."""
    try:
        return _snapshot(index)
    except CorruptIndexError:
        return None


@pytest.fixture(scope="module")
def two_generations(tmp_path_factory):
    return _two_generation_directory(tmp_path_factory.mktemp("generations"))


class TestLinkFuzzing:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_a_rewritten_link_with_its_true_crc_loads_a_recorded_save_or_raises(
        self, two_generations, data
    ):
        """Bytes of a doc-terms link overwritten, cut or appended, with the
        newest record holding the link's true length and CRC-32.  Load and
        the first read serve a recorded save or raise
        :class:`CorruptIndexError` -- the read of a stale record folds the
        chain, and keeps raising if the fold fails -- the first mutation
        works or raises it and changes nothing, and verify reports."""
        template, snap_a, snap_b = two_generations
        with tempfile.TemporaryDirectory() as scratch:
            root = Path(scratch) / "ckpt"
            shutil.copytree(template, root)
            *older, record = read_manifest_log(root)
            links = [*record["doc_terms_chain"], record["doc_terms_file"]]
            name = data.draw(st.sampled_from(links))
            blob = bytearray((root / name).read_bytes())
            for offset, value in data.draw(
                st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)), max_size=4)
            ):
                blob[offset] = value
            blob = blob[: data.draw(st.integers(0, len(blob)))] + data.draw(st.binary(max_size=9))
            (root / name).write_bytes(blob)
            record["integrity"][name] = [len(blob), zlib.crc32(blob)]
            (root / "wal.log").write_bytes(b"".join(map(_frame_wal_record, [*older, record])))
            try:
                loaded = InvertedIndex.load(root, mmap=data.draw(st.booleans()))
            except CorruptIndexError:
                loaded = None
            if loaded is not None:
                served = _served(loaded)
                assert served in (snap_a, snap_b, None)
                assert _served(loaded) == served  # a fold that failed keeps failing
                try:
                    loaded.add_document(Document(doc_id=10**6, text="alpha omega"))
                except CorruptIndexError:
                    assert _served(loaded) == served  # refused, and nothing changed
            verify_index_directory(root)


class TestBitCorruption:
    def test_eager_load_rejects_a_flipped_bit(self, tmp_path):
        root = _saved_directory(tmp_path)
        _flip_a_bit_in_the_first_segment(root)
        with pytest.raises(CorruptIndexError, match="checksum"):
            InvertedIndex.load(root)

    def test_lazy_mmap_load_rejects_a_flipped_bit_at_access(self, tmp_path):
        """mmap loading defers column reads; the per-term checksum catches
        the corruption when the poisoned term materialises -- a typed error,
        never a silently wrong posting list."""
        root = _saved_directory(tmp_path)
        _flip_a_bit_in_the_first_segment(root)
        loaded = InvertedIndex.load(root, mmap=True)
        with pytest.raises(CorruptIndexError, match="checksum"):
            _snapshot(loaded)


class TestTornResave:
    @pytest.mark.parametrize("sealed_history", [False, True], ids=["resave", "append-path"])
    def test_aborting_a_resave_at_every_write_keeps_a_loadable_state(
        self, tmp_path, sealed_history
    ):
        """Kill the save at each successive write operation: whatever the
        directory holds afterwards must load as generation A or B.  With
        ``sealed_history`` the directory already holds an incremental record
        and each update is sealed before its save, as a serving loop does."""
        index = _build_index()
        template = tmp_path / "template"
        index.save(template)

        def resaved(work, doc_id=500):
            loaded = InvertedIndex.load(work)
            loaded.add_document(Document(doc_id=doc_id, text="omega alpha sigma fresh"))
            if sealed_history:
                loaded.maintain(force_seal=True)
            return loaded

        if sealed_history:
            resaved(template, doc_id=499).save(template)
        snap_a = _snapshot(InvertedIndex.load(template))

        # Count the save's I/O operations with a fault-free instrumented run.
        probe_dir = tmp_path / "probe"
        shutil.copytree(template, probe_dir)
        probe_index = resaved(probe_dir)
        counter = FaultInjector(plan=FaultPlan())
        previous = install_io_fault_hook(counter.io_hook())
        try:
            report = probe_index.save(probe_dir)
        finally:
            install_io_fault_hook(previous)
        assert report["mode"] == "incremental"
        snap_b = _snapshot(InvertedIndex.load(probe_dir))
        total_writes = counter.io_operations
        assert total_writes >= 3  # new blob + doc-terms sidecar + log append

        aborted = 0
        for op in range(total_writes):
            work = tmp_path / f"abort_{op}"
            shutil.copytree(template, work)
            victim = resaved(work)
            hook = FaultInjector(
                plan=FaultPlan(io_permanent_at=frozenset({op}))
            ).io_hook()
            previous = install_io_fault_hook(hook)
            try:
                with pytest.raises(PermanentFaultError):
                    victim.save(work)
            finally:
                install_io_fault_hook(previous)
            aborted += 1
            assert _snapshot(InvertedIndex.load(work)) in (snap_a, snap_b), (
                f"aborting the re-save at write op {op} lost both generations"
            )
        assert aborted == total_writes

    @pytest.mark.parametrize("change", ["chain-fold", "merge", "compact"])
    def test_a_save_that_compacts_the_log_reclaims_only_after_its_commit(
        self, tmp_path, change
    ):
        """A save that compacts ``wal.log`` to its own record leaves what only
        the older records name unreferenced: the doc-terms links its full
        link replaces, and the segments a merge or a compaction consumed.
        They go only after the rewrite that commits it, so killing the save
        at any of its writes leaves the save before it, and the retried
        save commits and leaves no orphans."""
        template = tmp_path / "template"
        policy = TieredMergePolicy(fanout=2)
        InvertedIndex.build(Corpus(_documents(10)), merge_policy=policy).save(template)
        history = InvertedIndex.load(template)
        history.add_document(Document(doc_id=499, text="kappa alpha sigma"))
        history.maintain(force_seal=True)
        history.save(template)
        snap_a = _snapshot(InvertedIndex.load(template))

        def changed(work):
            index = InvertedIndex.load(work)
            index.add_document(Document(doc_id=500, text="omega alpha sigma fresh"))
            if change == "merge":
                assert index.maintain(force_seal=True)["merges_committed"] == 1
            elif change == "compact":
                index.compact()
            return index

        probe_dir = tmp_path / "probe"
        shutil.copytree(template, probe_dir)
        probe_index = changed(probe_dir)
        counter = FaultInjector(plan=FaultPlan())
        previous = install_io_fault_hook(counter.io_hook())
        try:
            report = probe_index.save(probe_dir, wal_compact_records=1)
        finally:
            install_io_fault_hook(previous)
        assert report["compacted"]
        snap_b = _snapshot(InvertedIndex.load(probe_dir))
        reclaimed = {p.name for p in template.iterdir()} - {p.name for p in probe_dir.iterdir()}
        assert any(name.startswith("doc_terms_") for name in reclaimed)
        assert any(name.startswith("segment_") for name in reclaimed) == (change != "chain-fold")

        for op in range(counter.io_operations):
            work = tmp_path / f"abort_{op}"
            shutil.copytree(template, work)
            victim = changed(work)
            hook = FaultInjector(plan=FaultPlan(io_permanent_at=frozenset({op}))).io_hook()
            previous = install_io_fault_hook(hook)
            try:
                with pytest.raises(PermanentFaultError):
                    victim.save(work, wal_compact_records=1)
            finally:
                install_io_fault_hook(previous)
            assert verify_index_directory(work)["ok"] is True, op
            assert _snapshot(InvertedIndex.load(work)) == snap_a, op
            victim.save(work, wal_compact_records=1)
            report = verify_index_directory(work)
            assert report["ok"] is True and report["orphans"] == [], op
            assert _snapshot(InvertedIndex.load(work)) == snap_b, op


class TestTypedLoadErrors:
    def test_nonexistent_directory_raises_file_not_found_naming_the_path(self, tmp_path):
        missing = tmp_path / "never_saved"
        with pytest.raises(FileNotFoundError, match="never_saved"):
            InvertedIndex.load(missing)

    def test_empty_directory_raises_corrupt_index_error_naming_the_path(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(CorruptIndexError) as excinfo:
            InvertedIndex.load(empty)
        assert excinfo.value.path == str(empty)
        assert "empty" in str(excinfo.value)

    def test_corrupt_index_error_is_exported_and_a_value_error(self):
        import repro.textsearch as textsearch

        assert textsearch.CorruptIndexError is CorruptIndexError
        assert issubclass(CorruptIndexError, ValueError)

    def test_unparseable_log_raises_typed_error(self, tmp_path):
        root = _saved_directory(tmp_path)
        (root / "wal.log").write_bytes(b"not a CRC-framed log")
        with pytest.raises(CorruptIndexError):
            InvertedIndex.load(root)


class TestVerifyAndRepair:
    def test_verify_reports_healthy_directory(self, tmp_path):
        root = _saved_directory(tmp_path)
        report = InvertedIndex.verify_directory(root)
        assert report["ok"] is True
        assert report["consistent"] == ["wal.log#1"]
        assert report["problems"] == {}

    def test_verify_flags_torn_state_and_repair_restores_it(self, tmp_path):
        root, snap_a, _snap_b = _two_generation_directory(tmp_path)
        manifest = read_manifest_log(root)[-1]
        # Destroy a current-checkpoint data file absent from the previous
        # manifest-log record (checkpoint A).
        records = read_manifest_log(root)
        previous = records[-2]
        assert previous["save_seq"] == manifest["save_seq"] - 1
        previous_files = {entry["file"] for entry in previous["segments"]}
        victims = [
            entry["file"]
            for entry in manifest["segments"]
            if entry["file"] not in previous_files
        ]
        assert victims
        blob = (root / victims[0]).read_bytes()
        (root / victims[0]).write_bytes(blob[: len(blob) // 2])

        report = verify_index_directory(root)
        assert report["ok"] is False
        assert report["problems"][f"wal.log#{manifest['save_seq']}"]
        assert report["recoverable"] == f"wal.log#{previous['save_seq']}"

        outcome = repair_index_directory(root)
        assert outcome["recovered"] == report["recoverable"]
        assert outcome["removed"]
        healed = verify_index_directory(root)
        assert healed["ok"] is True
        assert _snapshot(InvertedIndex.load(root)) == snap_a

    def test_repair_raises_when_nothing_survives(self, tmp_path):
        root = _saved_directory(tmp_path)
        for path in root.iterdir():
            if path.name.endswith(".bin"):
                path.write_bytes(b"")
        with pytest.raises(CorruptIndexError):
            repair_index_directory(root)

    def test_verify_missing_directory_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            verify_index_directory(tmp_path / "nope")

    def test_deep_verify_catches_bit_rot_that_shallow_misses(self, tmp_path):
        root = _saved_directory(tmp_path)
        _flip_a_bit_in_the_first_segment(root)
        shallow = verify_index_directory(root, deep=False)
        assert shallow["ok"] is True  # sizes line up; rot is invisible
        deep = verify_index_directory(root, deep=True)
        assert deep["ok"] is False

    @pytest.mark.parametrize("kept", [1, 0], ids=["newest-segment-dropped", "no-segments"])
    def test_a_record_that_drops_a_segment_fails_its_fold(self, tmp_path, kept):
        """A record naming fewer segments than its save wrote is well formed
        and its files check out, so a load serves it; the fold of its
        doc-terms chain (deep verify, the first mutation) finds documents
        with terms that no segment holds.  Verify reports the record, and
        repair goes back to the save behind it."""
        root, _snap_a, snap_b = _two_generation_directory(tmp_path)
        record = read_manifest_log(root)[-1]
        behind = f"wal.log#{record['save_seq']}"
        record["save_seq"] += 1
        record["segments"] = record["segments"][:kept]
        with open(root / "wal.log", "ab") as log:
            log.write(_frame_wal_record(record))
        assert verify_index_directory(root, deep=False)["ok"] is True
        report = verify_index_directory(root)
        assert report["ok"] is False and report["recoverable"] == behind
        assert "only live documents" in report["problems"][f"wal.log#{record['save_seq']}"][0]
        loaded = InvertedIndex.load(root)
        with pytest.raises(CorruptIndexError, match="only live documents"):
            loaded.add_document(Document(doc_id=501, text="alpha"))
        assert repair_index_directory(root)["recovered"] == behind
        assert _snapshot(InvertedIndex.load(root)) == snap_b


class TestStorageFaults:
    def test_permanent_read_fault_propagates_unretried(self, tmp_path):
        root = _saved_directory(tmp_path)
        injector = FaultInjector(plan=FaultPlan(io_permanent_rate=1.0))
        previous = install_io_fault_hook(injector.io_hook())
        try:
            with pytest.raises(PermanentFaultError):
                InvertedIndex.load(root)
        finally:
            install_io_fault_hook(previous)
        # Every operation would fault: the first one raised, and nothing retried.
        assert injector.io_operations == injector.io_faults == 1
