"""Segmented columnar storage engine for the inverted index.

:class:`~repro.textsearch.inverted_index.InvertedIndex` stores its postings
as a sequence of **segments** -- immutable columnar units, each carrying its
own per-term posting arrays, the set of documents whose rows it holds, and a
**tombstone set** naming documents removed while the segment was accumulating
(tombstones apply to *strictly older* segments; a re-added document's fresh
rows always live in a newer segment than the tombstone that killed its old
ones).  Every list the index derives is a term's live rows per run (dead
rows dropped, stale quantised impacts recomposed): concatenated for the
server, whose homomorphic product needs no order, and sorted by ``(-quant,
doc_id)`` -- the order every stored list keeps, a from-scratch rebuild's --
for the readers that need one.  The repo's bit-identity invariant therefore
holds over *any* segment configuration.

The pieces provided here:

* :class:`PostingColumns` -- one term's parallel ``array('I')`` document-id /
  quantised-impact arrays: the values the paper's algorithms read, and
  nothing else (a raw float impact exists only while it is quantised).
  Columns may be **lazy**: constructed with a loader closure over an
  ``mmap``-backed buffer, they materialise their arrays on first access, so
  a loaded index pays I/O only for the terms queries actually touch.
* :class:`IndexSegment` -- one frozen storage unit (lists + documents +
  tombstones + generation/sequence metadata); nothing changes it once sealed.
* :class:`TieredMergePolicy` -- LSM-style compaction scheduling: when a
  generation accumulates ``fanout`` sealed segments, the oldest ``fanout`` of
  them merge into one segment of the next generation.  The base segment (the
  product of :meth:`InvertedIndex.build` or a full ``compact()``) is never
  selected; folding into it is what ``compact()`` is for.
* :func:`merge_segment_parts` -- the pure merge kernel
  :meth:`InvertedIndex.maintain` runs on each due group, under the writer
  lock.
* :func:`write_index_directory` / :func:`read_index_directory` -- the
  crash-safe on-disk directory behind :meth:`InvertedIndex.save` / ``load``
  (format and durability order: the comment block above
  ``_fsync_write_bytes``), audited by :func:`verify_index_directory` and
  :func:`repair_index_directory`.
* :func:`live_columns` -- the row kernel: one run's live rows with stale
  quants recomposed in one pass, what a snapshot's ``columns`` concatenates.
* :func:`impact_order` -- the ordering step of one term's rows: the snapshots'
  ordered reads and the writer's rewritten segment copies.  Merges (and so
  ``compact``) and the delta build order all their rows in one sort.
"""

from __future__ import annotations

import json
import mmap as _mmap
import os
import re
import struct
import sys
import uuid as _uuid
import zlib
from array import array
from dataclasses import dataclass, field
from functools import cache, partial
from collections import Counter
from itertools import accumulate, chain, compress, count, islice, repeat
from math import inf
from operator import itemgetter, methodcaller, neg, not_
from pathlib import Path
from typing import AbstractSet, Callable, Collection, Iterable, Iterator, Mapping, Sequence

from repro.textsearch.scoring import CorpusStatistics

__all__ = [
    "CorruptIndexError",
    "PostingColumns",
    "IndexSegment",
    "TieredMergePolicy",
    "dead_sets",
    "merge_segment_parts",
    "live_columns",
    "impact_order",
    "quantise_impact",
    "quantise_column",
    "write_index_directory",
    "read_index_directory",
    "fold_doc_terms",
    "read_manifest_log",
    "verify_index_directory",
    "repair_index_directory",
    "install_io_fault_hook",
    "INDEX_FORMAT",
    "INDEX_FORMAT_VERSION",
    "DEFAULT_WAL_COMPACT_RECORDS",
]

#: Identifier written into every saved manifest.
INDEX_FORMAT = "repro-index-segments"
#: The on-disk format version saves write and the only one the reader takes
#: (layout comment above ``_fsync_write_bytes``).
INDEX_FORMAT_VERSION = 7
#: Bytes per stored row: 4 (doc id) + 4 (quant).
_TERM_BLOCK_FACTOR = 8
#: A removed document's row count in a doc-terms link (a live document with
#: no indexable terms has 0 rows).
_REMOVED = 0xFFFFFFFF

#: Manifest-log records retained before a save compacts ``wal.log`` down to
#: its newest record and reclaims the segment files only older records
#: referenced.  Until compaction, *every* record in the log stays fully
#: replayable -- its segment and doc-terms files are spared reclamation.
DEFAULT_WAL_COMPACT_RECORDS = 32

#: Framing of one manifest-log record: payload length, payload CRC-32,
#: then the JSON payload itself.
_WAL_FRAME = struct.Struct("<II")

_EMPTY: frozenset[int] = frozenset()

#: The only file names a record may reference: the writer's own, so no
#: record can name a file outside its directory.
_SEGMENT_FILE = re.compile(r"segment_[0-9]+_[0-9]+\.bin")
_DOC_TERMS_FILE = re.compile(r"doc_terms_[0-9]+\.bin")


class CorruptIndexError(ValueError):
    """Typed error for on-disk index state that cannot be read safely.

    Raised by :func:`read_index_directory` (and therefore
    :meth:`InvertedIndex.load <repro.textsearch.inverted_index.InvertedIndex.load>`)
    when no fully-consistent manifest record exists, and by lazy column
    materialisation when a term block fails its checksum -- the storage
    layer's contract is *clean recovery or a typed error, never silent wrong
    answers*.  ``path`` names the offending directory or file.
    """

    def __init__(self, message: str, *, path: str | Path | None = None) -> None:
        super().__init__(message)
        self.path = str(path) if path is not None else None


#: Optional storage-I/O interception hook, called as ``hook(op, path)``
#: immediately before each manifest/segment/doc-terms read or write.
_IO_FAULT_HOOK: Callable[[str, str], None] | None = None


def install_io_fault_hook(
    hook: Callable[[str, str], None] | None,
) -> Callable[[str, str], None] | None:
    """Install (or, with ``None``, remove) the storage I/O hook; returns the
    previous hook.

    Raising from the hook aborts the intercepted operation -- this is how
    :meth:`repro.core.faults.FaultInjector.io_hook` injects storage faults
    on a seeded schedule without this module importing the fault machinery.
    Nothing retries them: a failed save or load propagates the error.
    """
    global _IO_FAULT_HOOK
    previous = _IO_FAULT_HOOK
    _IO_FAULT_HOOK = hook
    return previous


def _io_event(op: str, path: str | Path) -> None:
    if _IO_FAULT_HOOK is not None:
        _IO_FAULT_HOOK(op, str(path))


def quantise_impact(impact: float, max_impact: float, levels: int) -> int:
    """Map a positive impact onto ``1..levels`` (linear, ceiling at the top)."""
    if max_impact <= 0.0:
        return 1
    level = int(round(impact / max_impact * levels))
    return max(1, min(levels, level))


def quantise_column(impacts: Sequence[float], max_impact: float, levels: int) -> array:
    """:func:`quantise_impact` over a column in one pass, element for element."""
    if max_impact <= 0.0:
        return array("I", [1]) * len(impacts)
    # ``round(x / max_impact * levels)`` per row, then the clamp where needed.
    quants = [round(x / max_impact * levels) for x in impacts]
    if quants and (min(quants) < 1 or max(quants) > levels):
        quants = [max(1, min(levels, level)) for level in quants]
    return array("I", quants)


#: ``compose(doc_ids, term)``: the quantised impacts of ``term`` in the
#: documents ``doc_ids`` -- :func:`quantise_column` of ``Scorer.impact_column``
#: over the factors one refresh pinned.
ColumnComposer = Callable[[Sequence[int], str], array]


class PostingColumns:
    """Columnar storage of one inverted list: parallel ``(doc_id, quant)`` arrays.

    Either eager (constructed from two arrays) or lazy (constructed via
    :meth:`lazy` with a loader closure, typically over an mmap-backed
    buffer); lazy columns materialise on first array access and report their
    length without loading.  ``doc_ids`` and ``quants`` are plain slots, so
    reading a loaded list's arrays costs no call; callers must not assign or
    mutate them.
    """

    __slots__ = ("doc_ids", "quants", "_view", "_loader", "_length")

    def __init__(self, doc_ids: array, quants: array) -> None:
        self.doc_ids = doc_ids
        self.quants = quants
        self._view: tuple | None = None
        self._loader: Callable[[], tuple[array, array]] | None = None
        self._length = len(doc_ids)

    @classmethod
    def lazy(cls, length: int, loader: Callable[[], tuple[array, array]]) -> "PostingColumns":
        """Columns that materialise via ``loader`` on first array access."""
        columns = cls.__new__(cls)
        columns._view = None
        columns._loader = loader
        columns._length = length
        return columns

    def __getattr__(self, name: str):
        """Reached only for an unset slot: a lazy list's arrays before their
        first access, which loads them."""
        if name not in ("doc_ids", "quants") or self._loader is None:
            raise AttributeError(name)
        doc_ids, quants = self._loader()
        if len(doc_ids) != self._length:
            raise ValueError(
                f"lazy posting columns loaded {len(doc_ids)} rows, expected {self._length}"
            )
        self.doc_ids, self.quants = doc_ids, quants
        self._loader = None
        return getattr(self, name)

    @property
    def materialised(self) -> bool:
        """False while the arrays still await their first (lazy) load."""
        return self._loader is None

    def __len__(self) -> int:
        return self._length

    def view(self) -> tuple:
        """Materialise the row view lazily; cached because lists are immutable."""
        if self._view is None:
            from repro.textsearch.inverted_index import Posting

            self._view = tuple(map(Posting, self.doc_ids, self.quants))
        return self._view

    @classmethod
    def from_postings(cls, postings: Iterable) -> "PostingColumns":
        entries = list(postings)
        return cls(
            doc_ids=array("I", (p.doc_id for p in entries)),
            quants=array("I", (p.quantised_impact for p in entries)),
        )

    def serialise(self) -> bytes:
        """The list as big-endian ``<doc_id, quantised_impact>`` pairs, O(n) array ops."""
        doc_ids, quants = self.doc_ids, self.quants
        interleaved = array("I", bytes(len(doc_ids) * 2 * 4))
        interleaved[0::2] = doc_ids
        interleaved[1::2] = quants
        if sys.byteorder == "little":
            interleaved.byteswap()
        return interleaved.tobytes()


@dataclass(frozen=True)
class IndexSegment:
    """One sealed storage unit of the segmented index; nothing changes it.

    ``seq_lo..seq_hi`` is the contiguous range of seal-sequence numbers the
    segment covers; segments are globally ordered (and merged) by it.
    ``tombstones`` name documents removed while this segment was the active
    delta -- they suppress rows in *strictly older* segments only.  A writer
    that needs the deferred rewrite applied builds a copy.  An incremental
    save reuses a persisted file by segment id, so an id names one content.
    """

    segment_id: int
    generation: int
    seq_lo: int
    seq_hi: int
    lists: dict[str, PostingColumns]
    documents: set[int]
    tombstones: set[int] = field(default_factory=set)
    #: True for the build/compact product; never selected by the merge policy.
    base: bool = False
    #: Rows across ``lists``, counted once so a merge's counters never walk them.
    num_postings: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "num_postings", sum(map(len, self.lists.values())))


@dataclass(frozen=True)
class TieredMergePolicy:
    """LSM-style tiered compaction: merge ``fanout`` same-generation segments.

    Each :meth:`plan` call proposes at most one merge per generation: the
    oldest ``fanout`` non-base segments of any generation that has
    accumulated at least ``fanout`` of them.  Merging assigns the output
    ``generation + 1``, so sustained updates build a logarithmic tier
    structure instead of an ever-longer run list, and each posting is
    rewritten O(log_fanout(updates)) times between full compactions.
    """

    fanout: int = 4

    def __post_init__(self) -> None:
        if self.fanout < 2:
            raise ValueError("merge fanout must be at least 2")

    def plan(self, segments: Sequence[IndexSegment]) -> list[tuple[int, ...]]:
        """Segment-id groups due for merging (each contiguous, oldest first)."""
        by_generation: dict[int, list[IndexSegment]] = {}
        for segment in segments:
            if not segment.base:
                by_generation.setdefault(segment.generation, []).append(segment)
        groups: list[tuple[int, ...]] = []
        for generation in sorted(by_generation):
            tier = sorted(by_generation[generation], key=lambda s: s.seq_lo)
            if len(tier) < self.fanout:
                continue
            candidate = tier[: self.fanout]
            span_lo, span_hi = candidate[0].seq_lo, candidate[-1].seq_hi
            # Defensive: never merge around a foreign segment's range.  With
            # oldest-first selection this cannot happen, but an interleaved
            # range would corrupt tombstone ordering, so verify.
            if any(
                span_lo < other.seq_lo <= span_hi
                for other in segments
                if other.segment_id not in {s.segment_id for s in candidate}
            ):
                continue
            groups.append(tuple(segment.segment_id for segment in candidate))
        return groups


def dead_sets(
    segments: Sequence[IndexSegment], newer_tombstones: AbstractSet[int]
) -> list[AbstractSet[int]]:
    """Each segment's dead set, oldest first: the documents tombstoned by
    every strictly newer segment, plus ``newer_tombstones`` (those of
    anything newer than the whole sequence, such as the unsealed delta)."""
    accumulated = set(newer_tombstones)
    dead: list[AbstractSet[int]] = []
    for segment in reversed(segments):
        dead.append(frozenset(accumulated) if accumulated else _EMPTY)
        accumulated |= segment.tombstones
    dead.reverse()
    return dead


def merge_segment_parts(
    segments: Sequence[IndexSegment],
    older_docs: AbstractSet[int],
    external_dead: AbstractSet[int],
) -> tuple[dict[str, PostingColumns], set[int], set[int]]:
    """The pure merge kernel: fold ordered segments into one.

    ``segments`` are ordered oldest to newest (a contiguous seal-sequence
    range) and read, never mutated; ``older_docs`` is the union of
    document sets of every segment *older than the range*.  Rows keep their
    stored quants, so the merge of a stale segment is stale: the caller
    recomposes it as it would the input.  Tombstones
    internal to the range are applied (their rows dropped and the tombstone
    consumed); a tombstone survives into the merged segment only if its
    document actually has rows in an older segment -- anything else can
    never match again and is garbage-collected here.

    ``external_dead`` names documents tombstoned by segments *newer than
    the range* (including the unsealed delta).  Their rows are dropped too:
    no read returns them, and a re-added document's rows live in newer
    segments.

    The work is per row, not per term.  An input whose ``documents`` (every
    row's document is one) are all live is taken whole.  A term held by one
    input keeps that input's run, which its writer put in ``(-quant,
    doc_id)`` order.  The rows of the terms held by more are ordered by one
    sort, keyed ``(term, -quant, doc_id)``.  Terms keep their first-seen
    order.

    Returns ``(lists, documents, tombstones)``.
    """
    dead_for = dead_sets(segments, external_dead)
    live = [
        segment.lists
        if dead.isdisjoint(segment.documents)
        else {t: run for t, c in segment.lists.items() if len(run := live_columns(c, t, dead))}
        for segment, dead in zip(segments, dead_for)
    ]
    merged = dict.fromkeys(chain.from_iterable(segment.lists for segment in segments))
    for lists in live:
        merged.update(lists)
    shared = [term for term, holders in Counter(chain.from_iterable(live)).items() if holders > 1]
    position = dict(zip(shared, range(len(shared))))
    rows: list[tuple[int, int, int]] = []
    for lists in live:
        for term, run in lists.items():
            if (at := position.get(term)) is not None:
                rows += zip(repeat(at), map(neg, run.quants), run.doc_ids)
    merged.update(_sorted_lists(shared, rows, neg))
    merged_lists = {term: run for term, run in merged.items() if run is not None}
    documents = set().union(*(s.documents - dead for s, dead in zip(segments, dead_for)))
    tombstones = {
        doc
        for segment in segments
        for doc in segment.tombstones
        if doc in older_docs
    }
    return merged_lists, documents, tombstones


def _sorted_lists(
    terms: Sequence[str], rows: list[tuple[int, int, int]], quant: Callable[[int], int]
) -> dict[str, PostingColumns]:
    """The lists of ``terms`` from ``rows``, ``(position in terms, rank,
    doc_id)`` with ``quant(rank)`` falling as the rank rises, in one sort; each
    list is a slice of two whole columns.  Every term has rows; ``rows`` is
    emptied."""
    rows.sort()
    sizes = Counter(map(itemgetter(0), rows)).values()
    doc_ids = array("I", map(itemgetter(2), rows))
    quants = array("I", map(quant, map(itemgetter(1), rows)))
    rows.clear()  # before the lists are made: where a build's memory peaks
    return {
        term: PostingColumns(doc_ids[end - size : end], quants[end - size : end])
        for term, size, end in zip(terms, sizes, accumulate(sizes))
    }


def live_columns(
    columns: PostingColumns,
    term: str,
    dead: AbstractSet[int],
    compose: ColumnComposer | None = None,
) -> PostingColumns:
    """One run's live rows, in stored order: the index's one row kernel.

    ``dead`` rows are dropped, and a stale run (one given ``compose``) has
    its quants recomposed in one pass.  An array that comes out equal to the
    stored one is the stored one, and a run that lost and changed nothing is
    ``columns`` itself -- for the server's read, which takes each row once
    in any order, as for the readers that put rows in :func:`impact_order`.
    """
    doc_ids, quants = columns.doc_ids, columns.quants
    if dead and not dead.isdisjoint(doc_ids):
        keep = list(map(not_, map(dead.__contains__, doc_ids)))
        doc_ids, quants = array("I", compress(doc_ids, keep)), array("I", compress(quants, keep))
    if compose is not None and len(doc_ids):
        fresh = compose(doc_ids, term)
        quants = quants if fresh == quants else fresh
    if doc_ids is columns.doc_ids and quants is columns.quants:
        return columns
    return PostingColumns(doc_ids, quants)


def impact_order(runs: Iterable[PostingColumns]) -> PostingColumns | None:
    """The rows of ``runs`` as one list by ``(-quant, doc_id)``: the ordering
    step of one term's reads (``None`` when there are no rows).

    A document has at most one live row per term, so the order is total and
    equals a from-scratch rebuild's.  A single run already in that order
    comes back as itself: reads stay zero-copy, and a recomposed run that
    kept its order pays no sort.  A merge orders many terms in one sort.
    """
    runs = [run for run in runs if len(run)]
    if not runs:
        return None
    if len(runs) == 1:
        (run,) = runs
        quants, doc_ids = run.quants, run.doc_ids
        pairs = zip(quants, quants[1:], doc_ids, doc_ids[1:])
        if all(a > b or (a == b and x < y) for a, b, x, y in pairs):
            return run
    rows = sorted(chain.from_iterable(zip(map(neg, run.quants), run.doc_ids) for run in runs))
    return PostingColumns(array("I", [d for _, d in rows]), array("I", [-q for q, _ in rows]))


# -- on-disk columnar directory format -------------------------------------------
#
#   <path>/                (format v7)
#     wal.log              the manifest log, and the only manifest source:
#                          every save appends one CRC-framed record (<u32
#                          length, u32 crc32> + compact-JSON manifest: format,
#                          version, byteorder, index uuid, save_seq,
#                          arrays_fresh, whole-file integrity pairs, the
#                          doc-terms chain, the segment set -- per segment:
#                          id, generation, base, seq range and file -- plus
#                          the index-level fields the caller supplies, the
#                          corpus stats among them).  O(segments + terms),
#                          not O(corpus)
#     segment_<id>_<seq>.bin
#                          per term, concatenated: doc_ids (4n bytes) then
#                          quants (4n) of its rows in (-quant, doc_id) order
#                          -- 8n per term, so every term block starts 8-byte
#                          aligned and each column 4-byte aligned -- then the
#                          footer: compact JSON of everything immutable
#                          about the segment (the term -> [byte offset, row
#                          count, crc32] directory, documents, tombstones)
#                          and its <u32 length, u32 crc32> trailer.
#                          Immutable once written: an incremental save reuses
#                          earlier saves' files *by reference*, matched by
#                          segment id (a sealed segment never changes)
#     doc_terms_<seq>.bin  one link of the doc-terms chain, all u32: <n_terms,
#                          n_docs>, the link's term table (n_terms byte
#                          lengths, then the UTF-8), <doc id, row count> per
#                          document (0xFFFFFFFF: removed), <term id, f_dt>
#                          per row; all in the writer's order.  Folded oldest
#                          first (doc_terms_chain, then doc_terms_file) they
#                          give the documents of the record's stats.  A
#                          wholesale save or a log compaction writes one full
#                          link, an incremental save the delta since the save
#                          before.  No chain => a read-only directory
#
# Columns and links are written in native byte order (recorded in the
# manifest); a load on a mismatched platform falls back to eager reads with a
# byteswap.
#
# Durability ordering of one save: new segment blobs and the doc-terms
# link are written and fsynced, then the directory entry naming them;
# the fsynced wal.log append is the commit point (a rewrite -- compaction,
# or a torn tail that must not bury the new record -- is an atomic
# wal.log.tmp swap plus a second directory fsync); only then are files no
# retained record references reclaimed.  A crash at any byte boundary
# leaves a prefix of the log -- the old newest record intact (the new files
# are unreferenced orphans) or the new one fully committed -- and every
# record of it stays bit-identically replayable: files referenced by *any*
# retained record are spared until the log exceeds its compaction threshold
# and is rewritten down to the newest record, whose chain is then one full
# link.  Recovery replays the log to the newest consistent record: one whose
# files have their recorded lengths and whose footers and chain links pass
# their CRCs and shape checks.
#
# Older builds also wrote a manifest.json copy of the newest record; it is
# never read, and counts as debris like any other unreferenced file.


def _fsync_write_bytes(path: Path, data: bytes) -> None:
    with open(path, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())


def _fsync_directory(root: Path) -> None:
    """Best-effort directory-entry durability (not all platforms allow it)."""
    try:
        fd = os.open(root, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def _frame_wal_record(manifest: Mapping) -> bytes:
    payload = json.dumps(manifest, separators=(",", ":")).encode("utf-8")
    return _WAL_FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def _wal_frames(wal_path: Path, data: bytes | None = None) -> tuple[list, str | None]:
    """A manifest log's CRC-checked ``(offset, payload)`` frames, up to the
    first torn or corrupt one.

    Returns ``(frames, problem)`` where ``problem`` describes the torn
    tail (``None`` for a clean log or a missing file).  Frames after a bad
    one are unreachable by construction -- the framing is lost -- so a torn
    byte invalidates the suffix, never the prefix.  ``data`` is the log's
    content when the caller has already read it.
    """
    if data is None:
        if not wal_path.exists():
            return [], None
        try:
            data = wal_path.read_bytes()
        except OSError as exc:
            return [], f"unreadable ({exc})"
    frames: list[tuple[int, bytes]] = []
    offset = 0
    while offset + _WAL_FRAME.size <= len(data):
        length, crc = _WAL_FRAME.unpack_from(data, offset)
        start = offset + _WAL_FRAME.size
        payload = data[start : start + length]
        if len(payload) != length:
            return frames, (
                f"record {len(frames)} truncated at byte {offset} "
                f"({len(payload)} of {length} payload bytes)"
            )
        if zlib.crc32(payload) != crc:
            return frames, f"record {len(frames)} at byte {offset} failed its CRC"
        frames.append((offset, payload))
        offset = start + length
    if offset != len(data):
        return frames, f"trailing {len(data) - offset} bytes after record {len(frames)}"
    return frames, None


def _parsed(frames: Sequence[tuple[int, bytes]], number: int) -> dict | str:
    """Frame ``number`` of ``frames`` as its record, or why it is none."""
    offset, payload = frames[number]
    try:
        record = json.loads(payload)
    except (ValueError, RecursionError):  # UnicodeDecodeError included
        return f"record {number} at byte {offset} is not valid JSON"
    if not isinstance(record, dict):
        return f"record {number} at byte {offset} is not an object"
    return record


def _scan_wal(wal_path: Path, data: bytes | None = None) -> tuple[list[dict], str | None]:
    """Parse a manifest log: ``(records, problem)``, where ``problem`` names
    a torn tail (:func:`_wal_frames`) and the CRC-valid frames that hold no
    record, which are left out (``None``: nothing is wrong).  A frame that
    is not a record keeps its framing, so the frames after it are read."""
    frames, torn = _wal_frames(wal_path, data)
    parsed = [_parsed(frames, number) for number in range(len(frames))]
    problems = [item for item in parsed if isinstance(item, str)] + ([torn] if torn else [])
    return [item for item in parsed if isinstance(item, dict)], "; ".join(problems) or None


def read_manifest_log(path: str | Path) -> list[dict]:
    """The records of a directory's manifest log, oldest first.

    ``path`` may name the index directory or the ``wal.log`` file itself.
    Parsing stops silently at the first torn or CRC-failing frame (the
    crash-recovery contract: a truncated log yields its longest consistent
    prefix) and leaves out a frame that holds no record; a missing log
    yields ``[]``.
    """
    candidate = Path(path)
    wal_path = candidate / "wal.log" if candidate.is_dir() else candidate
    records, _ = _scan_wal(wal_path)
    return records


def _doc_terms_links(record: Mapping) -> list:
    """A record's doc-terms chain, oldest link first; ``[]`` without one."""
    tip, chain = record.get("doc_terms_file"), record.get("doc_terms_chain")
    return [*(chain if isinstance(chain, list) else ()), tip] if tip is not None else []


def _record_files(record: Mapping) -> set[str]:
    """Every data file one manifest record references.

    Tolerates malformed records (names that are not strings are skipped):
    reclamation and the orphan audit run over records that may not validate.
    """
    segments = record.get("segments")
    names = _doc_terms_links(record)
    if isinstance(segments, list):
        names += [entry.get("file") for entry in segments if isinstance(entry, dict)]
    return {name for name in names if isinstance(name, str)}


def _save_seq(record: Mapping) -> int:
    """A record's save sequence (0 when absent or malformed: it sorts last)."""
    seq = record.get("save_seq")
    return seq if _count(seq) else 0


#: Everything a save, a crash or an older build can leave under an index
#: directory besides ``wal.log`` itself: data files (older JSON links too),
#: the staged log rewrite, and the older builds' copy of the newest record.
_DEBRIS_PATTERNS = ("segment_*.bin", "doc_terms*", "wal.log.tmp", "manifest.json*")


def _unreferenced_files(root: Path, file_sets: Iterable[AbstractSet[str]]) -> list[Path]:
    """The files under ``root`` in none of ``file_sets`` (one per retained
    record, see :func:`_record_files`), sorted."""
    referenced: set[str] = set().union(*file_sets)
    return sorted(
        candidate
        for pattern in _DEBRIS_PATTERNS
        for candidate in root.glob(pattern)
        if candidate.name not in referenced
    )


def _rewrite_wal(root: Path, records: Iterable[Mapping]) -> bytes:
    """Atomically replace the log with exactly ``records`` (staged swap);
    returns the bytes written."""
    staging = root / "wal.log.tmp"
    data = b"".join(map(_frame_wal_record, records))
    _fsync_write_bytes(staging, data)
    os.replace(staging, root / "wal.log")
    _fsync_directory(root)
    return data


def _persist_state(root: str | Path, record: Mapping, wal: Mapping | None = None) -> dict:
    """What the next incremental save needs: the directory, the last committed
    ``record`` (a record is O(segments)), and from a save the whole log as
    committed -- ``length``, ``crc`` and each retained record's file set."""
    return {"path": str(Path(root).resolve()), "record": record, "wal": wal}


def _segment_blob(segment: IndexSegment) -> bytes:
    """A segment's file: its term blocks, then its footer and the footer's
    ``<u32 length, u32 crc32>`` trailer."""
    chunks: list[bytes] = []
    directory: dict[str, tuple[int, int, int]] = {}
    offset = 0
    for term in sorted(segment.lists):
        columns = segment.lists[term]
        rows = len(columns)
        block = columns.doc_ids.tobytes() + columns.quants.tobytes()
        # Per-term CRC over the block as stored (native byte order): readers
        # validate before any byteswap, so the check is platform-portable.
        directory[term] = (offset, rows, zlib.crc32(block))
        chunks.append(block)
        offset += rows * _TERM_BLOCK_FACTOR
    footer = {
        "terms": directory,
        "documents": sorted(segment.documents),
        "tombstones": sorted(segment.tombstones),
    }
    payload = json.dumps(footer, separators=(",", ":")).encode("utf-8")
    chunks += (payload, _WAL_FRAME.pack(len(payload), zlib.crc32(payload)))  # the trailer
    return b"".join(chunks)


def _segment_footer(buffer, source: Path) -> dict:
    """The checked footer of the segment file held in ``buffer``."""
    end = len(buffer) - _WAL_FRAME.size
    length, crc = _WAL_FRAME.unpack_from(buffer, end) if end >= 0 else (0, None)
    payload = bytes(memoryview(buffer)[max(end - length, 0) : max(end, 0)])
    if len(payload) != length or zlib.crc32(payload) != crc:
        raise CorruptIndexError(f"{source.name}: footer torn or failed its checksum", path=source)
    content = _json(payload, source)
    problem = _shape_problem(content, _SEGMENT_CONTENT_SHAPE, f"{source.name} footer")
    if problem is not None:
        raise CorruptIndexError(problem, path=source)
    return content


def _column_loader(
    buffer, offset: int, rows: int, swap: bool, crc: int, source: str
) -> Callable[[], tuple[array, array]]:
    """A term block's ``(doc_ids, quants)``, checked against its CRC-32."""

    def load() -> tuple[array, array]:
        view = memoryview(buffer)
        chunk = view[offset : offset + _TERM_BLOCK_FACTOR * rows]
        if len(chunk) != _TERM_BLOCK_FACTOR * rows or zlib.crc32(chunk) != crc:
            raise CorruptIndexError(
                f"{source}: term block at offset {offset} is truncated or failed its checksum",
                path=source,
            )
        return _words(chunk[: 4 * rows], swap), _words(chunk[4 * rows :], swap)

    return load


def _words(data, swap: bool) -> array:
    """``data`` as u32s, stored in the other byte order when ``swap``."""
    words = array("I")
    words.frombytes(data)
    if swap:
        words.byteswap()
    return words


def _pairs(first: array, second: array) -> bytes:
    """Parallel u32 columns as ``<first, second>`` pairs."""
    pairs = array("I", bytes(8 * len(first)))
    pairs[0::2], pairs[1::2] = first, second
    return pairs.tobytes()


def _doc_terms_blob(link: Mapping[int, Mapping[str, int] | None]) -> bytes:
    """One doc-terms link of each document's term frequencies (``None``:
    removed), laid out as the comment above ``_fsync_write_bytes`` says."""
    live = [freqs for freqs in link.values() if freqs is not None]
    ids = dict(zip(dict.fromkeys(chain.from_iterable(live)), count()))
    names = [term.encode("utf-8") for term in ids]
    counts = array("I", [_REMOVED if freqs is None else len(freqs) for freqs in link.values()])
    term_ids = array("I", map(ids.__getitem__, chain.from_iterable(live)))
    freqs = array("I", chain.from_iterable(map(methodcaller("values"), live)))
    header = array("I", [len(names), len(link), *map(len, names)]).tobytes()
    return b"".join([header, *names, _pairs(array("I", link), counts), _pairs(term_ids, freqs)])


#: One checked doc-terms link: its term table, its documents' ids and row
#: counts, and its rows' term ids and frequencies.
DocTermsLink = tuple[list[str], array, array, array, array]
#: A loaded record's doc-terms chain: :func:`fold_doc_terms` of its checked
#: links, run on the first call and remembered.
ChainFold = Callable[[], dict[int, dict[str, int]]]


def _check_link(data: bytes, swap: bool, source: Path) -> DocTermsLink:
    """One doc-terms link's parts, checked by C-level passes, not folded (a
    term twice in one document shows in the fold's total length)."""

    def column(start: int, words: int) -> array:
        if words > (len(data) - start) // 4:
            raise CorruptIndexError(f"{source.name} is truncated", path=source)
        return _words(data[start : start + 4 * words], swap)

    num_terms, num_docs = column(0, 2)
    starts = list(accumulate(column(8, num_terms), initial=8 + 4 * num_terms))
    documents = column(starts[-1], 2 * num_docs)
    doc_ids, counts = documents[0::2], documents[1::2]
    num_rows = sum(counts) - counts.count(_REMOVED) * _REMOVED
    rows = column(starts[-1] + 8 * num_docs, 2 * num_rows)
    term_ids, freqs = rows[0::2], rows[1::2]
    try:
        terms = [data[start:end].decode("utf-8") for start, end in zip(starts, starts[1:])]
    except UnicodeDecodeError:
        terms = []
    problem = (
        "trailing bytes" if len(data) != starts[-1] + 8 * (num_docs + num_rows)
        else "a term that is not UTF-8" if len(terms) != num_terms
        else "a term id out of range" if max(term_ids, default=-1) >= num_terms
        else "a frequency below 1" if min(freqs, default=1) < 1
        else "a document twice" if len(set(doc_ids)) != num_docs
        else "a term twice" if len(set(terms)) != num_terms
        else None
    )
    if problem is not None:
        raise CorruptIndexError(f"{source.name} holds {problem}", path=source)
    return terms, doc_ids, counts, term_ids, freqs


def fold_doc_terms(
    links: Iterable[DocTermsLink], stats: Mapping, segments: Sequence[IndexSegment], source: Path
) -> dict[int, dict[str, int]]:
    """Fold checked links, oldest first, orders kept: a document a link
    names moves to the end, or goes where the link removes it.
    :class:`CorruptIndexError` unless the fold gives the record's ``stats``
    and, among its documents with terms, exactly the live documents of its
    ``segments``."""
    folded: dict[int, dict[str, int]] = {}
    for terms, doc_ids, counts, term_ids, freqs in links:
        rows = zip(map(terms.__getitem__, term_ids), freqs)
        for doc_id, size in zip(doc_ids, counts):
            folded.pop(doc_id, None)
            if size != _REMOVED:
                folded[doc_id] = dict(islice(rows, size))
    dead = dead_sets(segments, _EMPTY)
    live = set().union(*(segment.documents - gone for segment, gone in zip(segments, dead)))
    # A document without terms has no rows: no segment lists it.
    termed = {doc_id for doc_id, terms in folded.items() if terms}
    problem = (
        "the record's corpus statistics"
        if CorpusStatistics.of_documents(folded) != CorpusStatistics(**stats)
        else "every live document" if not live <= termed
        else "only live documents of its segments" if not termed <= live
        else None
    )
    if problem is not None:
        raise CorruptIndexError(f"{source.name}: the chain does not give {problem}", path=source)
    return folded


def write_index_directory(
    path: str | Path,
    *,
    segments: Sequence[IndexSegment],
    extra: Mapping[str, object],
    document_terms: Callable[[], Mapping[int, Mapping[str, int]]] | None,
    changed_documents: Collection[int] = (),
    persist_state: Mapping | None = None,
    runtime_fresh: bool = True,
    wal_compact_records: int = DEFAULT_WAL_COMPACT_RECORDS,
) -> dict:
    """Persist sealed segments (plus index-level ``extra`` metadata) under ``path``.

    One save is one manifest record committed to ``wal.log`` (layout and
    durability order: the comment block above ``_fsync_write_bytes``).  With
    ``persist_state`` (the state a previous save or load of the same
    directory returned), an *incremental* save writes blobs only for
    segments without a previously persisted file and reuses the rest by
    reference, and appends to the doc-terms chain a link holding only the
    ``changed_documents`` (ids added or removed since that state), so
    ``save`` after N update batches writes its delta, never the corpus;
    once the log would exceed ``wal_compact_records`` records it is
    compacted to the new record alone, with the chain folded into one link.
    ``document_terms()`` is called only when the link names documents.

    The mode follows from the persist state alone: incremental when
    ``persist_state`` matches the directory's uuid and newest save_seq and
    ``document_terms`` accompany the save, wholesale (under a fresh
    directory uuid) otherwise.  A save whose ``persist_state`` describes the
    log byte for byte (its ``wal`` length and CRC-32 still match) takes the
    retained records' file sets from it instead of decoding the log again;
    any mismatch -- a torn tail, a foreign writer, a truncation -- takes the
    full scan.  A persisted file is reused by segment id, which names one
    content: segments never change.  ``runtime_fresh`` declares whether the
    segments' arrays are current; the record keeps it as ``arrays_fresh``,
    and a load of a record with ``arrays_fresh: false`` re-derives impacts
    on first read, restoring rebuild bit-identity.

    Returns a report dict -- ``mode``, ``save_seq``, ``segments_written`` /
    ``segments_reused``, ``wal_records``, ``compacted``, ``arrays_fresh``
    and the new ``persist_state`` to thread into the next save.
    """
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    wal_path = root / "wal.log"
    try:
        wal_bytes: bytes | None = wal_path.read_bytes()
    except OSError:  # missing or unreadable: the scan below says which
        wal_bytes = None
    wal_crc = zlib.crc32(wal_bytes) if wal_bytes is not None else None
    same_path = persist_state is not None and persist_state["path"] == str(root.resolve())
    previous: Mapping = persist_state["record"] if same_path else {}
    committed = persist_state["wal"] if same_path else None
    kept_records: list[dict] | None = None
    if (
        committed is not None
        and wal_bytes is not None
        and committed["length"] == len(wal_bytes)
        and committed["crc"] == wal_crc
    ):
        # The log is byte-for-byte what this instance last committed, so
        # the persist state already holds everything a decode would yield.
        torn = None
        retained = list(committed["files"])
        newest_uuid, newest_seq = previous["uuid"], previous["save_seq"]
    else:
        kept_records, torn = _scan_wal(wal_path, wal_bytes)
        retained = [_record_files(record) for record in kept_records]
        newest_uuid = kept_records[-1].get("uuid") if kept_records else None
        newest_seq = max(map(_save_seq, kept_records), default=0)
    save_seq = newest_seq + 1

    incremental = (
        same_path
        and document_terms is not None
        and previous["uuid"] == newest_uuid
        and previous["save_seq"] == newest_seq
    )
    index_uuid = previous["uuid"] if incremental else _uuid.uuid4().hex
    reused = {entry["segment_id"]: entry for entry in previous["segments"]} if incremental else {}
    compacted = len(retained) + 1 > max(int(wal_compact_records), 1)

    manifest_segments = []
    integrity: dict[str, list[int]] = {}
    segments_written = 0
    for segment in segments:
        persisted = reused.get(segment.segment_id)
        if persisted is not None:
            filename = persisted["file"]
            integrity[filename] = previous["integrity"][filename]
        else:
            blob = _segment_blob(segment)
            filename = f"segment_{segment.segment_id}_{save_seq}.bin"
            _io_event("write", root / filename)
            _fsync_write_bytes(root / filename, blob)
            integrity[filename] = [len(blob), zlib.crc32(blob)]
            segments_written += 1
        manifest_segments.append(
            {
                "segment_id": segment.segment_id,
                "generation": segment.generation,
                "base": segment.base,
                "seq": [segment.seq_lo, segment.seq_hi],
                "file": filename,
            }
        )
    doc_terms_file, chain = None, []
    if document_terms is not None:
        # The delta since the persisted state extends its chain; anything
        # else (wholesale, or a compaction folding the chain) is one full link.
        if incremental and not compacted:
            chain = _doc_terms_links(previous)
            current = document_terms() if changed_documents else {}
            link = {doc_id: current.get(doc_id) for doc_id in changed_documents}
        else:
            link = document_terms()
        doc_terms_file = f"doc_terms_{save_seq}.bin"
        encoded = _doc_terms_blob(link)
        _io_event("write", root / doc_terms_file)
        _fsync_write_bytes(root / doc_terms_file, encoded)
        integrity.update((name, previous["integrity"][name]) for name in chain)
        integrity[doc_terms_file] = [len(encoded), zlib.crc32(encoded)]
    manifest = {
        "format": INDEX_FORMAT,
        "version": INDEX_FORMAT_VERSION,
        "byteorder": sys.byteorder,
        "save_seq": save_seq,
        "uuid": index_uuid,
        "arrays_fresh": bool(runtime_fresh),
        "doc_terms_file": doc_terms_file,
        "doc_terms_chain": chain,
        "integrity": integrity,
        "segments": manifest_segments,
        **dict(extra),
    }
    # The record must never become durable ahead of the names it references.
    _fsync_directory(root)

    # Commit point: an append when the log is clean and under threshold,
    # otherwise the atomic rewrite (compaction, or past a torn tail, which
    # only the decoding branch can find -- so ``kept_records`` is set).
    retained = [_record_files(manifest)] if compacted else retained + [_record_files(manifest)]
    frame = _frame_wal_record(manifest)
    _io_event("write", wal_path)
    if wal_bytes is not None and torn is None and not compacted:
        with open(wal_path, "ab") as handle:
            handle.write(frame)
            handle.flush()
            os.fsync(handle.fileno())
        wal_length, wal_crc = len(wal_bytes) + len(frame), zlib.crc32(frame, wal_crc)
    else:
        written = _rewrite_wal(root, [manifest] if compacted else kept_records + [manifest])
        wal_length, wal_crc = len(written), zlib.crc32(written)

    # Reclamation: every retained record stays replayable until compaction
    # drops it, so only what none of them references goes.
    for stale in _unreferenced_files(root, retained):
        stale.unlink()

    return {
        "mode": "incremental" if incremental else "full",
        "save_seq": save_seq,
        "uuid": index_uuid,
        "segments_written": segments_written,
        "segments_reused": len(manifest_segments) - segments_written,
        "wal_records": len(retained),
        "compacted": compacted,
        "arrays_fresh": manifest["arrays_fresh"],
        "persist_state": _persist_state(
            root, manifest, {"length": wal_length, "crc": wal_crc, "files": retained}
        ),
    }


def _named(value, pattern: re.Pattern) -> bool:
    """True for a file name the writer itself gives (``pattern``): a bare
    name, so ``root / value`` stays under ``root``."""
    return isinstance(value, str) and pattern.fullmatch(value) is not None


def _count(value) -> bool:
    """True for a non-negative JSON integer (``true`` is not one)."""
    return type(value) is int and value >= 0


def _ints(value, length: int | None = None) -> bool:
    """True for a JSON list of non-negative integers (of exactly ``length``
    items if given)."""
    return isinstance(value, list) and length in (None, len(value)) and all(map(_count, value))


#: What the reader relies on in each segment entry of a record: key ->
#: predicate.  A record is parsed JSON of unknown provenance (bit rot that
#: still parses, a hand edit), so shapes are checked before anything indexes
#: into them.
_SEGMENT_ENTRY_SHAPE: dict[str, Callable[[object], bool]] = {
    "file": lambda value: _named(value, _SEGMENT_FILE),
    "segment_id": _count,
    "generation": _count,
    "base": lambda value: isinstance(value, bool),
    "seq": lambda value: _ints(value, 2) and value[0] <= value[1],
}

#: The same for a segment file's footer.
_SEGMENT_CONTENT_SHAPE: dict[str, Callable[[object], bool]] = {
    "terms": lambda value: isinstance(value, dict)
    and all(_ints(entry, 3) for entry in value.values()),
    "documents": _ints,
    "tombstones": _ints,
}


def _number(value) -> bool:
    """True for a finite, non-negative JSON number."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 <= value < inf


def _spec(value, **kinds: type) -> bool:
    """True for a JSON object holding only ``kinds``' keys, each of its
    type: a saved component spec the loader constructs from."""
    return isinstance(value, dict) and all(
        key in kinds and isinstance(item, kinds[key]) for key, item in value.items()
    )


#: The same for the record itself: the directory fields, then the
#: index-level metadata ``InvertedIndex.load`` restores from it.
_RECORD_SHAPE: dict[str, Callable[[object], bool]] = {
    "segments": lambda value: isinstance(value, list),
    "integrity": lambda value: isinstance(value, dict),
    "save_seq": _count,
    "uuid": lambda value: isinstance(value, str),
    "doc_terms_file": lambda value: value is None or _named(value, _DOC_TERMS_FILE),
    "doc_terms_chain": lambda value: value is None
    or (isinstance(value, list) and all(_named(name, _DOC_TERMS_FILE) for name in value)),
    "stats": lambda value: isinstance(value, dict)
    and len(value) == 3  # exactly CorpusStatistics' fields
    and type(value.get("num_documents")) is int
    and value["num_documents"] >= 0
    and _number(value.get("average_document_length"))
    and isinstance(frequencies := value.get("document_frequencies"), dict)
    and set(map(type, frequencies.values())) <= {int}  # C-level: it runs over every term
    and min(frequencies.values(), default=1) > 0,
    "quantise_levels": lambda value: _count(value) and value >= 1,
    "block_size": lambda value: _count(value) and value >= 1,
    "max_impact": _number,
    "next_seq": _count,
    "next_segment_id": _count,
    "byteorder": lambda value: value in ("little", "big"),
    "arrays_fresh": lambda value: isinstance(value, bool),
    "merge_policy": lambda value: value is None
    or _spec(value, fanout=int) and value.get("fanout", 2) >= 2,
    "scorer": lambda value: value is None or _spec(value, name=str, params=dict),
    "tokenizer": lambda value: value is None
    or _spec(value, stopwords=list, min_token_length=int, keep_phrases=bool)
    and _count(value.get("min_token_length", 0))
    and all(isinstance(word, str) for word in value.get("stopwords", ())),
}


def _shape_problem(value, shape: Mapping[str, Callable[[object], bool]], what: str) -> str | None:
    """The first key of ``shape`` that parsed-JSON ``value`` lacks in
    well-formed state, as a problem string (``None`` when it has them all)."""
    if not isinstance(value, dict):
        return f"{what} is not an object"
    bad = next((key for key, well_formed in shape.items() if not well_formed(value.get(key))), None)
    return None if bad is None else f"{what} has no well-formed {bad!r}"


def _json(data: bytes, source: Path):
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:  # UnicodeDecodeError included
        raise CorruptIndexError(f"{source.name} is not valid JSON: {exc}", path=source) from exc


def _manifest_problems(root: Path, manifest: Mapping) -> list[str]:
    """Cheap consistency check of one parsed manifest against the directory.

    Format and version, the shape of everything the reader will index into,
    and each referenced file's existence and recorded length -- everything
    except reading data, so recovery can pick a record without paying data
    I/O.  Never raises for a malformed record: whatever is wrong comes back
    as a problem string.
    """
    if manifest.get("format") != INDEX_FORMAT:
        return [f"not a {INDEX_FORMAT} directory (format {manifest.get('format')!r})"]
    if manifest.get("version") != INDEX_FORMAT_VERSION:
        return [
            f"format version {manifest.get('version')!r} is not {INDEX_FORMAT_VERSION}: "
            "rebuild the index from its corpus"
        ]
    problem = _shape_problem(manifest, _RECORD_SHAPE, "manifest")
    if problem is not None:
        return [problem]
    names = _doc_terms_links(manifest)
    problems: list[str] = []
    sound = []
    for entry in manifest["segments"]:
        problem = _shape_problem(entry, _SEGMENT_ENTRY_SHAPE, "segment entry")
        if problem is None:
            names.append(entry["file"])
            sound.append(entry)
        else:
            problems.append(problem)
    # An incremental save reuses a persisted file by segment id, and the
    # next seal takes ``next_segment_id`` and ``next_seq``: an id names one
    # segment and a file one segment or link, the seal ranges (which order
    # tombstones) are disjoint, and the counters are past every one in use.
    ids = [entry["segment_id"] for entry in sound]
    ranges = sorted(entry["seq"] for entry in sound)
    top_id = max(ids, default=-1)
    top_seq = max((hi for _, hi in ranges), default=-1)
    if len(set(ids)) != len(ids):
        problems.append("segment entries have no well-formed 'segment_id': an id repeats")
    if len(set(names)) != len(names):
        problems.append("manifest has no well-formed file names: a file is named twice")
    if any(lo <= hi for (_, hi), (lo, _) in zip(ranges, ranges[1:])):
        problems.append("segment entries have no well-formed 'seq': ranges overlap")
    if manifest["next_segment_id"] <= top_id:
        problems.append(
            f"manifest has no well-formed 'next_segment_id': segment id {top_id} is in use"
        )
    if manifest["next_seq"] <= top_seq:
        problems.append(f"manifest has no well-formed 'next_seq': seq {top_seq} is in use")
    integrity = manifest["integrity"]
    for name in names:
        recorded, file_path = integrity.get(name), root / name
        if not _ints(recorded, 2):
            problems.append(f"no integrity record for {name}")
        elif not file_path.exists():
            problems.append(f"missing data file {name}")
        elif file_path.stat().st_size != recorded[0]:
            problems.append(
                f"data file {name} is {file_path.stat().st_size} bytes, expected {recorded[0]}"
            )
    return problems


def _open_record(
    root: Path, record: Mapping, use_mmap: bool
) -> tuple[list[IndexSegment], ChainFold | None, list]:
    """Read what a record that passed :func:`_manifest_problems` names:
    ``(segments, chain, buffers)``.  A segment's content comes from its
    file's footer; each doc-terms link is checked (CRC-32, then
    :func:`_check_link`), and ``chain`` folds them when called (``None``:
    no chain).  Without ``use_mmap`` every file and column checksum is read
    here.  The first failure raises :class:`CorruptIndexError`: the record
    is then inconsistent."""
    integrity = record["integrity"]
    swap = record["byteorder"] != sys.byteorder
    buffers: list = []
    segments: list[IndexSegment] = []
    for entry in record["segments"]:
        file_path = root / entry["file"]
        _io_event("read", file_path)
        if use_mmap and not swap:
            with open(file_path, "rb") as handle:
                size = file_path.stat().st_size
                buffer = _mmap.mmap(handle.fileno(), size, access=_mmap.ACCESS_READ) if size else b""
            buffers.append(buffer)
        else:
            buffer = file_path.read_bytes()
            if zlib.crc32(buffer) != integrity[entry["file"]][1]:
                raise CorruptIndexError(f"data file {entry['file']} failed its checksum", path=file_path)
        content = _segment_footer(buffer, file_path)
        lists = {
            term: PostingColumns.lazy(
                rows, _column_loader(buffer, offset, rows, swap, crc, str(file_path))
            )
            for term, (offset, rows, crc) in content["terms"].items()
        }
        if not use_mmap:
            for columns in lists.values():
                columns.doc_ids  # noqa: B018 -- force eager materialisation
        segments.append(
            IndexSegment(
                segment_id=entry["segment_id"],
                generation=entry["generation"],
                base=entry["base"],
                seq_lo=entry["seq"][0],
                seq_hi=entry["seq"][1],
                lists=lists,
                documents=set(content["documents"]),
                tombstones=set(content["tombstones"]),
            )
        )
    segments.sort(key=lambda segment: segment.seq_lo)
    links = []
    for name in _doc_terms_links(record):
        link_path = root / name
        _io_event("read", link_path)
        data = link_path.read_bytes()
        if zlib.crc32(data) != integrity[name][1]:
            raise CorruptIndexError(f"doc-terms file {name} failed its checksum", path=link_path)
        links.append(_check_link(data, swap, link_path))
    if not links:
        return segments, None, buffers
    tip = root / record["doc_terms_file"]
    return segments, cache(partial(fold_doc_terms, links, record["stats"], segments, tip)), buffers


def _audit(
    root: Path, records: Iterable[dict], *, deep: bool, fold: bool = False, use_mmap: bool = False
) -> Iterator[tuple[str, dict, list[str], tuple | None]]:
    """The one audit walk behind load, verify and repair.

    Yields ``(source, record, problems, opened)`` for the log's
    ``records``, given newest first; ``source`` is
    ``wal.log#<save_seq>`` and a record is consistent exactly when
    ``problems`` is empty.  With ``deep`` each structurally sound record is
    also opened (``opened`` is :func:`_open_record`'s result), and with
    ``fold`` its chain folded.  Lazy: a consumer that stops at the first
    consistent record never pays for older ones.
    """
    for record in records:
        problems, opened = _manifest_problems(root, record), None
        if not problems and deep:
            try:
                opened = _open_record(root, record, use_mmap)
                if fold and opened[1] is not None:
                    opened[1]()
            except CorruptIndexError as exc:
                problems = [str(exc)]
        yield f"wal.log#{_save_seq(record)}", record, problems, opened


def _no_consistent_record(
    root: Path, problems: Mapping[str, Sequence[str]]
) -> CorruptIndexError:
    detail = " | ".join(
        f"{source}: " + "; ".join(found) for source, found in problems.items()
    )
    return CorruptIndexError(
        f"no consistent manifest record under {root}: "
        + (detail or "no wal.log record present"),
        path=root,
    )


def read_index_directory(
    path: str | Path, *, use_mmap: bool = False
) -> tuple[dict, list[IndexSegment], ChainFold | None, list]:
    """Load a :func:`write_index_directory` tree.

    Returns ``(manifest, segments, chain, buffers)``; ``chain`` is
    :func:`_open_record`'s, and ``buffers`` holds the mmap objects backing
    any lazy columns and must stay referenced for the index's lifetime.
    With ``use_mmap`` the per-term columns are materialised lazily from the
    mapped file on first access; without it (or on a byte-order mismatch)
    each segment file is read eagerly.

    The newest log record whose files all check out is used (records are
    parsed newest first, only as far as that one) -- lengths
    against the record, then footers and doc-terms links against their
    CRCs and shapes; when a newer *parsed* record had to be skipped for its
    problems (a torn re-save, a malformed record, a rotted link), the
    returned manifest names the record used under ``"recovered_from"``.  A
    nonexistent directory raises :class:`FileNotFoundError` naming the path;
    a directory with no usable record raises :class:`CorruptIndexError`
    listing every record's problems.  Column checksums
    are enforced on materialisation (eagerly here without ``use_mmap``;
    lazily on first term access with it), so a bit-flip surfaces as a typed
    error rather than silent wrong postings.
    """
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"no such index directory: {root}")
    _io_event("read", root / "wal.log")
    frames, torn = _wal_frames(root / "wal.log")
    skipped: dict[str, list[str]] = {}
    unparsed = [torn] if torn is not None else []

    def newest_first() -> Iterator[dict]:
        # Parsed only as far as the walk goes: a record is O(terms).
        for number in reversed(range(len(frames))):
            record = _parsed(frames, number)
            if isinstance(record, str):
                unparsed.append(record)
            else:
                yield record

    for source, manifest, problems, opened in _audit(
        root, newest_first(), deep=True, use_mmap=use_mmap
    ):
        if not problems:
            if skipped:
                manifest["recovered_from"] = source
            return (manifest, *opened)
        skipped[source] = problems
    if unparsed:
        skipped["wal.log"] = unparsed
    raise _no_consistent_record(root, skipped)


def _survey(path: str | Path, *, deep: bool) -> tuple[dict, dict | None]:
    """:func:`verify_index_directory`'s walk: its report, plus the newest
    consistent record itself -- what :func:`repair_index_directory` keeps."""
    root = Path(path)
    if not root.is_dir():
        raise FileNotFoundError(f"no such index directory: {root}")
    records, torn = _scan_wal(root / "wal.log")
    report: dict = {
        "path": str(root),
        "ok": False,
        "problems": {},
        "consistent": [],
        "recoverable": None,
        "save_seq": None,
        "wal": {"records": len(records), "torn": torn is not None},
        "orphans": [
            stale.name for stale in _unreferenced_files(root, map(_record_files, records))
        ],
    }
    if torn is not None or not records:
        report["problems"]["wal.log"] = [torn or "no manifest record present"]
    newest_consistent = None
    for source, record, problems, _ in _audit(root, reversed(records), deep=deep, fold=deep):
        if problems:
            report["problems"][source] = problems
            continue
        report["consistent"].append(source)
        if newest_consistent is None:
            newest_consistent = record
            report["recoverable"], report["save_seq"] = source, record["save_seq"]
    report["ok"] = bool(records) and torn is None and newest_consistent is records[-1]
    return report, newest_consistent


def verify_index_directory(path: str | Path, *, deep: bool = True) -> dict:
    """Audit a saved index tree; never raises for corruption, reports it.

    Returns a report dict: ``ok`` (the newest log record is fully consistent
    and the log has no torn tail), ``problems`` (per record,
    ``wal.log#<seq>``, the failures found; a torn tail is reported under
    ``problems["wal.log"]`` but only invalidates the records behind it),
    ``consistent`` (the records that pass), ``recoverable`` (the record
    :func:`read_index_directory` would use, or ``None`` when the tree is
    unrecoverable), ``save_seq`` of that record, ``wal`` (record count and
    whether the tail is torn), and ``orphans`` (files no parseable record
    references -- debris of an interrupted save or log compaction, or the
    manifest copy an older build left; reclaimed by the next save or
    :func:`repair_index_directory`).  With ``deep`` (the default) every
    data file is read and checked against its whole-file and per-term
    checksums, and each chain folded (:func:`fold_doc_terms`, which a load
    leaves to the first mutation); without it only structure, existence, and
    sizes are checked.
    """
    return _survey(path, deep=deep)[0]


def repair_index_directory(path: str | Path) -> dict:
    """Rewrite the log to its newest fully-consistent record, drop the rest.

    :func:`verify_index_directory`'s deep walk plus the act: the manifest
    log is rewritten to the newest record that passes (unless it already is
    exactly that), so the repaired tree is a freshly compacted save, and
    every file that record does not reference -- orphans of an interrupted
    save or compaction, older records' blobs, staging leftovers -- is
    removed.  Returns a report dict (``recovered``: the record kept;
    ``save_seq``; ``removed``: the filenames deleted).  Raises
    :class:`CorruptIndexError` when no record survives verification -- the
    tree holds no safely-readable checkpoint (nothing is deleted in that
    case).
    """
    report, record = _survey(path, deep=True)
    root = Path(path)
    if record is None:
        raise _no_consistent_record(root, report["problems"])
    removed: list[str] = []
    if report["wal"] != {"records": 1, "torn": False}:
        _rewrite_wal(root, [record])
        removed.append("wal.log (rewritten)")
    for stale in _unreferenced_files(root, [_record_files(record)]):
        stale.unlink()
        removed.append(stale.name)
    return {
        "path": str(root),
        "recovered": report["recoverable"],
        "save_seq": report["save_seq"],
        "removed": sorted(removed),
    }
