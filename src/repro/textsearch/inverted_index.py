"""Impact-ordered inverted index (Figure 9 of the paper), on a segmented store.

The index has two components:

* a **dictionary** mapping each distinct term ``t`` to its document frequency
  ``f_t`` and the head of its inverted list, and
* one **inverted list** per term: a sequence of ``<d, p_{d,t}>`` impact pairs,
  sorted by decreasing impact.

Because the homomorphic accumulation in Algorithm 4 raises ciphertexts to the
impact values, impacts must be non-negative integers; the index therefore
stores only a discretised integer impact (``quantise_levels`` buckets over
the observed impact range), the arrangement the paper adopts from Zobel &
Moffat.  A raw floating-point impact exists only while it is quantised; the
lists are ordered by ``(-quant, doc_id)``, the values every reader uses.

Storage layout: the index is a **segmented storage engine** (see
:mod:`repro.textsearch.segments`).  Postings live in an ordered list of
immutable columnar :class:`~repro.textsearch.segments.IndexSegment`\\ s --
parallel ``array('I')`` document-id / quantised-impact arrays per term,
with per-segment document and tombstone sets.  The server's ``columns``
read serves each term's live rows run by run; the ordered reads put the
same rows in ``(-quant, doc_id)`` order.  A freshly built or compacted index
is one *base* segment.

Incremental updates
-------------------
Indexes produced by :meth:`InvertedIndex.build` support live corpus changes
without a rebuild:

* :meth:`add_document` / :meth:`add_documents` tokenise only the new
  document, update the corpus statistics incrementally and stage the new
  postings in the **unsealed delta** (the mutable head segment);
* :meth:`remove_document` / :meth:`remove_documents` record a **tombstone**
  in the unsealed delta -- the document's rows in older segments stay
  physically present but are filtered out of every read path -- and roll the
  statistics back;
* :meth:`seal_delta` (also run by ``maintain(force_seal=True)`` and
  :meth:`save`) freezes the delta into an immutable generation-0 segment,
  so sustained update streams accumulate **generational delta segments**
  instead of one ever-growing mutable delta;
* the :class:`~repro.textsearch.segments.TieredMergePolicy` compacts sealed
  segments LSM-style: :meth:`maintain` merges the groups the policy names
  until none is due, under the writer lock;
* :meth:`compact` folds *everything* (sealed segments, unsealed delta,
  tombstones) back into a single base segment.

The live index is a **writer that publishes snapshots**; every read
(``columns``, ``postings``, ``serialise_list``, ``document_frequency``,
``in``...) is answered by the published :class:`IndexSnapshot` -- the one read
implementation.  Its dictionary is the ``f_t`` map of the statistics the
writer keeps (a read-only index takes it from its own lists), so ``terms``
and ``f_t`` never touch a list; its lists are every run's live rows, so a query
against **any** segment configuration -- unsealed delta, multiple sealed
generations, after a ``save``/``load`` round trip -- is **bit-identical** to
one against a from-scratch rebuild of the equivalent corpus.  Identity holds
because every impact is the composition :meth:`build` uses of the scorer's
two factors (:mod:`repro.textsearch.scoring`): a document factor computed
once per added document and a corpus factor recomputed once per refresh.
A list keeps its arrays unless its quantised impacts moved.

Persistence
-----------
:meth:`save` spills the sealed segments to a columnar directory
(:func:`repro.textsearch.segments.write_index_directory`);
:meth:`load` restores them, optionally ``mmap``-backed so cold-start cost is
I/O-bound -- per-term columns materialise lazily from the mapped files on
first access -- instead of rebuild-bound; the per-document term frequencies
only updates read are built on the first one.

Downstream caches (the PIR bucket databases) stay coherent through
:attr:`update_epoch`: every mutation bumps it, maintenance never does, so
anything derived from list content is valid for exactly the epoch of the
snapshot it was built from.

The index also exposes a simple storage model -- posting size, list size in
bytes, disk blocks of ``block_size`` bytes -- which the Section 5.2 cost model
uses to estimate server I/O, and a serialisation of each list used as the PIR
database columns.
"""

from __future__ import annotations

import dataclasses
import struct
import threading
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import compress, islice, repeat
from math import inf
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from repro.textsearch.corpus import Corpus, Document
from repro.textsearch.scoring import (
    BM25Scorer,
    CorpusStatistics,
    CosineScorer,
    Scorer,
)
from repro.textsearch.segments import (
    _EMPTY,
    DEFAULT_WAL_COMPACT_RECORDS,
    ChainFold,
    ColumnComposer,
    CorruptIndexError,
    IndexSegment,
    PostingColumns,
    TieredMergePolicy,
    _persist_state,
    _sorted_lists,
    dead_sets,
    impact_order,
    live_columns,
    merge_segment_parts,
    quantise_column,
    read_index_directory,
    repair_index_directory,
    verify_index_directory,
    write_index_directory,
)
from repro.textsearch.tokenizer import Tokenizer

__all__ = [
    "Posting",
    "InvertedIndex",
    "IndexSnapshot",
    "UpdateCounters",
    "CorruptIndexError",
]

#: On-disk size of one posting: a 4-byte document id plus a 4-byte impact.
POSTING_BYTES = 8

#: Sentinel distinguishing "not cached" from a cached ``None`` (empty list).
_MISSING = object()

#: Scorers the on-disk manifest can reconstruct by name.
_SCORER_REGISTRY: dict[str, type] = {
    "CosineScorer": CosineScorer,
    "BM25Scorer": BM25Scorer,
}


@dataclass(frozen=True)
class Posting:
    """One ``<d_j, p_ij>`` entry of an inverted list, ``p_ij`` quantised."""

    doc_id: int
    quantised_impact: int

    def pack(self) -> bytes:
        """Serialise as 8 bytes (doc id + quantised impact), for the PIR columns."""
        return struct.pack(">II", self.doc_id, self.quantised_impact)

    @classmethod
    def unpack(cls, data: bytes) -> "Posting":
        return cls(*struct.unpack(">II", data))


@dataclass
class UpdateCounters:
    """Instrumentation of the incremental-update machinery (cumulative)."""

    #: Impact-class representatives the refreshes evaluated for the new
    #: ``max_impact`` (one impact each); impacts are composed on demand, not
    #: stored.
    impact_classes_scanned: int = 0
    #: Document factors computed: one per added document, plus every live
    #: document on the first refresh after a load.
    documents_factored: int = 0
    #: Rewrites materialised into copies by :meth:`InvertedIndex.compact`
    #: and wholesale saves: per-segment lists whose live rows' quantised
    #: impacts changed (a float that moved without moving its quant counts
    #: nothing).  Merges keep stored rows, and reads evaluate pending
    #: rewrites snapshot-locally; neither counts anything.
    lists_requantised: int = 0
    compactions: int = 0
    #: Tiered merges run by :meth:`InvertedIndex.maintain`.
    merges: int = 0
    #: Postings written out by merges (the LSM write amplification).
    merge_postings_written: int = 0
    #: Dead rows dropped (and consumed tombstones applied) by merges.
    merge_postings_dropped: int = 0


def _scorer_spec(scorer: Scorer) -> dict:
    """A JSON-serialisable description of a scorer, for the saved manifest."""
    spec: dict = {"name": type(scorer).__name__}
    if dataclasses.is_dataclass(scorer):
        spec["params"] = dataclasses.asdict(scorer)
    return spec


def _scorer_from_spec(spec: Mapping | None) -> Scorer | None:
    cls = _SCORER_REGISTRY.get(spec.get("name", "")) if spec else None
    return cls(**spec.get("params", {})) if cls is not None else None


def _tokenizer_spec(tokenizer: Tokenizer) -> dict:
    return {**dataclasses.asdict(tokenizer), "stopwords": sorted(tokenizer.stopwords)}


def _tokenizer_from_spec(spec: Mapping | None) -> Tokenizer | None:
    return Tokenizer(**{**spec, "stopwords": frozenset(spec.get("stopwords", ()))}) if spec else None


def _compose_lists(
    scorer: Scorer,
    factors: Iterable[tuple[int, object]],
    corpus: object,
    max_impact: float,
    levels: int,
) -> dict[str, PostingColumns]:
    """The impact-ordered lists of the documents ``factors`` names (``(doc_id,
    document factor)`` pairs), composed against one corpus factor: what
    :meth:`InvertedIndex.build` indexes and a refresh stages as the delta.

    Every impact is quantised in one :func:`quantise_column` pass and every
    row is put in order by one sort: a row is ``(term position, levels -
    quant, doc_id)``, ints the sort compares fast and none allocated per row,
    and the terms keep their first-seen order.  Zero impacts never enter a
    list.
    """
    terms: list[str] = []
    doc_ids: list[int] = []
    impacts: list[float] = []
    for doc_id, factor in factors:
        document = scorer.impacts(factor, corpus)
        terms += document
        impacts += document.values()
        doc_ids += repeat(doc_id, len(document))
    if impacts and min(impacts) <= 0.0:
        keep = [impact > 0.0 for impact in impacts]
        terms, doc_ids, impacts = (list(compress(c, keep)) for c in (terms, doc_ids, impacts))
    quants = quantise_column(impacts, max_impact, levels)
    # Each column is freed before the next is built, where a build's memory peaks.
    del impacts
    position = dict(zip(dict.fromkeys(terms), range(len(terms))))
    rows = list(zip(map(position.__getitem__, terms), map(levels.__sub__, quants), doc_ids))
    del terms, doc_ids, quants
    return _sorted_lists(list(position), rows, levels.__sub__)


class _ImpactClasses:
    """The representatives :meth:`Scorer.max_impact` reads: one slot per live
    impact class ``(term, key)`` (see :class:`~repro.textsearch.scoring.Scorer`)
    holding the smallest rank among the class's live members.

    The slots are flat parallel columns (``terms``, ``keys``, ``ranks``), so
    the max is one pass over them, with a per-term index of slot numbers; a
    dropped slot takes the last one's place.  An add lowers a rank in place
    or opens a class.  A remove only marks the term (:attr:`dirty`) when the
    removed rank is the class's, i.e. its representative may have left;
    :meth:`recompute` then rebuilds that term's classes from its live
    members, dropping the empty ones.
    """

    __slots__ = ("terms", "keys", "ranks", "_slots", "dirty")

    def __init__(self, factors: Iterable[tuple[Mapping[str, float], float]]) -> None:
        self.terms: list[str] = []
        self.keys = array("d")
        self.ranks = array("d")
        #: term -> the slots of its classes.
        self._slots: dict[str, array] = {}
        #: Terms whose representatives may have left, until the next recompute.
        self.dirty: set[str] = set()
        for factor in factors:
            self.add(factor)

    def __len__(self) -> int:
        return len(self.terms)

    def _slot(self, term: str, key: float) -> int | None:
        """The slot of class ``(term, key)``, ``None`` if there is none."""
        keys = self.keys
        for slot in self._slots.get(term, ()):
            if keys[slot] == key:
                return slot
        return None

    def _open(self, term: str, key: float, rank: float) -> None:
        slots = self._slots.get(term)
        if slots is None:
            slots = self._slots[term] = array("I")
        slots.append(len(self.terms))
        self.terms.append(term)
        self.keys.append(key)
        self.ranks.append(rank)

    def add(self, factor: tuple[Mapping[str, float], float]) -> None:
        keys, rank = factor
        ranks = self.ranks
        for term, key in keys.items():
            slot = self._slot(term, key)
            if slot is None:
                self._open(term, key, rank)
            elif rank < ranks[slot]:
                ranks[slot] = rank

    def remove(self, factor: tuple[Mapping[str, float], float]) -> None:
        keys, rank = factor
        ranks = self.ranks
        for term, key in keys.items():
            # No slot: a recompute found no rows, i.e. only zero impacts.
            slot = self._slot(term, key)
            if slot is not None and rank <= ranks[slot]:
                self.dirty.add(term)

    def recompute(self, term: str, members: Iterable[tuple[Mapping[str, float], float]]) -> None:
        """Replace ``term``'s classes with those of ``members``, the factors
        of its live documents (none: the term left the corpus)."""
        best: dict[float, float] = {}
        for keys, rank in members:
            key = keys[term]
            if rank < best.get(key, inf):
                best[key] = rank
        # Highest slot first: the last slot, which fills a hole, is never
        # one of this term's slots still to drop.
        for slot in sorted(self._slots.pop(term, ()), reverse=True):
            last = len(self.terms) - 1
            if slot != last:
                moved = self.terms[slot] = self.terms[last]
                self.keys[slot], self.ranks[slot] = self.keys[last], self.ranks[last]
                slots = self._slots[moved]
                slots[slots.index(last)] = slot
            self.terms.pop()
            self.keys.pop()
            self.ranks.pop()
        for key, rank in best.items():
            self._open(term, key, rank)


def _pinned(name: str) -> property:
    """A read of the live index, answered by the snapshot published when the
    attribute is read (a method comes back bound to that snapshot)."""
    return property(
        lambda index: getattr(index.snapshot(), name), doc=f"See ``IndexSnapshot.{name}``."
    )


class IndexSnapshot:
    """An immutable, epoch-pinned read view of an :class:`InvertedIndex`.

    Built by :meth:`InvertedIndex.snapshot` under the writer lock, after the
    lazy refresh, a snapshot copies nothing: it shares each frozen segment's
    ``lists``, the unsealed delta's lists (which the writer replaces, never
    changes), the dead sets, the
    :class:`~repro.textsearch.segments.PostingColumns` and the statistics the
    refresh pinned.  It answers the **entire read API** from that pinned
    state with **no lock on the query path**, bit-identical to a quiesced run
    at its epoch whatever is sealed, merged, compacted or updated after the
    pin.  It is the **only read implementation**: the same-named methods of
    :class:`InvertedIndex` forward to the published snapshot, so the read
    API is documented here.

    The dictionary (``terms``, ``in``, ``document_frequency`` and the storage
    model) is the pinned statistics' ``f_t`` map: every live document's
    terms have positive impacts, so a term is in it exactly when its list is
    non-empty, and no dictionary read touches a list.  Lists are memoised
    per term, one memo per read: ``columns`` (the server's) concatenates
    the runs' live rows, ``postings`` and ``serialise_list`` sort them into
    impact order.  A run stale at pin time is recomposed against the
    factors and statistics the refresh pinned -- never by mutating shared
    segments.  Serving caches key off the pinned ``update_epoch``.  Any
    number of threads may read one snapshot (a race on a memo recomputes
    an identical immutable value).
    """

    __slots__ = (
        "_records",
        "_compose",
        "_max_impact",
        "_update_epoch",
        "_merged",
        "_live",
        "block_size",
        "quantise_levels",
        "stats",
    )

    def __init__(self, index: "InvertedIndex") -> None:
        index._ensure_fresh()
        #: ``(lists, compose, dead)`` per run, oldest first: ``compose`` is
        #: the refresh's for a stale run (nothing mutates the factors it
        #: pinned) and ``None`` for a current one.  The unsealed delta
        #: (current, never dead) is the last.
        stale, compose = index._stale_ids, index._compose
        self._records: list[tuple[dict, ColumnComposer | None, frozenset]] = [
            (segment.lists, compose if segment.segment_id in stale else None, dead)
            for segment, dead in zip(index._segments, index._dead_sets())
        ] + [(index._active_lists, None, _EMPTY)]
        self._compose = compose
        self._max_impact = index._max_impact
        self._update_epoch = index._update_epoch
        self._merged: dict[str, PostingColumns | None] = {}
        self._live: dict[str, tuple[array, array]] = {}
        self.block_size = index.block_size
        self.quantise_levels = index.quantise_levels
        #: Pinned by the refresh; add/remove copy before mutating them.
        self.stats = index._pinned_stats

    def snapshot(self) -> "IndexSnapshot":
        """A snapshot is its own pin, so ``index.snapshot()`` is the one
        pinning idiom whether ``index`` is live or already pinned."""
        return self

    # -- pinned read core ---------------------------------------------------
    def _effective(self, term: str) -> PostingColumns | None:
        """The inverted list: every run's live rows put in
        :func:`~repro.textsearch.segments.impact_order`.

        A term held by one run that needed no change comes back as that
        run's own columns (zero-copy), which keeps the compacted hot path
        allocation-free.
        """
        cached = self._merged.get(term, _MISSING)
        if cached is not _MISSING:
            return cached
        merged = self._merged[term] = impact_order(
            live_columns(columns, term, dead, compose)
            for lists, compose, dead in self._records
            if (columns := lists.get(term)) is not None
        )
        return merged

    # -- dictionary access ---------------------------------------------------
    @property
    def terms(self) -> tuple[str, ...]:
        """The dictionary ``T`` (terms that appear in at least one live document)."""
        return tuple(self.stats.document_frequencies)

    @property
    def num_terms(self) -> int:
        return len(self.stats.document_frequencies)

    def __contains__(self, term: str) -> bool:
        return term in self.stats.document_frequencies

    def postings(self, term: str) -> tuple[Posting, ...]:
        """The impact-ordered inverted list ``L_i`` (empty for unknown terms)."""
        entries = self._effective(term)
        if entries is None:
            return ()
        return entries.view()

    def columns(self, term: str) -> tuple[array, array]:
        """The list's live rows as parallel ``(doc_ids, quantised_impacts)``
        arrays (hot path): the rows of :meth:`postings`, not their order.

        Each segment's run minus its dead rows
        (:func:`~repro.textsearch.segments.live_columns`), oldest run first
        and the unsealed delta last -- the homomorphic product needs each
        row once, in any order.  The stale runs' rows are recomposed by one
        call over all of them.  A term held by one run that needed no change
        returns that segment's own arrays (zero-copy); callers must not
        mutate them.  Unknown terms yield a pair of empty arrays.
        """
        rows = self._live.get(term)
        if rows is not None:
            return rows
        parts = [
            (part, compose)
            for lists, compose, dead in self._records
            if (run := lists.get(term)) is not None
            and (part := live_columns(run, term, dead)).doc_ids
        ]
        if len(parts) == 1:
            part, compose = parts[0]
            if compose is not None:
                part = live_columns(part, term, _EMPTY, compose)
            rows = part.doc_ids, part.quants
        else:
            rows, stale = (array("I"), array("I")), array("I")
            for part, compose in parts:
                rows[0].extend(part.doc_ids)
                stale.extend(part.doc_ids if compose is not None else ())
            # Every stale run shares the refresh's composer: one call serves them all.
            fresh = iter(self._compose(stale, term) if stale else ())
            for part, compose in parts:
                rows[1].extend(part.quants if compose is None else islice(fresh, len(part)))
        self._live[term] = rows
        return rows

    def document_frequency(self, term: str) -> int:
        """``f_t``: the number of live documents containing ``term``."""
        return self.stats.document_frequency(term)

    def iterate_lists(
        self, terms: Iterable[str]
    ) -> Iterator[tuple[str, tuple[Posting, ...]]]:
        """Yield ``(term, inverted list)`` for each requested term (skipping unknowns)."""
        for term in terms:
            entries = self._effective(term)
            if entries is not None:
                yield term, entries.view()

    # -- storage model ------------------------------------------------------
    def list_size_bytes(self, term: str) -> int:
        """Size of a term's inverted list on disk."""
        return self.document_frequency(term) * POSTING_BYTES

    def list_size_blocks(self, term: str) -> int:
        """Number of ``block_size`` disk blocks the list occupies (at least 1 when non-empty)."""
        size = self.list_size_bytes(term)
        if size == 0:
            return 0
        return -(-size // self.block_size)

    def total_size_bytes(self) -> int:
        """Total index size (live inverted lists only, dictionary excluded)."""
        return sum(self.list_size_bytes(term) for term in self.terms)

    def serialise_list(self, term: str) -> bytes:
        """The inverted list as bytes -- one PIR database column per bucket term.

        Always the **effective** (ordered, tombstone-filtered) view: while
        delta postings or tombstones are pending, the serialised bytes
        reflect exactly what every other read path serves, so the PIR layer
        never leaks a pre-update row.
        """
        entries = self._effective(term)
        return b"" if entries is None else entries.serialise()

    # -- pinned calibration / epoch -----------------------------------------
    @property
    def max_impact(self) -> float:
        """The global impact calibration every quantised value derives from.

        Stored per-index (not recomputed ad hoc) so updates can detect when
        it moves and re-quantise the affected lists instead of silently
        clamping a late high-impact insert.
        """
        return self._max_impact

    @property
    def update_epoch(self) -> int:
        """The mutation epoch this snapshot is pinned at."""
        return self._update_epoch


class InvertedIndex:
    """Dictionary plus impact-ordered inverted lists over a corpus.

    The live index is the **writer**: it owns the segments and the unsealed
    delta, and publishes immutable :class:`IndexSnapshot` views
    (:meth:`snapshot`).  Its read methods forward to the published snapshot,
    which is the one read implementation.

    Indexes built by :meth:`build` (or constructed with ``document_terms=``)
    additionally support incremental maintenance: see the module docstring
    and :meth:`add_document` / :meth:`remove_document` / :meth:`seal_delta` /
    :meth:`maintain` / :meth:`compact`.  Hand-built indexes (raw
    ``postings=`` only) remain read-only, so nothing quantises against
    their ``max_impact`` (default ``0.0``; :meth:`split` passes the
    source's).  The segment layout is read through :attr:`num_segments`,
    :attr:`num_tombstones`, :attr:`num_delta_documents`,
    :attr:`has_pending_updates` and :attr:`update_epoch`; :meth:`save`
    returns what it wrote.

    Parameters
    ----------
    merge_policy:
        The tiered compaction policy consulted by :meth:`maintain`; defaults
        to :class:`~repro.textsearch.segments.TieredMergePolicy` with
        fanout 4.
    """

    def __init__(
        self,
        postings: Mapping[str, list[Posting]],
        stats: CorpusStatistics,
        quantise_levels: int,
        block_size: int = 1024,
        *,
        document_terms: Mapping[int, Mapping[str, int]] | None = None,
        scorer: Scorer | None = None,
        tokenizer: Tokenizer | None = None,
        max_impact: float = 0.0,
        merge_policy: TieredMergePolicy | None = None,
    ) -> None:
        lists = {
            term: entries
            if isinstance(entries, PostingColumns)
            else PostingColumns.from_postings(entries)
            for term, entries in postings.items()
        }
        if document_terms is None:
            # A read-only index's dictionary is its own lists.
            frequencies = {term: len(columns) for term, columns in lists.items() if len(columns)}
            stats = dataclasses.replace(stats, document_frequencies=frequencies)
        documents: set[int] = set()
        for columns in lists.values():
            documents.update(columns.doc_ids)
        base = IndexSegment(
            segment_id=0,
            generation=0,
            seq_lo=0,
            seq_hi=0,
            lists=lists,
            documents=documents,
            base=True,
        )
        self._install(
            segments=[base],
            stats=stats,
            quantise_levels=quantise_levels,
            block_size=block_size,
            chain=None if document_terms is None else partial(dict, document_terms),
            scorer=scorer,
            tokenizer=tokenizer,
            max_impact=max_impact,
            merge_policy=merge_policy,
            next_seq=1,
            next_segment_id=1,
        )

    def _install(
        self,
        *,
        segments: list[IndexSegment],
        stats: CorpusStatistics,
        quantise_levels: int,
        block_size: int,
        chain: ChainFold | None,
        scorer: Scorer | None,
        tokenizer: Tokenizer | None,
        max_impact: float,
        merge_policy: TieredMergePolicy | None,
        next_seq: int,
        next_segment_id: int,
        buffers: Sequence = (),
    ) -> None:
        """Shared state initialisation for ``__init__`` and :meth:`load`;
        ``chain`` gives the per-document term frequencies when first called
        (``None``: a read-only index)."""
        self._segments = segments
        self.quantise_levels = quantise_levels
        self.block_size = block_size
        self._max_impact = max_impact
        self._scorer: Scorer = scorer or CosineScorer()
        self._tokenizer: Tokenizer = tokenizer or Tokenizer()
        self.merge_policy = merge_policy or TieredMergePolicy()
        self._next_seq = next_seq
        self._next_segment_id = next_segment_id
        #: mmap objects backing lazy columns; held for the index's lifetime.
        self._buffers = list(buffers)
        # -- unsealed delta state ----------------------------------------------
        self._active_docs: set[int] = set()
        self._active_tombstones: set[int] = set()
        self._active_lists: dict[str, PostingColumns] = {}
        #: Per-segment dead sets, memoised between manifest changes.
        self._dead: list | None = None
        #: ``Scorer.document_factor`` of every live document, kept from build
        #: and add, dropped on remove.  ``None`` on a loaded index until its
        #: first refresh computes them.
        self._doc_factors: dict[int, object] | None = None
        #: The impact classes of those factors, kept beside them.
        self._classes: _ImpactClasses | None = None
        #: ``compose(doc_ids, term)`` over the factors the latest refresh
        #: pinned; consumed by the deferred per-list rewrites.
        self._compose: ColumnComposer | None = None
        # -- update state -------------------------------------------------------
        self._stale = False
        #: Ids of the segments whose arrays predate the latest refresh.
        self._stale_ids: set[int] = set()
        self._update_epoch = 0
        self.update_counters = UpdateCounters()
        # -- snapshots / persistence --------------------------------------------
        #: The currently published snapshot; readers grab it lock-free, and
        #: every mutation or manifest change unpublishes it.
        self._snapshot_handle: IndexSnapshot | None = None
        #: Serialises snapshot construction against the writer entry points
        #: (add/remove, seal, maintain, compact, save).  RLock: sealing nests
        #: inside maintain and save.
        self._snapshot_lock = threading.RLock()
        #: What the last save/load persisted (the directory and its last
        #: committed record); threads through incremental saves.
        self._persist: dict | None = None
        #: Ids added or removed since that state, most recent last: what the
        #: next incremental save's doc-terms link carries.
        self._unsaved: dict[int, None] = {}
        #: Per-document term frequencies, the state updates need: ``None``
        #: until :meth:`_forward` takes them from ``_chain``.
        self._doc_terms: dict[int, Mapping[str, int]] | None = None
        self._chain = chain
        self._total_length = 0
        self.stats = stats
        self._document_frequencies: dict[str, int] | None = (
            stats.document_frequencies if self.supports_updates else None
        )
        #: The statistics snapshots pin: the live ones as of the latest
        #: refresh, which add/remove copy before mutating them.
        self._pinned_stats = self.stats

    # -- construction ----------------------------------------------------------
    @classmethod
    def build(
        cls,
        corpus: Corpus,
        tokenizer: Tokenizer | None = None,
        scorer: Scorer | None = None,
        quantise_levels: int = 255,
        block_size: int = 1024,
        merge_policy: TieredMergePolicy | None = None,
    ) -> "InvertedIndex":
        """Index a corpus: tokenize, score, discretise and impact-order.

        Parameters
        ----------
        quantise_levels:
            Number of integer impact levels.  Impacts are linearly mapped from
            ``(0, max_impact]`` onto ``1..quantise_levels``; zero impacts never
            enter a list (the paper: if ``p_ij = 0`` the document is simply
            absent from ``L_i``).
        block_size:
            Disk block size in bytes for the storage model (the paper's
            experiment machine used 1 KB blocks).
        """
        tokenizer = tokenizer or Tokenizer()
        scorer = scorer or CosineScorer()

        term_frequencies = {
            document.doc_id: tokenizer.term_frequencies(document.text) for document in corpus
        }
        stats = CorpusStatistics.of_documents(term_frequencies)
        factors = {doc_id: scorer.document_factor(f) for doc_id, f in term_frequencies.items()}
        corpus_factor = scorer.corpus_factor(stats)
        classes = _ImpactClasses(factors.values())
        max_impact = scorer.max_impact(classes.terms, classes.keys, classes.ranks, corpus_factor)
        index = cls(
            postings=_compose_lists(
                scorer, factors.items(), corpus_factor, max_impact, quantise_levels
            ),
            stats=stats,
            quantise_levels=quantise_levels,
            block_size=block_size,
            document_terms=term_frequencies,
            scorer=scorer,
            tokenizer=tokenizer,
            max_impact=max_impact,
            merge_policy=merge_policy,
        )
        index._doc_factors = factors
        index._classes = classes
        return index

    # -- incremental updates -------------------------------------------------------
    def _require_updatable(self) -> None:
        if not self.supports_updates:
            raise RuntimeError(
                "this index does not support incremental updates: it was "
                "constructed from raw postings without per-document term "
                "frequencies; use InvertedIndex.build (or pass document_terms=) "
                "to enable add_document/remove_document/compact"
            )

    @property
    def supports_updates(self) -> bool:
        """True when the index carries the per-document state updates need."""
        return self._doc_terms is not None or self._chain is not None

    def _forward(self) -> dict[int, Mapping[str, int]]:
        """The per-document term frequencies, taken from ``_chain`` on the
        first mutation, stale refresh or full-link save: a loaded index folds
        its doc-terms chain here (a mismatch with the record it came from is
        a :class:`~repro.textsearch.segments.CorruptIndexError`)."""
        if self._doc_terms is None:
            self._doc_terms, self._chain = self._chain(), None
            self._total_length = sum(sum(freqs.values()) for freqs in self._doc_terms.values())
        return self._doc_terms

    @property
    def has_pending_updates(self) -> bool:
        """True while the *unsealed* delta holds staged documents or tombstones."""
        return bool(self._active_docs or self._active_tombstones)

    @property
    def update_epoch(self) -> int:
        """Monotonic mutation counter; bumped by every add/remove (never by
        seal, merge or compact, whose served content is unchanged)."""
        return self._update_epoch

    @property
    def num_tombstones(self) -> int:
        """Removed documents whose rows have not yet been physically dropped."""
        return len(self._active_tombstones) + sum(
            len(segment.tombstones) for segment in self._segments
        )

    @property
    def num_delta_documents(self) -> int:
        """Documents staged in the unsealed delta."""
        return len(self._active_docs)

    @property
    def num_segments(self) -> int:
        """Sealed segments currently serving reads (the unsealed delta excluded)."""
        return len(self._segments)

    def snapshot(self) -> IndexSnapshot:
        """Pin an immutable read view of the index at its current epoch.

        Lock-free between manifest changes: every caller gets the same
        published :class:`IndexSnapshot`.  After a mutation, seal, merge or
        compaction the next call builds one under the writer lock, running
        the lazy refresh first.  Pinning is the serving layer's
        concurrency contract: the index object stays single-writer, while any
        number of threads read snapshots, each frozen at its pin, as that
        writer seals, merges, compacts or saves.
        """
        published = self._snapshot_handle
        if published is not None:
            return published
        with self._snapshot_lock:
            if self._snapshot_handle is None:
                self._snapshot_handle = IndexSnapshot(self)
            return self._snapshot_handle

    def split(self, partitioner) -> list["InvertedIndex"]:
        """Partition the dictionary into per-shard read-only indexes.

        ``partitioner`` is any object exposing ``num_shards`` and
        ``shard_of(term) -> int`` (see :mod:`repro.core.partitioning`).
        Every live term's ordered posting list is routed to exactly one
        shard; the returned list has one index per shard, in shard order,
        with shards owning no terms left empty rather than omitted.

        Shard lists are taken from a pinned :meth:`snapshot`, so a split is
        a consistent cut at one epoch even under concurrent maintenance.
        The posting columns are shared by reference -- byte-identical to
        what the unsplit index serves -- and each shard inherits the global
        ``quantise_levels`` and ``max_impact``, so quantised impacts (and
        therefore the homomorphic power tables built from them) agree
        exactly with the single-node index.  Corpus-wide statistics
        (``num_documents``, ``average_document_length``) are copied
        unchanged; ``document_frequencies`` is restricted to the shard's
        terms.  The shards carry no ``document_terms`` and are therefore
        read-only: re-split after updating the source index.
        """
        num_shards = int(partitioner.num_shards)
        if num_shards < 1:
            raise ValueError("partitioner must define at least one shard")
        view = self.snapshot()
        lists: list[dict[str, PostingColumns]] = [{} for _ in range(num_shards)]
        for term in view.terms:
            columns = view._effective(term)
            if columns is None:
                continue
            shard = partitioner.shard_of(term)
            if not 0 <= shard < num_shards:
                raise ValueError(
                    f"partitioner routed {term!r} to shard {shard} "
                    f"outside [0, {num_shards})"
                )
            lists[shard][term] = columns
        # Each shard's dictionary is its own lists (see ``__init__``).
        return [
            InvertedIndex(
                shard_lists,
                view.stats,
                self.quantise_levels,
                self.block_size,
                scorer=self._scorer,
                tokenizer=self._tokenizer,
                max_impact=self._max_impact,
            )
            for shard_lists in lists
        ]

    def _register_mutation(self) -> None:
        self._update_epoch += 1
        self._stale = True
        self._unpublish()
        self._refresh_stats()

    def _unpublish(self) -> None:
        """Retire the published snapshot and the dead-set memo it was built
        from; every mutation and manifest change ends here."""
        self._dead = None
        self._snapshot_handle = None

    def _own_frequencies(self) -> dict[str, int]:
        """The live document frequencies, copied first if snapshots pin them."""
        if self._document_frequencies is self._pinned_stats.document_frequencies:
            self._document_frequencies = dict(self._document_frequencies)
        return self._document_frequencies

    def _refresh_stats(self) -> None:
        num_documents = len(self._doc_terms)
        self.stats = CorpusStatistics(
            num_documents=num_documents,
            document_frequencies=self._document_frequencies,
            average_document_length=self._total_length / max(num_documents, 1),
        )

    def add_document(self, document: Document) -> None:
        """Stage one new document in the unsealed delta.

        Tokenises only the new text, updates ``N``, the document frequencies
        and the average length incrementally, and marks the index for a lazy
        impact refresh (the first read after a batch of updates pays one
        arithmetic re-derivation; tokenisation of the existing corpus is
        never repeated).  A document whose text yields no indexable terms
        contributes no postings -- the delta stays empty -- but still counts
        towards the corpus statistics, exactly as a rebuild would count it.
        Duplicate ids of *live* documents are rejected; re-adding a
        previously removed id is allowed.

        Like every writer entry point, this runs under the snapshot lock:
        readers holding an :class:`IndexSnapshot` are unaffected, and new
        snapshot pins serialise against the mutation.
        """
        self._require_updatable()
        with self._snapshot_lock:
            doc_id = document.doc_id
            doc_terms = self._forward()
            if doc_id in doc_terms:
                raise ValueError(f"duplicate document id {doc_id}")
            frequencies = self._tokenizer.term_frequencies(document.text)
            doc_terms[doc_id] = frequencies
            self._unsaved[doc_id] = self._unsaved.pop(doc_id, None)
            self._total_length += sum(frequencies.values())
            document_frequencies = self._own_frequencies()
            for term in frequencies:
                document_frequencies[term] = document_frequencies.get(term, 0) + 1
            if frequencies:
                self._active_docs.add(doc_id)
            if self._doc_factors is not None:
                factor = self._doc_factors[doc_id] = self._scorer.document_factor(frequencies)
                self._classes.add(factor)
                self.update_counters.documents_factored += 1
            self._register_mutation()

    def add_documents(self, documents: Iterable[Document]) -> None:
        for document in documents:
            self.add_document(document)

    def remove_document(self, doc_id: int) -> None:
        """Remove one document: tombstone it, roll the statistics back.

        The document's rows in sealed segments stay physically present until
        a merge or :meth:`compact` reaches them but are filtered out of every
        read path (the tombstone check is the read-path cost of deferred
        deletion).  A document still sitting in the unsealed delta is dropped
        from it directly.  Removing the last document of a term drops the
        term from the dictionary and the statistics.
        """
        self._require_updatable()
        with self._snapshot_lock:
            frequencies = self._forward().pop(doc_id, None)
            if frequencies is None:
                raise KeyError(f"unknown document id {doc_id}")
            self._unsaved[doc_id] = self._unsaved.pop(doc_id, None)
            self._total_length -= sum(frequencies.values())
            if self._doc_factors is not None:
                self._classes.remove(self._doc_factors.pop(doc_id))
            document_frequencies = self._own_frequencies()
            for term in frequencies:
                remaining = document_frequencies.get(term, 0) - 1
                if remaining > 0:
                    document_frequencies[term] = remaining
                else:
                    document_frequencies.pop(term, None)
            if doc_id in self._active_docs:
                self._active_docs.discard(doc_id)
            else:
                self._active_tombstones.add(doc_id)
            self._register_mutation()

    def remove_documents(self, doc_ids: Iterable[int]) -> None:
        for doc_id in doc_ids:
            self.remove_document(doc_id)

    # -- segment lifecycle ---------------------------------------------------------
    def seal_delta(self) -> bool:
        """Freeze the unsealed delta into an immutable generation-0 segment.

        The staged postings (already columnar and impact-fresh after the
        refresh this forces) and the pending tombstones become one sealed
        :class:`~repro.textsearch.segments.IndexSegment`; the delta resets
        empty.  Served content is unchanged, so :attr:`update_epoch` stays
        put and no downstream cache is invalidated.  Returns whether a
        segment was sealed (False when nothing was staged).
        """
        with self._snapshot_lock:
            self._ensure_fresh()
            if not self.has_pending_updates:
                return False
            segment = self._delta_segment(self._next_segment_id)
            self._next_seq += 1
            self._next_segment_id += 1
            self._segments.append(segment)
            self._active_docs = set()
            self._active_tombstones = set()
            self._active_lists = {}
            self._unpublish()
            return True

    def _delta_segment(self, segment_id: int) -> IndexSegment:
        """The unsealed delta as a segment at the next seal sequence."""
        return IndexSegment(
            segment_id=segment_id,
            generation=0,
            seq_lo=self._next_seq,
            seq_hi=self._next_seq,
            lists=self._active_lists,
            documents=set(self._active_docs),
            tombstones=set(self._active_tombstones),
        )

    def maintain(self, *, force_seal: bool = False) -> dict:
        """One synchronous maintenance step: refresh, seal on request, merge.

        Runs the pending impact refresh, seals the unsealed delta when
        ``force_seal``, then merges the groups the policy considers due and
        plans again until none is (a merge's output may fill the next
        generation's tier) -- all under the writer lock, so pinned snapshots
        keep serving the input segments.  Returns ``{"sealed": bool,
        "merges_committed": int}``.
        """
        merges = 0
        with self._snapshot_lock:
            self._ensure_fresh()
            sealed = force_seal and self.seal_delta()
            while groups := self.merge_policy.plan(self._segments):
                for group in groups:
                    self._merge(set(group))
                merges += len(groups)
        return {"sealed": sealed, "merges_committed": merges}

    def _merge(self, ids: set[int]) -> None:
        """Replace the segments named by ``ids`` (one contiguous seal-sequence
        range) with their merge, one generation up.

        The merge folds the stored rows and recomposes nothing, so it is
        stale when any input was: a reader recomposes its runs as it would
        have the inputs' (impacts are positive, so recomposing never drops a
        row), and an incremental save records it as ``arrays_fresh: false``.
        """
        positions = [i for i, segment in enumerate(self._segments) if segment.segment_id in ids]
        chosen = [self._segments[position] for position in positions]
        older_docs = set().union(*(s.documents for s in self._segments[: positions[0]]))
        lists, documents, tombstones = merge_segment_parts(
            chosen, older_docs, self._dead_sets()[positions[-1]]
        )
        merged = IndexSegment(
            segment_id=self._next_segment_id,
            generation=max(segment.generation for segment in chosen) + 1,
            seq_lo=chosen[0].seq_lo,
            seq_hi=chosen[-1].seq_hi,
            lists=lists,
            documents=documents,
            tombstones=tombstones,
        )
        self._next_segment_id += 1
        remaining = [s for s in self._segments if s.segment_id not in ids]
        remaining.insert(positions[0], merged)
        self._segments = remaining
        if not self._stale_ids.isdisjoint(ids):
            self._stale_ids -= ids
            self._stale_ids.add(merged.segment_id)
        counters = self.update_counters
        counters.merges += 1
        counters.merge_postings_written += merged.num_postings
        counters.merge_postings_dropped += sum(s.num_postings for s in chosen) - merged.num_postings
        self._unpublish()

    def compact(self) -> bool:
        """Fold every segment, the unsealed delta and all tombstones together.

        The ordered view of each term becomes the single new **base** segment
        with every tombstoned row dropped; terms whose every posting was removed
        leave the dictionary.  The ordered reads are bit-identical before and
        after, and ``columns`` serves the same rows, so :attr:`update_epoch`
        stays put and no downstream cache is invalidated.  Compacting an
        already-compacted index is an idempotent no-op.  Returns whether the
        segments changed (False for that no-op).

        Runs under the writer lock; readers holding a pinned
        :class:`IndexSnapshot` keep serving the pre-compaction manifest
        (bit-identical content) while the fold runs, and the next
        :meth:`snapshot` call picks up the single-segment layout.
        """
        with self._snapshot_lock:
            self._ensure_fresh()
            if len(self._segments) == 1 and not self.has_pending_updates:
                return False
            # Fold current copies of the segments, then the delta as the newest
            # run: per term, the list a reader pinned right now would serve.
            segments = self._current(range(len(self._segments)))
            runs = [*segments, self._delta_segment(-1)]
            new_lists = merge_segment_parts(runs, _EMPTY, _EMPTY)[0]
            documents = set().union(*(columns.doc_ids for columns in new_lists.values()))
            seq_hi = self._next_seq
            self._next_seq += 1
            self._segments = [
                IndexSegment(
                    segment_id=self._next_segment_id,
                    generation=0,
                    seq_lo=0,
                    seq_hi=seq_hi,
                    lists=new_lists,
                    documents=documents,
                    base=True,
                )
            ]
            self._next_segment_id += 1
            self._stale_ids = set()
            self._active_docs = set()
            self._active_tombstones = set()
            self._active_lists = {}
            self._unpublish()
            self.update_counters.compactions += 1
            return True

    # -- persistence ---------------------------------------------------------------
    def save(
        self,
        path: str | Path,
        *,
        wal_compact_records: int = DEFAULT_WAL_COMPACT_RECORDS,
    ) -> dict:
        """Persist the index as a columnar segment directory.

        Seals the unsealed delta first (the format stores sealed segments
        only), then writes through
        :func:`repro.textsearch.segments.write_index_directory`.

        Parameters
        ----------
        path:
            Target directory, created if missing.  Re-saving the *same
            index instance* to the directory it last saved to (or was
            loaded from) is **incremental**: only segments sealed since the
            previous save become new blobs, and the documents added or
            removed since then a doc-terms link; persisted files are reused
            by reference, never rewritten.  A save that dies mid-write leaves
            the previous record the newest consistent one.  Every other save
            (first save, new path, a directory someone else has since
            written) is wholesale, under a fresh directory identity.  An
            index without per-document term frequencies (a :meth:`split`
            shard) always saves wholesale, to a read-only directory.
        wal_compact_records:
            Compact the manifest log once it would exceed this many records.

        Returns the write report of
        :func:`~repro.textsearch.segments.write_index_directory` (``mode``,
        ``save_seq``, segments written/reused, wal record count...), less
        its ``persist_state``.  Raises ``OSError`` for filesystem
        failures.  Takes the writer lock, so pinned snapshots stay valid;
        do not call concurrently with another ``save`` on the same instance.
        """
        want_incremental = (
            self.supports_updates
            and self._persist is not None
            and self._persist["path"] == str(Path(path).resolve())
        )
        with self._snapshot_lock:
            self.seal_delta()
            # An incremental save keeps deferred per-list rewrites deferred:
            # already-persisted blobs stay byte-identical on disk and the
            # record is marked arrays_fresh=false instead, so load re-derives
            # impacts lazily exactly as this instance would have.  A
            # wholesale save writes current copies, installed once written.
            segments = self._segments
            if not want_incremental:
                segments = self._current(range(len(segments)))
            extra = {
                "quantise_levels": self.quantise_levels,
                "block_size": self.block_size,
                "max_impact": self._max_impact,
                "next_seq": self._next_seq,
                "next_segment_id": self._next_segment_id,
                "merge_policy": (
                    {"fanout": self.merge_policy.fanout}
                    if isinstance(self.merge_policy, TieredMergePolicy)
                    else None
                ),
                "scorer": _scorer_spec(self._scorer),
                "tokenizer": _tokenizer_spec(self._tokenizer),
                # Not ``dataclasses.asdict``: that deep-copies the f_t map.
                "stats": {
                    "num_documents": self.stats.num_documents,
                    "average_document_length": self.stats.average_document_length,
                    "document_frequencies": self.stats.document_frequencies,
                },
            }
            report = write_index_directory(
                path,
                segments=segments,
                extra=extra,
                document_terms=self._forward if self.supports_updates else None,
                changed_documents=self._unsaved,
                persist_state=self._persist if want_incremental else None,
                runtime_fresh=not (want_incremental and self._stale_ids),
                wal_compact_records=wal_compact_records,
            )
            if not want_incremental:
                self._segments, self._stale_ids = segments, set()
            self._persist, self._unsaved = report.pop("persist_state"), {}
            return report

    @classmethod
    def load(
        cls,
        path: str | Path,
        *,
        mmap: bool = False,
        scorer: Scorer | None = None,
        tokenizer: Tokenizer | None = None,
        merge_policy=_MISSING,
    ) -> "InvertedIndex":
        """Restore a :meth:`save` directory.

        With ``mmap=True`` segment files are memory-mapped and each term's
        columns materialise on first access, so cold start costs manifest
        I/O plus the pages queries touch (a byte-order-mismatched platform
        falls back to eager reads with a byteswap).  Scorer, tokenizer and
        ``merge_policy`` restore from the manifest unless given here; a
        custom scorer must be passed as ``scorer=`` when the directory
        carries document terms; a custom policy class does not round-trip.

        The statistics come from the record; the doc-terms links are checked
        here and folded on the first mutation (:meth:`_forward`).

        Failures are typed: a nonexistent directory raises
        :class:`FileNotFoundError`, an unrecoverable one (a format 4-6 tree
        too: rebuild it) :class:`~repro.textsearch.segments.CorruptIndexError`.  A torn
        re-save falls back to the newest ``wal.log`` record whose frame,
        metadata and data files verify, restoring exactly what that save
        committed (audit and repair: :meth:`verify_directory` /
        :meth:`repair_directory`).

        Any number of processes may load one directory concurrently (reads
        never mutate it, and the page cache shares the mapped bytes); the
        returned index object is single-threaded like any other.
        """
        manifest, segments, chain, buffers = read_index_directory(path, use_mmap=mmap)
        if scorer is None:
            scorer = _scorer_from_spec(manifest.get("scorer"))
            if scorer is None and chain is not None:
                raise ValueError(
                    f"cannot reconstruct scorer {manifest.get('scorer')!r} from the "
                    "manifest; pass scorer= to InvertedIndex.load"
                )
        if tokenizer is None:
            tokenizer = _tokenizer_from_spec(manifest.get("tokenizer"))
        if merge_policy is _MISSING:
            policy_spec = manifest.get("merge_policy")
            merge_policy = (
                TieredMergePolicy(fanout=policy_spec["fanout"]) if policy_spec else None
            )
        index = cls.__new__(cls)
        index._install(
            segments=segments,
            stats=CorpusStatistics(**manifest["stats"]),
            quantise_levels=manifest["quantise_levels"],
            block_size=manifest["block_size"],
            chain=chain,
            scorer=scorer,
            tokenizer=tokenizer,
            max_impact=manifest["max_impact"],
            merge_policy=merge_policy,
            next_seq=manifest["next_seq"],
            next_segment_id=manifest["next_segment_id"],
            buffers=buffers,
        )
        # Adopt the directory identity so the next save() of this instance
        # back to the same path runs incrementally.
        index._persist = _persist_state(path, manifest)
        if not manifest["arrays_fresh"] and chain is not None:
            # The record was saved with deferred rewrites outstanding: the
            # blobs hold pre-update arrays, so re-derive impacts on first
            # read exactly as the saving instance would have.
            index._stale = True
        return index

    @staticmethod
    def verify_directory(path: str | Path, *, deep: bool = True) -> dict:
        """Audit a :meth:`save` tree without loading it: read-only, safe
        against a directory a live service is serving from, and corruption
        is *reported*, never raised.  The report is documented on
        :func:`repro.textsearch.segments.verify_index_directory`.
        """
        return verify_index_directory(path, deep=deep)

    @staticmethod
    def repair_directory(path: str | Path) -> dict:
        """Rewrite a damaged :meth:`save` tree's log to its newest
        fully-consistent record and delete the debris; see
        :func:`repro.textsearch.segments.repair_index_directory`.  Mutates
        the directory -- quiesce any writer or loader of the same tree first
        (``docs/operations.md``).
        """
        return repair_index_directory(path)

    # -- lazy impact refresh -------------------------------------------------------
    def _ensure_fresh(self) -> None:
        if self._stale:
            self._refresh()

    def _refresh(self) -> None:
        """Re-calibrate against the current statistics (the refresh core).

        Runs once per batch of updates, on the first read after them.  It
        pins the statistics (add/remove copy them before mutating) and a
        copy of the document factors for the snapshots it serves, computes
        the corpus factor (O(terms)) and takes the exact new
        :attr:`max_impact` from one representative per impact class
        (:class:`_ImpactClasses`; one impact each), after recomputing the
        classes of the terms whose representatives a remove took, from each
        such term's live rows (O(f_t)).  Document factors and their classes
        come from build and add, or on the first refresh after a
        :meth:`load` from the folded doc-terms chain.  Only the small
        unsealed delta's columns are composed eagerly; each sealed segment is
        *marked stale* (one id per segment), and a stale run's live rows are
        recomposed on demand by the row kernel
        (:func:`~repro.textsearch.segments.live_columns`) -- in a snapshot for
        the terms a query touches, or into a copy (:meth:`_current`) when
        :meth:`compact` or a wholesale save needs current arrays.
        """
        scorer = self._scorer
        levels = self.quantise_levels
        counters = self.update_counters
        if self._doc_factors is None:
            # First, so a chain that fails its fold leaves the index stale.
            self._doc_factors = {d: scorer.document_factor(f) for d, f in self._forward().items()}
            self._classes = _ImpactClasses(self._doc_factors.values())
            counters.documents_factored += len(self._doc_factors)
        self._stale = False
        classes = self._classes
        documents = dict(self._doc_factors)
        if classes.dirty:
            for term, doc_ids in self._live_doc_ids(classes.dirty).items():
                classes.recompute(term, map(documents.__getitem__, doc_ids))
            classes.dirty = set()
        stats = self._pinned_stats = self.stats
        corpus = scorer.corpus_factor(stats)
        max_impact = self._max_impact = scorer.max_impact(
            classes.terms, classes.keys, classes.ranks, corpus
        )
        counters.impact_classes_scanned += len(classes)
        column, factor_of = scorer.impact_column, documents.__getitem__

        def compose(doc_ids: Sequence[int], term: str) -> array:
            impacts = column(map(factor_of, doc_ids), term, corpus)
            return quantise_column(impacts, max_impact, levels)

        self._compose = compose
        self._active_lists = _compose_lists(
            scorer, ((d, documents[d]) for d in self._active_docs), corpus, max_impact, levels
        )
        self._stale_ids = {segment.segment_id for segment in self._segments if segment.lists}

    def _live_doc_ids(self, terms: Iterable[str]) -> dict[str, list[int]]:
        """The live documents of each of ``terms``: the unsealed delta's
        documents that hold it, then every sealed run's live rows."""
        live: dict[str, list[int]] = {term: [] for term in terms}
        for doc_id in self._active_docs:
            for term in self._doc_factors[doc_id][0]:
                if term in live:
                    live[term].append(doc_id)
        for segment, dead in zip(self._segments, self._dead_sets()):
            for term, doc_ids in live.items():
                if (columns := segment.lists.get(term)) is not None:
                    doc_ids += live_columns(columns, term, dead).doc_ids
        return live

    def _current(self, positions: Iterable[int]) -> list[IndexSegment]:
        """The segments at ``positions`` with their deferred rewrites applied.

        A current segment comes back as itself, a stale one as a copy under
        the same id whose lists hold only live rows, recomposed against the
        latest refresh and put in impact order: what a rebuild would hold
        now.  Each list whose live rows' quantised impacts moved is counted
        in ``lists_requantised``.

        An incremental save reuses a persisted file by segment id, so an id
        must name one content.  A copy therefore keeps its id only where the
        original can never be saved again: :meth:`compact` consumes it at
        once, and a wholesale save, which writes every blob, installs it
        only after the write.
        """
        dead, counters = self._dead_sets(), self.update_counters
        current = []
        for position in positions:
            segment = self._segments[position]
            if segment.segment_id in self._stale_ids:
                lists = {}
                for term, columns in segment.lists.items():
                    # Dead rows go first, so identity says whether recomposing moved a row.
                    live = live_columns(columns, term, dead[position])
                    fresh = live_columns(live, term, _EMPTY, self._compose)
                    counters.lists_requantised += fresh is not live
                    if (ordered := impact_order([fresh])) is not None:
                        lists[term] = ordered
                segment = dataclasses.replace(segment, lists=lists)
            current.append(segment)
        return current

    def _dead_sets(self) -> list:
        """Per-segment dead sets (see :func:`~repro.textsearch.segments.dead_sets`)."""
        if self._dead is None:
            self._dead = dead_sets(self._segments, self._active_tombstones)
        return self._dead

    # -- read API: forwards to the published snapshot ------------------------------
    # :class:`IndexSnapshot` is the one read implementation (and documents
    # each method); the live index is a writer that publishes snapshots.
    terms = _pinned("terms")
    num_terms = _pinned("num_terms")
    postings = _pinned("postings")
    columns = _pinned("columns")
    document_frequency = _pinned("document_frequency")
    iterate_lists = _pinned("iterate_lists")
    list_size_bytes = _pinned("list_size_bytes")
    list_size_blocks = _pinned("list_size_blocks")
    total_size_bytes = _pinned("total_size_bytes")
    serialise_list = _pinned("serialise_list")
    max_impact = _pinned("max_impact")

    def __contains__(self, term: str) -> bool:
        return term in self.snapshot()

    @staticmethod
    def deserialise_list(data: bytes) -> tuple[Posting, ...]:
        """Inverse of :meth:`serialise_list` (trailing zero padding is dropped)."""
        postings = []
        for offset in range(0, len(data) - len(data) % POSTING_BYTES, POSTING_BYTES):
            chunk = data[offset : offset + POSTING_BYTES]
            posting = Posting.unpack(chunk)
            if posting.doc_id == 0 and posting.quantised_impact == 0:
                # Zero padding added by the PIR database layer.  A column
                # shorter than the PIR database's tallest column is padded
                # from its very first byte, so padding must be dropped at
                # offset 0 too -- genuine postings never quantise to impact 0
                # (InvertedIndex.build discards non-positive impacts).
                continue
            postings.append(posting)
        return tuple(postings)
