"""Per-term, per-run and per-token reference implementations of the index's
row kernels, and the scan its ``max_impact`` replaced.

Each function here is the straightforward loop that a row-at-once kernel in
``repro.textsearch`` replaced: the merge that orders each term on its own,
the read that recomposes each stale run on its own, the delta build that
sorts each term's rows on its own, the tokenizer that filters one token
at a time, and the max over every posting's impact that the impact-class
representatives (``representatives``) replaced.  The suites check the
kernels against them, output for output and order for order.
"""

from __future__ import annotations

import math
import re
from array import array
from collections import defaultdict
from itertools import compress, repeat
from typing import AbstractSet, Iterator, Sequence

from repro.textsearch.segments import (
    IndexSegment,
    PostingColumns,
    dead_sets,
    impact_order,
    live_columns,
    quantise_column,
)
from repro.textsearch.tokenizer import Tokenizer

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+(?:'[a-z0-9]+)?")


def merge_segment_parts(
    segments: Sequence[IndexSegment],
    older_docs: AbstractSet[int],
    external_dead: AbstractSet[int],
) -> tuple[dict[str, PostingColumns], set[int], set[int]]:
    """``segments.merge_segment_parts``, one term at a time: each term's
    runs minus their dead rows, put in ``impact_order``."""
    dead_for = dead_sets(segments, external_dead)
    merged_lists: dict[str, PostingColumns] = {}
    for term in dict.fromkeys(term for segment in segments for term in segment.lists):
        merged = impact_order(
            live_columns(columns, term, dead)
            for segment, dead in zip(segments, dead_for)
            if (columns := segment.lists.get(term)) is not None
        )
        if merged is not None:
            merged_lists[term] = merged
    documents: set[int] = set()
    for segment, dead in zip(segments, dead_for):
        documents.update(doc for doc in segment.documents if doc not in dead)
    tombstones = {
        doc for segment in segments for doc in segment.tombstones if doc in older_docs
    }
    return merged_lists, documents, tombstones


def columns(snapshot, term: str) -> tuple[array, array]:
    """``IndexSnapshot.columns`` without its memo, one run at a time: each
    run's live rows, a stale run's quants recomposed on their own."""
    parts = [
        part
        for lists, compose, dead in snapshot._records
        if (run := lists.get(term)) is not None
        and (part := live_columns(run, term, dead, compose)).doc_ids
    ]
    if len(parts) == 1:
        return parts[0].doc_ids, parts[0].quants
    rows = array("I"), array("I")
    for part in parts:
        rows[0].extend(part.doc_ids)
        rows[1].extend(part.quants)
    return rows


def compose_lists(scorer, factors, corpus, max_impact: float, levels: int) -> dict:
    """``inverted_index._compose_lists``, one term at a time: the rows are
    grouped per term and each group is sorted on its own."""
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
    rows: defaultdict[str, list[tuple[int, int]]] = defaultdict(list)
    for term, row in zip(terms, zip(map(levels.__sub__, quants), doc_ids)):
        rows[term].append(row)
    lists = {}
    for term, entries in rows.items():
        entries.sort()
        lists[term] = PostingColumns(
            array("I", [doc_id for _, doc_id in entries]),
            array("I", [levels - rank for rank, _ in entries]),
        )
    return lists


def scan_max_impact(scorer, factors, corpus) -> float:
    """The oracle of ``Scorer.max_impact``: the largest composed impact of
    every posting of ``factors`` (``0.0`` when none is positive)."""
    return max([0.0, *(value for f in factors for value in scorer.impacts(f, corpus).values())])


def representatives(factors, known) -> tuple[list, list, list]:
    """The ``(terms, keys, ranks)`` columns ``max_impact`` takes: per impact
    class ``(term, key)`` of a ``known`` term, the smallest rank."""
    best: dict = {}
    for keys, rank in factors:
        for term, key in keys.items():
            if term in known and rank < best.get((term, key), math.inf):
                best[term, key] = rank
    return [t for t, _ in best], [k for _, k in best], list(best.values())


def tokenize(tokenizer: Tokenizer, text: str) -> list[str]:
    """``Tokenizer.tokenize``, one whitespace chunk and one token at a time."""
    lowered = text.lower()
    if tokenizer.keep_phrases:
        tokens: list[str] = []
        for chunk in lowered.split():
            if "_" in chunk:
                cleaned = chunk.strip("_,.;:!?()[]\"'")
                if cleaned and cleaned not in tokenizer.stopwords:
                    tokens.append(cleaned.replace("_", " "))
            else:
                tokens.extend(_split_plain(tokenizer, chunk))
        return tokens
    return list(_split_plain(tokenizer, lowered))


def _split_plain(tokenizer: Tokenizer, text: str) -> Iterator[str]:
    for match in _TOKEN_PATTERN.finditer(text):
        token = match.group(0)
        if len(token) < tokenizer.min_token_length:
            continue
        if token in tokenizer.stopwords:
            continue
        yield token


def term_frequencies(tokenizer: Tokenizer, text: str) -> dict[str, int]:
    """``Tokenizer.term_frequencies``, counting one token at a time."""
    counts: dict[str, int] = {}
    for token in tokenize(tokenizer, text):
        counts[token] = counts.get(token, 0) + 1
    return counts
