"""Query evaluation: the similarity engine (Figure 10) and the Boolean baseline.

:class:`SearchEngine` implements the accumulator algorithm over the
impact-ordered inverted index: pop the highest remaining quantised impact
across the query terms' lists, accumulate per-document scores, and return the
top-k documents.  The repo runs Figure 10 without a stopping rule: the loop
scans every posting of every query term, so ``top_k(q, k)`` always equals
``rank_all(q)[:k]`` (the scores are exact integer sums, so the pop order
cannot change them).  A plain "score everything" path is also provided as
ground truth for tests.

:class:`BooleanSearchEngine` implements the Boolean model of Appendix B.1 --
documents either satisfy the query expression or they do not, with no ranking
-- so examples and docs can demonstrate why the paper insists on supporting
similarity retrieval rather than falling back to encrypted Boolean matching.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.textsearch.inverted_index import InvertedIndex

__all__ = ["SearchResult", "SearchEngine", "BooleanSearchEngine"]


@dataclass(frozen=True)
class SearchResult:
    """A ranked query result: ``(doc_id, score)`` pairs in decreasing score order."""

    ranking: tuple[tuple[int, float], ...]

    @property
    def doc_ids(self) -> tuple[int, ...]:
        return tuple(doc_id for doc_id, _ in self.ranking)

    @property
    def scores(self) -> tuple[float, ...]:
        return tuple(score for _, score in self.ranking)

    def __len__(self) -> int:
        return len(self.ranking)

    def __iter__(self):
        return iter(self.ranking)


@dataclass
class SearchEngine:
    """Similarity retrieval over an :class:`~repro.textsearch.inverted_index.InvertedIndex`.

    Parameters
    ----------
    index:
        The inverted index to query.

    Scores accumulate the discretised integer impacts -- the same values the
    private retrieval scheme operates on -- so the plaintext engine and the
    PR scheme are directly comparable.
    """

    index: InvertedIndex
    #: Instrumentation: number of posting entries touched by the last query.
    postings_scanned: int = field(default=0, init=False)

    def score_all(self, query_terms: Sequence[str]) -> dict[int, float]:
        """Accumulate the relevance score of every candidate document.

        ``S_{d,q} = sum_{t in q} p_{d,t}`` -- only documents present in at
        least one query term's inverted list can receive a positive score.
        Duplicate query terms are counted once, as in the paper's set-of-terms
        query model.
        """
        accumulators: dict[int, float] = {}
        self.postings_scanned = 0
        for _, postings in self.index.iterate_lists(dict.fromkeys(query_terms)):
            for posting in postings:
                self.postings_scanned += 1
                accumulators[posting.doc_id] = accumulators.get(posting.doc_id, 0.0) + posting.quantised_impact
        return accumulators

    def top_k(self, query_terms: Sequence[str], k: int = 20) -> SearchResult:
        """Return the ``k`` highest-scoring documents using the Figure-10 algorithm.

        The algorithm fetches the first entry of each query term's list, then
        repeatedly pops the globally highest impact, accumulates it, and
        advances that list -- the impact-ordered evaluation from Zobel &
        Moffat that the paper adopts.  No stopping rule ends the scan early:
        every posting is accumulated, so the result equals
        ``rank_all(query_terms)[:k]``.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        lists = [postings for _, postings in self.index.iterate_lists(dict.fromkeys(query_terms))]
        accumulators: dict[int, float] = {}
        self.postings_scanned = 0

        # Heap of (-impact, list index, position) so the highest impact pops first.
        heap: list[tuple[float, int, int]] = []
        for list_index, postings in enumerate(lists):
            if postings:
                heap.append((-float(postings[0].quantised_impact), list_index, 0))
        heapq.heapify(heap)

        while heap:
            negative_impact, list_index, position = heapq.heappop(heap)
            posting = lists[list_index][position]
            self.postings_scanned += 1
            accumulators[posting.doc_id] = accumulators.get(posting.doc_id, 0.0) - negative_impact
            next_position = position + 1
            if next_position < len(lists[list_index]):
                next_posting = lists[list_index][next_position]
                heapq.heappush(
                    heap, (-float(next_posting.quantised_impact), list_index, next_position)
                )

        ranking = sorted(accumulators.items(), key=lambda item: (-item[1], item[0]))[:k]
        return SearchResult(ranking=tuple(ranking))

    def rank_all(self, query_terms: Sequence[str]) -> SearchResult:
        """Full ranking of every candidate document (top-k with k = number of candidates)."""
        accumulators = self.score_all(query_terms)
        ranking = sorted(accumulators.items(), key=lambda item: (-item[1], item[0]))
        return SearchResult(ranking=tuple(ranking))


@dataclass
class BooleanSearchEngine:
    """Boolean keyword matching (Appendix B.1): no scores, no ranking.

    A query is a list of conjuncts (each a list of terms); a document matches
    when it contains every term of at least one conjunct -- i.e. the query is
    in disjunctive normal form.
    """

    index: InvertedIndex

    def _documents_containing(self, term: str) -> set[int]:
        return {posting.doc_id for posting in self.index.postings(term)}

    def match_conjunct(self, terms: Iterable[str]) -> set[int]:
        """Documents containing *all* of ``terms`` (empty set for an empty conjunct)."""
        terms = list(terms)
        if not terms:
            return set()
        result = self._documents_containing(terms[0])
        for term in terms[1:]:
            if not result:
                break
            result &= self._documents_containing(term)
        return result

    def match(self, dnf_query: Sequence[Sequence[str]]) -> set[int]:
        """Documents satisfying a disjunction of conjuncts (Appendix B.1 semantics)."""
        matched: set[int] = set()
        for conjunct in dnf_query:
            matched |= self.match_conjunct(conjunct)
        return matched
