"""Query workload generators for the experiments.

The paper's retrieval workload "forms queries from the search terms randomly",
with the query size as an experiment parameter, and its privacy analysis
additionally reasons about topical queries (semantically related terms) and
sessions with recurring high-specificity terms.  This module generates all
three kinds from an indexed corpus and a lexicon-backed bucket organisation,
deterministically under a seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.session import QuerySession
from repro.textsearch.inverted_index import InvertedIndex

__all__ = ["QueryWorkloadGenerator"]


@dataclass
class QueryWorkloadGenerator:
    """Draws query workloads from an index's searchable dictionary.

    Parameters
    ----------
    index:
        Queries are composed of terms that actually occur in the corpus (the
        paper intersects Lucene's dictionary with WordNet for the same
        reason: only searchable terms make meaningful queries).
    seed:
        Seed for the internal generator; a given generator instance produces
        a reproducible stream of workloads.
    """

    index: InvertedIndex
    seed: int = 2010
    rng: random.Random = field(init=False)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)
        self._terms = list(self.index.terms)
        if not self._terms:
            raise ValueError("the index has no searchable terms")

    # -- random queries (the Section 5.2 workload) ---------------------------------
    def random_query(self, query_size: int) -> tuple[str, ...]:
        """A query of ``query_size`` distinct terms drawn uniformly from the dictionary."""
        if query_size < 1:
            raise ValueError("query_size must be at least 1")
        size = min(query_size, len(self._terms))
        return tuple(self.rng.sample(self._terms, k=size))

    def random_queries(self, count: int, query_size: int) -> list[tuple[str, ...]]:
        """``count`` independent random queries of the same size."""
        return [self.random_query(query_size) for _ in range(count)]

    def frequency_weighted_query(self, query_size: int) -> tuple[str, ...]:
        """A query of distinct terms drawn proportionally to document frequency.

        Real query logs are dominated by common words, so the server spends
        its time on the longest inverted lists; this workload exercises that
        regime (uniform sampling over the dictionary almost always picks rare
        terms).  Sampling is with replacement followed by de-duplication, so
        the draw stays Zipf-like while the query remains a term set.
        """
        if query_size < 1:
            raise ValueError("query_size must be at least 1")
        weights = getattr(self, "_df_weights", None)
        if weights is None:
            weights = [self.index.document_frequency(t) or 1 for t in self._terms]
            self._df_weights = weights
        size = min(query_size, len(self._terms))
        chosen: dict[str, None] = {}
        while len(chosen) < size:
            for term in self.rng.choices(self._terms, weights=weights, k=size - len(chosen)):
                chosen.setdefault(term, None)
        return tuple(chosen)

    # -- topical queries (semantically related terms) -----------------------------------
    def topical_query(self, query_size: int, window: int = 30) -> tuple[str, ...]:
        """A query of terms drawn from a contiguous dictionary window.

        Terms close together in the index's term ordering were emitted from
        nearby synsets by the corpus generator, so they are semantically
        related -- the "accelerated radiation therapy" pattern of the paper's
        introduction.
        """
        if query_size < 1:
            raise ValueError("query_size must be at least 1")
        window = max(window, query_size)
        start = self.rng.randrange(max(1, len(self._terms) - window))
        pool = self._terms[start : start + window]
        return tuple(self.rng.sample(pool, k=min(query_size, len(pool))))

    # -- long (expansion-style) queries ---------------------------------------------------
    def expanded_query(self, base_size: int, expansion_terms: int, window: int = 60) -> tuple[str, ...]:
        """A TREC/query-expansion style long query: a topical core plus related expansion terms."""
        core = self.topical_query(base_size, window=window)
        expansion = self.topical_query(expansion_terms, window=window)
        combined = list(dict.fromkeys(core + expansion))
        return tuple(combined)

    # -- sessions ---------------------------------------------------------------------------
    def session(
        self,
        num_queries: int,
        terms_per_query: int,
        num_focus_terms: int = 1,
        min_focus_df: int = 1,
    ) -> QuerySession:
        """A session that keeps re-using a few focus terms (the recurring-term pattern).

        ``min_focus_df`` restricts the focus terms to those with at least that
        document frequency, so the session's recurring terms are guaranteed to
        retrieve something.
        """
        candidates = [t for t in self._terms if self.index.document_frequency(t) >= min_focus_df]
        if len(candidates) < num_focus_terms:
            candidates = self._terms
        focus = self.rng.sample(candidates, k=num_focus_terms)
        others = [t for t in self._terms if t not in focus]
        return QuerySession.topical(
            focus_terms=focus,
            other_terms=others,
            num_queries=num_queries,
            terms_per_query=terms_per_query,
            rng=self.rng,
        )

    # -- bookkeeping ---------------------------------------------------------------------------
    @property
    def dictionary(self) -> Sequence[str]:
        """The searchable dictionary the workloads draw from."""
        return tuple(self._terms)
