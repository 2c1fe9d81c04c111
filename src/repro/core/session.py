"""Search-session modelling (the recurring high-specificity-term threat).

Section 1 of the paper motivates a second privacy risk: within a session, a
user issues several related queries that share specific keywords (e.g.
"osteosarcoma symptoms" followed by "osteosarcoma therapy").  A term that
recurs across queries is unlikely to be a decoy picked repeatedly by chance --
unless, as the bucket design guarantees, the recurring genuine term always
drags the *same* bucket along, so its equally specific decoys recur with it.

:class:`QuerySession` represents such a sequence of queries, and
:func:`session_intersection` performs the adversary's natural attack --
intersecting the embellished queries of a session -- so experiments can check
how many equally plausible high-specificity candidates survive.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.buckets import BucketOrganization

__all__ = ["QuerySession", "session_intersection", "recurring_term_candidates"]


@dataclass(frozen=True)
class QuerySession:
    """A user's search session: an ordered sequence of genuine-term queries."""

    queries: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not self.queries:
            raise ValueError("a session must contain at least one query")

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    @property
    def recurring_terms(self) -> tuple[str, ...]:
        """Genuine terms that appear in more than one query of the session."""
        seen: dict[str, int] = {}
        for query in self.queries:
            for term in set(query):
                seen[term] = seen.get(term, 0) + 1
        return tuple(term for term, count in seen.items() if count > 1)

    def selector_budget(self, organization: BucketOrganization) -> int:
        """Number of selector ciphertexts embellishing the whole session takes.

        Mirrors :meth:`repro.core.embellish.QueryEmbellisher.embellish`
        exactly: per query, each genuine term's bucket contributes one
        selector per bucket term (a bucket shared by two genuine terms is
        counted once), and out-of-dictionary terms contribute one selector
        each.  The batch API uses this to pre-stock the zero-encryption pool
        in one amortised replenishment instead of refilling mid-session.
        """
        return sum(self.selector_budgets(organization))

    def selector_budgets(self, organization: BucketOrganization) -> tuple[int, ...]:
        """Per-query selector ciphertext counts, in session order.

        The per-query breakdown of :meth:`selector_budget`: entry ``i`` is
        exactly how many selectors (= pool draws) embellishing query ``i``
        consumes, so ``sum(selector_budgets(...))`` is the session total the
        batch API pre-stocks.
        """
        budgets = []
        for query in self.queries:
            terms = tuple(dict.fromkeys(query))
            buckets = organization.buckets_for_query(terms).values()
            loose = sum(1 for term in terms if term not in organization)
            budgets.append(sum(map(len, buckets)) + loose)
        return tuple(budgets)

    @classmethod
    def topical(
        cls,
        focus_terms: Sequence[str],
        other_terms: Sequence[str],
        num_queries: int,
        terms_per_query: int,
        rng: random.Random | None = None,
    ) -> "QuerySession":
        """Generate a session that keeps re-using ``focus_terms`` (the osteosarcoma pattern).

        Every query contains all the focus terms plus random filler from
        ``other_terms``, which is how a user drilling into one topic behaves.
        """
        if terms_per_query < len(focus_terms):
            raise ValueError("terms_per_query must be at least the number of focus terms")
        rng = rng or random.Random()
        queries = []
        filler_count = terms_per_query - len(focus_terms)
        for _ in range(num_queries):
            filler = rng.sample(list(other_terms), k=min(filler_count, len(other_terms)))
            queries.append(tuple(focus_terms) + tuple(filler))
        return cls(queries=tuple(queries))


def session_intersection(
    session: QuerySession, organization: BucketOrganization
) -> set[str]:
    """The adversary's view: intersect the *embellished* term sets of every query.

    Without decoys the intersection collapses to the recurring genuine terms.
    With bucket embellishment, each recurring genuine term contributes its
    whole bucket to every query, so the intersection contains the full bucket
    -- a set of equally specific, semantically diverse alternatives.
    """
    embellished_sets = []
    for query in session:
        terms: set[str] = set()
        for term in query:
            if term in organization:
                terms.update(organization.bucket_of(term))
            else:
                terms.add(term)
        embellished_sets.append(terms)
    intersection = embellished_sets[0]
    for term_set in embellished_sets[1:]:
        intersection &= term_set
    return intersection


def recurring_term_candidates(
    session: QuerySession,
    organization: BucketOrganization,
    specificity: Mapping[str, int],
    min_specificity: int = 0,
) -> dict[str, int]:
    """High-specificity terms the adversary sees recurring, with their specificity.

    This is the quantity the recurring-term attack reasons about: every term
    in the intersection of the embellished session whose specificity is at
    least ``min_specificity``.  A successful defence leaves many candidates of
    comparable specificity (the genuine term is hidden among its bucket
    mates); a failed defence leaves essentially one.
    """
    candidates = session_intersection(session, organization)
    return {
        term: specificity.get(term, 0)
        for term in candidates
        if specificity.get(term, 0) >= min_specificity
    }
