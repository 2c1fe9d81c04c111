"""Similarity scoring functions (Appendix B.2).

Two scorers are provided:

* :class:`CosineScorer` -- the pivoted cosine formulation the paper gives as
  Equation 3/4:

  .. math::

     w_t = \\ln(1 + N / f_t), \\qquad
     w_{d,t} = 1 + \\ln(f_{d,t}), \\qquad
     W_d = \\sqrt{\\sum_{t \\in d} w_{d,t}^2}

  and the *impact* of term ``t`` in document ``d`` is
  ``p_{d,t} = w_{d,t} * w_t / W_d``, so a query's score is simply the sum of
  the impacts of its terms (Section 2.2).

* :class:`BM25Scorer` -- Okapi BM25, which the paper cites as another
  well-known scoring function its scheme applies to equally.  Including it
  lets the Claim-1 tests show ranking preservation is scorer-agnostic.

Both scorers implement the same **factored** interface (:class:`Scorer`).  An
impact splits into a *document factor*, which depends only on the document
(cosine: the ``w_{d,t}`` and ``W_d``; BM25: the frequencies and the length),
and a *corpus factor*, which depends only on the corpus statistics (cosine:
``w_t`` per term; BM25: idf per term and the average length).  The inverted
index keeps each document's factor from the moment the document is added and
recomputes only the corpus factor when ``N`` or a document frequency moves,
so an update never re-derives the impacts of the documents it did not touch.
Every impact, wherever it is computed, is the same composition of the two
factors -- the same float operations in the same order -- which is what keeps
an updated index bit-identical to a rebuild.  A document factor is a pair of
per-term keys and one rank, which groups a term's documents into *impact
classes* whose largest impact their member of smallest rank attains
(:class:`Scorer`): the exact ``max_impact`` is read from one representative
per class, never from every posting.  The index discretises the
impacts (the footnote to Algorithm 4 requires integer impacts for the
homomorphic exponentiation).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from operator import mul, truediv
from typing import Any, Callable, Iterable, Mapping, Protocol, Sequence

__all__ = ["CorpusStatistics", "Scorer", "CosineScorer", "BM25Scorer"]


@dataclass(frozen=True)
class CorpusStatistics:
    """Global statistics a scorer needs: N, document frequencies and lengths."""

    num_documents: int
    document_frequencies: Mapping[str, int]
    average_document_length: float

    def document_frequency(self, term: str) -> int:
        return self.document_frequencies.get(term, 0)

    @classmethod
    def of_documents(cls, document_terms: Mapping[int, Mapping[str, int]]) -> "CorpusStatistics":
        """The statistics of a corpus given as per-document term frequencies
        (what a build computes, and what a loaded chain's fold must give)."""
        document_frequencies: Counter[str] = Counter()
        total_length = 0
        for frequencies in document_terms.values():
            total_length += sum(frequencies.values())
            document_frequencies.update(frequencies.keys())  # counts each term once
        return cls(
            num_documents=len(document_terms),
            document_frequencies=dict(document_frequencies),
            average_document_length=total_length / max(len(document_terms), 1),
        )


class Scorer(Protocol):
    """Interface implemented by every scoring function.

    ``p_{d,t} = impact(document_factor(d), t, corpus_factor(stats))``.
    Factors are opaque to the index and never mutated once returned, except
    that a document factor is a pair ``(keys, rank)``: ``keys`` maps each
    term of the document to a per-term *key* and ``rank`` is one number for
    the whole document (cosine: ``({t: w_{d,t}}, W_d)``; BM25: ``({t:
    f_{d,t}}, |d|)``), both real and held as doubles by the index.

    **Impact classes.**  ``p_{d,t}`` depends on ``d`` only through the key
    ``keys[t]`` and the rank, and does not increase as the rank grows.  So
    the documents sharing a term ``t`` and a key ``k`` form one *impact
    class*: every member's impact is the same chain of IEEE operations
    applied to its rank alone, and each operation is monotone (cosine's
    ``fl(fl(k w_t) / W_d)`` does not increase as ``W_d`` grows; BM25's
    denominator ``f + k1 (1 - b + b |d| / avgdl)`` does not decrease as
    ``|d|`` grows).  The member of smallest rank -- the class's
    *representative* -- therefore attains the class maximum bit for bit, and
    the largest impact in the corpus is the largest over the representatives
    (:meth:`max_impact`).
    """

    def document_factor(
        self, term_frequencies: Mapping[str, int]
    ) -> tuple[Mapping[str, Any], Any]:
        """``(keys, rank)``: the part of every ``p_{d,t}`` of one document
        that depends only on it."""
        ...

    def corpus_factor(self, stats: CorpusStatistics) -> Any:
        """The part of every impact that depends only on the statistics."""
        ...

    def impacts(self, document: Any, corpus: Any) -> dict[str, float]:
        """Impact value of every term of one document (``p_{d,t}``)."""
        ...

    def impact(self, document: Any, term: str, corpus: Any) -> float:
        """One ``p_{d,t}`` (``0.0`` when ``t`` is not in the document)."""
        ...

    def impact_column(self, documents: Iterable[Any], term: str, corpus: Any) -> list[float]:
        """``[impact(d, term, corpus) for d in documents]``, bit for bit: one
        term's impacts over many documents, with the per-term work done once."""
        ...

    def max_impact(
        self, terms: Sequence[str], keys: Sequence[float], ranks: Sequence[float], corpus: Any
    ) -> float:
        """The largest impact of the class representatives given as parallel
        ``(term, key, rank)`` columns -- by the impact-class argument above,
        bit-identical to the largest value :meth:`impacts` returns for any
        live document (``0.0`` when there is none).  Every ``term`` has a
        positive document frequency in the statistics ``corpus`` came from.
        """
        ...


class _Factored:
    """The one-call form of a factored scorer."""

    def document_impacts(
        self, term_frequencies: Mapping[str, int], stats: CorpusStatistics
    ) -> dict[str, float]:
        """Impact value of every term of one document, straight from its
        frequencies (the corpus factor is computed for its terms only)."""
        return self.impacts(
            self.document_factor(term_frequencies),
            self.corpus_factor(stats, term_frequencies),
        )


def _per_term(
    stats: CorpusStatistics, terms: Iterable[str] | None, weight: Callable[[int], float]
) -> dict[str, float]:
    """``{t: weight(f_t)}`` for every term with ``f_t > 0`` (of ``terms`` if
    given).  One ``weight`` call per distinct document frequency: most terms
    share a handful of small ``f_t`` values."""
    if terms is None:
        frequencies = stats.document_frequencies
    else:
        frequencies = {term: stats.document_frequency(term) for term in terms}
    by_frequency = {df: weight(df) for df in set(frequencies.values()) if df > 0}
    return {term: by_frequency[df] for term, df in frequencies.items() if df > 0}


@dataclass(frozen=True)
class CosineScorer(_Factored):
    """The Equation-3 cosine weighting scheme (the paper's default)."""

    def document_factor(
        self, term_frequencies: Mapping[str, int]
    ) -> tuple[dict[str, float], float]:
        """``({t: w_{d,t}}, W_d)``."""
        weights = {
            term: 1.0 + math.log(freq) for term, freq in term_frequencies.items() if freq > 0
        }
        return weights, math.sqrt(sum(weight * weight for weight in weights.values()))

    def corpus_factor(
        self, stats: CorpusStatistics, terms: Iterable[str] | None = None
    ) -> dict[str, float]:
        """``{t: w_t}`` for every term with ``f_t > 0`` (of ``terms`` if given)."""
        num_documents = stats.num_documents
        return _per_term(stats, terms, lambda df: math.log(1.0 + num_documents / df))

    def impacts(
        self, document: tuple[dict[str, float], float], corpus: Mapping[str, float]
    ) -> dict[str, float]:
        weights, norm = document
        if norm == 0.0:
            return dict.fromkeys(weights, 0.0)
        impacts: dict[str, float] = {}
        for term, doc_weight in weights.items():
            term_weight = corpus.get(term)
            impacts[term] = 0.0 if term_weight is None else doc_weight * term_weight / norm
        return impacts

    def impact(
        self, document: tuple[dict[str, float], float], term: str, corpus: Mapping[str, float]
    ) -> float:
        weights, norm = document
        doc_weight, term_weight = weights.get(term), corpus.get(term)
        if doc_weight is None or term_weight is None or norm == 0.0:
            return 0.0
        return doc_weight * term_weight / norm

    def impact_column(
        self,
        documents: Iterable[tuple[dict[str, float], float]],
        term: str,
        corpus: Mapping[str, float],
    ) -> list[float]:
        term_weight = corpus.get(term)
        if term_weight is None:
            return [0.0 for _ in documents]
        return [
            0.0 if (doc_weight := weights.get(term)) is None or norm == 0.0
            else doc_weight * term_weight / norm
            for weights, norm in documents
        ]

    def max_impact(
        self,
        terms: Sequence[str],
        keys: Sequence[float],
        ranks: Sequence[float],
        corpus: Mapping[str, float],
    ) -> float:
        """``fl(fl(w_{d,t} w_t) / W_d)`` per representative, in one C-level chain."""
        return max(map(truediv, map(mul, keys, map(corpus.__getitem__, terms)), ranks), default=0.0)


@dataclass(frozen=True)
class BM25Scorer(_Factored):
    """Okapi BM25 impacts with the usual parameterisation.

    Parameters
    ----------
    k1:
        Term-frequency saturation (1.2 is the classic Okapi value).
    b:
        Document-length normalisation strength.

    Both must be non-negative, so that an impact does not grow with ``|d|``
    (the impact-class argument of :class:`Scorer`).
    """

    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self) -> None:
        if not (self.k1 >= 0.0 and self.b >= 0.0):
            raise ValueError(f"BM25 needs k1 >= 0 and b >= 0, got k1={self.k1}, b={self.b}")

    def document_factor(
        self, term_frequencies: Mapping[str, int]
    ) -> tuple[Mapping[str, int], int]:
        """``({t: f_{d,t}}, |d|)`` -- the frequencies themselves, shared."""
        return term_frequencies, sum(term_frequencies.values())

    def corpus_factor(
        self, stats: CorpusStatistics, terms: Iterable[str] | None = None
    ) -> tuple[dict[str, float], float]:
        """``({t: idf_t}, avgdl)`` for every term with ``f_t > 0`` (of ``terms``)."""
        num_documents = stats.num_documents
        idf = _per_term(
            stats, terms, lambda df: math.log(1.0 + (num_documents - df + 0.5) / (df + 0.5))
        )
        return idf, max(stats.average_document_length, 1e-9)

    def _length_norm(self, doc_length: int, avg_length: float) -> float:
        return self.k1 * (1.0 - self.b + self.b * doc_length / avg_length)

    def _compose(self, idf: float | None, freq: int, length_norm: float) -> float:
        if idf is None or freq <= 0:
            return 0.0
        return idf * freq * (self.k1 + 1.0) / (freq + length_norm)

    def impacts(
        self, document: tuple[Mapping[str, int], int], corpus: tuple[dict[str, float], float]
    ) -> dict[str, float]:
        frequencies, doc_length = document
        idf, avg_length = corpus
        length_norm = self._length_norm(doc_length, avg_length)
        return {
            term: self._compose(idf.get(term), freq, length_norm)
            for term, freq in frequencies.items()
        }

    def impact(
        self,
        document: tuple[Mapping[str, int], int],
        term: str,
        corpus: tuple[dict[str, float], float],
    ) -> float:
        frequencies, doc_length = document
        idf, avg_length = corpus
        return self._compose(
            idf.get(term), frequencies.get(term, 0), self._length_norm(doc_length, avg_length)
        )

    def impact_column(
        self,
        documents: Iterable[tuple[Mapping[str, int], int]],
        term: str,
        corpus: tuple[dict[str, float], float],
    ) -> list[float]:
        """:meth:`_compose` and :meth:`_length_norm` inlined, operation for operation."""
        idf, avg_length = corpus
        term_idf = idf.get(term)
        if term_idf is None:
            return [0.0 for _ in documents]
        k1, b, scale = self.k1, self.b, self.k1 + 1.0
        return [
            0.0 if (freq := frequencies.get(term, 0)) <= 0
            else term_idf * freq * scale / (freq + k1 * (1.0 - b + b * doc_length / avg_length))
            for frequencies, doc_length in documents
        ]

    def max_impact(
        self,
        terms: Sequence[str],
        keys: Sequence[float],
        ranks: Sequence[float],
        corpus: tuple[dict[str, float], float],
    ) -> float:
        """:meth:`_compose` per representative (``f_{d,t}`` and ``|d|`` as
        doubles, which changes no operation's result)."""
        idf, avg_length = corpus
        return max(
            (
                self._compose(idf[term], freq, self._length_norm(length, avg_length))
                for term, freq, length in zip(terms, keys, ranks)
            ),
            default=0.0,
        )
