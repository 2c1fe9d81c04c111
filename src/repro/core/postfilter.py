"""Client-side post filtering (Algorithm 5 of the paper).

The client decrypts the encrypted relevance score of every candidate document
returned by the server, sorts by decreasing score, and keeps the top entries.
Documents whose decrypted score is zero accumulated impacts only from decoy
terms; they are candidates purely because they share an inverted list with
some decoy, and are dropped before ranking (a zero score means "not relevant
to the genuine query" in the similarity model).

The scores decrypt as one column (:meth:`BenalohPrivateKey.decrypt_many`):
the same plaintexts, and the same counters, as one ``decrypt`` per
candidate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.server import EncryptedResult
from repro.crypto.benaloh import BenalohPrivateKey
from repro.textsearch.engine import SearchResult

__all__ = ["PostFilterCounters", "post_filter"]


@dataclass
class PostFilterCounters:
    """Client-side work performed while post filtering one result."""

    decryptions: int = 0
    candidates_received: int = 0
    candidates_with_positive_score: int = 0


def post_filter(
    result: EncryptedResult,
    private_key: BenalohPrivateKey,
    k: int | None = None,
    counters: PostFilterCounters | None = None,
) -> SearchResult:
    """Algorithm 5: decrypt, rank and truncate the candidate result set.

    Parameters
    ----------
    result:
        The server's encrypted candidate set.
    private_key:
        The client's Benaloh private key.
    k:
        Number of top documents to return; ``None`` returns the full ranking.
    counters:
        Optional instrumentation sink (decryptions performed, candidate counts).

    Documents whose genuine-term score is zero (matched decoys only) are
    dropped: the paper's ranking never surfaces them.
    """
    if k is not None and k <= 0:
        raise ValueError("k must be positive when given")
    counters = counters if counters is not None else PostFilterCounters()

    candidates = list(result)
    plaintexts = private_key.decrypt_many([ciphertext for _, ciphertext in candidates])
    counters.decryptions += len(plaintexts)
    scores = {doc_id: score for (doc_id, _), score in zip(candidates, plaintexts)}
    counters.candidates_received = len(scores)

    scores = {doc_id: score for doc_id, score in scores.items() if score > 0}
    counters.candidates_with_positive_score = len(scores)

    ranking = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    if k is not None:
        ranking = ranking[:k]
    return SearchResult(ranking=tuple((doc_id, float(score)) for doc_id, score in ranking))
