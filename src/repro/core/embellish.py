"""Query embellishment (Algorithm 3 of the paper).

The client software replaces each genuine search term with its *entire
bucket*: the genuine term is tagged with a Benaloh encryption of 1, every
other term of the bucket with an encryption of 0.  Because the encryption is
probabilistic, the server cannot distinguish the two.  Finally the
``<term, ciphertext>`` pairs are permuted randomly, so the logical grouping of
the embellished query into buckets (and in particular which terms arrived
together) is not betrayed by the transmission order.

Two selector-encryption paths exist:

* the **naive reference path** (``naive=True``) performs one full Benaloh
  encryption (two modular exponentiations) per selector, and
* the **fast path** (the default) serves selectors from a
  :class:`~repro.crypto.benaloh.ZeroEncryptionPool`, a precomputed one-time
  stock of encryptions of zero: a decoy selector is a stock entry served
  as-is and a genuine selector adds one multiplication by the precomputed
  ``g^1``, so the query-time critical path performs no exponentiations
  (restocking runs off-path, as idle-time precomputation would in a deployed
  client).  Served ciphertexts are independent fresh encryptions, so the
  distribution the server sees is identical to the naive path's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.buckets import BucketOrganization
from repro.crypto.benaloh import (
    BenalohKeyPair,
    BenalohPublicKey,
    ZeroEncryptionPool,
    generate_keypair,
)

__all__ = ["EmbellishedQuery", "QueryEmbellisher"]

#: Initial stock of the fast path's zero pool (full encryptions, precomputed
#: off the query path and replenished in batches of the same size).
DEFAULT_POOL_SIZE = 64


@dataclass(frozen=True)
class EmbellishedQuery:
    """What the search engine receives: permuted ``<term, E(u)>`` pairs.

    ``encrypted_selectors[i]`` is the Benaloh encryption of 1 when
    ``terms[i]`` is genuine and of 0 when it is a decoy.  The server cannot
    tell which is which; the pairing is only meaningful to the client.
    """

    terms: tuple[str, ...]
    encrypted_selectors: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.terms) != len(self.encrypted_selectors):
            raise ValueError("terms and encrypted selectors must align one-to-one")

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self):
        return iter(zip(self.terms, self.encrypted_selectors))

    def upstream_bytes(self, key_bits: int) -> int:
        """Size of the query on the wire: one 8-byte term id + one ciphertext per entry."""
        ciphertext_bytes = (key_bits + 7) // 8
        return len(self.terms) * (8 + ciphertext_bytes)


@dataclass
class QueryEmbellisher:
    """Client-side query formulation (Algorithm 3).

    Parameters
    ----------
    organization:
        The bucket organisation shared between client and server.  (The
        organisation is not secret -- the server must co-locate each bucket's
        inverted lists -- only the selector bits are.)
    keypair:
        The client's Benaloh key pair.  A fresh one is generated when omitted.
    rng:
        Drives both the probabilistic encryption and the final permutation.
    strict:
        When True, genuine terms that are missing from the bucket
        organisation raise ``KeyError``.  When False (the default) they are
        included in the query *without decoys* -- mirroring what a deployed
        client has to do for out-of-dictionary terms -- and reported in
        :attr:`last_unbucketed_terms` so callers can surface the reduced
        protection.
    naive:
        When True, every selector is a full Benaloh encryption (the reference
        path).  When False (the default) selectors come from the one-time
        zero stock at zero or one query-time multiplication each.
    pool_size:
        Initial stock (and replenishment batch) of the fast path's zero pool.
    """

    organization: BucketOrganization
    keypair: BenalohKeyPair | None = None
    rng: random.Random = field(default_factory=random.Random)
    strict: bool = False
    naive: bool = False
    pool_size: int = DEFAULT_POOL_SIZE
    last_unbucketed_terms: tuple[str, ...] = field(default=(), init=False)
    #: Instrumentation: number of selector ciphertexts produced by the last call.
    encryptions_performed: int = field(default=0, init=False)
    #: Instrumentation: fast-path modular multiplications spent on the last call.
    pool_multiplications: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.keypair is None:
            self.keypair = generate_keypair(rng=self.rng)
        self._pool: ZeroEncryptionPool | None = None
        if not self.naive:
            self._pool = ZeroEncryptionPool(
                self.keypair.public, rng=self.rng, size=self.pool_size
            )

    @property
    def public_key(self) -> BenalohPublicKey:
        return self.keypair.public

    @property
    def pool(self) -> ZeroEncryptionPool | None:
        """The fast path's zero pool (``None`` on the naive path)."""
        return self._pool

    def prestock(self, selectors: int) -> int:
        """Ensure the zero pool can serve ``selectors`` draws without refilling.

        This is the batch/session amortisation: one replenishment call before
        a session keeps every mid-query refill (an exponentiation burst) off
        the query path.  Returns the number of fresh stock entries created
        (0 on the naive path or when the pool is already deep enough).
        """
        if self._pool is None:
            return 0
        needed = max(0, selectors - self._pool.size)
        if needed:
            self._pool.replenish(needed)
        return needed

    def embellish(self, genuine_terms) -> EmbellishedQuery:
        """Build the embellished query for a set of genuine search terms.

        Duplicate genuine terms are collapsed (the query model is a set of
        terms).  If two genuine terms share a bucket, the bucket is included
        once and both terms carry an encryption of 1 -- Algorithm 4 then
        accumulates both impacts, exactly as the plaintext engine would.
        """
        genuine = list(dict.fromkeys(genuine_terms))
        if not genuine:
            raise ValueError("a query needs at least one genuine term")

        genuine_set = set(genuine)
        unbucketed = [term for term in genuine if term not in self.organization]
        if unbucketed and self.strict:
            raise KeyError(f"terms not in the bucket organisation: {unbucketed}")
        self.last_unbucketed_terms = tuple(unbucketed)

        entries: list[tuple[str, int]] = []
        self.encryptions_performed = 0
        pool_muls_before = self._pool.multiplications if self._pool is not None else 0
        seen_buckets: set[int] = set()
        for term in genuine:
            if term not in self.organization:
                entries.append((term, self._encrypt(1)))
                continue
            bucket_id = self.organization.bucket_id_of(term)
            if bucket_id in seen_buckets:
                continue
            seen_buckets.add(bucket_id)
            for bucket_term in self.organization.buckets[bucket_id]:
                selector = 1 if bucket_term in genuine_set else 0
                entries.append((bucket_term, self._encrypt(selector)))

        self.pool_multiplications = (
            self._pool.multiplications - pool_muls_before if self._pool is not None else 0
        )

        # Final permutation: deter the server from recovering the logical
        # grouping of the query terms into buckets from their order.
        self.rng.shuffle(entries)
        terms, selectors = zip(*entries)
        return EmbellishedQuery(terms=terms, encrypted_selectors=selectors)

    def _encrypt(self, selector: int) -> int:
        self.encryptions_performed += 1
        if self._pool is not None:
            return self._pool.encrypt_selector(selector)
        return self.keypair.public.encrypt(selector, self.rng)
