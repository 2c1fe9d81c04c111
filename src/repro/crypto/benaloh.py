"""Benaloh dense probabilistic encryption (Appendix A.2 of the paper).

The Private Retrieval (PR) scheme encrypts a selector bit ``u_j`` for every
term in the embellished query: ``u_j = 1`` for genuine terms and ``0`` for
decoys.  The search engine raises the ciphertext to the term's impact value
and multiplies ciphertexts together, which -- thanks to the additive
homomorphism -- accumulates ``sum(u_j * p_ij)`` underneath the encryption.

Construction (following Benaloh 1994, as summarised in the paper):

* choose block size ``r`` and primes ``p1, p2`` with ``r | (p1 - 1)``,
  ``gcd(r, (p1 - 1) / r) == 1`` and ``gcd(r, p2 - 1) == 1``;
* modulus ``n = p1 * p2``; pick ``g`` in ``Z*_n`` with
  ``g^{phi/r} mod n != 1`` where ``phi = (p1 - 1) (p2 - 1)``;
* ``E(m) = g^m * mu^r mod n`` for random ``mu`` in ``Z*_n``;
* decryption tests, for each candidate ``i``, whether
  ``(g^{-i} E(m))^{phi/r} == 1 mod n``; with ``r = 3^k`` an optimisation using
  base-3 digits needs only ``k`` rounds -- the paper's loop, kept verbatim as
  ``BenalohPrivateKey.decrypt(c, naive=True)``.

By default, for ``r = b^k``, decryption works in ``Z_p1`` alone:
``x = c^{(p1-1)/r} mod p1`` is ``h^m`` for ``h = g^{(p1-1)/r}`` of order ``r``,
so one half-size exponentiation decides ``m = 0`` (``x == 1``: the decoy-only
candidates post-filtering drops) and Pohlig--Hellman reads any other
message's base-``b`` digits off per-key tables.  The exponent is the same
for every candidate, so a result decrypts as one column
(``BenalohPrivateKey.decrypt_many``): one common-exponent batch on the
client's arithmetic, then digits for the non-zero candidates only.  It
equals the loop for every message, both raise ``ValueError`` on a
ciphertext sharing a factor with ``n``, and its time depends on the
plaintext -- locally, on the client.

Messages live in ``Z_r``; the homomorphic sum therefore wraps modulo ``r``, so
callers must choose ``r`` larger than the maximum possible relevance score.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property

from repro.crypto import kernels
from repro.crypto.numbertheory import generate_prime_with_condition, modinv

__all__ = [
    "BenalohPublicKey",
    "BenalohPrivateKey",
    "BenalohKeyPair",
    "ZeroEncryptionPool",
    "generate_keypair",
    "reseed_default_rng",
]

#: Shared fallback generator for callers that do not thread their own rng.
#: A single module-level instance keeps the stream stateful across calls
#: instead of constructing (and expensively seeding) a fresh ``Random()``
#: per encryption.
_DEFAULT_RNG = random.Random()


def reseed_default_rng(seed: int) -> None:
    """Explicitly re-seed the module-level fallback generator.

    Key generation and encryption fall back to it when no ``rng=`` is
    passed; seeding it makes such a run reproducible (a forked child
    otherwise inherits a byte-for-byte copy of the parent's generator state,
    a spawned one starts from OS entropy).
    """
    _DEFAULT_RNG.seed(seed)


@dataclass(frozen=True)
class BenalohPublicKey:
    """Public portion of a Benaloh key: modulus ``n``, generator ``g`` and block size ``r``."""

    n: int
    g: int
    r: int

    def encrypt(self, message: int, rng: random.Random | None = None) -> int:
        """Encrypt ``message`` in ``Z_r`` as ``g^m * mu^r mod n``.

        A fresh random ``mu`` makes the scheme probabilistic: encrypting the
        same message twice yields different ciphertexts, so the search engine
        cannot tell genuine selector bits (1) from decoy bits (0) by
        ciphertext equality.
        """
        if not 0 <= message < self.r:
            raise ValueError(f"message {message} outside Z_{self.r}")
        rng = rng if rng is not None else _DEFAULT_RNG
        mu = self._random_unit(rng)
        return pow(self.g, message, self.n) * pow(mu, self.r, self.n) % self.n

    def rerandomize(self, ciphertext: int, rng: random.Random | None = None) -> int:
        """Multiply in an encryption of zero, producing a fresh ciphertext of the same plaintext."""
        rng = rng if rng is not None else _DEFAULT_RNG
        return (ciphertext * self.encrypt(0, rng)) % self.n

    def add(self, ciphertext_a: int, ciphertext_b: int) -> int:
        """Homomorphic addition: ``E(a) ⊗ E(b) = E(a + b mod r)``."""
        return (ciphertext_a * ciphertext_b) % self.n

    def add_many(self, ciphertexts) -> int:
        """Homomorphic sum of an iterable of ciphertexts (identity is E(0)=1... times mu^r).

        The multiplicative identity 1 is a valid (non-randomised) encryption
        of zero, which is fine as an accumulator seed because the server never
        returns it without at least one multiplication.
        """
        acc = 1
        for ct in ciphertexts:
            acc = (acc * ct) % self.n
        return acc

    def scalar_multiply(self, ciphertext: int, scalar: int) -> int:
        """Homomorphic multiplication by a plaintext scalar: ``E(m)^s = E(m * s mod r)``.

        This is exactly the operation the search engine performs in
        Algorithm 4: ``E(u_i)^{p_ij}`` equals ``E(u_i * p_ij)``.
        """
        if scalar < 0:
            raise ValueError("impact values must be non-negative integers")
        return pow(ciphertext, scalar, self.n)

    def _random_unit(self, rng: random.Random) -> int:
        while True:
            mu = rng.randrange(2, self.n)
            if math.gcd(mu, self.n) == 1:
                return mu


class ZeroEncryptionPool:
    """Precomputed stock of one-time encryptions of zero (fast embellishment).

    A Benaloh encryption of zero is ``mu^r mod n``.  The pool precomputes a
    stock of them (``size`` full encryptions up front, replenished in batches
    when exhausted) and serves each one **exactly once**, so the query-time
    critical path pays *zero* modular exponentiations: a decoy selector is a
    stock entry served as-is, a genuine selector costs one multiplication by
    the precomputed ``g^1 mod n``.  Because every served ciphertext is an
    independent fresh encryption, the served distribution is *identical* to
    the naive per-selector encryption path -- there is no privacy trade-off.

    Why one-time use matters: any scheme that serves *products* of a small
    reusable seed set (the tempting "multiply two pool entries per draw"
    rerandomisation walk) emits ciphertexts with detectable multiplicative
    relations -- the subgroup of r-th powers is commutative, so products of
    served values collide with other served values, and a server that records
    the embellished queries can classify selector bits by testing such
    relations.  A one-time stock is the construction that keeps pool serving
    cheap without leaking anything; the exponentiations still happen, but in
    :meth:`replenish`, off the query's critical path (idle-time precomputation
    in a deployed client), and are metered separately in
    :attr:`seed_encryptions`.
    """

    def __init__(
        self,
        public: BenalohPublicKey,
        rng: random.Random | None = None,
        size: int = 64,
    ) -> None:
        if size < 2:
            raise ValueError("a zero pool needs at least two stock entries")
        self.public = public
        self._rng = rng if rng is not None else _DEFAULT_RNG
        self._g1 = public.g % public.n  # g^1 mod n, precomputed once
        self._batch = size
        #: Full Benaloh encryptions performed while (re)stocking -- the
        #: amortised, off-critical-path cost of the pool.
        self.seed_encryptions = 0
        #: Modular multiplications performed while serving (g^1 applications
        #: and rerandomisations); the query-time cost.
        self.multiplications = 0
        self._pool: list[int] = []
        self.replenish(size)

    @property
    def size(self) -> int:
        """Stock currently available (shrinks as selectors are served)."""
        return len(self._pool)

    def replenish(self, count: int | None = None) -> None:
        """Add ``count`` fresh one-time encryptions of zero to the stock.

        A deployed client runs this during idle time; here it also runs
        automatically when the stock is exhausted mid-query.  An encryption
        of zero is ``mu^r mod n`` (``g^0`` contributes nothing), so the batch
        draws every ``mu`` first -- consuming the rng stream exactly as
        per-entry ``encrypt(0)`` calls would -- and then runs one
        common-exponent :func:`repro.crypto.kernels.modexp_batch` on the
        client's arithmetic: a Montgomery square-and-multiply sweep where
        the compiled kernel loads, the same residues either way.
        """
        count = count if count is not None else self._batch
        rng = self._rng
        public = self.public
        units = [public._random_unit(rng) for _ in range(count)]
        self._pool.extend(kernels.modexp_batch(units, public.r, public.n))
        self.seed_encryptions += count

    def draw(self) -> int:
        """A fresh encryption of zero, served once and discarded: zero
        multiplications at query time (replenishment is metered separately)."""
        if not self._pool:
            self.replenish()
        return self._pool.pop()

    def encrypt_selector(self, selector: int) -> int:
        """Encrypt a selector bit: zero muls for a decoy (0), one for a genuine term (1)."""
        if selector == 0:
            return self.draw()
        if selector == 1:
            self.multiplications += 1
            return (self._g1 * self.draw()) % self.public.n
        raise ValueError("selector bits are 0 or 1")

    def rerandomize(self, ciphertext: int) -> int:
        """Fresh ciphertext of the same plaintext for one query-time
        multiplication (consuming one stock entry)."""
        self.multiplications += 1
        return (ciphertext * self.draw()) % self.public.n


@dataclass(frozen=True)
class BenalohPrivateKey:
    """Private portion of a Benaloh key (the factorisation of ``n``)."""

    p1: int
    p2: int
    public: BenalohPublicKey

    @property
    def phi(self) -> int:
        return (self.p1 - 1) * (self.p2 - 1)

    def decrypt(self, ciphertext: int, *, naive: bool = False) -> int:
        """Recover the plaintext in ``Z_r``.

        When ``r`` factors as a power of a small base ``b`` (the paper uses
        ``r = 3^k``), the message is recovered digit by digit: by default in
        the order-``r`` subgroup of ``Z_p1^*`` (module docstring; a column
        of one, :meth:`decrypt_many`), with ``naive=True`` by the paper's
        loop mod ``n`` (``k * b`` full-size modular exponentiations).
        Otherwise both fall back to baby-step/giant-step over the ``r``
        candidates.
        """
        if naive:
            base = _small_power_base(self.public.r)
            if base is None:
                return self._decrypt_bsgs(ciphertext)
            return self._decrypt_digits(ciphertext, base)
        return self.decrypt_many([ciphertext])[0]

    def decrypt_many(self, ciphertexts) -> list[int]:
        """Decrypt a column of ciphertexts, in order: ``[decrypt(c) for c in ciphertexts]``.

        Every candidate is checked as :meth:`decrypt` checks it, then the
        common exponent ``(p1 - 1) / r`` runs over the whole column mod
        ``p1`` in one :func:`repro.crypto.kernels.modexp_batch` (one C call
        where the compiled kernel loads), and only the non-zero candidates
        take Pohlig--Hellman digits, in Python, off the per-key tables --
        built on the first such candidate.  The first invalid ciphertext
        raises the scalar path's ``ValueError``; an empty column computes
        nothing.
        """
        if _small_power_base(self.public.r) is None:
            return [self._decrypt_bsgs(c) for c in ciphertexts]
        p1, p2 = self.p1, self.p2
        residues = []
        for ciphertext in ciphertexts:
            residue = ciphertext % p1
            if not residue or not ciphertext % p2:
                raise ValueError("ciphertext is not a valid Benaloh encryption under this key")
            residues.append(residue)
        if not residues:
            return []
        messages = []
        for x in kernels.modexp_batch(residues, self._subgroup_exponent, p1):
            message = 0
            if x != 1:
                roots, levels = self._digit_tables
                for projection, b_power, strips in levels:
                    digit = roots.get(pow(x, projection, p1))
                    if digit is None:
                        raise ValueError(
                            "ciphertext is not a valid Benaloh encryption under this key"
                        )
                    if digit:
                        message += digit * b_power
                        x = x * strips[digit] % p1
                        if x == 1:
                            break
            messages.append(message)
        return messages

    # -- Pohlig-Hellman decryption in Z_p1 for r = b^k -------------------
    @cached_property
    def _subgroup_exponent(self) -> int:
        """``(p1 - 1) / r``, once the key has the structure decryption mod
        ``p1`` relies on (swapped ``p1``/``p2`` would decrypt silently wrong)."""
        p1, r = self.p1, self.public.r
        if (p1 - 1) % r:
            raise ValueError("malformed key: r does not divide p1 - 1")
        h = pow(self.public.g, (p1 - 1) // r, p1)
        if pow(h, r // _small_power_base(r), p1) == 1:
            raise ValueError("malformed key: g^((p1-1)/r) mod p1 does not have order r")
        return (p1 - 1) // r

    @cached_property
    def _digit_tables(self) -> tuple[dict[int, int], list[tuple[int, int, list[int]]]]:
        """The ``b``-th roots of unity ``h^{d r/b} -> d``, and per digit
        position ``i`` the projection exponent ``b^{k-1-i}``, ``b^i`` and the
        strips ``h^{-d b^i}`` for ``d`` in ``0..b-1``."""
        p1, r = self.p1, self.public.r
        base = _small_power_base(r)
        h = pow(self.public.g, self._subgroup_exponent, p1)
        root = pow(h, r // base, p1)
        roots = {pow(root, d, p1): d for d in range(base)}
        levels = []
        b_power = 1
        while b_power < r:
            strip = pow(h, -b_power, p1)
            strips = [pow(strip, d, p1) for d in range(base)]
            levels.append((r // (b_power * base), b_power, strips))
            b_power *= base
        return roots, levels

    # -- the paper's digit-wise decryption for r = b^k (the oracle) ------
    def _decrypt_digits(self, ciphertext: int, base: int) -> int:
        n, g, r = self.public.n, self.public.g, self.public.r
        phi = self.phi
        message = 0
        b_power = 1  # base^level
        remaining = ciphertext
        while b_power < r:
            exponent = phi // (b_power * base)
            target = pow(remaining, exponent, n)
            digit = None
            for candidate in range(base):
                test = pow(g, candidate * b_power * exponent, n)
                if test == target:
                    digit = candidate
                    break
            if digit is None:
                raise ValueError("ciphertext is not a valid Benaloh encryption under this key")
            if digit:
                message += digit * b_power
                remaining = (remaining * modinv(pow(g, digit * b_power, n), n)) % n
            b_power *= base
        return message

    # -- generic baby-step giant-step fallback ----------------------------
    def _decrypt_bsgs(self, ciphertext: int) -> int:
        n, g, r = self.public.n, self.public.g, self.public.r
        exponent = self.phi // r
        # We need m such that (g^exponent)^m == ciphertext^exponent (mod n).
        h = pow(g, exponent, n)
        target = pow(ciphertext, exponent, n)
        step = int(math.isqrt(r)) + 1
        baby: dict[int, int] = {}
        value = 1
        for j in range(step):
            baby.setdefault(value, j)
            value = (value * h) % n
        giant_factor = modinv(pow(h, step, n), n)
        gamma = target
        for i in range(step + 1):
            if gamma in baby:
                m = i * step + baby[gamma]
                if m < r:
                    return m
            gamma = (gamma * giant_factor) % n
        raise ValueError("ciphertext is not a valid Benaloh encryption under this key")


@dataclass(frozen=True)
class BenalohKeyPair:
    """Bundles the public and private halves of a Benaloh key."""

    public: BenalohPublicKey
    private: BenalohPrivateKey

    @property
    def n(self) -> int:
        return self.public.n

    @property
    def r(self) -> int:
        return self.public.r


def _small_power_base(r: int) -> int | None:
    """Return ``b`` if ``r == b^k`` for a small base ``b`` (2..7), else ``None``."""
    for base in (3, 2, 5, 7):
        value = r
        while value % base == 0:
            value //= base
        if value == 1:
            return base
    return None


def generate_keypair(
    key_bits: int = 256,
    block_size: int = 3**8,
    rng: random.Random | None = None,
) -> BenalohKeyPair:
    """Generate a Benaloh key pair.

    Parameters
    ----------
    key_bits:
        Total modulus size in bits (``KeyLen`` in the paper's notation).  Each
        prime gets roughly half.  Tests use 96-160 bits; realistic deployments
        would use 1024+.
    block_size:
        The plaintext space ``r``.  It must exceed the largest relevance score
        a document can accumulate; ``3^8 = 6561`` comfortably covers the
        discretised impact values used by the search engine.
    rng:
        Optional seeded random generator for reproducibility.
    """
    if key_bits < 32:
        raise ValueError("key_bits must be at least 32")
    if block_size < 2:
        raise ValueError("block_size must be at least 2")
    if block_size % 2 == 0:
        # Every odd prime p2 has an even p2 - 1, so gcd(r, p2 - 1) = 1 is
        # unsatisfiable for even r; Benaloh requires an odd block size
        # (the paper uses r = 3^k).
        raise ValueError("block_size must be odd (Benaloh requires gcd(r, p2 - 1) = 1)")
    rng = rng if rng is not None else _DEFAULT_RNG
    half_bits = key_bits // 2

    def p1_condition(candidate: int) -> bool:
        if (candidate - 1) % block_size != 0:
            return False
        return math.gcd(block_size, (candidate - 1) // block_size) == 1

    def p2_condition(candidate: int) -> bool:
        return math.gcd(block_size, candidate - 1) == 1

    p1 = _generate_prime_multiple(half_bits, block_size, rng, p1_condition)
    p2 = generate_prime_with_condition(half_bits, rng, p2_condition)
    while p2 == p1:
        p2 = generate_prime_with_condition(half_bits, rng, p2_condition)
    n = p1 * p2
    phi = (p1 - 1) * (p2 - 1)

    # Pick g whose order has the full r-part.  The original paper's condition
    # g^(phi/r) != 1 is not sufficient for composite r (Fousse et al., 2011):
    # decryption becomes ambiguous when the order of g misses a prime-power
    # factor of r.  Requiring g^(phi/q) != 1 for every prime q dividing r
    # pins the q-part of ord(g) to the q-part of r and makes decryption
    # unambiguous for every message in Z_r.
    prime_factors = _prime_factors(block_size)
    while True:
        g = rng.randrange(2, n)
        if math.gcd(g, n) != 1:
            continue
        if all(pow(g, phi // q, n) != 1 for q in prime_factors):
            break

    public = BenalohPublicKey(n=n, g=g, r=block_size)
    private = BenalohPrivateKey(p1=p1, p2=p2, public=public)
    return BenalohKeyPair(public=public, private=private)


def _prime_factors(value: int) -> tuple[int, ...]:
    """Distinct prime factors of a (small) integer, by trial division."""
    factors = []
    candidate = 2
    remaining = value
    while candidate * candidate <= remaining:
        if remaining % candidate == 0:
            factors.append(candidate)
            while remaining % candidate == 0:
                remaining //= candidate
        candidate += 1
    if remaining > 1:
        factors.append(remaining)
    return tuple(factors)


def _generate_prime_multiple(bits: int, block_size: int, rng: random.Random, condition) -> int:
    """Generate a prime of roughly ``bits`` bits of the form ``k * block_size + 1``.

    Searching random integers for the strong divisibility condition that
    Benaloh requires of ``p1`` is hopeless for large ``block_size``; instead we
    construct candidates directly as ``k * r + 1``.
    """
    from repro.crypto.numbertheory import is_probable_prime

    k_bits = max(2, bits - block_size.bit_length() + 1)
    attempts = 0
    while True:
        attempts += 1
        if attempts > 500_000:
            raise RuntimeError("failed to generate a suitable Benaloh prime p1")
        k = rng.getrandbits(k_bits) | (1 << (k_bits - 1))
        candidate = k * block_size + 1
        if not condition(candidate):
            continue
        if is_probable_prime(candidate, rng=rng):
            return candidate
