"""Paillier cryptosystem (Appendix A.2 mentions it as the alternative scheme).

The paper chooses Benaloh over Paillier because Benaloh ciphertexts are
shorter (``n`` versus ``n^2`` sized), which lowers the communication cost of
returning encrypted relevance scores.  We implement Paillier as well so the
ablation benchmark can quantify exactly that trade-off.

Standard construction:

* ``n = p * q`` with ``p, q`` primes of equal size, ``g = n + 1``;
* ``E(m) = g^m * mu^n mod n^2`` for random ``mu`` in ``Z*_n``;
* ``D(c) = L(c^lambda mod n^2) * inverse(L(g^lambda mod n^2)) mod n`` where
  ``L(x) = (x - 1) / n`` and ``lambda = lcm(p - 1, q - 1)``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.crypto.numbertheory import generate_prime, modinv

__all__ = [
    "PaillierPublicKey",
    "PaillierPrivateKey",
    "PaillierKeyPair",
    "generate_keypair",
    "reseed_default_rng",
]

#: Shared fallback generator -- one stateful stream instead of a freshly
#: seeded ``Random()`` per call (see the same pattern in ``benaloh.py``).
_DEFAULT_RNG = random.Random()


def reseed_default_rng(seed: int) -> None:
    """Explicitly re-seed the module-level fallback generator (see
    :func:`repro.crypto.benaloh.reseed_default_rng`)."""
    _DEFAULT_RNG.seed(seed)


@dataclass(frozen=True)
class PaillierPublicKey:
    """Paillier public key: modulus ``n`` (messages live in ``Z_n``)."""

    n: int

    @property
    def n_squared(self) -> int:
        return self.n * self.n

    @property
    def g(self) -> int:
        return self.n + 1

    def encrypt(self, message: int, rng: random.Random | None = None) -> int:
        """Encrypt ``message`` in ``Z_n``."""
        if not 0 <= message < self.n:
            raise ValueError(f"message {message} outside Z_{self.n}")
        rng = rng if rng is not None else _DEFAULT_RNG
        while True:
            mu = rng.randrange(2, self.n)
            if math.gcd(mu, self.n) == 1:
                break
        n_sq = self.n_squared
        # g^m = (1 + n)^m = 1 + n*m (mod n^2), a classic shortcut.
        g_m = (1 + self.n * message) % n_sq
        return (g_m * pow(mu, self.n, n_sq)) % n_sq

    def add(self, ciphertext_a: int, ciphertext_b: int) -> int:
        """Homomorphic addition of two ciphertexts."""
        return (ciphertext_a * ciphertext_b) % self.n_squared

    def scalar_multiply(self, ciphertext: int, scalar: int) -> int:
        """Homomorphic multiplication of the plaintext by a non-negative scalar."""
        if scalar < 0:
            raise ValueError("scalar must be non-negative")
        return pow(ciphertext, scalar, self.n_squared)

    def ciphertext_bytes(self) -> int:
        """Size of one ciphertext in bytes (used by the cost model)."""
        return (self.n_squared.bit_length() + 7) // 8


@dataclass(frozen=True)
class PaillierPrivateKey:
    """Paillier private key (factorisation of ``n``)."""

    p: int
    q: int
    public: PaillierPublicKey

    @property
    def lam(self) -> int:
        return math.lcm(self.p - 1, self.q - 1)

    def decrypt(self, ciphertext: int) -> int:
        n = self.public.n
        n_sq = self.public.n_squared
        lam = self.lam
        u = pow(ciphertext, lam, n_sq)
        l_u = (u - 1) // n
        g_lam = pow(self.public.g, lam, n_sq)
        l_g = (g_lam - 1) // n
        return (l_u * modinv(l_g, n)) % n


@dataclass(frozen=True)
class PaillierKeyPair:
    """Bundles the public and private halves of a Paillier key."""

    public: PaillierPublicKey
    private: PaillierPrivateKey

    @property
    def n(self) -> int:
        return self.public.n


def generate_keypair(key_bits: int = 256, rng: random.Random | None = None) -> PaillierKeyPair:
    """Generate a Paillier key pair with a ``key_bits``-bit modulus."""
    if key_bits < 16:
        raise ValueError("key_bits must be at least 16")
    rng = rng if rng is not None else _DEFAULT_RNG
    half = key_bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(half, rng)
        if p != q and math.gcd(p * q, (p - 1) * (q - 1)) == 1:
            break
    public = PaillierPublicKey(n=p * q)
    private = PaillierPrivateKey(p=p, q=q, public=public)
    return PaillierKeyPair(public=public, private=private)
