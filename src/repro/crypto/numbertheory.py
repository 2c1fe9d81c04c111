"""Number-theoretic helpers shared by the cryptosystems.

Everything here is deliberately dependency-free: the reproduction must run on
a plain Python install, so primality testing, prime generation and modular
arithmetic are implemented from first principles.  The functions accept a
:class:`random.Random` instance wherever randomness is needed, which keeps the
whole crypto layer deterministic under a seeded generator -- essential both
for reproducible experiments and for property-based tests.

It also holds the library's backend gate (:func:`set_backend`): two
arithmetics, ``"python"`` and ``"cffi"``.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Sequence

__all__ = [
    "HAVE_CFFI",
    "available_backends",
    "get_backend",
    "set_backend",
    "reseed_default_rng",
    "egcd",
    "modinv",
    "is_probable_prime",
    "generate_prime",
    "generate_prime_with_condition",
    "jacobi_symbol",
    "crt_pair",
    "int_to_bytes",
    "bytes_to_int",
    "bit_length_of",
]

# -- the two arithmetics -------------------------------------------------------------
#
# Pure python is the *default and the correctness oracle*; ``cffi`` plus a C
# compiler, the one optional dependency, builds the batched Montgomery kernel
# of :mod:`repro.crypto.kernels`.  This process-wide backend only switches on
# an explicit :func:`set_backend` call, so a plain install never silently
# changes which code computes the published numbers.  (The serving front-end
# picks its own backend at start-up and passes it down as a value, and the
# client's columns resolve theirs on first use; neither reads nor sets this
# one.)

try:
    import importlib.util as _importlib_util

    HAVE_CFFI = _importlib_util.find_spec("cffi") is not None
except (ImportError, ValueError):  # pragma: no cover - defensive
    HAVE_CFFI = False

_BACKEND = "python"

#: Shared fallback generator for callers that do not thread their own rng.
#: A single module-level instance keeps the stream stateful across calls
#: instead of constructing (and expensively seeding) a fresh ``Random()``
#: per primality test -- the same anti-pattern already purged from the
#: benaloh/paillier fallbacks.
_DEFAULT_RNG = random.Random()


def reseed_default_rng(seed: int) -> None:
    """Explicitly re-seed the module-level fallback generator.

    See :func:`repro.crypto.benaloh.reseed_default_rng`.
    """
    _DEFAULT_RNG.seed(seed)


def available_backends() -> tuple[str, ...]:
    """Backends usable on this install.

    ``"python"`` always; ``"cffi"`` when cffi is importable (actually
    compiling the kernel is deferred to :func:`set_backend`, which fails
    loudly when no C toolchain exists).
    """
    return ("python", "cffi") if HAVE_CFFI else ("python",)


def get_backend() -> str:
    """The active backend name."""
    return _BACKEND


def set_backend(name: str) -> str:
    """Select the batch-arithmetic backend; returns the previously active one.

    ``"python"`` is always accepted.  ``"cffi"`` compiles the kernel (or
    loads the cached build) now and raises :class:`RuntimeError` naming the
    missing piece -- cffi or a C compiler -- so callers fail loudly instead
    of silently benchmarking the wrong arithmetic, and the previous backend
    stays.  Accumulation (:func:`repro.core.parallel.accumulate_terms`)
    reads :func:`get_backend` per call unless its caller names a backend
    itself.  The client's common-exponent columns
    (:func:`repro.crypto.kernels.modexp_batch`) run on what
    :func:`repro.crypto.kernels.resolve_backend` answers and never read this
    setting; scalar arithmetic is builtin ``pow`` and ``*`` everywhere (a
    single modmul has no batch to amortise marshalling over).
    """
    global _BACKEND
    if name not in ("python", "cffi"):
        raise ValueError(f"unknown backend {name!r}; choose from {available_backends()}")
    if name == "cffi":
        from repro.crypto import kernels

        kernels.ensure_compiled()
    previous = _BACKEND
    _BACKEND = name
    return previous


# Small primes used for cheap trial division before Miller-Rabin.
_SMALL_PRIMES: Sequence[int] = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
)


def egcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclidean algorithm.

    Returns ``(g, x, y)`` such that ``a*x + b*y == g == gcd(a, b)``.
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
        old_t, t = t, old_t - quotient * t
    return old_r, old_s, old_t


def modinv(a: int, modulus: int) -> int:
    """Modular multiplicative inverse of ``a`` modulo ``modulus``.

    Raises :class:`ValueError` when the inverse does not exist.
    """
    g, x, _ = egcd(a % modulus, modulus)
    if g != 1:
        raise ValueError(f"{a} has no inverse modulo {modulus} (gcd={g})")
    return x % modulus


def is_probable_prime(n: int, rounds: int = 24, rng: random.Random | None = None) -> bool:
    """Miller-Rabin probabilistic primality test.

    With 24 rounds the error probability is below 2^-48, which is far more
    than enough for experiment-scale keys.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if rng is None:
        rng = _DEFAULT_RNG
    # Write n - 1 as d * 2^s with d odd.
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = rng.randrange(2, n - 1)
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random probable prime with exactly ``bits`` bits."""
    if bits < 2:
        raise ValueError("a prime needs at least 2 bits")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rng=rng):
            return candidate


def generate_prime_with_condition(bits: int, rng: random.Random, condition) -> int:
    """Generate a probable prime ``p`` with ``bits`` bits satisfying ``condition(p)``.

    ``condition`` is an arbitrary predicate; the Benaloh key generation uses it
    to enforce the divisibility constraints on ``p - 1``.
    """
    attempts = 0
    while True:
        attempts += 1
        if attempts > 200_000:
            raise RuntimeError(
                f"could not find a {bits}-bit prime satisfying the condition "
                "after 200000 attempts"
            )
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if condition(candidate) and is_probable_prime(candidate, rng=rng):
            return candidate


def jacobi_symbol(a: int, n: int) -> int:
    """Jacobi symbol (a / n) for odd positive ``n``.

    Returns -1, 0 or +1.  Used to sample quadratic residues and
    non-residues with the correct Jacobi symbol for the KO PIR protocol.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("Jacobi symbol is defined for odd positive n")
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def crt_pair(residues: Iterable[int], moduli: Iterable[int]) -> int:
    """Chinese Remainder Theorem for pairwise-coprime moduli.

    Returns the unique ``x`` modulo the product of the moduli such that
    ``x % m_i == r_i`` for all i.
    """
    residues = list(residues)
    moduli = list(moduli)
    if len(residues) != len(moduli):
        raise ValueError("residues and moduli must have the same length")
    if not moduli:
        raise ValueError("at least one congruence is required")
    total_modulus = math.prod(moduli)
    x = 0
    for r_i, m_i in zip(residues, moduli):
        partial = total_modulus // m_i
        x += r_i * partial * modinv(partial, m_i)
    return x % total_modulus


def int_to_bytes(value: int, length: int | None = None) -> bytes:
    """Big-endian byte encoding of a non-negative integer."""
    if value < 0:
        raise ValueError("only non-negative integers can be encoded")
    if length is None:
        length = max(1, (value.bit_length() + 7) // 8)
    return value.to_bytes(length, "big")


def bytes_to_int(data: bytes) -> int:
    """Inverse of :func:`int_to_bytes`."""
    return int.from_bytes(data, "big")


def bit_length_of(value: int) -> int:
    """Bit length, counting zero as one bit (convenient for sizing buffers)."""
    return max(1, value.bit_length())
