"""Batched modular-arithmetic kernels and the probe that picks between them.

Every query in the reproduction bottoms out in batched modular arithmetic
-- the power-table accumulation kernel in :mod:`repro.core.parallel`, and
on the client zero-pool replenishment and decryption's per-candidate
exponentiation in :mod:`repro.crypto.benaloh`.  This module attacks the
constant factor of those inner loops with four cooperating pieces:

**Power-table plans.**  :func:`power_table_plan` lowers the build of
``{p: E(u)^p}`` for one list's distinct quantised impacts to a tiny
multiplication program (an op list ``slot[dst] = slot[src1] * slot[src2]``).
There is one builder, the fixed-base 2^w-ary method: square to the base
powers ``E(u)^(2^(w*k))``, ladder each base up to the largest base-2^w digit
that position needs, and assemble every distinct power from its non-zero
digits.  The width ``w`` is the cheapest by :func:`_windowed_cost`: at
``w = bits(max)`` the program is the incremental ladder, at ``w = 1`` the
square-and-assemble binary method.  The program's length is
``table_multiplications``, so the analytic estimators, the pure python
builder and the compiled builder count it identically by construction.

**One-call Montgomery accumulation.**  :func:`accumulate_compiled` is a
marshalling shim around one C entry point per payload: python hands over the
selectors as one byte string, zero-copy pointers to the index's own columns
and each column's plan (:func:`column_plan`, memoised per column object and
held weakly) packed into one buffer; C converts selectors to Montgomery
form, runs every program, finds each candidate's first posting in an
open-addressing table and folds the rest -- every multiplication a
reduction-free CIOS Montgomery multiply -- and writes the answer in wire
form: u32 big-endian ids, then big-endian :func:`ciphertext_width`-byte
ciphertexts, in first-occurrence order -- the rows an
:class:`~repro.core.parallel.EncryptedResult` stores and a frame carries,
with no python int per candidate (:func:`pack_ciphertexts` and
:func:`unpack_ciphertexts` are the ciphertext column's one python codec,
for rows and selectors alike).  Montgomery conversion is a bijection on
``Z_n`` and every intermediate is kept canonical (``< n``), so residues, row
order and operation counters are bit-identical to the pure-python oracle
loop.  All scratch is per call: cffi releases the GIL, and one process may
run the kernel on several threads at once (an ``ExecutionEngine`` pool, a
coordinator's gather threads over local shards).

**Common-exponent columns.**  :func:`modexp_batch` raises a column of bases
to one exponent -- ``mu^r`` for the zero stock, ``c^((p1-1)/r)`` for
decryption -- on the same multiply.  The exponent is recoded once into a
left-to-right sliding window (:func:`_window_program`: the width with the
fewest multiplications for that exact exponent, counted, not looked up),
each base gets a table of its odd powers, and the column marshals like a
payload -- ``bytes`` in, one C call, one ``bytearray`` out, canonical
residues on both sides -- so the standard library is all it needs.

**The compiled backend.**  The C kernel is compiled on demand with cffi
(``-O3``, plain C, no external libraries) and cached on disk under
``$REPRO_KERNEL_CACHE`` (default: a per-user directory in the system temp
dir; refused unless owned by the user and closed to group and world), so
later processes load the shared object instead of recompiling.
Accumulation and the client's common-exponent columns (:func:`modexp_batch`:
zero-pool replenishment, decryption) reach it whenever
:func:`repro.crypto.numbertheory.get_backend` -- :func:`resolve_backend`'s
answer, taken once per process -- reads ``"cffi"``.  When no C toolchain (or
no cffi) is available, or the build fails its self-test,
:func:`ensure_compiled` raises a loud :class:`RuntimeError` (cached: later
probes re-raise it without reloading anything); every entry point declines
what lies outside its envelope by returning ``None`` -- the caller runs the
pure-python oracle, the default and the ground truth -- and books why in
:func:`fallback_counts`.
"""

from __future__ import annotations

import importlib.util
import os
import shutil
import tempfile
import threading
import weakref
from array import array
from functools import lru_cache
from typing import Sequence

from repro.crypto import numbertheory

__all__ = [
    "HAVE_CFFI",
    "ciphertext_width",
    "pack_ciphertexts",
    "unpack_ciphertexts",
    "check_ciphertexts",
    "power_table_plan",
    "build_power_table",
    "column_plan",
    "PowerPlan",
    "ensure_compiled",
    "resolve_backend",
    "accumulate_compiled",
    "fallback_counts",
    "modexp_batch",
]

HAVE_CFFI = importlib.util.find_spec("cffi") is not None


def ciphertext_width(modulus: int) -> int:
    """``W = ceil(bits(n) / 8)``: the bytes of one ciphertext on the wire --
    in a result's rows and in a frame's selectors."""
    return (modulus.bit_length() + 7) // 8


def pack_ciphertexts(values, modulus: int) -> bytes:
    """``values`` as big-endian :func:`ciphertext_width`-byte integers, in
    order; ``ValueError`` for a value that does not fit (or is negative)."""
    width = ciphertext_width(modulus)
    try:
        return b"".join([value.to_bytes(width, "big") for value in values])
    except OverflowError as exc:
        raise ValueError(f"ciphertext does not fit {width} bytes: {exc}") from exc


def unpack_ciphertexts(body, modulus: int, start: int = 0) -> list[int]:
    """Every :func:`ciphertext_width`-byte big-endian integer of ``body`` from
    ``start`` on (a whole number of them: callers check the length)."""
    width = ciphertext_width(modulus)
    from_bytes = int.from_bytes
    return [from_bytes(body[i : i + width], "big") for i in range(start, len(body), width)]


def check_ciphertexts(values: list[int], modulus: int) -> None:
    """``ValueError`` unless every received ciphertext lies in ``[1, modulus)``:
    anything else was never produced under the session key."""
    if values and not (min(values) >= 1 and max(values) < modulus):
        bad = next(value for value in values if not 1 <= value < modulus)
        raise ValueError(
            f"ciphertext {bad:x} outside the session modulus "
            f"(expected 1 <= value < {modulus:x})"
        )


# -- power-table plans --------------------------------------------------------------


def _windowed_cost(positive: Sequence[int], max_impact: int, w: int) -> int:
    """Multiplications the 2^w-ary table build costs for these impacts.

    ``(bitlen-1)//w * w`` squarings reach each base power
    ``E(u)^(2^(w*k))``, a per-position ladder climbs each base up to the
    largest digit that position needs, then every distinct power costs
    ``nnz - 1`` assembly multiplications.  ``w = 1`` is the binary method;
    ``w = bits(max_impact)`` has one position and is the plain ladder,
    ``max_impact - 1`` multiplications.
    """
    base_positions = (max_impact.bit_length() - 1) // w
    cost = base_positions * w  # squarings up to E(u)^(2^(w*k))
    digit_mask = (1 << w) - 1
    max_digit: dict[int, int] = {}
    for exponent in positive:
        position = 0
        nonzero = 0
        while exponent:
            digit = exponent & digit_mask
            if digit:
                nonzero += 1
                if digit > max_digit.get(position, 0):
                    max_digit[position] = digit
            exponent >>= w
            position += 1
        cost += nonzero - 1  # assembly of this power from its digit powers
    # Per-position ladder from base_k^1 up to the largest digit needed there.
    cost += sum(digit - 1 for digit in max_digit.values())
    return cost


class PowerPlan:
    """A lowered power-table build: a straight-line multiplication program.

    Slot 0 holds the constant 1 (``E(u)^0``), slot 1 the selector itself
    (``E(u)^1``, stored unreduced exactly as the historic builder did), and
    op ``i`` writes slot ``2 + i`` with ``slot[src1] * slot[src2] mod n``.
    ``slot_of`` maps each distinct impact to the slot holding its power, and
    ``w`` is the digit width the program was built at.  ``len(ops)`` is
    ``table_multiplications`` for one list on every path: the python
    builder, the compiled kernel and the analytic estimators all read it.
    """

    __slots__ = ("w", "ops", "slot_of", "nslots", "max_impact", "_packed")

    def __init__(self, w: int, ops, slot_of) -> None:
        self.w = w
        self.ops = ops
        self.slot_of = slot_of
        self.nslots = 2 + len(ops)
        self.max_impact = max(slot_of, default=0)
        self._packed = None

    def packed(self) -> array:
        """The plan as one ``uint32`` buffer for the compiled kernel.

        ``[len(ops), len(slot_of), src1, src2, ..., impact, slot, ...]`` with
        the impact -> slot pairs sorted by impact (the kernel binary-searches
        them).  Built on first use and kept on the (memoised) plan, so a
        payload hands C one pointer per term.
        """
        if self._packed is None:
            words = [len(self.ops), len(self.slot_of)]
            for op in self.ops:
                words.extend(op)
            for pair in sorted(self.slot_of.items()):
                words.extend(pair)
            self._packed = array("I", words)
        return self._packed


@lru_cache(maxsize=4096)
def power_table_plan(distinct: tuple[int, ...]) -> PowerPlan:
    """The multiplication program for one sorted tuple of distinct impacts.

    The digit width ``w`` is the cheapest by :func:`_windowed_cost` among
    ``bits(max)`` (the ladder), 1 (the binary method) and every ``w >= 2``
    with ``2^w < max``; a tie keeps the earlier width.  The plan is a
    deterministic function of the distinct impacts, so an estimator replays
    it without touching a ciphertext.  Payloads repeat distinct-impact sets
    heavily (quantised impacts take few values), so plans are memoised on
    the tuple; the cache is shared by the python and compiled builders.
    """
    ops: list[tuple[int, int]] = []
    # E(u)^0 = 1 costs nothing; only positive impacts need table work.
    # (Indexes built by InvertedIndex.build never contain zero impacts, but
    # hand-built postings may.)
    slot_of = {0: 0} if distinct[:1] == (0,) else {}
    positive = distinct[len(slot_of):]
    if not positive:
        return PowerPlan(0, ops, slot_of)
    max_impact = positive[-1]
    widths = [max_impact.bit_length(), 1]
    widths += [w for w in range(2, max_impact.bit_length()) if (1 << w) < max_impact]
    width = min(widths, key=lambda w: _windowed_cost(positive, max_impact, w))

    def emit(src1: int, src2: int) -> int:
        ops.append((src1, src2))
        return 1 + len(ops)  # the op's destination slot (2 + index)

    digit_mask = (1 << width) - 1
    base_positions = (max_impact.bit_length() - 1) // width
    # Base powers E(u)^(2^(w*k)): w squarings per step.
    base_slots = [1]
    for _ in range(base_positions):
        slot = base_slots[-1]
        for _ in range(width):
            slot = emit(slot, slot)
        base_slots.append(slot)
    # Digits of every distinct power, and each position's largest digit.
    digits_of: dict[int, list[tuple[int, int]]] = {}
    max_digit: dict[int, int] = {}
    for exponent in positive:
        position = 0
        remaining = exponent
        digits: list[tuple[int, int]] = []
        while remaining:
            digit = remaining & digit_mask
            if digit:
                digits.append((position, digit))
                if digit > max_digit.get(position, 0):
                    max_digit[position] = digit
            remaining >>= width
            position += 1
        digits_of[exponent] = digits
    # Per-position ladders base_k^d for d up to that position's max digit.
    digit_slots: dict[int, dict[int, int]] = {}
    for position in sorted(max_digit):
        base = base_slots[position]
        slots = {1: base}
        slot = base
        for digit in range(2, max_digit[position] + 1):
            slot = emit(slot, base)
            slots[digit] = slot
        digit_slots[position] = slots
    # Assemble each distinct power from its non-zero digit powers.
    for exponent in positive:
        parts = [digit_slots[position][digit] for position, digit in digits_of[exponent]]
        slot = parts[0]
        for part in parts[1:]:
            slot = emit(slot, part)
        slot_of[exponent] = slot
    return PowerPlan(width, ops, slot_of)


#: ``id(column) -> (weakref to the column, its plan)``: an entry dies with
#: the segment or pinned snapshot that owns the column.
_COLUMN_PLANS: dict[int, tuple[weakref.ref, PowerPlan]] = {}


def column_plan(impacts) -> PowerPlan:
    """The :func:`power_table_plan` of one impact column, once per column
    object: the index never mutates a column it has handed out.  Columns
    that take no weak reference (lists) are planned on every call."""
    key = id(impacts)
    entry = _COLUMN_PLANS.get(key)
    if entry is not None and entry[0]() is impacts:
        return entry[1]
    plan = power_table_plan(tuple(sorted(set(impacts))))
    try:
        _COLUMN_PLANS[key] = (weakref.ref(impacts, lambda _: _COLUMN_PLANS.pop(key, None)), plan)
    except TypeError:
        pass
    return plan


def build_power_table(selector: int, impacts, modulus: int) -> tuple[dict[int, int], int]:
    """``({p: E(u)^p}, multiplications)`` for one list's distinct impacts.

    Executes the column's :func:`column_plan` with plain modular
    arithmetic.  ``table[1]`` is the selector object itself, unreduced,
    matching the historic builder.
    """
    plan = column_plan(impacts)
    if not plan.slot_of:
        return {}, 0
    slots = [1, selector]
    append = slots.append
    for src1, src2 in plan.ops:
        append(slots[src1] * slots[src2] % modulus)
    table = {impact: slots[slot] for impact, slot in plan.slot_of.items()}
    return table, len(plan.ops)


# -- the compiled Montgomery kernel -------------------------------------------------
#
# Plain C, u128 arithmetic, merged-CIOS Montgomery multiplication (the
# multiply and reduction interleave per limb of ``a``, so the working vector
# is touched once per limb, each with its own 64-bit carry).  MAXL bounds
# the modulus at 66 limbs (4224 bits), far beyond experiment key sizes.  The
# dispatch gives gcc a compile-time limb count for the sizes keys here have:
# 2-3 limbs (p1 of a 256-bit key), 4 (its n), 8 (p1 at 1024 bits) and 16
# (n at 1024 bits, MULX/ADX where the CPU has them).

MAXL = 66

_KERNEL_SOURCE = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MAXL 66

static void mont_mul_n(uint64_t *out, const uint64_t *a, const uint64_t *b,
                       const uint64_t *n, uint64_t n0inv, const int nl)
{
    uint64_t t[MAXL + 1];
    memset(t, 0, (size_t)(nl + 1) * sizeof(uint64_t));
    for (int i = 0; i < nl; i++) {
        uint64_t ai = a[i];
        unsigned __int128 c0 = (unsigned __int128)ai * b[0] + t[0];
        uint64_t m = (uint64_t)c0 * n0inv;
        unsigned __int128 c1 = (unsigned __int128)m * n[0] + (uint64_t)c0;
        uint64_t ca = (uint64_t)(c0 >> 64), cm = (uint64_t)(c1 >> 64);
        for (int j = 1; j < nl; j++) {
            unsigned __int128 cur = (unsigned __int128)ai * b[j] + t[j] + ca;
            unsigned __int128 cur2 = (unsigned __int128)m * n[j] + (uint64_t)cur + cm;
            t[j - 1] = (uint64_t)cur2;
            ca = (uint64_t)(cur >> 64);
            cm = (uint64_t)(cur2 >> 64);
        }
        unsigned __int128 last = (unsigned __int128)t[nl] + ca + cm;
        t[nl - 1] = (uint64_t)last;
        t[nl] = (uint64_t)(last >> 64);
    }
    uint64_t res[MAXL];
    uint64_t borrow = 0;
    for (int j = 0; j < nl; j++) {
        unsigned __int128 diff = (unsigned __int128)t[j] - n[j] - borrow;
        res[j] = (uint64_t)diff;
        borrow = (uint64_t)(diff >> 64) & 1;
    }
    if (t[nl] != 0 || borrow == 0)
        memcpy(out, res, (size_t)nl * sizeof(uint64_t));
    else
        memcpy(out, t, (size_t)nl * sizeof(uint64_t));
}

#if defined(__x86_64__) && defined(__GNUC__)
#define REPRO_HAVE_ADX16 1
/* 1024-bit Montgomery multiply with MULX + dual ADCX/ADOX carry chains.
 * Two passes per word: t += a_i*b, then t += m*n and shift one limb.
 * Requires BMI2 + ADX (runtime-gated by the caller). */
__attribute__((target("bmi2,adx")))
static void mont_mul_adx16(uint64_t *out, const uint64_t *a, const uint64_t *b,
                           const uint64_t *n, uint64_t n0inv)
{
    uint64_t t[18];
    memset(t, 0, sizeof(t));
    for (int i = 0; i < 16; i++) {
        __asm__ volatile(
            "xorl %%eax, %%eax\n\t"  /* clear CF and OF */
            "movq 0(%[t]), %%r8\n\t"
            "movq 8(%[t]), %%r9\n\t"
            "mulxq 0(%[b]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r8\n\t"
            "movq %%r8, 0(%[t])\n\t"
            "adoxq %%r10, %%r9\n\t"
            "movq 16(%[t]), %%r8\n\t"
            "mulxq 8(%[b]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r9\n\t"
            "movq %%r9, 8(%[t])\n\t"
            "adoxq %%r10, %%r8\n\t"
            "movq 24(%[t]), %%r9\n\t"
            "mulxq 16(%[b]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r8\n\t"
            "movq %%r8, 16(%[t])\n\t"
            "adoxq %%r10, %%r9\n\t"
            "movq 32(%[t]), %%r8\n\t"
            "mulxq 24(%[b]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r9\n\t"
            "movq %%r9, 24(%[t])\n\t"
            "adoxq %%r10, %%r8\n\t"
            "movq 40(%[t]), %%r9\n\t"
            "mulxq 32(%[b]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r8\n\t"
            "movq %%r8, 32(%[t])\n\t"
            "adoxq %%r10, %%r9\n\t"
            "movq 48(%[t]), %%r8\n\t"
            "mulxq 40(%[b]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r9\n\t"
            "movq %%r9, 40(%[t])\n\t"
            "adoxq %%r10, %%r8\n\t"
            "movq 56(%[t]), %%r9\n\t"
            "mulxq 48(%[b]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r8\n\t"
            "movq %%r8, 48(%[t])\n\t"
            "adoxq %%r10, %%r9\n\t"
            "movq 64(%[t]), %%r8\n\t"
            "mulxq 56(%[b]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r9\n\t"
            "movq %%r9, 56(%[t])\n\t"
            "adoxq %%r10, %%r8\n\t"
            "movq 72(%[t]), %%r9\n\t"
            "mulxq 64(%[b]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r8\n\t"
            "movq %%r8, 64(%[t])\n\t"
            "adoxq %%r10, %%r9\n\t"
            "movq 80(%[t]), %%r8\n\t"
            "mulxq 72(%[b]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r9\n\t"
            "movq %%r9, 72(%[t])\n\t"
            "adoxq %%r10, %%r8\n\t"
            "movq 88(%[t]), %%r9\n\t"
            "mulxq 80(%[b]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r8\n\t"
            "movq %%r8, 80(%[t])\n\t"
            "adoxq %%r10, %%r9\n\t"
            "movq 96(%[t]), %%r8\n\t"
            "mulxq 88(%[b]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r9\n\t"
            "movq %%r9, 88(%[t])\n\t"
            "adoxq %%r10, %%r8\n\t"
            "movq 104(%[t]), %%r9\n\t"
            "mulxq 96(%[b]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r8\n\t"
            "movq %%r8, 96(%[t])\n\t"
            "adoxq %%r10, %%r9\n\t"
            "movq 112(%[t]), %%r8\n\t"
            "mulxq 104(%[b]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r9\n\t"
            "movq %%r9, 104(%[t])\n\t"
            "adoxq %%r10, %%r8\n\t"
            "movq 120(%[t]), %%r9\n\t"
            "mulxq 112(%[b]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r8\n\t"
            "movq %%r8, 112(%[t])\n\t"
            "adoxq %%r10, %%r9\n\t"
            "movq 128(%[t]), %%r8\n\t"
            "mulxq 120(%[b]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r9\n\t"
            "movq %%r9, 120(%[t])\n\t"
            "adoxq %%r10, %%r8\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r8\n\t"
            "movq %%r8, 128(%[t])\n\t"
            "setc %%al\n\t"
            "seto %%cl\n\t"
            "movzbl %%al, %%eax\n\t"
            "movzbl %%cl, %%ecx\n\t"
            "addq %%rcx, %%rax\n\t"
            "addq %%rax, 136(%[t])\n\t"
            : : [t] "r"(t), [b] "r"(b), "d"(a[i])
            : "rax", "rcx", "r8", "r9", "r10", "cc", "memory");
        uint64_t m = t[0] * n0inv;
        __asm__ volatile(
            "xorl %%eax, %%eax\n\t"
            "movq 0(%[t]), %%r8\n\t"
            "movq 8(%[t]), %%r9\n\t"
            "mulxq 0(%[n]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r8\n\t"
            "adoxq %%r10, %%r9\n\t"
            "movq 16(%[t]), %%r8\n\t"
            "mulxq 8(%[n]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r9\n\t"
            "movq %%r9, 0(%[t])\n\t"
            "adoxq %%r10, %%r8\n\t"
            "movq 24(%[t]), %%r9\n\t"
            "mulxq 16(%[n]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r8\n\t"
            "movq %%r8, 8(%[t])\n\t"
            "adoxq %%r10, %%r9\n\t"
            "movq 32(%[t]), %%r8\n\t"
            "mulxq 24(%[n]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r9\n\t"
            "movq %%r9, 16(%[t])\n\t"
            "adoxq %%r10, %%r8\n\t"
            "movq 40(%[t]), %%r9\n\t"
            "mulxq 32(%[n]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r8\n\t"
            "movq %%r8, 24(%[t])\n\t"
            "adoxq %%r10, %%r9\n\t"
            "movq 48(%[t]), %%r8\n\t"
            "mulxq 40(%[n]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r9\n\t"
            "movq %%r9, 32(%[t])\n\t"
            "adoxq %%r10, %%r8\n\t"
            "movq 56(%[t]), %%r9\n\t"
            "mulxq 48(%[n]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r8\n\t"
            "movq %%r8, 40(%[t])\n\t"
            "adoxq %%r10, %%r9\n\t"
            "movq 64(%[t]), %%r8\n\t"
            "mulxq 56(%[n]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r9\n\t"
            "movq %%r9, 48(%[t])\n\t"
            "adoxq %%r10, %%r8\n\t"
            "movq 72(%[t]), %%r9\n\t"
            "mulxq 64(%[n]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r8\n\t"
            "movq %%r8, 56(%[t])\n\t"
            "adoxq %%r10, %%r9\n\t"
            "movq 80(%[t]), %%r8\n\t"
            "mulxq 72(%[n]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r9\n\t"
            "movq %%r9, 64(%[t])\n\t"
            "adoxq %%r10, %%r8\n\t"
            "movq 88(%[t]), %%r9\n\t"
            "mulxq 80(%[n]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r8\n\t"
            "movq %%r8, 72(%[t])\n\t"
            "adoxq %%r10, %%r9\n\t"
            "movq 96(%[t]), %%r8\n\t"
            "mulxq 88(%[n]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r9\n\t"
            "movq %%r9, 80(%[t])\n\t"
            "adoxq %%r10, %%r8\n\t"
            "movq 104(%[t]), %%r9\n\t"
            "mulxq 96(%[n]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r8\n\t"
            "movq %%r8, 88(%[t])\n\t"
            "adoxq %%r10, %%r9\n\t"
            "movq 112(%[t]), %%r8\n\t"
            "mulxq 104(%[n]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r9\n\t"
            "movq %%r9, 96(%[t])\n\t"
            "adoxq %%r10, %%r8\n\t"
            "movq 120(%[t]), %%r9\n\t"
            "mulxq 112(%[n]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r8\n\t"
            "movq %%r8, 104(%[t])\n\t"
            "adoxq %%r10, %%r9\n\t"
            "movq 128(%[t]), %%r8\n\t"
            "mulxq 120(%[n]), %%rax, %%r10\n\t"
            "adcxq %%rax, %%r9\n\t"
            "movq %%r9, 112(%[t])\n\t"
            "adoxq %%r10, %%r8\n\t"
            "movq 136(%[t]), %%r9\n\t"
            "movl $0, %%eax\n\t"
            "adcxq %%rax, %%r8\n\t"
            "movq %%r8, 120(%[t])\n\t"  /* t[15] = old t[16] */
            "setc %%al\n\t"
            "seto %%cl\n\t"
            "movzbl %%al, %%eax\n\t"
            "movzbl %%cl, %%ecx\n\t"
            "addq %%rcx, %%rax\n\t"
            "addq %%r9, %%rax\n\t"  /* + old t[17] */
            "movq %%rax, 128(%[t])\n\t"  /* t[16] */
            "movq $0, 136(%[t])\n\t"  /* t[17] */
            : : [t] "r"(t), [n] "r"(n), "d"(m)
            : "rax", "rcx", "r8", "r9", "r10", "cc", "memory");
    }
    uint64_t res[16];
    uint64_t borrow = 0;
    for (int j = 0; j < 16; j++) {
        unsigned __int128 diff = (unsigned __int128)t[j] - n[j] - borrow;
        res[j] = (uint64_t)diff;
        borrow = (uint64_t)(diff >> 64) & 1;
    }
    if (t[16] != 0 || borrow == 0)
        memcpy(out, res, sizeof(res));
    else
        memcpy(out, t, 16 * sizeof(uint64_t));
}
#endif  /* x86_64 ADX path */

static int repro_cpu_adx = -1;

static inline void mont_mul_(uint64_t *out, const uint64_t *a, const uint64_t *b,
                             const uint64_t *n, uint64_t n0inv, int nl)
{
    switch (nl) {
    case 2: mont_mul_n(out, a, b, n, n0inv, 2); return;
    case 3: mont_mul_n(out, a, b, n, n0inv, 3); return;
    case 4: mont_mul_n(out, a, b, n, n0inv, 4); return;
    case 8: mont_mul_n(out, a, b, n, n0inv, 8); return;
    case 16:
#ifdef REPRO_HAVE_ADX16
        if (repro_cpu_adx < 0)
            repro_cpu_adx = __builtin_cpu_supports("bmi2")
                && __builtin_cpu_supports("adx");
        if (repro_cpu_adx) {
            mont_mul_adx16(out, a, b, n, n0inv);
            return;
        }
#endif
        mont_mul_n(out, a, b, n, n0inv, 16);
        return;
    }
    mont_mul_n(out, a, b, n, n0inv, nl);
}

/* REDC(a) = a R^-1 mod n: the Montgomery product with a plain 1. */
static const uint64_t plain_one[MAXL] = {1};

static inline void mont_redc_(uint64_t *out, const uint64_t *a,
                              const uint64_t *n, uint64_t n0inv, int nl)
{
    mont_mul_(out, a, plain_one, n, n0inv, nl);
}

void repro_mul_many(uint64_t *out, const uint64_t *a, long count,
                    const uint64_t *b, const uint64_t *n, uint64_t n0inv,
                    int nl)
{
    for (long i = 0; i < count; i++)
        mont_mul_(out + i * nl, a + i * nl, b, n, n0inv, nl);
}

void repro_redc_many(uint64_t *out, const uint64_t *a, long count,
                     const uint64_t *n, uint64_t n0inv, int nl)
{
    for (long i = 0; i < count; i++)
        mont_redc_(out + i * nl, a + i * nl, n, n0inv, nl);
}

static inline void put_be(unsigned char *p, uint64_t x, int bytes)
{
    for (int b = 0; b < bytes; b++)
        p[b] = (unsigned char)(x >> (8 * (bytes - 1 - b)));
}

/* Whole-payload accumulation in one call.  Per term: the selector goes to
 * Montgomery form, the plan's program fills the power table, and every
 * posting either seeds a candidate with the canonical (REDC'd, cached per
 * slot) power of its impact -- the oracle's dict insert -- or folds the
 * Montgomery-form power into the candidate's canonical accumulator
 * (mont_mul(x, y*R) = x*y mod n).  Candidates are found through an
 * open-addressing table of (doc id, row + 1; 0 = empty) pairs sized from
 * the posting count.  `out` holds ids (u32, padded to 8 bytes) and then
 * limb rows, one per possible candidate; at the end both are rewritten in
 * place, front to back, as the wire body -- ncand u32 big-endian ids, then
 * ncand `wbytes`-byte big-endian rows, in first-occurrence order -- each
 * write landing before anything still to be read.  All scratch is allocated
 * and freed here, because callers run concurrently with the GIL released.
 * Returns the candidate count, -1 when scratch cannot be allocated, -2 when
 * a posting's impact is missing from its plan. */
long repro_accumulate(long nterms, const uint64_t *selectors,
                      const uint32_t **docs, const uint32_t **impacts,
                      const uint32_t **plans, const long *counts,
                      long postings, long max_slots, unsigned char *out,
                      long wbytes, const uint64_t *r2, const uint64_t *one_m,
                      const uint64_t *n, uint64_t n0inv, int nl)
{
    uint32_t *out_ids = (uint32_t *)out;
    uint64_t *out_rows = (uint64_t *)(out + (((size_t)postings * 4 + 7) & ~(size_t)7));
    int bits = 1;  /* table of 2^bits > 1.5 x postings entries */
    while (((size_t)1 << bits) < (size_t)postings + (size_t)postings / 2 + 1)
        bits++;
    const uint32_t mask = (uint32_t)(((size_t)1 << bits) - 1);
    const size_t row_bytes = (size_t)nl * sizeof(uint64_t);
    uint32_t *seen = calloc((size_t)2 << bits, sizeof(uint32_t));
    /* Montgomery-form table, its canonical twin, and which twins exist. */
    uint64_t *table = malloc((2 * row_bytes + 1) * (size_t)max_slots);
    long ncand = -1;
    if (seen == NULL || table == NULL)
        goto done;
    uint64_t *canonical = table + (size_t)max_slots * nl;
    unsigned char *have = (unsigned char *)(canonical + (size_t)max_slots * nl);
    ncand = 0;
    for (long t = 0; t < nterms; t++) {
        const uint32_t *plan = plans[t];
        const long nops = plan[0], npairs = plan[1];
        const uint32_t *pairs = plan + 2 + 2 * nops;  /* (impact, slot), sorted */
        memcpy(table, one_m, row_bytes);
        mont_mul_(table + nl, selectors + (size_t)t * nl, r2, n, n0inv, nl);
        for (long i = 0; i < nops; i++)
            mont_mul_(table + (size_t)(2 + i) * nl, table + (size_t)plan[2 + 2 * i] * nl,
                      table + (size_t)plan[3 + 2 * i] * nl, n, n0inv, nl);
        memset(have, 0, (size_t)(2 + nops));
        uint32_t last_impact = 0, slot = UINT32_MAX;  /* impact-ordered lists repeat */
        for (long j = 0; j < counts[t]; j++) {
            const uint32_t impact = impacts[t][j], doc = docs[t][j];
            if (slot == UINT32_MAX || impact != last_impact) {
                long lo = 0, hi = npairs;
                while (lo < hi) {
                    long mid = (lo + hi) / 2;
                    if (pairs[2 * mid] < impact) lo = mid + 1; else hi = mid;
                }
                if (lo == npairs || pairs[2 * lo] != impact) {
                    ncand = -2;
                    goto done;
                }
                last_impact = impact;
                slot = pairs[2 * lo + 1];
            }
            const uint64_t *power = table + (size_t)slot * nl;
            size_t h = (doc * 2654435761u) >> (32 - bits);
            while (seen[2 * h + 1] != 0 && seen[2 * h] != doc)
                h = (h + 1) & mask;
            uint32_t *entry = seen + 2 * h;
            if (entry[1] != 0) {
                uint64_t *acc = out_rows + (size_t)(entry[1] - 1) * nl;
                mont_mul_(acc, acc, power, n, n0inv, nl);
                continue;
            }
            if (!have[slot]) {
                mont_redc_(canonical + (size_t)slot * nl, power, n, n0inv, nl);
                have[slot] = 1;
            }
            memcpy(out_rows + (size_t)ncand * nl, canonical + (size_t)slot * nl, row_bytes);
            out_ids[ncand] = doc;
            entry[0] = doc;
            entry[1] = (uint32_t)++ncand;
        }
    }
    for (long k = 0; k < ncand; k++)
        put_be(out + 4 * k, out_ids[k], 4);
    for (long k = 0; k < ncand; k++) {
        unsigned char row[8 * MAXL];
        for (int i = 0; i < nl; i++)
            put_be(row + 8 * (nl - 1 - i), out_rows[(size_t)k * nl + i], 8);
        memcpy(out + 4 * ncand + k * wbytes, row + 8 * nl - wbytes, (size_t)wbytes);
    }
done:
    free(seen);
    free(table);
    return ncand;
}

/* out[i] = bases[i]^e mod n, canonical residues in and out, by the sliding
 * window program `prog` = [tsize, nwin, tail, t0, s1, t1, ...] (python's
 * _window_program).  Each base in Montgomery form fills `table` (tsize * nl
 * limbs of scratch) with its odd powers base^(2t+1); the result starts at
 * table[t0] (ONE for e = 0), then per window squares s times and multiplies
 * in table[t], and `tail` squarings end it before the REDC back. */
void repro_pow_many(uint64_t *out, const uint64_t *bases, long count,
                    const uint32_t *prog, uint64_t *table, const uint64_t *r2,
                    const uint64_t *one_m, const uint64_t *n, uint64_t n0inv,
                    int nl)
{
    const uint32_t tsize = prog[0], nwin = prog[1], tail = prog[2];
    const uint32_t *win = prog + 3;
    const size_t row_bytes = (size_t)nl * sizeof(uint64_t);
    uint64_t square[MAXL];
    for (long i = 0; i < count; i++) {
        uint64_t *res = out + i * nl;
        mont_mul_(table, bases + i * nl, r2, n, n0inv, nl);
        if (tsize > 1)
            mont_mul_(square, table, table, n, n0inv, nl);
        for (uint32_t t = 1; t < tsize; t++)
            mont_mul_(table + t * nl, table + (t - 1) * nl, square, n, n0inv, nl);
        memcpy(res, nwin ? table + (size_t)win[0] * nl : one_m, row_bytes);
        for (uint32_t w = 1; w < nwin; w++) {
            for (uint32_t s = win[2 * w - 1]; s; s--)
                mont_mul_(res, res, res, n, n0inv, nl);
            mont_mul_(res, res, table + (size_t)win[2 * w] * nl, n, n0inv, nl);
        }
        for (uint32_t s = tail; s; s--)
            mont_mul_(res, res, res, n, n0inv, nl);
        mont_redc_(res, res, n, n0inv, nl);
    }
}
"""

_KERNEL_CDEF = """
void repro_mul_many(uint64_t *out, const uint64_t *a, long count,
                    const uint64_t *b, const uint64_t *n, uint64_t n0inv,
                    int nl);
void repro_redc_many(uint64_t *out, const uint64_t *a, long count,
                     const uint64_t *n, uint64_t n0inv, int nl);
long repro_accumulate(long nterms, const uint64_t *selectors,
                      const uint32_t **docs, const uint32_t **impacts,
                      const uint32_t **plans, const long *counts,
                      long postings, long max_slots, unsigned char *out,
                      long wbytes, const uint64_t *r2, const uint64_t *one_m,
                      const uint64_t *n, uint64_t n0inv, int nl);
void repro_pow_many(uint64_t *out, const uint64_t *bases, long count,
                    const uint32_t *prog, uint64_t *table, const uint64_t *r2,
                    const uint64_t *one_m, const uint64_t *n, uint64_t n0inv,
                    int nl);
"""

_COMPILE_ARGS = ("-O3",)

#: Loaded ``(ffi, lib)`` pair, or the failure reason once loading failed.
_COMPILED: tuple | None = None
_COMPILE_ERROR: str | None = None
#: One loader at a time: a client column and a starting service may probe
#: from different threads of one process.
_COMPILE_LOCK = threading.Lock()


def _cache_dir() -> str:
    configured = os.environ.get("REPRO_KERNEL_CACHE")
    if configured:
        return configured
    try:
        uid = os.getuid()
    except AttributeError:  # pragma: no cover - non-POSIX
        uid = 0
    return os.path.join(tempfile.gettempdir(), f"repro-kernels-cache-{uid}")


def _module_name() -> str:
    import hashlib

    digest = hashlib.sha256(
        (_KERNEL_SOURCE + _KERNEL_CDEF + " ".join(_COMPILE_ARGS)).encode()
    ).hexdigest()[:16]
    return f"_repro_kernels_{digest}"


def _load_extension(path: str, modname: str):
    spec = importlib.util.spec_from_file_location(modname, path)
    if spec is None or spec.loader is None:  # pragma: no cover - defensive
        raise ImportError(f"cannot load kernel extension from {path}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ffi, module.lib


def _compile_or_load():
    """Compile the kernel (once per machine) or load the cached extension."""
    from cffi import FFI

    import importlib.machinery

    modname = _module_name()
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    cache_dir = os.path.realpath(_cache_dir())
    os.makedirs(cache_dir, mode=0o700, exist_ok=True)
    # Loading *executes* the extension before any self-test can run, under a
    # predictable file name: trust only a directory nobody else can write.
    held = os.stat(cache_dir)
    if hasattr(os, "getuid") and (held.st_uid != os.getuid() or held.st_mode & 0o022):
        raise PermissionError(
            f"kernel cache directory {cache_dir} must be owned by uid {os.getuid()} and "
            f"not group/world-writable (owner {held.st_uid}, mode {held.st_mode & 0o777:o})"
        )
    target = os.path.join(cache_dir, modname + suffix)
    if os.path.exists(target):
        return _load_extension(target, modname)
    builder = FFI()
    builder.cdef(_KERNEL_CDEF)
    builder.set_source(modname, _KERNEL_SOURCE, extra_compile_args=list(_COMPILE_ARGS))
    workdir = tempfile.mkdtemp(prefix="build-", dir=cache_dir)
    try:
        built = builder.compile(tmpdir=workdir)
        # Atomic publish: concurrent builders race benignly, last one wins
        # with an identical artefact (the module name pins the source hash).
        os.replace(built, target)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return _load_extension(target, modname)


def _self_test(ffi, lib) -> None:
    """Verify the compiled arithmetic against python pow/mul on random cases,
    and both entry points -- accumulation and the common-exponent batch --
    against their python loops, at each modulus size (every dispatched limb
    count; 1000 bits: a ciphertext narrower than its limbs)."""
    import random

    rng = random.Random(0x5EED)
    for bits in (16, 64, 128, 192, 256, 512, 1000, 1024, 1536):
        modulus = (rng.getrandbits(bits) | (1 << (bits - 1))) | 1
        nl = (modulus.bit_length() + 63) // 64
        radix = 1 << (64 * nl)
        n0inv = (-pow(modulus, -1, 1 << 64)) % (1 << 64)
        n_buf = ffi.new("uint64_t[]", nl)
        ffi.memmove(n_buf, modulus.to_bytes(nl * 8, "little"), nl * 8)
        out = ffi.new("uint64_t[]", nl)
        a_buf = ffi.new("uint64_t[]", nl)
        b_buf = ffi.new("uint64_t[]", nl)
        for _ in range(8):
            a = rng.randrange(modulus)
            b = rng.randrange(modulus)
            a_m = a * radix % modulus
            b_m = b * radix % modulus
            ffi.memmove(a_buf, a_m.to_bytes(nl * 8, "little"), nl * 8)
            ffi.memmove(b_buf, b_m.to_bytes(nl * 8, "little"), nl * 8)
            lib.repro_mul_many(out, a_buf, 1, b_buf, n_buf, n0inv, nl)
            got = int.from_bytes(bytes(ffi.buffer(out, nl * 8)), "little")
            if got != a * b * radix % modulus:
                raise RuntimeError(
                    f"compiled Montgomery multiply self-test failed at {bits} bits"
                )
            lib.repro_redc_many(out, a_buf, 1, n_buf, n0inv, nl)
            got = int.from_bytes(bytes(ffi.buffer(out, nl * 8)), "little")
            if got != a:
                raise RuntimeError(
                    f"compiled Montgomery reduction self-test failed at {bits} bits"
                )
        # The whole-payload entry point against Algorithm 4's loop: repeated
        # and fresh documents, an impact-0 posting, every plan width.
        payload = [
            (rng.randrange(modulus), array("I", doc_ids), array("I", impacts))
            for doc_ids, impacts in (
                ([3, 1, 3, 2**32 - 1], [9, 9, 4, 0]),
                ([1, 7, 3], [700, 3, 1]),
                ([5, 1], [2, 1]),
            )
        ]
        want: dict[int, int] = {}
        for selector, doc_ids, impacts in payload:
            for doc_id, impact in zip(doc_ids, impacts):
                want[doc_id] = want.get(doc_id, 1) * pow(selector, impact, modulus) % modulus
        body = b"".join(doc.to_bytes(4, "big") for doc in want) + pack_ciphertexts(
            want.values(), modulus
        )
        got = _accumulate(ffi, lib, payload, modulus)
        if got is None or got[0] != body or _accumulate(ffi, lib, [], modulus)[0] != b"":
            raise RuntimeError(f"compiled accumulation self-test failed at {bits} bits")
        # Edge and random bases under 0- and 1-bit exponents and one spanning
        # two words; where python's pow is cheap, lengths on both sides of
        # where each window width starts to pay.
        bases = [0, 1, modulus - 1, *(rng.randrange(modulus) for _ in range(3))]
        widths = (4, 12, 20, 30, 250, 400, 700, 1100) if bits <= 64 else ()
        for ebits in (0, 1, 70, *widths):
            exponent = rng.getrandbits(ebits) | (1 << ebits) >> 1
            if _pow_many(ffi, lib, bases, exponent, modulus) != [
                pow(base, exponent, modulus) for base in bases
            ]:
                raise RuntimeError(f"compiled modexp batch self-test failed at {bits} bits")


def ensure_compiled():
    """Return the loaded ``(ffi, lib)`` pair, compiling on first use.

    Raises a loud :class:`RuntimeError` naming the reason (no cffi, no C
    toolchain, or a failed self-test) when the compiled backend cannot be
    provided; the failure is cached so repeated probes stay cheap.
    """
    global _COMPILED, _COMPILE_ERROR
    if _COMPILED is not None:
        return _COMPILED
    with _COMPILE_LOCK:
        if _COMPILED is not None:
            return _COMPILED
        if _COMPILE_ERROR is not None:
            raise RuntimeError(_COMPILE_ERROR)
        if not HAVE_CFFI:
            _COMPILE_ERROR = (
                "the cffi backend was requested but cffi is not installed; "
                "install the optional extra (pip install 'repro-pangdx10[compiled]')"
            )
            raise RuntimeError(_COMPILE_ERROR)
        try:
            ffi, lib = _compile_or_load()
        except Exception as exc:  # distutils/compiler errors are not RuntimeError
            _COMPILE_ERROR = (
                f"the cffi kernel backend could not be compiled or loaded: {exc!r}; "
                "a working C compiler (cc/gcc) is required"
            )
            raise RuntimeError(_COMPILE_ERROR) from exc
        try:
            _self_test(ffi, lib)
        except RuntimeError as exc:
            _COMPILE_ERROR = f"the cffi kernel backend built but is unusable: {exc}"
            raise RuntimeError(_COMPILE_ERROR) from exc
        _COMPILED = (ffi, lib)
        return _COMPILED


def resolve_backend() -> tuple[str, str | None]:
    """The arithmetic a process can run its batches on, and why.

    ``("cffi", None)`` when the compiled kernel loads and passes its
    self-test, else ``("python", reason)`` with :func:`ensure_compiled`'s
    reason verbatim.  There is no switch: the loop is the reference and the
    only path without a toolchain, the kernel the faster one wherever it
    builds.  Both outcomes are cached by :func:`ensure_compiled`, so a
    repeated probe loads nothing.
    """
    try:
        ensure_compiled()
    except RuntimeError as exc:
        return "python", str(exc)
    return "cffi", None


# -- losing the kernel is loud --------------------------------------------------------
# Every ``return None`` below goes through :func:`_declined`, which books its
# reason here first.  Reasons and counts only -- never a selector, ciphertext,
# term or timing: ``core/risk.py``, the server records no more than it observes.
_FALLBACKS: dict[str, int] = {}
_FALLBACKS_LOCK = threading.Lock()


def _declined(reason: str) -> None:
    """Book one off-envelope exit; the caller runs its python loop instead."""
    with _FALLBACKS_LOCK:
        _FALLBACKS[reason] = _FALLBACKS.get(reason, 0) + 1
    return None


def fallback_counts() -> dict[str, int]:
    """Times a batch entry point declined its input, by reason, so far."""
    with _FALLBACKS_LOCK:
        return dict(_FALLBACKS)


def _loaded():
    """``(ffi, lib)``, or None (booked as ``no_kernel``) when the build is unavailable."""
    try:
        return ensure_compiled()
    except RuntimeError:
        return _declined("no_kernel")


# -- Montgomery contexts ------------------------------------------------------------


class _MontgomeryContext:
    """Per-modulus Montgomery constants plus persistent C-side buffers."""

    __slots__ = ("nl", "modulus_args", "r2_c", "one_c")

    def __init__(self, ffi, modulus: int) -> None:
        nl = (modulus.bit_length() + 63) // 64
        self.nl = nl
        radix = 1 << (64 * nl)
        n_c = ffi.new("uint64_t[]", nl)
        ffi.memmove(n_c, modulus.to_bytes(nl * 8, "little"), nl * 8)
        #: ``(n, n0inv, nl)``: what every kernel entry point's arguments end with.
        self.modulus_args = (n_c, (-pow(modulus, -1, 1 << 64)) % (1 << 64), nl)
        self.r2_c = ffi.new("uint64_t[]", nl)
        ffi.memmove(self.r2_c, (radix * radix % modulus).to_bytes(nl * 8, "little"), nl * 8)
        self.one_c = ffi.new("uint64_t[]", nl)
        ffi.memmove(self.one_c, (radix % modulus).to_bytes(nl * 8, "little"), nl * 8)


_CONTEXTS: dict[int, _MontgomeryContext] = {}
_CONTEXT_CAP = 16


def _montgomery_context(ffi, modulus: int) -> _MontgomeryContext | None:
    """The cached context for ``modulus``, or None when unsupported (even/small/huge)."""
    context = _CONTEXTS.get(modulus)
    if context is not None:
        return context
    if modulus < 3:
        return _declined("modulus_too_small")
    if modulus % 2 == 0:
        return _declined("even_modulus")
    if modulus.bit_length() > 64 * MAXL:
        return _declined("modulus_too_large")
    if len(_CONTEXTS) >= _CONTEXT_CAP:
        _CONTEXTS.clear()
    context = _MontgomeryContext(ffi, modulus)
    _CONTEXTS[modulus] = context
    return context


def _u64_ptr(ffi, arr):
    # from_buffer (not cast) so the returned cdata keeps ``arr`` alive for
    # the duration of the call even when ``arr`` is a temporary.
    return ffi.from_buffer("uint64_t[]", arr, require_writable=False)


def _u32_ptr(ffi, arr):
    return ffi.from_buffer("uint32_t[]", arr, require_writable=False)


def _ints_to_bytes(values, width: int) -> bytes:
    """``values`` (ints ``< 2^(8*width)``) as packed little-endian ``width``-byte rows."""
    return b"".join(value.to_bytes(width, "little") for value in values)


def _bytes_to_ints(raw, width: int) -> list[int]:
    """The little-endian ``width``-byte residues packed in ``raw``."""
    from_bytes = int.from_bytes
    return [
        from_bytes(raw[offset : offset + width], "little")
        for offset in range(0, len(raw), width)
    ]


#: Envelope ceilings; payloads beyond them fall back to the oracle loop.  The
#: impact cap bounds a plan's slots (no width costs more than the ladder's
#: ``max_impact - 1`` ops) and with them the per-call table scratch; the
#: posting cap keeps row numbers inside 32 bits.
_MAX_PLAN_IMPACT = 1 << 20
_POSTING_CAP = 1 << 31


def _uint32_column(values):
    """``values`` itself when it already is a contiguous ``uint32`` buffer
    (the index's own ``array('I')`` / mmap columns), else an ``array('I')``
    copy (``TypeError`` / ``OverflowError`` for entries that are no uint32)."""
    if isinstance(values, array):
        if values.typecode == "I" and values.itemsize == 4:
            return values
    elif isinstance(values, memoryview):
        if values.format == "I" and values.itemsize == 4 and values.c_contiguous:
            return values
    return array("I", values)


def accumulate_compiled(payload, modulus: int):
    """Whole-payload Montgomery accumulation on the compiled kernel.

    Returns ``(rows, postings, table_multiplications,
    accumulator_multiplications)`` -- ``rows`` the candidates in wire form
    (``count`` u32 big-endian document ids, then ``count`` big-endian
    ciphertexts at ``W = ceil(bits(n) / 8)`` bytes), in the oracle loop's
    first-occurrence order, with the same canonical residues and the same
    counter values as that loop -- or ``None``
    whenever any input falls outside the kernel's envelope (no compiled
    library, even/tiny/huge modulus, out-of-range selectors, mismatched or
    non-uint32 columns, oversized impacts or payloads), in which case the
    caller runs the oracle loop instead and :func:`fallback_counts` says why.
    """
    loaded = _loaded()
    if loaded is None:
        return None
    return _accumulate(*loaded, payload, modulus)


def _accumulate(ffi, lib, payload, modulus: int):
    """Marshal one payload into a single ``repro_accumulate`` call.

    C receives the selectors as one byte string, zero-copy pointers to the
    columns, each term's packed plan, and one output buffer (candidate ids,
    then limb rows) sized for the worst case of every posting being a new
    candidate.  It hands back the front of that buffer rewritten as the wire
    body: ``count`` u32 big-endian ids, then ``count`` big-endian
    ciphertexts at ``W = ceil(bits(n) / 8)`` bytes.
    """
    context = _montgomery_context(ffi, modulus)
    if context is None:
        return None
    nl = context.nl
    width = nl * 8
    selectors = []
    doc_columns, impact_columns, plans = [], [], []
    counts = []
    table_multiplications = 0
    max_slots = 0
    for selector, doc_ids, impacts in payload:
        count = len(doc_ids)
        if not count:
            continue
        if count != len(impacts):
            return _declined("column_mismatch")
        if not isinstance(selector, int) or not 0 <= selector < modulus:
            return _declined("selector_out_of_ring")
        try:
            doc_ids = _uint32_column(doc_ids)
            impacts = _uint32_column(impacts)
        except (TypeError, ValueError, OverflowError):
            return _declined("column_type")
        plan = column_plan(impacts)
        if plan.max_impact > _MAX_PLAN_IMPACT:
            return _declined("impact_cap")
        selectors.append(selector.to_bytes(width, "little"))
        doc_columns.append(doc_ids)
        impact_columns.append(impacts)
        plans.append(plan.packed())
        counts.append(count)
        table_multiplications += len(plan.ops)
        if plan.nslots > max_slots:
            max_slots = plan.nslots
    if not counts:
        return b"", 0, 0, 0
    postings = sum(counts)
    if postings >= _POSTING_CAP:
        return _declined("posting_cap")

    # The from_buffer handles pin every column (a pinned array cannot be
    # resized under the kernel) and must outlive the call: the pointer
    # arrays built from them hold bare addresses.
    pinned = [
        [_u32_ptr(ffi, column) for column in kind]
        for kind in (doc_columns, impact_columns, plans)
    ]
    out = bytearray((postings * 4 + 7) // 8 * 8 + postings * width)
    wire_width = ciphertext_width(modulus)
    candidates = lib.repro_accumulate(
        len(counts),
        _u64_ptr(ffi, b"".join(selectors)),
        *(ffi.new("const uint32_t *[]", handles) for handles in pinned),
        ffi.new("long[]", counts),
        postings,
        max_slots,
        ffi.from_buffer("unsigned char[]", out),
        wire_width,
        context.r2_c,
        context.one_c,
        *context.modulus_args,
    )
    if candidates < 0:
        return _declined("scratch_alloc" if candidates == -1 else "plan_mismatch")
    rows = bytes(memoryview(out)[: candidates * (4 + wire_width)])
    return rows, postings, table_multiplications, postings - candidates


def _modexp_batch_compiled(bases, exponent: int, modulus: int):
    """``[pow(b, e, n) for b in bases]`` on the kernel, or None off-envelope."""
    loaded = _loaded()
    if loaded is None:
        return None
    return _pow_many(*loaded, bases, exponent, modulus)


#: Widest window :func:`_window_program` tries: a 2^(w-1)-entry odd-power
#: table per base; a wider one first pays at ~1800-bit exponents, and a
#: 1024-bit key's decryption exponent has ~500 bits.
_MAX_WINDOW = 6


def _sliding_window(exponent: int, w: int) -> tuple[int, list[int]]:
    """``(multiplications, program)`` of the left-to-right width-``w``
    sliding window over ``exponent``, counted as ``repro_pow_many`` runs the
    program ``[tsize, nwin, tail, t0, s1, t1, ...]``: ``tsize`` odd powers
    tabled, window ``i`` the power ``base^(2 t_i + 1)`` after ``s_i`` squarings."""
    bits = format(exponent, "b") if exponent else ""
    windows: list[int] = []  # s0, t0, s1, t1, ...
    squarings = i = 0
    while i < len(bits):
        if bits[i] == "0":
            squarings += 1
            i += 1
            continue
        window = bits[i : i + w].rstrip("0")
        windows += [squarings + len(window), int(window, 2) >> 1]
        squarings = 0
        i += len(window)
    odd = windows[1::2]
    tsize = max(odd, default=0) + 1
    cost = (tsize if tsize > 1 else 0) + sum(windows[2::2]) + max(len(odd) - 1, 0) + squarings
    return cost, [tsize, len(odd), squarings, *windows[1:]]


@lru_cache(maxsize=64)
def _window_program(exponent: int) -> array:
    """The ``uint32`` program of the width with the fewest multiplications
    for this exact exponent (a tie keeps the smaller table): recoded once
    per exponent, which a key fixes."""
    return array("I", min(_sliding_window(exponent, w) for w in range(1, _MAX_WINDOW + 1))[1])


def _pow_many(ffi, lib, bases, exponent: int, modulus: int):
    """Marshal one common-exponent batch into a single ``repro_pow_many`` call."""
    context = _montgomery_context(ffi, modulus)
    if context is None:
        return None
    if exponent < 0:
        return _declined("negative_exponent")
    if not all(isinstance(b, int) and 0 <= b < modulus for b in bases):
        return _declined("base_out_of_ring")
    width = context.nl * 8
    program = _window_program(exponent)
    out = bytearray(len(bases) * width)
    lib.repro_pow_many(
        ffi.from_buffer("uint64_t[]", out),
        _u64_ptr(ffi, _ints_to_bytes(bases, width)),
        len(bases),
        _u32_ptr(ffi, program),
        ffi.new("uint64_t[]", program[0] * context.nl),
        context.r2_c,
        context.one_c,
        *context.modulus_args,
    )
    return _bytes_to_ints(bytes(out), width)


def modexp_batch(bases, exponent: int, modulus: int) -> list[int]:
    """``[pow(base, exponent, modulus) for base in bases]`` on the process's arithmetic.

    A common-exponent batch: every zero-pool entry is ``mu^r mod n`` for the
    same public ``r``, every candidate's ``c^((p1-1)/r) mod p1`` (zero test
    and discrete-log key) for the same key.  On
    :func:`repro.crypto.numbertheory.get_backend`'s ``"cffi"`` it is one
    C call running the exponent's sliding-window program
    (:func:`_window_program`) over every base in Montgomery form, else
    builtin ``pow`` (the oracle).  Both return identical canonical residues;
    an empty batch probes nothing.
    """
    bases = list(bases)
    if not bases:
        return []
    if numbertheory.get_backend() == "cffi":
        result = _modexp_batch_compiled(bases, exponent, modulus)
        if result is not None:
            return result
    return [pow(base, exponent, modulus) for base in bases]
