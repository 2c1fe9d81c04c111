"""Kushilevitz-Ostrovsky single-database PIR (Appendix A.1).

The alternate retrieval method in Section 4 treats every bucket as a private
"database": a bit matrix whose columns are the (equal-length, padded) inverted
lists of the bucket's terms and whose ``i``-th row holds the ``i``-th bit of
every list.  To fetch the list of a genuine term without revealing which one,
the client sends one group element per column -- QRs everywhere except a QNR
at the wanted column -- and the server returns one group element per row.
A row's product is a QR exactly when the wanted bit is 0.

The database is stored **packed**: one integer bitmask per row (bit ``j`` set
when column ``j``'s bit is 1), built straight from the column byte strings so
construction skips zero padding entirely.  :meth:`PIRServer.answer` uses the
masks to multiply only the set-bit columns of each row (every row starts from
the shared all-columns-squared product and multiplies in one precomputed
ratio per set bit), which yields *bit-identical* answers to the naive
row-scan at a fraction of the multiplications.  ``naive=True`` on the server
keeps the literal per-cell reference algorithm as a correctness oracle.

The classes below keep the client/server separation explicit so that the cost
model can meter exactly what crosses the wire:

* :class:`PIRDatabase` -- the padded, packed bit-matrix view of a bucket.
* :class:`PIRClient` -- builds queries and decodes answers (owns the secret).
* :class:`PIRServer` -- evaluates a query against a database (sees only ``n``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.crypto.numbertheory import modinv
from repro.crypto.quadratic import QRGroup, generate_group

__all__ = ["PIRDatabase", "PIRQuery", "PIRAnswer", "PIRClient", "PIRServer"]


class PIRDatabase:
    """A bit matrix of ``rows x cols`` that the server holds in plaintext.

    Conceptually ``bits[i][j]`` is the ``i``-th bit of column ``j``: column
    ``j`` is the serialised inverted list of the ``j``-th term in the bucket,
    padded to the length of the longest list in that bucket (the padding
    requirement the paper points out as a PIR overhead).  Physically each row
    is packed into one integer bitmask (``row_masks[i] >> j & 1``), which is
    what the fast answer path iterates.
    """

    __slots__ = ("row_masks", "_cols", "_bits")

    def __init__(self, bits: Sequence[Sequence[int]] | None = None, *, row_masks: Sequence[int] | None = None, cols: int | None = None) -> None:
        if bits is not None:
            widths = {len(row) for row in bits}
            if len(widths) > 1:
                raise ValueError("all rows of a PIR database must have equal width")
            masks = []
            for row in bits:
                mask = 0
                for j, bit in enumerate(row):
                    if bit not in (0, 1):
                        raise ValueError("PIR databases hold bits only")
                    mask |= bit << j
                masks.append(mask)
            self.row_masks = tuple(masks)
            self._cols = widths.pop() if widths else 0
        else:
            if row_masks is None or cols is None:
                raise ValueError("provide either bits or row_masks and cols")
            self.row_masks = tuple(row_masks)
            self._cols = cols
        self._bits: tuple[tuple[int, ...], ...] | None = None

    @property
    def rows(self) -> int:
        return len(self.row_masks)

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def bits(self) -> tuple[tuple[int, ...], ...]:
        """The unpacked bit matrix (reference view; built lazily, cached)."""
        if self._bits is None:
            self._bits = tuple(
                tuple((mask >> j) & 1 for j in range(self._cols)) for mask in self.row_masks
            )
        return self._bits

    @classmethod
    def from_columns(cls, columns: Sequence[bytes]) -> "PIRDatabase":
        """Build a database whose columns are byte strings, padded with zero bytes.

        Packing is proportional to the column bytes actually set: zero bytes
        (all the padding, plus any zero payload bytes) contribute nothing, so
        a bucket of mostly-short lists packs in far less than ``rows x cols``
        bit operations.
        """
        if not columns:
            raise ValueError("at least one column is required")
        max_len = max(len(col) for col in columns)
        masks = [0] * (max_len * 8)
        for j, column in enumerate(columns):
            column_bit = 1 << j
            base = 0
            for byte in column:
                if byte:
                    for offset in range(8):
                        if byte & (128 >> offset):
                            masks[base + offset] |= column_bit
                base += 8
        return cls(row_masks=masks, cols=len(columns))

    def column_bytes(self, col: int) -> bytes:
        """Reassemble column ``col`` as bytes (used by tests as ground truth)."""
        value = 0
        for mask in self.row_masks:
            value = (value << 1) | ((mask >> col) & 1)
        return value.to_bytes(self.rows // 8, "big")


@dataclass(frozen=True)
class PIRQuery:
    """The client's query: the public modulus and one group element per column."""

    n: int
    elements: tuple[int, ...]

    @property
    def size_bytes(self) -> int:
        """Upstream traffic in bytes (cost-model input)."""
        element_bytes = (self.n.bit_length() + 7) // 8
        return element_bytes * len(self.elements)


@dataclass(frozen=True)
class PIRAnswer:
    """The server's answer: one group element per database row."""

    n: int
    elements: tuple[int, ...]

    @property
    def size_bytes(self) -> int:
        """Downstream traffic in bytes (``KeyLen * max |L_i|`` in the paper)."""
        element_bytes = (self.n.bit_length() + 7) // 8
        return element_bytes * len(self.elements)


@dataclass
class PIRServer:
    """Evaluates PIR queries.  Sees only the public modulus inside the query.

    ``naive=True`` runs the literal per-cell reference algorithm; the default
    packed path returns bit-identical answers while multiplying only the
    set-bit columns of each row.
    """

    database: PIRDatabase
    naive: bool = False
    multiplications: int = field(default=0, init=False)
    inversions: int = field(default=0, init=False)

    def answer(self, query: PIRQuery) -> PIRAnswer:
        """Compute ``gamma_i = prod_j v_ij`` for every row ``i``.

        ``v_ij`` is ``q_j^2`` when the bit is 0 and ``q_j`` when the bit is 1.
        The instrumentation counters :attr:`multiplications` and
        :attr:`inversions` feed the cost model for Figures 7(b) and 8(b).
        """
        if len(query.elements) != self.database.cols:
            raise ValueError(
                f"query has {len(query.elements)} elements but the database has "
                f"{self.database.cols} columns"
            )
        if self.naive:
            return self._answer_naive(query)
        return self._answer_packed(query)

    # -- naive reference path ----------------------------------------------------
    def _answer_naive(self, query: PIRQuery) -> PIRAnswer:
        n = query.n
        squared = [pow(q, 2, n) for q in query.elements]
        self.multiplications += len(query.elements)
        answers = []
        for row in self.database.bits:
            gamma = 1
            for j, bit in enumerate(row):
                gamma = (gamma * (query.elements[j] if bit else squared[j])) % n
                self.multiplications += 1
            answers.append(gamma)
        return PIRAnswer(n=n, elements=tuple(answers))

    # -- packed fast path --------------------------------------------------------
    def _answer_packed(self, query: PIRQuery) -> PIRAnswer:
        """Set-bit-only evaluation over the packed row masks.

        Every row's product is ``base * prod_{set bits j} ratio_j`` where
        ``base = prod_j q_j^2`` and ``ratio_j = q_j^-1`` (which equals
        ``q_j * (q_j^2)^-1``): multiplying a ratio in swaps column ``j`` from
        its squared to its plain element.  Modular arithmetic is exact, so
        the answers equal the reference path's bit for bit.
        """
        n = query.n
        elements = query.elements
        cols = self.database.cols
        squared = [q * q % n for q in elements]
        base = 1
        for s in squared:
            base = base * s % n
        ratios = [modinv(q, n) for q in elements]
        # cols squarings + cols base-product multiplications.
        self.multiplications += 2 * cols
        self.inversions += cols

        answers = []
        append = answers.append
        count = 0
        for mask in self.database.row_masks:
            gamma = base
            while mask:
                low = mask & -mask
                gamma = gamma * ratios[low.bit_length() - 1] % n
                count += 1
                mask ^= low
            append(gamma)
        self.multiplications += count
        return PIRAnswer(n=n, elements=tuple(answers))


@dataclass
class PIRClient:
    """Builds PIR queries and decodes answers.  Owns the group's factorisation."""

    group: QRGroup
    rng: random.Random = field(default_factory=random.Random)

    @classmethod
    def with_new_group(cls, key_bits: int = 256, rng: random.Random | None = None) -> "PIRClient":
        rng = rng or random.Random()
        return cls(group=generate_group(key_bits, rng), rng=rng)

    def build_query(self, num_columns: int, wanted_column: int) -> PIRQuery:
        """Build a query retrieving ``wanted_column`` out of ``num_columns``."""
        if not 0 <= wanted_column < num_columns:
            raise ValueError("wanted_column out of range")
        elements = []
        for col in range(num_columns):
            if col == wanted_column:
                elements.append(self.group.random_qnr(self.rng))
            else:
                elements.append(self.group.random_qr(self.rng))
        return PIRQuery(n=self.group.n, elements=tuple(elements))

    def decode_answer(self, answer: PIRAnswer) -> tuple[int, ...]:
        """Decode the wanted column's bits: QR -> 0, QNR -> 1."""
        return tuple(0 if self.group.is_quadratic_residue(g) else 1 for g in answer.elements)

    def decode_answer_bytes(self, answer: PIRAnswer) -> bytes:
        """Decode the wanted column as bytes (dropping any trailing partial byte)."""
        bits = self.decode_answer(answer)
        out = bytearray(len(bits) // 8)
        for index, bit in enumerate(bits[: len(out) * 8]):
            byte_index, offset = divmod(index, 8)
            out[byte_index] |= bit << (7 - offset)
        return bytes(out)

    def retrieve(self, server: PIRServer, wanted_column: int) -> bytes:
        """Convenience end-to-end retrieval of one column from ``server``."""
        query = self.build_query(server.database.cols, wanted_column)
        answer = server.answer(query)
        return self.decode_answer_bytes(answer)
