"""Cost model for the Section 5.2 retrieval-performance experiments.

The paper measures four quantities on a 2010-era testbed (dual Xeon 3 GHz
server with 1 KB disk blocks; 1.33 GHz user machine):

* search-engine I/O (msec),
* search-engine CPU (msec),
* network traffic (Kbytes), and
* user computation (msec),

averaged over 1,000 queries.  This reproduction cannot rerun that hardware,
so the experiments count *operations* -- disk blocks fetched, modular
exponentiations and multiplications on each side, and bytes on the wire --
and convert them to milliseconds with the calibration constants below.  The
constants are rough per-operation costs for the paper's hardware class; the
conclusions we verify (who wins, linear versus sublinear growth, order-of-
magnitude traffic gaps) depend only on the operation counts, not on the exact
constants, and the raw counts are always carried inside the
:class:`CostReport` so readers can re-derive timings under their own
assumptions.

Only the paper's query costs are modelled.  Index maintenance (updates,
merges, checkpoints) is measured, not modelled: the end-to-end benchmark's
``mixed_update_search`` workload reports it per layer under ``--trace 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["CostModel", "CostReport"]


@dataclass(frozen=True)
class CostReport:
    """The four Section 5.2 metrics for one query, plus the raw operation counts."""

    scheme: str
    server_io_ms: float
    server_cpu_ms: float
    traffic_kbytes: float
    user_cpu_ms: float
    counts: dict[str, float] = field(default_factory=dict)

    def combined(self, other: "CostReport", weight_self: float = 0.5) -> "CostReport":
        """Weighted average of two reports (used when averaging over a workload)."""
        weight_other = 1.0 - weight_self
        merged_counts = dict(self.counts)
        for key, value in other.counts.items():
            merged_counts[key] = merged_counts.get(key, 0.0) * weight_self + value * weight_other
        return CostReport(
            scheme=self.scheme,
            server_io_ms=self.server_io_ms * weight_self + other.server_io_ms * weight_other,
            server_cpu_ms=self.server_cpu_ms * weight_self + other.server_cpu_ms * weight_other,
            traffic_kbytes=self.traffic_kbytes * weight_self + other.traffic_kbytes * weight_other,
            user_cpu_ms=self.user_cpu_ms * weight_self + other.user_cpu_ms * weight_other,
            counts=merged_counts,
        )

    @staticmethod
    def average(reports: list["CostReport"]) -> "CostReport":
        """Element-wise mean of a list of reports from the same scheme."""
        if not reports:
            raise ValueError("cannot average an empty list of reports")
        n = len(reports)
        counts: dict[str, float] = {}
        for report in reports:
            for key, value in report.counts.items():
                counts[key] = counts.get(key, 0.0) + value / n
        return CostReport(
            scheme=reports[0].scheme,
            server_io_ms=sum(r.server_io_ms for r in reports) / n,
            server_cpu_ms=sum(r.server_cpu_ms for r in reports) / n,
            traffic_kbytes=sum(r.traffic_kbytes for r in reports) / n,
            user_cpu_ms=sum(r.user_cpu_ms for r in reports) / n,
            counts=counts,
        )


@dataclass(frozen=True)
class CostModel:
    """Per-operation calibration constants (documented defaults, all overridable).

    Parameters
    ----------
    io_seek_ms:
        Fixed cost of positioning the disk head at a bucket's blocks.  Buckets
        are stored contiguously (Section 4), so one seek per bucket.
    io_ms_per_block:
        Sequential transfer time of one ``block_size``-byte block.
    server_modexp_ms:
        One modular exponentiation ``E(u_i)^{p_ij}`` on the server CPU -- the
        per-posting cost of Algorithm 4.  The default assumes a 768-bit
        modulus and finely discretised impact values (exponents of a few tens
        of bits, i.e. roughly 75 modular multiplications per exponentiation),
        which is what makes the paper's PR and PIR server CPU figures land in
        the same range; coarser 8-bit impacts would make PR's server CPU
        several times cheaper than reported.
    server_modmul_ms:
        One modular multiplication on the server CPU (both the PR accumulator
        update and the PIR row products).
    user_modexp_ms:
        One modular exponentiation on the (slower) user machine.
    user_modmul_ms:
        One modular multiplication on the user machine.
    benaloh_decrypt_exponentiations:
        Modular exponentiations needed to decrypt one Benaloh ciphertext with
        the paper's digit-wise procedure (``k * base`` for ``r = base^k``),
        i.e. ``decrypt(c, naive=True)``, not the default subgroup decryption.
    """

    io_seek_ms: float = 5.0
    io_ms_per_block: float = 0.05
    server_modexp_ms: float = 0.19
    server_modmul_ms: float = 0.0025
    user_modexp_ms: float = 0.030
    user_modmul_ms: float = 0.006
    benaloh_decrypt_exponentiations: int = 27

    # -- component conversions ----------------------------------------------------
    def io_ms(self, buckets_fetched: int, blocks_read: int) -> float:
        """Server I/O time for reading the inverted lists of the touched buckets."""
        return buckets_fetched * self.io_seek_ms + blocks_read * self.io_ms_per_block

    def traffic_kb(self, upstream_bytes: int, downstream_bytes: int) -> float:
        return (upstream_bytes + downstream_bytes) / 1024.0

    # -- PR scheme ------------------------------------------------------------------
    def pr_report(
        self,
        *,
        buckets_fetched: int,
        blocks_read: int,
        server_exponentiations: int,
        server_multiplications: int,
        upstream_bytes: int,
        downstream_bytes: int,
        client_encryptions: int,
        client_decryptions: int,
        server_table_multiplications: int = 0,
        client_pooled_encryptions: int = 0,
        client_pool_multiplications: int = 0,
        server_merge_multiplications: int = 0,
        shards_executed: int = 0,
        tasks_retried: int = 0,
        degraded_queries: int = 0,
    ) -> CostReport:
        """Assemble the Section 5.2 metrics for one PR query.

        The fast execution layer changes the op mix rather than the totals of
        work accomplished: ``server_table_multiplications`` counts the
        power-table ladder multiplications that replace per-posting
        exponentiations, and ``client_pooled_encryptions`` says how many of
        the ``client_encryptions`` selector ciphertexts came from the zero
        pool at ``client_pool_multiplications`` total multiplications instead
        of two exponentiations each.  Sharded execution never changes the
        totals either: ``server_merge_multiplications`` (already included in
        ``server_multiplications``) and ``shards_executed`` only attribute
        where the work ran, so wall-clock scales with shards while the
        modelled CPU milliseconds stay put.  The resilience counters
        (``tasks_retried``/``degraded_queries``) likewise report how a
        distributed answer *survived* -- replica failovers walked, queries
        answered without a dark shard -- without touching the modelled costs,
        since a failover re-runs work whose results are bit-identical.  The
        defaults (all zero) describe the naive reference paths.
        """
        server_cpu = (
            server_exponentiations * self.server_modexp_ms
            + (server_multiplications + server_table_multiplications) * self.server_modmul_ms
        )
        # One full Benaloh encryption is two modular exponentiations (g^m and
        # mu^r) plus a multiplication; a pooled selector costs only its share
        # of client_pool_multiplications.  One decryption uses the digit-wise
        # procedure.
        full_encryptions = client_encryptions - client_pooled_encryptions
        user_cpu = (
            full_encryptions * (2 * self.user_modexp_ms + self.user_modmul_ms)
            + client_pool_multiplications * self.user_modmul_ms
            + client_decryptions * self.benaloh_decrypt_exponentiations * self.user_modexp_ms
        )
        return CostReport(
            scheme="PR",
            server_io_ms=self.io_ms(buckets_fetched, blocks_read),
            server_cpu_ms=server_cpu,
            traffic_kbytes=self.traffic_kb(upstream_bytes, downstream_bytes),
            user_cpu_ms=user_cpu,
            counts={
                "buckets_fetched": buckets_fetched,
                "blocks_read": blocks_read,
                "server_exponentiations": server_exponentiations,
                "server_multiplications": server_multiplications,
                "server_table_multiplications": server_table_multiplications,
                "upstream_bytes": upstream_bytes,
                "downstream_bytes": downstream_bytes,
                "client_encryptions": client_encryptions,
                "client_pooled_encryptions": client_pooled_encryptions,
                "client_pool_multiplications": client_pool_multiplications,
                "client_decryptions": client_decryptions,
                "server_merge_multiplications": server_merge_multiplications,
                "shards_executed": shards_executed,
                "tasks_retried": tasks_retried,
                "degraded_queries": degraded_queries,
            },
        )

    # -- PIR baseline ------------------------------------------------------------------
    def pir_report(
        self,
        *,
        buckets_fetched: int,
        blocks_read: int,
        server_multiplications: int,
        upstream_bytes: int,
        downstream_bytes: int,
        client_group_elements: int,
        client_residuosity_tests: int,
        client_score_operations: int,
        server_inversions: int = 0,
    ) -> CostReport:
        """Assemble the Section 5.2 metrics for one PIR query.

        ``client_score_operations`` covers the plaintext score accumulation
        the user must perform locally after reconstructing the inverted lists
        (PIR moves the whole ranking computation to the user).
        ``server_inversions`` counts the per-column modular inversions of the
        packed fast path (charged like an exponentiation: extended gcd work).
        """
        server_cpu = (
            server_multiplications * self.server_modmul_ms
            + server_inversions * self.server_modexp_ms
        )
        # Generating one query element is one squaring (QR) or a constant
        # number of multiplications (QNR); testing residuosity of one answer
        # element is one Euler-criterion exponentiation per prime factor.
        user_cpu = (
            client_group_elements * 2 * self.user_modmul_ms
            + client_residuosity_tests * self.user_modexp_ms
            + client_score_operations * 0.0001
        )
        return CostReport(
            scheme="PIR",
            server_io_ms=self.io_ms(buckets_fetched, blocks_read),
            server_cpu_ms=server_cpu,
            traffic_kbytes=self.traffic_kb(upstream_bytes, downstream_bytes),
            user_cpu_ms=user_cpu,
            counts={
                "buckets_fetched": buckets_fetched,
                "blocks_read": blocks_read,
                "server_multiplications": server_multiplications,
                "server_inversions": server_inversions,
                "upstream_bytes": upstream_bytes,
                "downstream_bytes": downstream_bytes,
                "client_group_elements": client_group_elements,
                "client_residuosity_tests": client_residuosity_tests,
                "client_score_operations": client_score_operations,
            },
        )
