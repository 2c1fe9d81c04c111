"""Scatter-gather query coordination over partitioned index shards.

One level above :class:`~repro.core.server.PrivateRetrievalServer`: the index
is split by a term->shard map (:mod:`repro.core.partitioning`), each shard is
served by one or more replica backends, and the :class:`QueryCoordinator`
scatters an embellished query's ``(term, selector)`` pairs to exactly the
shards that own them, gathers per-shard partial accumulators, and merges them
by modular multiplication.  The accumulation product is associative, so the
merged ciphertexts are **bit-identical** to a single-node server's -- the
worker pool's invariant, lifted to shards that may live in other processes
or on other machines.

Backends are duck-typed so the coordinator never learns the transport: any
object with ``accumulate(subqueries) -> ShardResponse`` serves.  This module
ships :class:`LocalShardBackend` (an in-process
:class:`~repro.core.server.PrivateRetrievalServer` over one shard's index) and
:class:`FaultedBackend` (deterministic replica-fault injection driven by
:class:`~repro.core.faults.FaultPlan`); :mod:`repro.service.cluster` adds the
HTTP backend over real shard-server processes.

**Failover**: each shard has an ordered replica list.  Gather walks the
replicas through the one retry loop
(:meth:`~repro.core.faults.RetryPolicy.attempts`), rotating to the next
replica on any retryable failure (connection loss, duck-typed ``transient``
errors, epoch skew).  A shard whose replicas are all dark raises a typed
:class:`ShardUnavailableError` -- or, with ``allow_partial=True``, degrades
gracefully: the dark shard contributes the multiplicative identity and every
affected query is counted in ``degraded_queries``.

**Skew detection**: responses are epoch-stamped.  The coordinator pins an
expected epoch per shard (the split's ``save_seq``, via
:class:`~repro.core.partitioning.ShardedIndexLayout`); a replica answering
from a different epoch is rejected (another replica may be caught up), and a
shard with no consistent replica raises :class:`ShardEpochSkewError` rather
than silently mixing epochs into one result.  Responses are also
modulus-tagged: a partial accumulated under the wrong public key can never
reach the merge.
"""

from __future__ import annotations

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.core import parallel
from repro.core.embellish import EmbellishedQuery
from repro.core.faults import (
    FaultPlan,
    PermanentFaultError,
    RetryPolicy,
    TransientFaultError,
    retryable,
)
from repro.core.partitioning import split_query_terms
from repro.core.server import EncryptedResult, PrivateRetrievalServer, ServerCounters

__all__ = [
    "FaultedBackend",
    "LocalShardBackend",
    "QueryCoordinator",
    "ShardEpochSkewError",
    "ShardResponse",
    "ShardTopology",
    "ShardUnavailableError",
    "shard_partials",
]

log = logging.getLogger(__name__)


class ShardUnavailableError(RuntimeError):
    """Every replica of a shard failed within the retry budget.

    Carries where and how hard the coordinator tried; ``transient`` is true
    (duck-typed like :mod:`repro.core.faults` errors) because unavailability
    is, by nature, worth retrying later -- the replicas may come back.
    """

    transient = True

    def __init__(self, shard_id: int, attempts: int, last_error: BaseException | None):
        detail = f": last error {last_error!r}" if last_error is not None else ""
        super().__init__(
            f"shard {shard_id} unavailable after {attempts} attempts{detail}"
        )
        self.shard_id = shard_id
        self.attempts = attempts
        self.last_error = last_error


class ShardEpochSkewError(RuntimeError):
    """No replica of a shard answers at the coordinator's pinned epoch.

    Mixing epochs inside one merged result would break bit-identity (and
    snapshot isolation), so a skewed shard is an error, not a degradation.
    Not ``transient``: clearing it needs a topology refresh or a shard
    re-sync, not a blind retry.
    """

    transient = False

    def __init__(self, shard_id: int, expected_epoch: int, observed_epoch: int):
        relation = "trails" if observed_epoch < expected_epoch else "leads"
        super().__init__(
            f"shard {shard_id} {relation} the coordinator: expected epoch "
            f"{expected_epoch}, observed {observed_epoch}"
        )
        self.shard_id = shard_id
        self.expected_epoch = expected_epoch
        self.observed_epoch = observed_epoch


@dataclass(frozen=True)
class ShardResponse:
    """One shard replica's answer to a scattered sub-batch.

    ``partials[q]`` is query ``q``'s partial accumulator map
    (``doc_id -> ciphertext``) over this shard's terms; ``counters[q]`` the
    shard-side operation counters for that query.  ``epoch`` stamps the data
    version the replica served from and ``modulus`` tags which public key the
    partials were accumulated under -- the coordinator verifies both before
    any partial reaches the merge.
    """

    epoch: int
    modulus: int
    partials: tuple[dict[int, int], ...]
    counters: tuple[ServerCounters, ...]


def data_epoch(index) -> int:
    """The epoch a shard's responses are stamped with.

    For an index loaded from a WAL-v3 directory this is the directory's
    ``save_seq`` (what :func:`repro.core.partitioning.save_sharded` records
    in the topology); otherwise the in-memory ``update_epoch``.
    """
    persist = getattr(index, "_persist", None)
    if persist:
        return int(persist.get("save_seq", 1))
    return int(getattr(index, "update_epoch", 0))


def shard_partials(
    server: PrivateRetrievalServer,
    queries: Sequence[EmbellishedQuery],
    epoch: int | None = None,
) -> ShardResponse:
    """The shard role: answer a scattered sub-batch over ``server``'s index.

    The one implementation behind :class:`LocalShardBackend` and the
    service's ``POST /shards/{tenant}/partials``: stream the sub-batch, keep
    each query's partial with its counters, tag the modulus the partials
    were accumulated under and stamp the data epoch (``None`` derives it
    from the index).
    """
    pairs = list(server.iter_batch(queries))
    return ShardResponse(
        epoch=data_epoch(server.index) if epoch is None else epoch,
        modulus=server.public_key.n,
        partials=tuple(result.encrypted_scores for result, _ in pairs),
        counters=tuple(counters for _, counters in pairs),
    )


@dataclass
class LocalShardBackend:
    """An in-process replica: a :class:`PrivateRetrievalServer` over one shard.

    The reference backend -- the HTTP backend in :mod:`repro.service.cluster`
    must be observationally identical to this one (same partials, same epoch
    stamp, same counters) for the coordinator to be transport-agnostic.
    """

    server: PrivateRetrievalServer
    #: Epoch stamped on responses; ``None`` derives it from the shard index.
    epoch: int | None = None

    def accumulate(
        self, subqueries: Sequence[tuple[Sequence[str], Sequence[int]]]
    ) -> ShardResponse:
        queries = [
            EmbellishedQuery(terms=tuple(terms), encrypted_selectors=tuple(selectors))
            for terms, selectors in subqueries
        ]
        return shard_partials(self.server, queries, self.epoch)

    def close(self) -> None:
        self.server.close()


@dataclass
class FaultedBackend:
    """Deterministic replica-fault injection around any backend.

    ``plan.decide(replica_index, call)`` picks the fault for each
    ``accumulate`` call, reusing :class:`~repro.core.faults.FaultPlan`'s
    seeded draws and explicit schedules -- so a failover scenario is a pure
    function of ``(seed, replica_index)`` and replays exactly.  ``kill``
    marks the replica **dead**: this call and every later one raise
    :class:`ConnectionError`, modelling a crashed process (failover suites
    kill one replica mid-batch and assert the batch still completes
    bit-identically); ``transient`` and ``permanent`` raise the corresponding
    fault errors.
    """

    inner: object
    plan: FaultPlan
    replica_index: int = 0
    _calls: int = field(default=0, init=False, repr=False)
    _dead: bool = field(default=False, init=False, repr=False)

    def accumulate(self, subqueries) -> ShardResponse:
        call = self._calls
        self._calls += 1
        if self._dead:
            raise ConnectionError(
                f"replica {self.replica_index} is dead (killed on call {call})"
            )
        kind = self.plan.decide(self.replica_index, call)
        if kind == "kill":
            self._dead = True
            raise ConnectionError(
                f"injected kill for replica {self.replica_index} call {call}"
            )
        if kind == "transient":
            raise TransientFaultError(
                f"injected transient fault for replica {self.replica_index} call {call}"
            )
        if kind == "permanent":
            raise PermanentFaultError(
                f"injected permanent fault for replica {self.replica_index} call {call}"
            )
        return self.inner.accumulate(subqueries)

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()


@dataclass(frozen=True)
class ShardTopology:
    """The coordinator's static routing state.

    ``replicas[s]`` is shard ``s``'s ordered replica backends (first is
    preferred); ``expected_epochs[s]`` pins the data epoch the coordinator
    requires of shard ``s``'s answers (``None`` accepts whatever the first
    replica reports, then holds every other replica of that gather to it).
    """

    partitioner: object
    replicas: tuple[tuple[object, ...], ...]
    expected_epochs: tuple[int | None, ...] = ()

    def __post_init__(self) -> None:
        if len(self.replicas) != int(self.partitioner.num_shards):
            raise ValueError(
                f"{len(self.replicas)} replica sets for "
                f"{self.partitioner.num_shards} shards"
            )
        if self.expected_epochs and len(self.expected_epochs) != len(self.replicas):
            raise ValueError("expected_epochs must align with replicas")
        if any(not replicas for replicas in self.replicas):
            raise ValueError("every shard needs at least one replica")

    @property
    def num_shards(self) -> int:
        return len(self.replicas)

    def expected_epoch(self, shard_id: int) -> int | None:
        if not self.expected_epochs:
            return None
        return self.expected_epochs[shard_id]


#: What fails over to the next replica (see
#: :func:`repro.core.faults.retryable`): connection loss and timeouts (a dead
#: or slow replica) and epoch skew (another replica may be caught up).
_FAILOVER_ERRORS = (ConnectionError, TimeoutError, OSError, ShardEpochSkewError)


@dataclass
class QueryCoordinator:
    """Scatter embellished queries over shard replicas and merge the partials.

    Observationally a drop-in for :class:`PrivateRetrievalServer`'s read
    path: ``iter_batch`` yields ``(EncryptedResult, ServerCounters)`` pairs
    whose results are bit-identical to a single-node server over the unsplit
    index and whose counters sum the shard-side operation counts plus the
    coordinator's own merge multiplications; ``process_batch`` and
    ``process_query`` collect them and record ``counters`` /
    ``last_batch_counters`` -- so the service layer streams through a
    coordinator exactly as it streams through a server.

    Parameters
    ----------
    topology:
        Shard replica sets plus the term->shard map and pinned epochs.
    public_key:
        The tenant's Benaloh public key; every gathered partial must be
        tagged with this modulus.
    retry:
        :class:`~repro.core.faults.RetryPolicy` governing failover: total
        attempts per shard are ``max_retries + 1`` spread round-robin over
        the replicas, with the policy's backoff/jitter between attempts and
        its injectable sleep keeping suites deterministic.
    allow_partial:
        When true a fully dark shard degrades the answer (identity
        contribution, ``degraded_queries`` counted, one WARNING naming the
        shard) instead of raising
        :class:`ShardUnavailableError`.  Epoch skew always raises: a
        *missing* contribution is visibly degraded, a *stale* one is silent
        corruption.
    """

    topology: ShardTopology
    public_key: object
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    allow_partial: bool = False
    #: The sum of the most recent :meth:`process_batch`'s per-query counters.
    counters: ServerCounters = field(default_factory=ServerCounters)
    #: The per-query counters of the most recent :meth:`process_batch`.
    last_batch_counters: list[ServerCounters] = field(default_factory=list)

    # -- public entry points ------------------------------------------------------
    def process_query(self, query: EmbellishedQuery) -> EncryptedResult:
        return self.process_batch([query])[0]

    def process_batch(
        self, queries: Sequence[EmbellishedQuery]
    ) -> list[EncryptedResult]:
        """:meth:`iter_batch`, collected; records the counters like the server."""
        pairs = list(self.iter_batch(queries))
        self.last_batch_counters = [counters for _, counters in pairs]
        self.counters = ServerCounters.total(self.last_batch_counters)
        return [result for result, _ in pairs]

    def iter_batch(
        self, queries: Sequence[EmbellishedQuery]
    ) -> Iterator[tuple[EncryptedResult, ServerCounters]]:
        """Answer a batch as ``(result, counters)`` pairs, in query order.

        Shard fan-out *is* the parallelism.  The scatter is batched per
        shard -- each shard replica sees one ``accumulate`` call covering
        its slice of every query -- so a batch costs one round trip per
        shard, not per (query, shard) pair.  Nothing is recorded on the
        coordinator.
        """
        modulus = self.public_key.n

        # -- scatter: shard_id -> (query indices, subqueries) -----------------
        scatter: dict[int, tuple[list[int], list[tuple[list[str], list[int]]]]] = {}
        for position, query in enumerate(queries):
            split = split_query_terms(
                query.terms, query.encrypted_selectors, self.topology.partitioner
            )
            for shard_id, subquery in split.items():
                entry = scatter.setdefault(shard_id, ([], []))
                entry[0].append(position)
                entry[1].append(subquery)

        # -- gather with failover --------------------------------------------
        # Shards are gathered concurrently: each gather blocks on its own
        # replica (a socket for remote backends, GIL-bound accumulation for
        # local ones), and scattering *is* the parallelism -- N shard
        # processes each accumulate 1/N of the postings at the same time.
        # Results are applied in sorted shard order, so partials arrive in a
        # deterministic sequence and the merge stays reproducible.
        partials: list[list[dict[int, int]]] = [[] for _ in queries]
        shard_counters: list[list[ServerCounters]] = [[] for _ in queries]
        degraded: set[int] = set()
        gather_retries = 0
        shard_ids = sorted(scatter)
        if len(shard_ids) > 1:
            with ThreadPoolExecutor(max_workers=len(shard_ids)) as pool:
                futures = [
                    pool.submit(
                        self._gather_shard, shard_id, scatter[shard_id][1], modulus
                    )
                    for shard_id in shard_ids
                ]
                gathered = [future.result() for future in futures]
        else:
            gathered = [
                self._gather_shard(shard_id, scatter[shard_id][1], modulus)
                for shard_id in shard_ids
            ]
        for shard_id, (response, retries) in zip(shard_ids, gathered):
            gather_retries += retries
            positions = scatter[shard_id][0]
            if response is None:
                log.warning(
                    "shard %d is dark: every replica failed; answering %d "
                    "queries without it (allow_partial)",
                    shard_id,
                    len(positions),
                )
                degraded.update(positions)
                continue
            for slot, position in enumerate(positions):
                partials[position].append(response.partials[slot])
                shard_counters[position].append(response.counters[slot])

        # -- merge, in query order -------------------------------------------
        for position, query in enumerate(queries):
            per_query = ServerCounters.total(shard_counters[position])
            # The shard servers each counted their sub-query; the coordinator
            # answers one query over all of them.
            per_query.queries_processed = 1
            per_query.terms_processed = len(query)
            merged, merge_multiplications = parallel.merge_shard_results(
                partials[position], modulus
            )
            per_query.modular_multiplications += merge_multiplications
            per_query.merge_multiplications += merge_multiplications
            if position == 0:
                # Gather-level failover happened once for the whole batch;
                # book it on the first query so the per-query counters sum
                # to the batch's.
                per_query.tasks_retried += gather_retries
            if position in degraded:
                per_query.degraded_queries += 1
            yield EncryptedResult(merged, modulus), per_query

    # -- gather ------------------------------------------------------------------
    def _gather_shard(
        self,
        shard_id: int,
        subqueries: list[tuple[list[str], list[int]]],
        modulus: int,
    ) -> tuple[ShardResponse | None, int]:
        """One shard's ``(response, failover attempts used)``, walking the
        replicas under the retry policy.

        Runs on a gather thread, so it touches no coordinator state -- the
        retry count travels in the return value.  The response is ``None``
        only when ``allow_partial`` is set and the shard is fully dark.
        Raises :class:`ShardEpochSkewError` when replicas answer but none at
        the pinned epoch, and the last replica error (wrapped in
        :class:`ShardUnavailableError`) otherwise.
        """
        replicas = self.topology.replicas[shard_id]
        expected = self.topology.expected_epoch(shard_id)
        last_error: BaseException | None = None
        skew: ShardEpochSkewError | None = None
        for attempt in self.retry.attempts(shard_id):
            backend = replicas[attempt % len(replicas)]
            try:
                response = backend.accumulate(subqueries)
                if response.modulus != modulus:
                    raise ValueError(
                        f"shard {shard_id} accumulated under modulus "
                        f"{response.modulus:#x}, coordinator expected {modulus:#x}"
                    )
                if expected is not None and response.epoch != expected:
                    raise ShardEpochSkewError(shard_id, expected, response.epoch)
                if not len(response.partials) == len(response.counters) == len(subqueries):
                    raise ValueError(
                        f"shard {shard_id} answered {len(response.partials)} "
                        f"partials and {len(response.counters)} counters for "
                        f"{len(subqueries)} sub-queries"
                    )
                return response, attempt
            except Exception as exc:
                if not retryable(exc, _FAILOVER_ERRORS):
                    raise
                if isinstance(exc, ShardEpochSkewError):
                    skew = exc
                else:
                    last_error = exc
        if skew is not None and last_error is None:
            # Replicas answered, just not at the pinned epoch: that is skew,
            # not unavailability, and partial degradation must not mask it.
            raise skew
        if self.allow_partial:
            return None, attempt
        if skew is not None:
            raise skew
        raise ShardUnavailableError(shard_id, attempt + 1, last_error)

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Close every backend that supports closing (idempotent)."""
        for replicas in self.topology.replicas:
            for backend in replicas:
                close = getattr(backend, "close", None)
                if close is not None:
                    close()

    def __enter__(self) -> "QueryCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
