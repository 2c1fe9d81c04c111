"""Partitioning layer: *which shard holds a term's inverted list*.

The accumulation product of the PR scheme is associative, so a query's terms
may be accumulated wherever their lists live and the partials merged.  This
module is the one home for that placement decision: a *term -> shard map*
(:class:`HashPartitioner` / :class:`BucketPartitioner`) decides which shard's
index holds each term's inverted list.  The map is deterministic,
persistable (:meth:`spec` / :func:`partitioner_from_spec`) and total
(unknown terms fall back to a seeded hash), so every node of a cluster
derives the same routing with no coordination.

:class:`BucketPartitioner` reuses the privacy layer's
:class:`~repro.core.buckets.BucketOrganization`: whole buckets map to one
shard (balanced by bucket weight, :func:`lpt_assignment`), so a bucket's
decoy terms -- and the PIR bucket databases built over them -- stay
shard-local.  A query's embellished bucket then scatters to exactly one
shard instead of spraying decoys across the cluster.

:func:`save_sharded` / :func:`load_sharded` persist a split index
(:meth:`repro.textsearch.inverted_index.InvertedIndex.split`) as per-shard
index directories -- each a completely normal index directory, so
snapshots, ``verify``/``repair`` and mmap loads work unchanged per shard
(a shard has no document terms, so it always saves wholesale) -- plus a
``topology.json`` recording the partitioner and each shard's data epoch.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.core.buckets import BucketOrganization

__all__ = [
    "BucketPartitioner",
    "HashPartitioner",
    "ShardedIndexLayout",
    "TOPOLOGY_FILE",
    "lpt_assignment",
    "partitioner_from_spec",
    "save_sharded",
    "load_sharded",
    "shard_organization",
    "split_query_terms",
]

TOPOLOGY_FILE = "topology.json"

#: Default seed for hash routing; distinct from the worker-seed constant so
#: placement and RNG derivation never alias.
DEFAULT_ROUTING_SEED = 0x5A4D


# -- balancing primitive -----------------------------------------------------------
def lpt_assignment(costs: Sequence[int], bins: int) -> list[int]:
    """Longest-processing-time placement: ``item index -> bin index``.

    Items are assigned costliest-first (stable on ties, so equal-cost items
    keep their input order) to the currently lightest bin, with the first
    lightest bin winning ties.  ``bins <= 1`` puts everything in bin 0.
    """
    if bins <= 1:
        return [0] * len(costs)
    order = sorted(range(len(costs)), key=lambda i: costs[i], reverse=True)
    loads = [0] * bins
    assignment = [0] * len(costs)
    for i in order:
        lightest = loads.index(min(loads))
        assignment[i] = lightest
        loads[lightest] += costs[i]
    return assignment


def _hash_shard(seed: int, term: str, num_shards: int) -> int:
    """Stable cross-platform term hash (SHA-256, never ``hash()``)."""
    digest = hashlib.sha256(f"{seed}:{term}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % num_shards


# -- term -> shard maps ------------------------------------------------------------
@dataclass(frozen=True)
class HashPartitioner:
    """Uniform hash routing of terms to ``num_shards`` shards.

    Placement is a pure function of ``(seed, term)``: every process on
    every machine derives the same map with no shared state.  Hash routing
    ignores bucket structure, so one embellished bucket's terms may spread
    over several shards -- use :class:`BucketPartitioner` when PIR bucket
    databases (or decoy co-location generally) must stay shard-local.
    """

    num_shards: int
    seed: int = DEFAULT_ROUTING_SEED

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be at least 1")

    def shard_of(self, term: str) -> int:
        return _hash_shard(self.seed, term, self.num_shards)

    def spec(self) -> dict:
        return {"kind": "hash", "num_shards": self.num_shards, "seed": self.seed}


@dataclass(frozen=True)
class BucketPartitioner:
    """Bucket-aligned routing: every bucket's terms live on one shard.

    Built from a :class:`~repro.core.buckets.BucketOrganization` via
    :meth:`from_organization`, which balances whole buckets over shards by
    total list weight through :func:`lpt_assignment`.  Terms outside the
    organisation (e.g. dictionary terms added after the map was built) fall
    back to seeded hash routing so the map stays total; re-derive the map after
    :meth:`~repro.core.server.PrivateRetrievalServer.accommodate_new_terms`
    to make them bucket-local again.
    """

    num_shards: int
    assignments: Mapping[str, int] = field(default_factory=dict)
    seed: int = DEFAULT_ROUTING_SEED

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        for term, shard in self.assignments.items():
            if not 0 <= shard < self.num_shards:
                raise ValueError(
                    f"term {term!r} assigned to shard {shard} of {self.num_shards}"
                )

    @classmethod
    def from_organization(
        cls,
        organization: BucketOrganization,
        num_shards: int,
        weights: Mapping[str, int] | None = None,
        seed: int = DEFAULT_ROUTING_SEED,
    ) -> "BucketPartitioner":
        """Balance whole buckets over ``num_shards`` shards.

        ``weights`` maps terms to a load estimate (posting counts, say); a
        bucket's cost is the sum over its terms, defaulting to one per term,
        with empty buckets costing 1 so placement stays defined.
        """
        costs = []
        for bucket in organization.buckets:
            if weights is None:
                costs.append(max(1, len(bucket)))
            else:
                costs.append(max(1, sum(weights.get(term, 1) for term in bucket)))
        placement = lpt_assignment(costs, num_shards)
        assignments: dict[str, int] = {}
        for bucket, shard in zip(organization.buckets, placement):
            for term in bucket:
                assignments[term] = shard
        return cls(num_shards=num_shards, assignments=assignments, seed=seed)

    def shard_of(self, term: str) -> int:
        shard = self.assignments.get(term)
        if shard is None:
            return _hash_shard(self.seed, term, self.num_shards)
        return shard

    def spec(self) -> dict:
        return {
            "kind": "buckets",
            "num_shards": self.num_shards,
            "seed": self.seed,
            "assignments": dict(self.assignments),
        }


def partitioner_from_spec(spec: Mapping):
    """Revive a persisted partitioner (:meth:`spec` round-trip); raises
    ``ValueError`` for a spec that describes none."""
    if not isinstance(spec, Mapping):
        raise ValueError(f"a partitioner spec is an object, not {spec!r}")
    kind = spec.get("kind")
    if kind == "hash":
        return HashPartitioner(
            num_shards=int(spec["num_shards"]),
            seed=int(spec.get("seed", DEFAULT_ROUTING_SEED)),
        )
    if kind == "buckets":
        assignments = spec.get("assignments", {})
        if not isinstance(assignments, Mapping):
            raise ValueError(f"bucket assignments are an object, not {assignments!r}")
        return BucketPartitioner(
            num_shards=int(spec["num_shards"]),
            assignments={term: int(shard) for term, shard in assignments.items()},
            seed=int(spec.get("seed", DEFAULT_ROUTING_SEED)),
        )
    raise ValueError(f"unknown partitioner spec {spec!r}")


def split_query_terms(
    terms: Sequence[str], selectors: Sequence[int], partitioner
) -> dict[int, tuple[list[str], list[int]]]:
    """Scatter one embellished query's ``(term, selector)`` pairs by shard.

    Returns only shards that received at least one term -- a shard with no
    matching terms contributes the empty accumulator (the multiplicative
    identity), so the coordinator simply skips it.  Pair order within a
    shard follows query order, keeping scatter deterministic.
    """
    split: dict[int, tuple[list[str], list[int]]] = {}
    for term, selector in zip(terms, selectors):
        shard = partitioner.shard_of(term)
        entry = split.get(shard)
        if entry is None:
            entry = ([], [])
            split[shard] = entry
        entry[0].append(term)
        entry[1].append(selector)
    return split


def shard_organization(
    organization: BucketOrganization, shard_terms
) -> BucketOrganization:
    """The bucket organisation restricted to one shard's terms.

    Bucket *positions* are preserved (bucket ``b`` here holds the subset of
    the global bucket ``b`` the shard owns, possibly empty), so bucket ids --
    and therefore the I/O model's block accounting -- line up with the global
    organisation.  Under a :class:`BucketPartitioner` every bucket survives
    whole on exactly one shard; under hash routing a bucket's terms may
    spread, and each shard charges I/O only for the slice it actually
    stores.
    """
    wanted = set(shard_terms)
    return BucketOrganization(
        buckets=tuple(
            tuple(term for term in bucket if term in wanted)
            for bucket in organization.buckets
        ),
        bucket_size=organization.bucket_size,
        segment_size=organization.segment_size,
        specificity=organization.specificity,
    )


# -- sharded persistence -----------------------------------------------------------
@dataclass(frozen=True)
class ShardedIndexLayout:
    """A split index on disk: per-shard directories plus the routing map."""

    root: Path
    partitioner: object
    shard_dirs: tuple[Path, ...]
    #: Per-shard data epoch (the shard directory's save_seq at split time);
    #: coordinators pin these as the expected epochs for skew detection.
    epochs: tuple[int, ...]

    @property
    def num_shards(self) -> int:
        return len(self.shard_dirs)


def save_sharded(index, root: str | Path, partitioner) -> ShardedIndexLayout:
    """Split ``index`` by ``partitioner`` and persist one directory per shard.

    Each shard directory is a normal index directory
    (:meth:`~repro.textsearch.inverted_index.InvertedIndex.save`):
    ``verify``/``repair`` and mmap loading work unchanged per shard.
    ``topology.json`` at the root records the partitioner spec, the shard
    directory names and each shard's data epoch so :func:`load_sharded` (and
    cluster assembly) can rebuild the exact routing without the original
    index.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    shards = index.split(partitioner)
    shard_dirs = []
    epochs = []
    for shard_id, shard in enumerate(shards):
        shard_dir = root / f"shard-{shard_id:02d}"
        epochs.append(shard.save(shard_dir)["save_seq"])
        shard_dirs.append(shard_dir)
    topology = {
        "version": 1,
        "num_shards": len(shard_dirs),
        "partitioner": partitioner.spec(),
        "shards": [
            {"dir": shard_dir.name, "epoch": epoch}
            for shard_dir, epoch in zip(shard_dirs, epochs)
        ],
    }
    tmp = root / (TOPOLOGY_FILE + ".tmp")
    tmp.write_text(json.dumps(topology, indent=2, sort_keys=True))
    os.replace(tmp, root / TOPOLOGY_FILE)
    return ShardedIndexLayout(
        root=root,
        partitioner=partitioner,
        shard_dirs=tuple(shard_dirs),
        epochs=tuple(epochs),
    )


def load_sharded(root: str | Path) -> ShardedIndexLayout:
    """Read a :func:`save_sharded` layout's topology (shard data stays on disk).

    Raises :class:`FileNotFoundError` when ``root`` has no topology and
    ``ValueError`` for an unreadable or inconsistent one: a shard count the
    entries, the declaration and the partitioner do not agree on, an epoch
    that is not an integer, or a shard directory that is not a plain name
    under ``root``.  Loading the actual shard indexes is the caller's choice
    -- ``InvertedIndex.load(layout.shard_dirs[k], mmap=True)`` per shard, or
    one shard-server process per directory.
    """
    root = Path(root)
    topology_path = root / TOPOLOGY_FILE
    if not topology_path.exists():
        raise FileNotFoundError(f"no {TOPOLOGY_FILE} under {root}")
    try:
        topology = json.loads(topology_path.read_text(encoding="utf-8"))
        partitioner = partitioner_from_spec(topology["partitioner"])
        entries = topology["shards"]
        names = [entry["dir"] for entry in entries]
        epochs = tuple(entry["epoch"] for entry in entries)
    except (KeyError, TypeError, ValueError, RecursionError) as exc:  # JSON and UTF-8 errors too
        raise ValueError(f"unreadable shard topology under {root}: {exc!r}") from exc
    if not len(names) == topology.get("num_shards") == partitioner.num_shards:
        raise ValueError(
            f"shard topology under {root} names {len(names)} shards but declares "
            f"{topology.get('num_shards')} and partitions over {partitioner.num_shards}"
        )
    if not all(type(epoch) is int for epoch in epochs):
        raise ValueError(f"shard topology under {root} has non-integer epochs {epochs}")
    if not all(
        isinstance(name, str) and name not in ("", "..") and Path(name).name == name
        for name in names
    ):
        raise ValueError(f"shard topology under {root} names directories outside it: {names}")
    shard_dirs = tuple(root / name for name in names)
    missing = [str(d) for d in shard_dirs if not d.is_dir()]
    if missing:
        raise ValueError(f"shard topology under {root} references missing {missing}")
    return ShardedIndexLayout(
        root=root,
        partitioner=partitioner,
        shard_dirs=shard_dirs,
        epochs=epochs,
    )
