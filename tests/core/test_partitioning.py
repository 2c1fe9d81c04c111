"""The shared partitioning layer: balancing primitives, term->shard maps,
index splitting and sharded persistence.

The load-bearing invariants:

* ``lpt_assignment`` is the deterministic greedy ``BucketPartitioner``
  balances whole buckets with;
* a partitioner is a total, deterministic function of ``(seed, term)`` --
  every node derives the same routing with no coordination -- and survives a
  ``spec()`` round-trip exactly;
* :meth:`InvertedIndex.split` covers every live term exactly once, shares
  posting columns byte-identically, and preserves the global quantisation
  (``max_impact`` / ``quantise_levels``) that bit-identical accumulation
  depends on;
* :func:`save_sharded` writes perfectly normal index directories (verify
  passes per shard) plus a topology that :func:`load_sharded` restores.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.core.partitioning import (
    BucketPartitioner,
    HashPartitioner,
    TOPOLOGY_FILE,
    load_sharded,
    lpt_assignment,
    partitioner_from_spec,
    save_sharded,
    shard_organization,
    split_query_terms,
)
from repro.textsearch.inverted_index import InvertedIndex
from repro.textsearch.segments import read_manifest_log


# -- balancing primitives ----------------------------------------------------------
def test_lpt_assignment_costliest_first_to_lightest_bin():
    # 9 goes to bin 0, 7 to bin 1, 5 to bin 1 (load 7 < 9? no: lightest is
    # bin 1 only after 9 lands; recompute: loads 9/7 -> 5 joins bin 1? 7+5=12
    # vs 9 -> bin 1 is lightest at load 7? No: min(9, 7) = 7 -> bin 1.
    assignment = lpt_assignment([5, 9, 7], 2)
    assert assignment[1] == 0  # costliest item to first bin
    assert assignment[2] == 1  # next to the other
    assert assignment[0] == 1  # 5 joins the lighter bin (7 < 9)


def test_lpt_assignment_single_bin_and_empty():
    assert lpt_assignment([3, 1, 2], 1) == [0, 0, 0]
    assert lpt_assignment([], 4) == []


def test_lpt_assignment_balances_loads():
    rng = random.Random(7)
    costs = [rng.randrange(1, 100) for _ in range(200)]
    bins = 8
    assignment = lpt_assignment(costs, bins)
    loads = [0] * bins
    for item, target in enumerate(assignment):
        loads[target] += costs[item]
    # LPT guarantee: max load <= (4/3 - 1/3m) * optimal; a loose sanity
    # bound (2x the mean) catches gross regressions without re-deriving it.
    assert max(loads) <= 2 * (sum(costs) / bins)


# -- term -> shard maps ------------------------------------------------------------
def test_hash_partitioner_total_deterministic_and_seeded():
    part = HashPartitioner(num_shards=4)
    again = HashPartitioner(num_shards=4)
    terms = [f"term-{i}" for i in range(200)]
    assert [part.shard_of(t) for t in terms] == [again.shard_of(t) for t in terms]
    assert all(0 <= part.shard_of(t) < 4 for t in terms)
    other_seed = HashPartitioner(num_shards=4, seed=99)
    assert any(part.shard_of(t) != other_seed.shard_of(t) for t in terms)


def test_hash_partitioner_spreads_terms():
    part = HashPartitioner(num_shards=4)
    hit = {part.shard_of(f"term-{i}") for i in range(100)}
    assert hit == {0, 1, 2, 3}


def test_hash_partitioner_rejects_zero_shards():
    with pytest.raises(ValueError):
        HashPartitioner(num_shards=0)


def test_hash_partitioner_spec_round_trip():
    part = HashPartitioner(num_shards=3, seed=42)
    revived = partitioner_from_spec(json.loads(json.dumps(part.spec())))
    assert revived == part


def test_bucket_partitioner_keeps_buckets_whole(organization):
    part = BucketPartitioner.from_organization(organization, 3)
    for bucket in organization.buckets:
        shards = {part.shard_of(term) for term in bucket}
        assert len(shards) == 1, "a bucket's terms must stay shard-local"


def test_bucket_partitioner_balances_by_weight(organization):
    weights = {
        term: (i % 7) + 1
        for i, term in enumerate(t for b in organization.buckets for t in b)
    }
    part = BucketPartitioner.from_organization(organization, 2, weights=weights)
    loads = [0, 0]
    for bucket in organization.buckets:
        loads[part.shard_of(bucket[0])] += sum(weights[t] for t in bucket)
    assert max(loads) <= 2 * (sum(loads) / 2)


def test_bucket_partitioner_hash_fallback_for_unknown_terms(organization):
    part = BucketPartitioner.from_organization(organization, 3)
    assert 0 <= part.shard_of("never-a-dictionary-term") < 3


def test_bucket_partitioner_spec_round_trip(organization):
    part = BucketPartitioner.from_organization(organization, 3)
    revived = partitioner_from_spec(json.loads(json.dumps(part.spec())))
    terms = [t for b in organization.buckets for t in b]
    assert [revived.shard_of(t) for t in terms] == [part.shard_of(t) for t in terms]


def test_bucket_partitioner_rejects_out_of_range_assignment():
    with pytest.raises(ValueError):
        BucketPartitioner(num_shards=2, assignments={"x": 5})


def test_partitioner_from_spec_rejects_unknown_kind():
    with pytest.raises(ValueError):
        partitioner_from_spec({"kind": "mystery", "num_shards": 2})


def test_split_query_terms_partitions_pairs_exactly():
    part = HashPartitioner(num_shards=3)
    terms = [f"term-{i}" for i in range(12)]
    selectors = list(range(100, 112))
    split = split_query_terms(terms, selectors, part)
    rebuilt = sorted(
        (term, sel)
        for shard_terms, shard_sel in split.values()
        for term, sel in zip(shard_terms, shard_sel)
    )
    assert rebuilt == sorted(zip(terms, selectors))
    for shard_id, (shard_terms, _) in split.items():
        assert shard_terms, "empty shards must be omitted, not sent"
        assert all(part.shard_of(t) == shard_id for t in shard_terms)


# -- index splitting ---------------------------------------------------------------
def test_split_covers_every_term_once_bit_identically(index):
    part = HashPartitioner(num_shards=3)
    shards = index.split(part)
    assert len(shards) == 3
    seen = {}
    for shard_id, shard in enumerate(shards):
        for term in shard.terms:
            assert term not in seen, "term routed to two shards"
            seen[term] = shard_id
            assert part.shard_of(term) == shard_id
            doc_ids, quants = shard.columns(term)
            full_doc_ids, full_quants = index.columns(term)
            assert list(doc_ids) == list(full_doc_ids)
            assert list(quants) == list(full_quants)
    assert set(seen) == set(index.terms)


def test_split_preserves_global_quantisation(index):
    shards = index.split(HashPartitioner(num_shards=2))
    for shard in shards:
        assert shard.max_impact == index.max_impact
        assert shard.quantise_levels == index.quantise_levels
        assert shard.stats.num_documents == index.stats.num_documents


def test_split_leaves_empty_shards_present(index):
    """More shards than needed: trailing shards exist, just empty."""
    only_shard_zero = BucketPartitioner(
        num_shards=3, assignments={term: 0 for term in index.terms}
    )
    shards = index.split(only_shard_zero)
    assert len(shards) == 3
    assert set(shards[0].terms) == set(index.terms)
    assert shards[1].num_terms == 0 and shards[2].num_terms == 0


def test_split_rejects_out_of_range_routing(index):
    class Rogue:
        num_shards = 2

        def shard_of(self, term):
            return 7

    with pytest.raises(ValueError):
        index.split(Rogue())


# -- sharded persistence -----------------------------------------------------------
def test_save_load_sharded_round_trip(index, tmp_path):
    part = HashPartitioner(num_shards=3)
    layout = save_sharded(index, tmp_path, part)
    assert layout.num_shards == 3
    assert len(layout.epochs) == 3

    revived = load_sharded(tmp_path)
    assert revived.epochs == layout.epochs
    assert revived.partitioner.spec() == part.spec()
    for shard_id, shard_dir in enumerate(revived.shard_dirs):
        report = InvertedIndex.verify_directory(shard_dir)
        assert report["ok"], report
        loaded = InvertedIndex.load(shard_dir, mmap=True)
        for term in loaded.terms:
            assert part.shard_of(term) == shard_id
            doc_ids, quants = loaded.columns(term)
            full_doc_ids, full_quants = index.columns(term)
            assert list(doc_ids) == list(full_doc_ids)
            assert list(quants) == list(full_quants)


def test_sharded_epochs_are_each_shards_newest_save_seq(index, tmp_path):
    part = HashPartitioner(num_shards=3)
    save_sharded(index, tmp_path, part)
    layout = save_sharded(index, tmp_path, part)
    newest = tuple(read_manifest_log(d)[-1]["save_seq"] for d in layout.shard_dirs)
    assert layout.epochs == newest == (2, 2, 2)
    assert load_sharded(tmp_path).epochs == newest


def test_load_sharded_missing_topology(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_sharded(tmp_path)


def test_load_sharded_rejects_corrupt_topology(index, tmp_path):
    save_sharded(index, tmp_path, HashPartitioner(num_shards=2))
    # The second nests past the decoder's recursion limit (RecursionError).
    for body in ("{not json", "[" * 100_000):
        (tmp_path / TOPOLOGY_FILE).write_text(body)
        with pytest.raises(ValueError, match="unreadable shard topology"):
            load_sharded(tmp_path)


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param({"partitioner": ["hash", 1]}, id="partitioner-not-an-object"),
        pytest.param(
            {"partitioner": {"kind": "buckets", "num_shards": 1, "assignments": []}},
            id="assignments-a-list",
        ),
        pytest.param({"partitioner": {"kind": "hash", "num_shards": 3}}, id="shard-count"),
        pytest.param({"shards": [{"dir": "shard-00", "epoch": 1.7}]}, id="fractional-epoch"),
        pytest.param({"shards": [{"dir": "/", "epoch": 1}]}, id="absolute-dir"),
        pytest.param({"shards": [{"dir": "..", "epoch": 1}]}, id="parent-dir"),
        pytest.param(None, id="not-utf-8"),
    ],
)
def test_load_sharded_rejects_an_inconsistent_topology(index, tmp_path, edit):
    """Each is a ValueError naming the topology: never an untyped error, a
    truncated epoch, or a shard directory outside the layout."""
    root = tmp_path / "layout"
    save_sharded(index, root, HashPartitioner(num_shards=1))
    path = root / TOPOLOGY_FILE
    if edit is None:
        path.write_bytes(path.read_bytes().replace(b"shard-00", b"shard-\xff"))
    else:
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
    with pytest.raises(ValueError, match="shard topology"):
        load_sharded(root)


def test_load_sharded_rejects_missing_shard_dir(index, tmp_path):
    layout = save_sharded(index, tmp_path, HashPartitioner(num_shards=2))
    import shutil

    shutil.rmtree(layout.shard_dirs[1])
    with pytest.raises(ValueError):
        load_sharded(tmp_path)


# -- shard-local organisations -----------------------------------------------------
def test_shard_organization_preserves_bucket_positions(index, organization):
    part = BucketPartitioner.from_organization(organization, 2)
    shards = index.split(part)
    for shard in shards:
        shard_terms = set(shard.terms)
        sub = shard_organization(organization, shard_terms)
        assert sub.num_buckets == organization.num_buckets
        for bucket_id, bucket in enumerate(sub.buckets):
            for term in bucket:
                assert term in shard_terms
                assert organization.bucket_id_of(term) == bucket_id
                assert sub.bucket_id_of(term) == bucket_id


def test_shard_organization_bucket_partitioner_keeps_buckets_intact(
    index, organization
):
    """Under bucket routing a surviving bucket keeps its searchable terms."""
    part = BucketPartitioner.from_organization(organization, 2)
    shards = index.split(part)
    indexed = set(index.terms)
    for shard in shards:
        shard_terms = set(shard.terms)
        sub = shard_organization(organization, shard_terms)
        for bucket in sub.buckets:
            if not bucket:
                continue
            # every *indexed* term of the global bucket survives together
            global_bucket = organization.buckets[
                organization.bucket_id_of(bucket[0])
            ]
            assert set(bucket) == set(global_bucket) & indexed & shard_terms
