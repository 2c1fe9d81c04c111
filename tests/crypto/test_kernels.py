"""Tests for the batched modular-arithmetic kernels (``repro.crypto.kernels``).

The compiled (cffi) backend is exercised only where it is available; every
equivalence test keeps the pure-python oracle as ground truth, asserting
bit-identical ciphertexts, identical dict iteration order, and identical
operation counters across execution paths.
"""

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import parallel
from repro.crypto import kernels, numbertheory as nt
from repro.crypto.kernels import (
    build_power_table,
    power_table_plan,
    power_table_strategy,
)

COMPILED = kernels.compiled_available()

# A mix of Montgomery-eligible moduli (odd, >= 3) spanning 1 to 17 limbs,
# plus the degenerate/ineligible ones the fallback guards must handle.
MODULI = [3, 5, 35, (1 << 61) - 1, 2**127 + 45, 2**1023 + 1155]


def oracle(payload, modulus):
    """The historic per-posting loop: dict order and counters included."""
    accumulators: dict[int, int] = {}
    postings = 0
    table_multiplications = 0
    accumulator_multiplications = 0
    for selector, doc_ids, impacts in payload:
        if not len(doc_ids):
            continue
        table, cost = build_power_table(selector, impacts, modulus)
        table_multiplications += cost
        for doc, impact in zip(doc_ids, impacts):
            postings += 1
            term = table[impact]
            if doc in accumulators:
                accumulators[doc] = accumulators[doc] * term % modulus
                accumulator_multiplications += 1
            else:
                accumulators[doc] = term
    return accumulators, postings, table_multiplications, accumulator_multiplications


def accumulate_loop(payload, modulus):
    """``accumulate_terms``' per-posting loop (the python backend is active
    outside the tests that switch it), flattened to the oracle's shape."""
    accumulators, counts = parallel.accumulate_terms(payload, modulus)
    return (
        accumulators,
        counts.postings,
        counts.table_multiplications,
        counts.accumulator_multiplications,
    )


def assert_matches_oracle(got, want):
    assert got[0] == want[0]
    assert list(got[0]) == list(want[0]), "dict iteration order diverged"
    assert got[1:] == want[1:], "operation counters diverged"


@st.composite
def payloads(draw):
    modulus = draw(st.sampled_from(MODULI))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        count = draw(st.integers(0, 10))
        selector = draw(st.integers(0, modulus - 1))
        doc_ids = array("I", [draw(st.integers(0, 40)) for _ in range(count)])
        # Sorted descending like real impact-ordered lists, but zeros and
        # duplicates allowed; a sprinkle of large sparse impacts triggers
        # the binary/windowed strategies.
        impacts = sorted(
            (draw(st.integers(0, draw(st.sampled_from([6, 40, 2000]))))
             for _ in range(count)),
            reverse=True,
        )
        terms.append((selector, doc_ids, array("I", impacts)))
    return modulus, terms


class TestStrategySelection:
    def test_windowed_cost_with_w1_equals_binary(self):
        rng = random.Random(8)
        for _ in range(200):
            positive = sorted({rng.randrange(1, 5000) for _ in range(rng.randrange(1, 9))})
            max_impact = max(positive)
            binary = (max_impact.bit_length() - 1) + sum(
                p.bit_count() - 1 for p in positive
            )
            assert kernels._windowed_cost(positive, max_impact, 1) == binary

    def test_zero_impacts_cost_nothing(self):
        assert power_table_strategy([0], 0) == ("ladder", 0)
        assert power_table_strategy([], 0) == ("ladder", 0)

    def test_windowed_strictly_beats_ladder_and_binary_when_chosen(self):
        rng = random.Random(9)
        seen_windowed = False
        for _ in range(300):
            distinct = sorted({rng.randrange(1, 4000) for _ in range(rng.randrange(1, 7))})
            name, cost = power_table_strategy(distinct, max(distinct))
            ladder = max(distinct) - 1
            binary = (max(distinct).bit_length() - 1) + sum(
                p.bit_count() - 1 for p in distinct
            )
            if name.startswith("windowed"):
                seen_windowed = True
                assert cost < min(ladder, binary)
            else:
                assert cost == min(ladder, binary)
        assert seen_windowed, "no case ever picked a windowed strategy"


class TestPowerPlans:
    def test_plan_length_equals_predicted_cost(self):
        rng = random.Random(10)
        for _ in range(200):
            distinct = tuple(sorted({rng.randrange(0, 3000) for _ in range(rng.randrange(1, 8))}))
            plan = power_table_plan(distinct)
            _, cost = power_table_strategy(distinct, max(distinct))
            assert len(plan.ops) == cost

    def test_build_power_table_matches_pow(self):
        rng = random.Random(11)
        for _ in range(150):
            modulus = rng.choice(MODULI)
            selector = rng.randrange(0, modulus)
            impacts = [rng.randrange(0, 2500) for _ in range(rng.randrange(1, 8))]
            table, cost = build_power_table(selector, impacts, modulus)
            assert set(table) == set(impacts)
            for impact, value in table.items():
                if impact == 1:
                    # Slot 1 is the selector object itself, unreduced,
                    # exactly as the historic builder stored it.
                    assert value == selector
                else:
                    assert value == pow(selector, impact, modulus)
            _, predicted = power_table_strategy(sorted(set(impacts)), max(impacts))
            assert cost == predicted

    def test_empty_impacts_build_empty_table(self):
        assert build_power_table(7, [], 101) == ({}, 0)


class TestAccumulateEquivalence:
    @given(payloads())
    @settings(max_examples=120, deadline=None)
    def test_loop_matches_oracle(self, case):
        modulus, payload = case
        assert_matches_oracle(accumulate_loop(payload, modulus), oracle(payload, modulus))

    @pytest.mark.skipif(not COMPILED, reason="compiled kernels unavailable")
    @given(payloads())
    @settings(max_examples=120, deadline=None)
    def test_compiled_matches_oracle(self, case):
        modulus, payload = case
        want = oracle(payload, modulus)
        got = kernels.accumulate_compiled(payload, modulus)
        assert got is not None, "kernel refused a Montgomery-eligible payload"
        assert_matches_oracle(got, want)

    def test_edge_payloads(self):
        modulus = 2**255 + 95
        edge_cases = [
            [],  # empty payload
            [(5, array("I"), array("I"))],  # fully tombstoned term
            [(5, array("I", [7]), array("I", [3]))],  # single posting
            [(5, array("I", [1, 2]), array("I", [0, 0]))],  # impact-0 list
            [
                (5, array("I"), array("I")),
                (9, array("I", [4, 4, 4]), array("I", [2, 2, 1])),
            ],
        ]
        for payload in edge_cases:
            want = oracle(payload, modulus)
            assert_matches_oracle(accumulate_loop(payload, modulus), want)
            if COMPILED:
                got = kernels.accumulate_compiled(payload, modulus)
                assert got is not None
                assert_matches_oracle(got, want)

    @pytest.mark.skipif(not COMPILED, reason="compiled kernels unavailable")
    def test_compiled_falls_back_on_ineligible_inputs(self):
        payload = [(3, array("I", [1]), array("I", [2]))]
        # Even and sub-3 moduli are not Montgomery-eligible.
        assert kernels.accumulate_compiled(payload, 100) is None
        assert kernels.accumulate_compiled(payload, 1) is None
        # Selector outside [0, n) would diverge from the unreduced table[1].
        assert kernels.accumulate_compiled([(10**40, array("I", [1]), array("I", [1]))], 101) is None
        assert kernels.accumulate_compiled([(-1, array("I", [1]), array("I", [1]))], 101) is None
        # Mismatched column lengths must not silently zip-truncate.
        assert (
            kernels.accumulate_compiled([(3, array("I", [1, 2]), array("I", [1]))], 101)
            is None
        )

    @pytest.mark.skipif(not COMPILED, reason="compiled kernels unavailable")
    def test_accumulate_terms_dispatches_to_compiled_backend(self):
        payload = [
            (11, array("I", [3, 1, 3]), array("I", [4, 2, 1])),
            (29, array("I", [2, 3]), array("I", [5, 5])),
        ]
        modulus = 2**127 + 45
        baseline, base_counts = parallel.accumulate_terms(payload, modulus)
        nt.set_backend("cffi")
        try:
            fast, fast_counts = parallel.accumulate_terms(payload, modulus)
        finally:
            nt.set_backend("python")
        assert fast == baseline
        assert list(fast) == list(baseline)
        assert fast_counts == base_counts
        assert all(type(v) is int for v in fast.values())


class TestPIRFold:
    @pytest.mark.skipif(not COMPILED, reason="compiled kernels unavailable")
    def test_fold_rows_matches_python_loop(self):
        rng = random.Random(13)
        for modulus in (2**61 - 1, 2**255 + 95, 2**1023 + 1155):
            cols = rng.randrange(1, 12)
            masks = [rng.getrandbits(cols) for _ in range(rng.randrange(0, 16))]
            base = rng.randrange(0, modulus)
            ratios = [rng.randrange(1, modulus) for _ in range(cols)]
            got = kernels.pir_fold_rows(masks, cols, base, ratios, modulus)
            assert got is not None
            answers, count = got
            want = []
            want_count = 0
            for mask in masks:
                gamma = base
                while mask:
                    low = mask & -mask
                    gamma = gamma * ratios[low.bit_length() - 1] % modulus
                    want_count += 1
                    mask ^= low
                want.append(gamma)
            assert list(answers) == want
            assert count == want_count

    @pytest.mark.skipif(not COMPILED, reason="compiled kernels unavailable")
    def test_fold_rows_refuses_ineligible_inputs(self):
        assert kernels.pir_fold_rows([1], 1, 0, [1], 100) is None  # even modulus
        assert kernels.pir_fold_rows([1], 1, 200, [1], 101) is None  # base >= n


class TestModexpBatch:
    def test_python_backend_matches_pow(self):
        modulus = 2**89 - 1
        bases = [3, 5, 7, 10**20 % modulus]
        for exponent in (0, 1, 2, 3**9, 19683):
            assert kernels.modexp_batch(bases, exponent, modulus) == [
                pow(b, exponent, modulus) for b in bases
            ]

    @pytest.mark.skipif(not COMPILED, reason="compiled kernels unavailable")
    def test_cffi_backend_matches_pow(self):
        modulus = 2**1023 + 1155
        rng = random.Random(14)
        bases = [rng.randrange(modulus) for _ in range(17)]
        nt.set_backend("cffi")
        try:
            for exponent in (0, 1, 3**9, 2**64 + 12345):
                assert kernels.modexp_batch(bases, exponent, modulus) == [
                    pow(b, exponent, modulus) for b in bases
                ]
        finally:
            nt.set_backend("python")

    def test_empty_batch(self):
        assert kernels.modexp_batch([], 5, 101) == []
