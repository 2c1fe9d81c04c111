"""Tests for the batched modular-arithmetic kernels (``repro.crypto.kernels``).

The compiled (cffi) backend is exercised only where it is available; every
equivalence test keeps the pure-python oracle as ground truth, asserting
bit-identical ciphertexts, identical candidate order, and identical
operation counters across execution paths.
"""

import os
import random
import re
import shutil
import struct
import subprocess
import sys
import threading
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import parallel
from repro.crypto import kernels
from repro.crypto.kernels import build_power_table, power_table_plan

COMPILED = kernels.resolve_backend()[0] == "cffi"

# A mix of Montgomery-eligible moduli (odd, >= 3) spanning 1 to 24 limbs,
# plus the degenerate/ineligible ones the fallback guards must handle.
MODULI = [3, 5, 35, (1 << 61) - 1, 2**127 + 45, 2**255 + 95, 2**1023 + 1155, 2**1535 + 75]

# What a payload column may be: the index's own storage (zero-copy), a
# read-only view of it, or anything else iterable (copied by the kernel).
COLUMN_KINDS = [
    lambda values: array("I", values),
    lambda values: memoryview(array("I", values)).toreadonly(),
    list,
]


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
    result, counts = parallel.accumulate_terms(payload, modulus)
    return (
        result.encrypted_scores,
        counts.postings_processed,
        counts.table_multiplications,
        counts.modular_multiplications,
    )


def assert_declined(reason, call):
    """Losing the kernel is loud: ``None``, and the reason booked once."""
    before = kernels.fallback_counts().get(reason, 0)
    assert call() is None, reason
    assert kernels.fallback_counts().get(reason, 0) == before + 1, reason


def assert_matches_oracle(got, want):
    assert got[0] == want[0]
    assert list(got[0]) == list(want[0]), "dict iteration order diverged"
    assert got[1:] == want[1:], "operation counters diverged"


def wire_rows(scores, modulus):
    """The frame codec's body for ``scores``: u32be ids, then big-endian
    ciphertexts at ``ceil(bits(n) / 8)`` bytes -- what the kernel writes."""
    width = (modulus.bit_length() + 7) // 8
    return struct.pack(f">{len(scores)}I", *scores) + b"".join(
        value.to_bytes(width, "big") for value in scores.values()
    )


def assert_kernel_matches_oracle(got, want, modulus):
    """The kernel's rows are the oracle dict's wire body, byte for byte."""
    assert got is not None, "kernel refused a Montgomery-eligible payload"
    assert got[0] == wire_rows(want[0], modulus), "rows diverged from the oracle"
    assert got[1:] == want[1:], "operation counters diverged"


@st.composite
def payloads(draw):
    modulus = draw(st.sampled_from(MODULI))
    terms = []
    for _ in range(draw(st.integers(0, 5))):
        count = draw(st.integers(0, 10))
        selector = draw(st.integers(0, modulus - 1))
        column = draw(st.sampled_from(COLUMN_KINDS))
        # Repeats within and across terms, and the top of the uint32 range.
        doc_id = st.one_of(st.integers(0, 40), st.integers(2**32 - 3, 2**32 - 1))
        doc_ids = column([draw(doc_id) for _ in range(count)])
        # Sorted descending like real impact-ordered lists, but zeros and
        # duplicates allowed; a sprinkle of large sparse impacts triggers
        # the binary/windowed strategies.
        impacts = sorted(
            (draw(st.integers(0, draw(st.sampled_from([6, 40, 2000]))))
             for _ in range(count)),
            reverse=True,
        )
        terms.append((selector, doc_ids, column(impacts)))
    return modulus, terms


def ladder_cost(positive):
    """The incremental ladder's closed-form multiplication count."""
    return max(positive) - 1


def binary_cost(positive):
    """Square-and-assemble: squarings to the top bit, then set bits - 1 each."""
    return (max(positive).bit_length() - 1) + sum(p.bit_count() - 1 for p in positive)


def cheapest_cost(distinct):
    """The cheapest table build for ``distinct``'s positive impacts: the
    ladder, the binary method, or any 2^w-ary window with ``2^w < max``."""
    positive = [impact for impact in distinct if impact]
    if not positive:
        return 0
    top = max(positive)
    windows = (
        kernels._windowed_cost(positive, top, w)
        for w in range(2, top.bit_length())
        if 2**w < top
    )
    return min(ladder_cost(positive), binary_cost(positive), *windows)


class TestPlanWidth:
    def test_windowed_cost_at_the_end_widths_is_ladder_and_binary(self):
        rng = random.Random(8)
        for _ in range(200):
            positive = sorted({rng.randrange(1, 5000) for _ in range(rng.randrange(1, 9))})
            top = max(positive)
            assert kernels._windowed_cost(positive, top, 1) == binary_cost(positive)
            assert kernels._windowed_cost(positive, top, top.bit_length()) == ladder_cost(positive)

    def test_zero_impacts_cost_nothing(self):
        for distinct, slot_of in (((), {}), ((0,), {0: 0})):
            plan = power_table_plan(distinct)
            assert (plan.w, plan.ops, plan.slot_of) == (0, [], slot_of)

    def test_the_plan_is_the_cheapest_width(self):
        """Exactly the cheapest candidate's length, the ladder's own program
        at ``w = bits(max)``, and strictly cheaper than both end widths
        whenever a window between them is picked."""
        rng = random.Random(9)
        picked = set()
        for _ in range(300):
            dense = {*range(1, rng.randrange(2, 40))}  # the ladder's home ground
            sparse = {rng.randrange(1, 4000) for _ in range(rng.randrange(1, 7))}
            distinct = tuple(sorted(rng.choice([dense, sparse])))
            plan = power_table_plan(distinct)
            top = max(distinct)
            cost = len(plan.ops)
            assert cost == cheapest_cost(distinct)
            assert power_table_plan((0, *distinct)).ops == plan.ops
            assert cost == kernels._windowed_cost(distinct, top, plan.w)
            ladder, binary = ladder_cost(distinct), binary_cost(distinct)
            if plan.w == top.bit_length():
                picked.add("ladder")
                assert cost == ladder <= binary
                assert plan.ops == [(slot, 1) for slot in range(1, top)]
            elif plan.w == 1:
                picked.add("binary")
                assert cost == binary < ladder
            else:
                picked.add("windowed")
                assert 2**plan.w < top and cost < min(ladder, binary)
        assert picked == {"ladder", "binary", "windowed"}


class TestPowerPlans:
    def test_plan_length_equals_predicted_cost(self):
        rng = random.Random(10)
        for _ in range(200):
            distinct = tuple(sorted({rng.randrange(0, 3000) for _ in range(rng.randrange(1, 8))}))
            assert len(power_table_plan(distinct).ops) == cheapest_cost(distinct)

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
            assert cost == cheapest_cost(impacts)

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
        assert_kernel_matches_oracle(kernels.accumulate_compiled(payload, modulus), want, modulus)

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
            # 40 first occurrences fill the 64-entry candidate table past
            # half; ids a large power of two apart all probe from one bucket.
            [(5, array("I", range(1000, 1040)), array("I", [3] * 40))],
            [(7, array("I", [i << 26 for i in range(40)] * 2), array("I", [2] * 80))],
        ]
        for payload in edge_cases:
            want = oracle(payload, modulus)
            assert_matches_oracle(accumulate_loop(payload, modulus), want)
            if COMPILED:
                got = kernels.accumulate_compiled(payload, modulus)
                assert_kernel_matches_oracle(got, want, modulus)

    @pytest.mark.skipif(not COMPILED, reason="compiled kernels unavailable")
    def test_compiled_falls_back_on_ineligible_inputs(self, monkeypatch):
        """Every envelope exit returns ``None`` and books its reason."""
        one = array("I", [1])
        payload = [(3, one, array("I", [2]))]
        accumulate = kernels.accumulate_compiled
        for reason, call in [
            # Even, sub-3 and over-66-limb moduli are not Montgomery-eligible.
            ("even_modulus", lambda: accumulate(payload, 100)),
            ("modulus_too_small", lambda: accumulate(payload, 1)),
            ("modulus_too_large", lambda: accumulate(payload, 2**4224 + 1)),
            # Selector outside [0, n) would diverge from the unreduced table[1].
            ("selector_out_of_ring", lambda: accumulate([(10**40, one, one)], 101)),
            ("selector_out_of_ring", lambda: accumulate([(-1, one, one)], 101)),
            ("selector_out_of_ring", lambda: accumulate([(3.0, one, one)], 101)),
            # Mismatched column lengths must not silently zip-truncate.
            ("column_mismatch", lambda: accumulate([(3, [1, 2], [1])], 101)),
            ("column_type", lambda: accumulate([(3, [2**32], [1])], 101)),
            ("column_type", lambda: accumulate([(3, [1], ["x"])], 101)),
            ("impact_cap", lambda: accumulate([(3, [1], [2**20 + 1])], 101)),
        ]:
            assert_declined(reason, call)
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_POSTING_CAP", 1)
            assert_declined("posting_cap", lambda: accumulate(payload, 101))
        with monkeypatch.context() as patch:  # a plan that lacks the column's impact
            patch.setattr(kernels, "power_table_plan", lambda _, plan=power_table_plan: plan((7,)))
            # A fresh column: plans are memoised per column object.
            assert_declined("plan_mismatch", lambda: accumulate([(3, one, array("I", [2]))], 101))
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_COMPILED", None)
            patch.setattr(kernels, "_COMPILE_ERROR", "no toolchain on this host")
            assert_declined("no_kernel", lambda: accumulate(payload, 101))

    @pytest.mark.skipif(not COMPILED, reason="compiled kernels unavailable")
    def test_failed_self_test_is_cached_not_rerun_per_payload(self, monkeypatch):
        """Regression: a build that fails its self-test used to be reloaded
        and re-tested inside every request, then silently served the loop."""
        loads = []
        load = kernels._compile_or_load

        def failing_self_test(ffi, lib):
            raise RuntimeError("wrong residue at 1024 bits")

        monkeypatch.setattr(kernels, "_COMPILED", None)
        monkeypatch.setattr(kernels, "_COMPILE_ERROR", None)
        monkeypatch.setattr(kernels, "_compile_or_load", lambda: loads.append(1) or load())
        monkeypatch.setattr(kernels, "_self_test", failing_self_test)
        assert kernels.resolve_backend()[0] == "python"
        assert kernels.resolve_backend()[0] == "python"
        assert kernels.accumulate_compiled([(3, array("I", [1]), array("I", [2]))], 101) is None
        assert len(loads) == 1
        reasons = []
        for _ in range(2):
            with pytest.raises(RuntimeError, match="wrong residue at 1024 bits") as excinfo:
                kernels.ensure_compiled()
            reasons.append(str(excinfo.value))
        assert reasons[0] == reasons[1]

    @pytest.mark.skipif(not COMPILED, reason="compiled kernels unavailable")
    def test_concurrent_first_probes_load_the_build_once(self, monkeypatch):
        """A starting service and a client's first column may probe from two
        threads of one process: one of them loads, the rest get its pair."""
        loads = []
        load = kernels._compile_or_load
        monkeypatch.setattr(kernels, "_COMPILED", None)
        monkeypatch.setattr(kernels, "_COMPILE_ERROR", None)
        monkeypatch.setattr(kernels, "_compile_or_load", lambda: loads.append(1) or load())
        barrier = threading.Barrier(8)
        answers = []

        def probe():
            barrier.wait(timeout=30)
            answers.append(kernels.resolve_backend())

        threads = [threading.Thread(target=probe) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [("cffi", None)] * 8
        assert loads == [1]

    @pytest.mark.skipif(not COMPILED, reason="compiled kernels unavailable")
    def test_self_test_refuses_a_build_whose_pow_is_wrong(self):
        """Regression: the load-time self-test never called the modexp batch,
        so the kernel served it unverified."""
        ffi, lib = kernels.ensure_compiled()
        kernels._self_test(ffi, lib)

        class OneWrongEntry:
            def __init__(self, broken):
                self.broken = broken

            def __getattr__(self, name):
                entry = getattr(lib, name)
                if name != self.broken:
                    return entry

                def wrong(out, *args):
                    returned = entry(out, *args)
                    out[0] ^= 1  # lowest bit of the first residue written
                    return returned

                return wrong

        with pytest.raises(RuntimeError, match="modexp batch self-test failed at 16 bits"):
            kernels._self_test(ffi, OneWrongEntry("repro_pow_many"))

    @pytest.mark.skipif(not COMPILED, reason="compiled kernels unavailable")
    def test_every_entry_point_runs_with_numpy_unimportable(self):
        """cffi is the one optional dependency: both batch primitives
        run on the kernel by default, bit-identical to python, where numpy
        cannot load."""
        script = """
import random, sys
sys.modules["numpy"] = None  # any import of it now raises ImportError
from array import array
from repro.core import parallel
from repro.crypto import kernels, numbertheory as nt

rng = random.Random(5)
modulus = 2**1023 + 1155
payload = [
    (rng.randrange(modulus), array("I", [3, 1, 3, 9]), array("I", [9, 4, 4, 1])),
    (rng.randrange(modulus), array("I", [1, 7]), array("I", [700, 2])),
]
bases = [rng.randrange(modulus) for _ in range(9)]

def run():
    result, counts = parallel.accumulate_terms(payload, modulus)
    return list(result.encrypted_scores.items()), counts, kernels.modexp_batch(bases, 3**9, modulus)

assert nt.get_backend() == "cffi"
want = run()
assert want[2] == [pow(b, 3**9, modulus) for b in bases]
assert nt.set_backend("python") == "cffi"
assert run() == want
assert kernels.fallback_counts() == {}, kernels.fallback_counts()
assert sys.modules["numpy"] is None
"""
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(Path(kernels.__file__).parents[2])},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    @pytest.mark.skipif(
        not COMPILED or not hasattr(os, "getuid"),
        reason="needs the built kernel and POSIX ownership",
    )
    def test_cache_directory_must_be_private_to_this_user(self, monkeypatch, tmp_path):
        """Loading executes the extension before any self-test can run, so a
        cache directory others can write into is refused -- even holding a
        perfectly good build -- with the usual cached, loud RuntimeError."""
        built = next(Path(kernels._cache_dir()).glob(kernels._module_name() + ".*"))
        for mode, trusted in ((0o777, False), (0o700, True)):
            cache = tmp_path / f"cache-{mode:o}"
            cache.mkdir()
            cache.chmod(mode)  # mkdir's own mode is subject to the umask
            shutil.copy(built, cache)
            monkeypatch.setenv("REPRO_KERNEL_CACHE", str(cache))
            monkeypatch.setattr(kernels, "_COMPILED", None)
            monkeypatch.setattr(kernels, "_COMPILE_ERROR", None)
            if trusted:
                assert kernels.resolve_backend() == ("cffi", None)
                continue
            for _ in range(2):
                with pytest.raises(RuntimeError, match=re.escape(str(cache))):
                    kernels.ensure_compiled()
            assert kernels.accumulate_compiled([(3, array("I", [1]), array("I", [2]))], 101) is None

    @pytest.mark.skipif(not COMPILED, reason="compiled kernels unavailable")
    def test_concurrent_payloads_match_oracle(self):
        """cffi drops the GIL: sessions accumulate at the same time, so the
        kernel's scratch must be its own.  More threads than cores, different
        payloads and moduli, a switch interval that forces interleaving."""
        rng = random.Random(21)
        cases = []
        for modulus in (2**255 + 95, 2**1023 + 1155):
            payload = [
                (
                    rng.randrange(modulus),
                    array("I", [rng.randrange(50) for _ in range(60)]),
                    array("I", sorted((rng.randrange(30) for _ in range(60)), reverse=True)),
                )
                for _ in range(6)
            ]
            want = oracle(payload, modulus)
            cases.append((payload, modulus, (wire_rows(want[0], modulus), *want[1:])))
        wrong = []

        def hammer(payload, modulus, want):
            for _ in range(100):
                if kernels.accumulate_compiled(payload, modulus) != want:
                    wrong.append(modulus.bit_length())

        threads = [threading.Thread(target=hammer, args=case) for case in cases * 3]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong

    @pytest.mark.skipif(not COMPILED, reason="compiled kernels unavailable")
    def test_accumulate_terms_dispatches_to_compiled_backend(self, pin_backend):
        payload = [
            (11, array("I", [3, 1, 3]), array("I", [4, 2, 1])),
            (29, array("I", [2, 3]), array("I", [5, 5])),
        ]
        modulus = 2**127 + 45
        baseline, base_counts = parallel.accumulate_terms(payload, modulus, "python")
        pin_backend("cffi")
        fast, fast_counts = parallel.accumulate_terms(payload, modulus)
        assert fast.rows == baseline.rows == wire_rows(baseline.encrypted_scores, modulus)
        assert fast == baseline
        assert list(fast) == list(baseline)
        assert fast_counts == base_counts
        assert all(type(v) is int for v in fast.encrypted_scores.values())

    @pytest.mark.skipif(not COMPILED, reason="compiled kernels unavailable")
    def test_reading_a_kernel_result_keeps_its_rows(self):
        payload = [(11, array("I", [3, 1, 3]), array("I", [4, 2, 1]))]
        modulus = 2**127 + 45
        for read in (lambda result: result == result, repr, list):
            result, _ = parallel.accumulate_terms(payload, modulus, "cffi")
            rows = result.rows
            read(result)
            assert result.rows is rows
            assert result.encrypted_scores == dict(result)


class TestModexpBatch:
    def test_python_backend_matches_pow(self, pin_backend):
        pin_backend("python")
        modulus = 2**89 - 1
        bases = [3, 5, 7, 10**20 % modulus]
        for exponent in (0, 1, 2, 3**9, 19683):
            assert kernels.modexp_batch(bases, exponent, modulus) == [
                pow(b, exponent, modulus) for b in bases
            ]

    @pytest.mark.skipif(not COMPILED, reason="compiled kernels unavailable")
    def test_cffi_backend_matches_pow(self, monkeypatch, pin_backend):
        pin_backend("cffi")
        calls = []
        pow_many = kernels._pow_many
        monkeypatch.setattr(kernels, "_pow_many", lambda *args: calls.append(1) or pow_many(*args))
        modulus = 2**1023 + 1155
        rng = random.Random(14)
        bases = [rng.randrange(modulus) for _ in range(17)]
        for exponent in (0, 1, 3**9, 2**64 + 12345):
            assert kernels.modexp_batch(bases, exponent, modulus) == [
                pow(b, exponent, modulus) for b in bases
            ]
        assert len(calls) == 4

    @pytest.mark.skipif(not COMPILED, reason="compiled kernels unavailable")
    def test_compiled_refuses_ineligible_inputs(self):
        modexp = kernels._modexp_batch_compiled
        assert_declined("negative_exponent", lambda: modexp([2], -1, 101))
        assert_declined("base_out_of_ring", lambda: modexp([101], 2, 101))

    def test_empty_batch(self):
        assert kernels.modexp_batch([], 5, 101) == []
