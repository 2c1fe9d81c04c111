"""Unit tests for the deterministic fault-injection schedule."""

import dataclasses

import pytest

from repro.core import faults
from repro.core.faults import (
    KILL,
    PERMANENT,
    TRANSIENT,
    FaultInjector,
    FaultPlan,
    PermanentFaultError,
    TransientFaultError,
    io_fault_hook,
)


class TestFaultPlanDeterminism:
    def test_decisions_are_pure_functions_of_coordinates(self):
        plan = FaultPlan(seed=42, kill_rate=0.2, transient_rate=0.2, permanent_rate=0.1)
        first = [plan.decide(i, a) for i in range(50) for a in range(3)]
        second = [plan.decide(i, a) for i in range(50) for a in range(3)]
        assert first == second

    def test_identical_plans_replay_identical_schedules(self):
        a = FaultPlan(seed=7, kill_rate=0.3, transient_rate=0.1)
        b = FaultPlan(seed=7, kill_rate=0.3, transient_rate=0.1)
        assert [a.decide(i, 0) for i in range(100)] == [b.decide(i, 0) for i in range(100)]

    def test_different_seeds_give_different_schedules(self):
        a = FaultPlan(seed=1, kill_rate=0.5)
        b = FaultPlan(seed=2, kill_rate=0.5)
        assert [a.decide(i, 0) for i in range(100)] != [b.decide(i, 0) for i in range(100)]

    def test_retry_attempts_draw_independently(self):
        """A retried task (same index, next attempt) gets a fresh draw, so
        with rates below 1.0 retries eventually clear the fault."""
        plan = FaultPlan(seed=3, transient_rate=0.5)
        faulted = [i for i in range(200) if plan.decide(i, 0) is not None]
        assert faulted, "a 50% rate must fire somewhere in 200 tasks"
        cleared = [i for i in faulted if plan.decide(i, 1) is None]
        assert cleared, "an independent retry draw must clear some faults"

    def test_plan_is_frozen_and_hashable(self):
        plan = FaultPlan(kill_at=frozenset({(0, 0)}))
        with pytest.raises(dataclasses.FrozenInstanceError):
            plan.seed = 1
        assert hash(plan) == hash(FaultPlan(kill_at=frozenset({(0, 0)})))


class TestFaultPlanRates:
    def test_zero_rates_never_fault(self):
        plan = FaultPlan()
        assert all(plan.decide(i, a) is None for i in range(100) for a in range(3))
        assert all(plan.decide_io(i) is None for i in range(100))

    def test_unit_rate_always_faults(self):
        assert all(
            FaultPlan(kill_rate=1.0).decide(i, 0) == KILL for i in range(50)
        )
        assert all(
            FaultPlan(io_permanent_rate=1.0).decide_io(i) == PERMANENT for i in range(50)
        )

    def test_rates_stack_in_declaration_order(self):
        """One uniform draw is consumed by the stacked rate bands, so the
        observed mix approximates the configured proportions."""
        plan = FaultPlan(seed=11, kill_rate=0.25, transient_rate=0.25)
        decisions = [plan.decide(i, 0) for i in range(2000)]
        kills = decisions.count(KILL) / len(decisions)
        transients = decisions.count(TRANSIENT) / len(decisions)
        clean = decisions.count(None) / len(decisions)
        assert 0.2 < kills < 0.3
        assert 0.2 < transients < 0.3
        assert 0.45 < clean < 0.55


class TestExplicitSchedules:
    def test_explicit_coordinates_override_rates(self):
        plan = FaultPlan(
            kill_rate=0.0,
            kill_at=frozenset({(3, 0)}),
            transient_at=frozenset({(5, 0)}),
            permanent_at=frozenset({(6, 2)}),
        )
        assert plan.decide(3, 0) == KILL
        assert plan.decide(5, 0) == TRANSIENT
        assert plan.decide(6, 2) == PERMANENT
        assert plan.decide(3, 1) is None
        assert plan.decide(7, 0) is None

    def test_explicit_io_schedule(self):
        plan = FaultPlan(io_permanent_at=frozenset({0, 2}))
        assert [plan.decide_io(i) for i in range(4)] == [PERMANENT, None, PERMANENT, None]


class TestFaultInjectorIoHook:
    def test_hook_consumes_ordinals_in_call_order(self):
        injector = FaultInjector(plan=FaultPlan(io_permanent_at=frozenset({1, 3})))
        hook = injector.io_hook()
        hook("read", "wal.log")  # ordinal 0: clean
        with pytest.raises(PermanentFaultError):
            hook("read", "segment_0_0.bin")  # ordinal 1: faulted
        hook("read", "segment_0_1.bin")  # ordinal 2: clean
        with pytest.raises(PermanentFaultError):
            hook("write", "doc_terms_0.json")  # ordinal 3: faulted
        assert injector.io_operations == 4
        assert injector.io_faults == 2

    def test_permanent_io_fault_type(self):
        hook = io_fault_hook(FaultPlan(io_permanent_rate=1.0))
        with pytest.raises(PermanentFaultError):
            hook("read", "wal.log")

    def test_error_messages_name_operation_and_path(self):
        hook = io_fault_hook(FaultPlan(io_permanent_at=frozenset({0})))
        with pytest.raises(PermanentFaultError, match="read of /some/path"):
            hook("read", "/some/path")


class TestErrorTaxonomy:
    def test_transient_marker_is_duck_typed(self):
        """Retry sites classify by the ``transient`` attribute without
        importing this module; the classes carry it correctly."""
        assert TransientFaultError("x").transient is True
        assert PermanentFaultError("x").transient is False
        assert faults.FaultError("x").transient is False
        assert getattr(ValueError("x"), "transient", False) is False

    def test_fault_errors_are_runtime_errors(self):
        assert issubclass(faults.FaultError, RuntimeError)
        assert issubclass(TransientFaultError, faults.FaultError)
        assert issubclass(PermanentFaultError, faults.FaultError)
