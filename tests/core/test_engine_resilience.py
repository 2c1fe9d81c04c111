"""Fault-tolerance tests for the persistent execution engine.

Real resident worker pools, deterministic failures: every scenario drives the
engine through :mod:`repro.core.faults` schedules (or kills workers outright)
and asserts the two invariants of the recovery design:

* **bit-identical results** -- the accumulation kernel is an associative
  product in Z*_n, so restarts, retries, and in-process degradation must
  reproduce exactly what a clean sequential run computes;
* **honest accounting** -- ``EngineCounters`` reports every pool restart,
  re-dispatched attempt, expired deadline, and degraded query.
"""

import time

import pytest

from repro.core import faults, parallel
from repro.core.engine import EngineCounters, ExecutionEngine, RetryPolicy
from repro.core.faults import FaultInjector, FaultPlan, PermanentFaultError

MODULUS = 10007 * 10009


def _payload(num_terms: int = 4, postings_per_term: int = 6):
    """A small deterministic payload that shards into multiple worker tasks."""
    from array import array

    payload = []
    for term in range(num_terms):
        selector = 2 + 7 * term
        doc_ids = array("I", range(term, term + postings_per_term))
        impacts = array("I", ((term + offset) % 9 + 1 for offset in range(postings_per_term)))
        payload.append((selector, doc_ids, impacts))
    return payload


def _fast_policy(**overrides) -> RetryPolicy:
    """A retry policy with no real waiting, for deterministic fast tests."""
    defaults = dict(backoff_base=0.0, sleep=lambda _s: None)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


def _engine(plan: FaultPlan | None = None, policy: RetryPolicy | None = None, workers: int = 2):
    return ExecutionEngine(
        parallelism=workers,
        retry_policy=policy or _fast_policy(),
        fault_injector=None if plan is None else FaultInjector(plan=plan),
    )


class TestKillRecovery:
    def test_worker_kill_restarts_pool_and_reruns_only_lost_shard(self):
        payload = _payload()
        expected, _ = parallel.accumulate_terms(payload, MODULUS)
        with _engine(FaultPlan(kill_at=frozenset({(0, 0)}))) as engine:
            merged, counts, merge_muls, shards = engine.run_batch([payload], MODULUS)[0]
        assert merged == expected
        assert shards == 2
        assert engine.counters.pool_restarts == 1
        assert engine.counters.pool_starts == 2  # initial + lazy restart
        assert engine.counters.tasks_retried >= 1
        assert engine.counters.degraded_queries == 0
        # Conservation: scheduling and recovery move work, never make it.
        sequential, seq_counts = parallel.accumulate_terms(payload, MODULUS)
        assert (
            counts.accumulator_multiplications + merge_muls
            == seq_counts.accumulator_multiplications
        )

    def test_repeated_queries_keep_healing(self):
        """kill_at uses call-local indices, so every call loses shard 0 and
        every call must recover to the same bits."""
        payload = _payload()
        expected, _ = parallel.accumulate_terms(payload, MODULUS)
        with _engine(FaultPlan(kill_at=frozenset({(0, 0)}))) as engine:
            for _ in range(3):
                merged, *_ = engine.run_batch([payload], MODULUS)[0]
                assert merged == expected
        assert engine.counters.pool_restarts == 3
        assert engine.counters.tasks_retried >= 3


class TestTransientFaults:
    def test_transient_error_retries_without_restarting_the_pool(self):
        payload = _payload()
        expected, _ = parallel.accumulate_terms(payload, MODULUS)
        with _engine(FaultPlan(transient_at=frozenset({(0, 0)}))) as engine:
            merged, *_ = engine.run_batch([payload], MODULUS)[0]
        assert merged == expected
        assert engine.counters.tasks_retried == 1
        assert engine.counters.pool_restarts == 0
        assert engine.counters.pool_starts == 1
        assert engine.counters.degraded_queries == 0

    def test_permanent_fault_propagates_unretried(self):
        with _engine(FaultPlan(permanent_at=frozenset({(0, 0)}))) as engine:
            with pytest.raises(PermanentFaultError):
                engine.run_batch([_payload()], MODULUS)[0]
        assert engine.counters.tasks_retried == 0
        assert engine.counters.degraded_queries == 0


class TestGracefulDegradation:
    def test_exhausted_retry_budget_degrades_to_in_process(self):
        """A shard whose every attempt faults falls back to the in-process
        kernel: slower, still bit-identical, and counted."""
        payload = _payload()
        expected, _ = parallel.accumulate_terms(payload, MODULUS)
        plan = FaultPlan(
            transient_at=frozenset({(0, 0), (0, 1), (0, 2), (0, 3)})
        )
        policy = _fast_policy(max_retries=3)
        with _engine(plan, policy) as engine:
            merged, counts, merge_muls, shards = engine.run_batch([payload], MODULUS)[0]
        assert merged == expected
        assert engine.counters.degraded_queries == 1
        assert engine.counters.tasks_retried == 3
        assert engine.counters.pool_restarts == 0
        # The degraded shard's partial merges like any worker partial.
        sequential, seq_counts = parallel.accumulate_terms(payload, MODULUS)
        assert (
            counts.accumulator_multiplications + merge_muls
            == seq_counts.accumulator_multiplications
        )

    def test_degraded_query_counted_once_per_query(self):
        plan = FaultPlan(
            transient_at=frozenset(
                (index, attempt) for index in (0, 1) for attempt in range(4)
            )
        )
        payload = _payload()
        expected, _ = parallel.accumulate_terms(payload, MODULUS)
        with _engine(plan, _fast_policy(max_retries=3)) as engine:
            merged, *_ = engine.run_batch([payload], MODULUS)[0]
        assert merged == expected
        # Both shards degraded, but it is one degraded *query*.
        assert engine.counters.degraded_queries == 1


class TestDeadlines:
    def test_hung_task_times_out_restarts_pool_and_degrades(self):
        """A shard that outlives its per-attempt deadline counts as a lost
        attempt: the wedged pool restarts, the retry also hangs, and the
        budget-exhausted shard degrades to the in-process kernel."""
        payload = _payload()
        expected, _ = parallel.accumulate_terms(payload, MODULUS)
        clock_calls = []

        def counting_clock():
            clock_calls.append(1)
            return time.monotonic()

        plan = FaultPlan(
            delay_at=frozenset({(0, 0), (0, 1)}), delay_seconds=1.0
        )
        policy = _fast_policy(max_retries=1, timeout=0.05, clock=counting_clock)
        with _engine(plan, policy) as engine:
            merged, *_ = engine.run_batch([payload], MODULUS)[0]
        assert merged == expected
        assert engine.counters.tasks_timed_out == 2
        assert engine.counters.tasks_retried == 1
        assert engine.counters.pool_restarts == 2
        assert engine.counters.degraded_queries == 1
        assert clock_calls, "deadlines must run on the injected clock"

    def test_no_deadline_never_consults_the_clock(self):
        clock_calls = []

        def counting_clock():
            clock_calls.append(1)
            return time.monotonic()

        policy = _fast_policy(timeout=None, clock=counting_clock)
        with _engine(policy=policy) as engine:
            engine.run_batch([_payload()], MODULUS)[0]
        assert clock_calls == []


class TestBackoff:
    def test_backoff_runs_on_the_injected_sleep_with_seeded_jitter(self):
        recorded = []
        policy = RetryPolicy(backoff_base=0.04, sleep=recorded.append)
        plan = FaultPlan(transient_at=frozenset({(0, 0), (0, 1)}))
        payload = _payload()
        expected, _ = parallel.accumulate_terms(payload, MODULUS)
        with _engine(plan, policy) as engine:
            merged, *_ = engine.run_batch([payload], MODULUS)[0]
        assert merged == expected
        # Exactly the policy's deterministic schedule, no real sleeping.
        assert recorded == [policy.backoff(0, 1), policy.backoff(0, 2)]

    def test_backoff_is_bounded_exponential_with_jitter(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_max=0.5, jitter_seed=9)
        delays = [policy.backoff(3, attempt) for attempt in range(1, 8)]
        # Deterministic: same coordinates, same delays.
        assert delays == [policy.backoff(3, attempt) for attempt in range(1, 8)]
        for attempt, delay in enumerate(delays, start=1):
            ceiling = min(0.5, 0.1 * 2 ** (attempt - 1))
            assert ceiling * 0.5 <= delay <= ceiling
        assert policy.backoff(3, 0) == 0.0
        # Different tasks jitter differently (with overwhelming probability).
        assert policy.backoff(3, 1) != policy.backoff(4, 1)


class TestBatchResilience:
    def test_streamed_batch_survives_scheduled_kills(self):
        batch = [_payload(3, 5), _payload(2, 7), _payload(4, 4)]
        expected = [parallel.accumulate_terms(payload, MODULUS)[0] for payload in batch]
        plan = FaultPlan(kill_every=2)  # kills task indices 0, 2, ... on attempt 0
        with _engine(plan, workers=3) as engine:
            pending = engine.submit_batch(batch, MODULUS)
            results = [handle.result()[0] for handle in pending]
        assert results == expected
        assert engine.counters.pool_restarts >= 1
        assert engine.counters.tasks_retried >= 1
        assert engine.counters.degraded_queries == 0

    def test_cancelled_siblings_heal_through_their_own_collection(self):
        """One kill breaks the shared pool; sibling futures fail with
        BrokenProcessPool/CancelledError and must each recover against the
        replacement pool, not retire it again."""
        batch = [_payload(2, 6) for _ in range(4)]
        expected = [parallel.accumulate_terms(payload, MODULUS)[0] for payload in batch]
        plan = FaultPlan(kill_at=frozenset({(0, 0)}))
        with _engine(plan, workers=4) as engine:
            results = [merged for merged, *_ in engine.run_batch(batch, MODULUS)]
        assert results == expected
        # One worker death retires the shared pool exactly once; siblings
        # re-dispatch onto the single replacement.
        assert engine.counters.pool_restarts == 1
        assert engine.counters.pool_starts == 2


class TestLifecycleAfterBreakage:
    """Satellite: dispatch and shutdown() tolerate broken and absent pools."""

    def test_submit_task_breaking_the_pool_then_resize_and_shutdown(self):
        engine = ExecutionEngine(parallelism=2, retry_policy=_fast_policy())
        future = engine.submit_task(faults.exit_worker)
        with pytest.raises(Exception) as excinfo:
            future.result(timeout=30)
        assert "process" in str(excinfo.value).lower() or "broken" in type(
            excinfo.value
        ).__name__.lower()
        # Dispatching afterwards heals: a fresh pool starts lazily.
        payload = _payload()
        expected, _ = parallel.accumulate_terms(payload, MODULUS)
        merged, *_ = engine.run_batch([payload], MODULUS)[0]
        assert merged == expected
        engine.shutdown()
        assert engine.closed

    def test_shutdown_tolerates_broken_pool(self):
        engine = ExecutionEngine(parallelism=2, retry_policy=_fast_policy())
        future = engine.submit_task(faults.exit_worker)
        with pytest.raises(Exception):
            future.result(timeout=30)
        engine.shutdown()  # must not raise
        assert engine.closed

    def test_lifecycle_tolerates_never_started_pool(self):
        engine = ExecutionEngine(parallelism=2)
        engine.shutdown()  # no pool to retire
        assert engine.closed
        with pytest.raises(RuntimeError):
            engine.run_batch([_payload()], MODULUS)[0]

    def test_generic_submit_heals_a_previously_broken_pool(self):
        engine = ExecutionEngine(parallelism=2, retry_policy=_fast_policy())
        future = engine.submit_task(faults.exit_worker)
        with pytest.raises(Exception):
            future.result(timeout=30)
        healed = engine.submit_task(max, 3, 5)
        assert healed.result(timeout=30) == 5
        assert engine.counters.pool_restarts == 1
        engine.shutdown()


class TestCounters:
    def test_counters_reset_covers_resilience_fields(self):
        counters = EngineCounters(
            pool_starts=1,
            pool_restarts=2,
            tasks_retried=3,
            tasks_timed_out=4,
            degraded_queries=5,
        )
        counters.reset()
        assert counters.pool_restarts == 0
        assert counters.tasks_retried == 0
        assert counters.tasks_timed_out == 0
        assert counters.degraded_queries == 0
        assert counters.pool_starts == 0


class TestSharedEngineAttribution:
    """Sessions share one engine; each query's resilience counters must be
    what *its own* collection caused, not whatever the engine's lifetime
    counters moved by while it happened to be waiting."""

    def test_concurrent_servers_are_charged_only_their_own_recovery(
        self, index, organization, benaloh_keypair
    ):
        import random
        import threading

        from repro.core.embellish import QueryEmbellisher
        from repro.core.server import PrivateRetrievalServer

        embellisher = QueryEmbellisher(
            organization=organization, keypair=benaloh_keypair, rng=random.Random(5)
        )
        query = embellisher.embellish(
            [organization.buckets[0][0], organization.buckets[3][1]]
        )
        # Task indices are call-local, and both servers use the whole pool
        # of 4.  A's one query shards into tasks 0-3, B's five queries are
        # tasks 0-4: both wait out the delay on task 0, only B ever
        # dispatches task 4 and heals its transient fault.
        plan = FaultPlan(
            delay_at=frozenset({(0, 0)}),
            delay_seconds=0.5,
            transient_at=frozenset({(4, 0)}),
        )
        with _engine(plan, workers=4) as engine:
            kwargs = dict(
                index=index,
                organization=organization,
                public_key=benaloh_keypair.public,
                engine=engine,
            )
            server_a = PrivateRetrievalServer(**kwargs)
            server_b = PrivateRetrievalServer(**kwargs)
            answers_b = []
            thread_b = threading.Thread(
                target=lambda: answers_b.extend(server_b.process_batch([query] * 5))
            )
            thread_b.start()
            # B dispatches first, so its retry (after its own 0.5 s delay)
            # lands while A is still inside its collection window.
            time.sleep(0.15)
            (answer_a,) = server_a.process_batch([query])
            thread_b.join(timeout=60)
            assert not thread_b.is_alive()
        assert [r.encrypted_scores for r in answers_b] == [answer_a.encrypted_scores] * 5
        assert server_b.counters.tasks_retried == 1
        assert server_a.counters.tasks_retried == 0
        for name in ("tasks_retried", "pool_restarts", "tasks_timed_out", "degraded_queries"):
            assert getattr(server_a.counters, name) + getattr(
                server_b.counters, name
            ) == getattr(engine.counters, name)
