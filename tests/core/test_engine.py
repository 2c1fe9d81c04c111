"""Lifecycle, scheduling and counter tests for the persistent execution engine."""

import sys
import threading
from array import array

import pytest

from repro.core import parallel
from repro.core.engine import EngineCounters, ExecutionEngine
from repro.core.faults import RetryPolicy
from repro.crypto import kernels

MODULUS = 1009 * 1013
needs_kernel = pytest.mark.skipif(
    kernels.resolve_backend()[0] != "cffi", reason="compiled kernels unavailable"
)


def _payload(entries):
    """Term payloads from ``[(selector, [(doc, impact), ...]), ...]``."""
    return [
        (
            selector,
            array("I", [doc for doc, _ in postings]),
            array("I", [impact for _, impact in postings]),
        )
        for selector, postings in entries
    ]


def _batch():
    heavy = _payload(
        [(11 + i, [(d, 1 + (d + i) % 4) for d in range(9)]) for i in range(4)]
    )
    light = _payload([(53, [(2, 1), (5, 1)])])
    return [heavy, light]


class TestLifecycle:
    def test_lazy_autostart_on_first_dispatch(self):
        engine = ExecutionEngine(parallelism=2)
        assert not engine.running and not engine.closed
        engine.run_batch(_batch(), MODULUS)
        assert engine.running
        assert engine.counters.pool_starts == 1
        engine.shutdown()

    def test_start_is_eager_and_idempotent(self):
        engine = ExecutionEngine(parallelism=2)
        engine.start()
        engine.start()
        assert engine.running
        assert engine.counters.pool_starts == 1
        engine.shutdown()

    def test_context_manager_starts_and_shuts_down(self):
        with ExecutionEngine(parallelism=2) as engine:
            assert engine.running
            engine.run_batch(_batch(), MODULUS)
        assert engine.closed and not engine.running

    def test_reuse_after_shutdown_raises(self):
        engine = ExecutionEngine(parallelism=2)
        engine.run_batch(_batch(), MODULUS)
        engine.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            engine.run_batch(_batch(), MODULUS)
        with pytest.raises(RuntimeError, match="shut down"):
            engine.run_batch([_batch()[0]], MODULUS)[0]
        with pytest.raises(RuntimeError, match="shut down"):
            engine.start()

    def test_shutdown_is_idempotent(self):
        engine = ExecutionEngine(parallelism=2)
        engine.shutdown()
        engine.shutdown()
        assert engine.closed

    def test_lifecycle_tolerates_never_started_pool(self):
        engine = ExecutionEngine(parallelism=2)
        engine.shutdown()  # no pool to retire
        assert engine.closed
        with pytest.raises(RuntimeError):
            engine.run_batch(_batch(), MODULUS)[0]

    def test_default_parallelism_is_cpu_count(self):
        assert ExecutionEngine().parallelism >= 1

    def test_invalid_parallelism_rejected(self):
        with pytest.raises(ValueError):
            ExecutionEngine(parallelism=0)


class TestCountersAndReuse:
    def test_pool_reuses_and_tasks_dispatched(self):
        batch = _batch()
        with ExecutionEngine(parallelism=2) as engine:
            engine.run_batch(batch, MODULUS)
            first_tasks = engine.counters.tasks_dispatched
            assert first_tasks == len(batch)  # batch >= workers: one task/query
            engine.run_batch(batch, MODULUS)
            assert engine.counters.pool_starts == 1
            assert engine.counters.pool_reuses >= 1
            assert engine.counters.tasks_dispatched == 2 * first_tasks
            assert engine.counters.queries_executed == 2 * len(batch)

    def test_results_reproducible_across_pool_reuse(self):
        """A reused resident pool replays the run of a fresh pool exactly --
        same ciphertexts, same operation counts."""
        batch = _batch()
        with ExecutionEngine(parallelism=4) as engine:
            first = engine.run_batch(batch, MODULUS)
            second = engine.run_batch(batch, MODULUS)
        with ExecutionEngine(parallelism=4) as fresh:
            third = fresh.run_batch(batch, MODULUS)
        assert first == second == third

    def test_single_shard_query_runs_in_process_without_starting_pool(self):
        engine = ExecutionEngine(parallelism=4)
        (handle,) = engine.submit_batch([_payload([(17, [(1, 2), (2, 1)])])], MODULUS)
        accumulators, counts = handle.result()
        assert counts.shards_executed == 1 and counts.postings_processed == 2
        assert not engine.running
        assert engine.counters.pool_starts == 0
        engine.shutdown()

    def test_empty_payload_reports_zero_shards(self):
        engine = ExecutionEngine(parallelism=4)
        (handle,) = engine.submit_batch([[]], MODULUS)
        result, counts = handle.result()
        assert result.encrypted_scores == {} and counts.shards_executed == 0
        empty, light = engine.submit_batch([[], _batch()[1]], MODULUS)
        result, counts = empty.result()
        assert result.encrypted_scores == {} and counts.shards_executed == 0
        assert light.result()[1].shards_executed == 1
        assert not engine.running  # one task: in-process
        engine.shutdown()

    def test_empty_queries_are_never_dispatched(self):
        heavy, light = _batch()
        with ExecutionEngine(parallelism=2) as engine:
            pending = engine.submit_batch([heavy, [], light], MODULUS)
            assert engine.counters.tasks_dispatched == 2
            assert [h.result()[1].shards_executed for h in pending] == [1, 0, 1]
            assert [handle.result()[0] for handle in pending] == [
                parallel.accumulate_terms(p, MODULUS)[0] for p in (heavy, [], light)
            ]


class TestHybridScheduling:
    """Whole-query routing: one pool task per query of a multi-query batch,
    in-process for everything else."""

    def test_hybrid_results_match_sequential_kernel_and_op_totals(self):
        batch = _batch()
        with ExecutionEngine(parallelism=4) as engine:
            results = engine.run_batch(batch, MODULUS)
            assert engine.counters.tasks_dispatched == len(batch)
        for (accumulators, counts), payload in zip(results, batch):
            sequential, seq_counts = parallel.accumulate_terms(payload, MODULUS)
            assert accumulators == sequential
            assert counts == seq_counts

    def test_single_task_batch_runs_in_process(self):
        """A batch of one -- however many terms the query has -- is one
        worker task: the pool cannot help, so nothing is dispatched (and an
        idle engine never starts its pool)."""
        engine = ExecutionEngine(parallelism=4)
        for payload in _batch():
            (handle,) = engine.submit_batch([payload], MODULUS)
            assert handle.result() == parallel.accumulate_terms(payload, MODULUS)
            assert handle.result()[1].shards_executed == 1 and not engine.running
        assert engine.run_batch([], MODULUS) == []
        assert not engine.running and engine.counters.tasks_dispatched == 0
        engine.shutdown()


class TestStreaming:
    def test_submit_batch_streams_in_order(self):
        batch = _batch() + [[]]
        with ExecutionEngine(parallelism=4) as engine:
            pending = engine.submit_batch(batch, MODULUS)
            collected = [p.result() for p in pending]
            # result() is idempotent.
            assert [p.result() for p in pending] == collected
        expected = [parallel.accumulate_terms(p, MODULUS)[0] for p in batch]
        assert [acc for acc, *_ in collected] == expected
        assert collected[-1][1].shards_executed == 0  # the empty query executed no shards

    def test_sequential_engine_defers_work_lazily(self):
        engine = ExecutionEngine(parallelism=1)
        pending = engine.submit_batch(_batch(), MODULUS)
        assert not engine.running  # nothing dispatched to a pool
        results = [p.result() for p in pending]
        expected = [parallel.accumulate_terms(p, MODULUS)[0] for p in _batch()]
        assert [acc for acc, *_ in results] == expected
        engine.shutdown()


class TestConcurrentLifecycle:
    """Regressions for lifecycle races: the serving front-end's signal
    handler and a ``with``-block exit may both call ``shutdown()`` -- from
    different threads, mid-stream -- and sessions sharing an engine race its
    lazy pool start.  Every path must be idempotent and deadlock-free."""

    def test_double_shutdown_during_inflight_streamed_batch(self):
        payloads = _batch() * 3
        expected = [parallel.accumulate_terms(p, MODULUS)[0] for p in payloads]
        engine = ExecutionEngine(parallelism=2)
        pending = engine.submit_batch(payloads, MODULUS)

        errors: list[BaseException] = []

        def close():
            try:
                engine.shutdown()  # wait=True: drains in-flight shard futures
            except BaseException as exc:  # noqa: BLE001 -- the assertion target
                errors.append(exc)

        threads = [threading.Thread(target=close) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads), "shutdown deadlocked"
        assert errors == []
        assert engine.closed and not engine.running
        # The drained batch's results stay collectible and bit-identical.
        assert [handle.result()[0] for handle in pending] == expected

    def test_shutdown_idempotent_after_context_exit(self):
        with ExecutionEngine(parallelism=2) as engine:
            engine.run_batch(_batch(), MODULUS)
        engine.shutdown()  # signal handler firing after the with-block exit
        engine.shutdown(wait=False)
        assert engine.closed
        with pytest.raises(RuntimeError, match="shut down"):
            engine.submit_batch(_batch(), MODULUS)

    def test_concurrent_lazy_start_forks_one_pool(self):
        engine = ExecutionEngine(parallelism=2)
        barrier = threading.Barrier(4)
        expected = [parallel.accumulate_terms(p, MODULUS)[0] for p in _batch()]
        results: list[list] = []

        def dispatch():
            barrier.wait()
            handles = engine.submit_batch(_batch(), MODULUS)
            results.append([handle.result()[0] for handle in handles])

        threads = [threading.Thread(target=dispatch) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert results == [expected] * 4
        assert engine.counters.pool_starts == 1
        engine.shutdown()


class TestTaskFailure:
    def test_a_raising_task_surfaces_from_result_and_the_pool_answers_on(self):
        """No retry, no restart: a task's exception is the collector's, the
        same one the in-process kernel raises, and the pool is untouched."""
        batch = _batch()
        bad = [(None, array("I", [1, 2]), array("I", [1, 2]))]  # not a ciphertext
        with pytest.raises(TypeError) as in_process:
            parallel.accumulate_terms(bad, MODULUS)
        with ExecutionEngine(parallelism=2) as engine:
            good, broken = engine.submit_batch([batch[0], bad], MODULUS)
            with pytest.raises(TypeError) as pooled:
                broken.result()
            assert str(pooled.value) == str(in_process.value)
            assert good.result()[0] == parallel.accumulate_terms(batch[0], MODULUS)[0]
            again = engine.run_batch(batch, MODULUS)
            assert engine.counters.pool_starts == 1
        assert [acc for acc, *_ in again] == [
            parallel.accumulate_terms(p, MODULUS)[0] for p in batch
        ]


@needs_kernel
class TestSharedKernelEngine:
    """Workers are threads of the serving process: what a task books, the
    process's own counters show; what concurrent sessions collect, adds up."""

    @pytest.fixture(autouse=True)
    def on_the_kernel(self, pin_backend):
        pin_backend("cffi")

    def test_worker_side_kernel_fallbacks_are_visible_to_the_serving_process(self):
        """Regression: a payload leaving the kernel's envelope inside a pool
        worker booked its reason where ``/metrics`` never looked."""
        out_of_ring = [
            [(MODULUS + 5 + i, array("I", [1, 2, 3]), array("I", [1, 2, 1]))]
            for i in range(2)
        ]
        before = kernels.fallback_counts().get("selector_out_of_ring", 0)
        with ExecutionEngine(parallelism=2) as engine:
            pending = engine.submit_batch(out_of_ring, MODULUS)
            results = [handle.result()[0] for handle in pending]
            assert engine.counters.tasks_dispatched == 2
        assert results == [
            parallel.accumulate_terms(p, MODULUS, "python")[0] for p in out_of_ring
        ]
        assert kernels.fallback_counts()["selector_out_of_ring"] == before + 2

    def test_a_batch_of_one_never_touches_the_pool(self):
        heavy = _batch()[0]
        engine = ExecutionEngine(parallelism=2)
        (handle,) = engine.submit_batch([heavy], MODULUS)
        merged, counts = handle.result()
        want, want_counts = parallel.accumulate_terms(heavy, MODULUS, "python")
        assert merged == want and list(merged) == list(want)
        assert counts == want_counts
        assert engine.counters.pool_starts == 0
        assert engine.counters.tasks_dispatched == 0
        engine.shutdown()

    def test_threads_sharing_one_engine_match_sequential_with_conserved_counters(self):
        rounds, collectors = 5, 6
        payloads = _batch() * 2
        expected = [parallel.accumulate_terms(p, MODULUS, "python") for p in payloads]
        got: dict[int, list] = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ExecutionEngine(parallelism=2) as engine:

                def collect(slot: int):
                    got[slot] = [
                        [
                            h.result()
                            for h in engine.submit_batch(payloads, MODULUS)
                        ]
                        for _ in range(rounds)
                    ]

                threads = [
                    threading.Thread(target=collect, args=(slot,))
                    for slot in range(collectors)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(got) == list(range(collectors))
        for answers in got.values():
            for answer in answers:
                for (merged, counts), (want, want_counts) in zip(answer, expected):
                    assert merged == want and list(merged) == list(want)
                    assert counts.shards_executed == 1
                    assert counts == want_counts
        calls = rounds * collectors
        assert engine.counters.pool_starts == 1
        assert engine.counters.queries_executed == calls * len(payloads)
        assert engine.counters.tasks_dispatched == calls * len(payloads)


class TestCounters:
    def test_counters_reset_covers_resilience_fields(self):
        counters = EngineCounters(
            pool_starts=1, pool_reuses=2, tasks_dispatched=3, queries_executed=4
        )
        counters.reset()
        assert counters == EngineCounters()  # every field back at its default, 0


class TestBackoff:
    def test_backoff_runs_on_the_injected_sleep_with_seeded_jitter(self):
        recorded = []
        policy = RetryPolicy(max_retries=2, backoff_base=0.04, sleep=recorded.append)
        assert list(policy.attempts(0)) == [0, 1, 2]
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
