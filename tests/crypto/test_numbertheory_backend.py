"""Tests for the process's one arithmetic choice: probed once, pinned by ``set_backend``."""

import logging
import random
import sys
import threading
from array import array

import pytest

from repro.core import parallel
from repro.crypto import kernels, numbertheory as nt
from repro.service import RetrievalService, ServiceClient, ServiceConfig, ServiceRunner

COMPILED = kernels.resolve_backend()[0] == "cffi"


@pytest.fixture(autouse=True)
def restore_backend(monkeypatch):
    """Every test leaves the process on the arithmetic it found."""
    monkeypatch.setattr(nt, "_BACKEND", nt._BACKEND)


def race(target, threads=8):
    """Run ``target`` on ``threads`` threads released together, interleaving hard."""
    barrier = threading.Barrier(threads)

    def run():
        barrier.wait(timeout=30)
        target()

    workers = [threading.Thread(target=run) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)


class TestResolver:
    def test_the_default_is_the_probe(self, monkeypatch):
        monkeypatch.setattr(nt, "_BACKEND", None)
        assert nt.get_backend() == kernels.resolve_backend()[0]
        assert "python" in nt.available_backends()

    def test_the_probe_runs_once_across_threads(self, monkeypatch):
        probes = []
        monkeypatch.setattr(nt, "_BACKEND", None)
        monkeypatch.setattr(
            kernels, "resolve_backend", lambda: probes.append(1) or ("cffi", None)
        )
        answers = []
        race(lambda: answers.append(nt.get_backend()))
        assert answers == ["cffi"] * 8
        assert probes == [1]

    def test_a_fallback_logs_exactly_one_warning(self, monkeypatch, caplog):
        """Eight threads race to the first column; one probes, one warns, and
        every column is right on the python loop."""
        probes = []

        def no_toolchain():
            probes.append(1)
            raise RuntimeError("no C compiler on this host")

        monkeypatch.setattr(nt, "_BACKEND", None)
        monkeypatch.setattr(kernels, "ensure_compiled", no_toolchain)
        before = kernels.fallback_counts()
        wrong = []

        def first_columns():
            for exponent in (3, 5):
                if kernels.modexp_batch([2, 3], exponent, 101) != [
                    pow(2, exponent, 101), pow(3, exponent, 101)
                ]:
                    wrong.append(exponent)

        with caplog.at_level(logging.WARNING, logger="repro.crypto.numbertheory"):
            race(first_columns)
        assert not wrong
        assert probes == [1]
        assert nt.get_backend() == "python"
        assert [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING] == [
            "kernel backend: python loop (compiled kernel unavailable: "
            "no C compiler on this host)"
        ]
        assert kernels.fallback_counts() == before

    @pytest.mark.skipif(not COMPILED, reason="compiled kernels unavailable")
    def test_set_backend_pins_accumulation_and_columns(self, monkeypatch, pin_backend):
        calls = []
        accumulate, pow_many = kernels.accumulate_compiled, kernels._pow_many
        monkeypatch.setattr(
            kernels, "accumulate_compiled",
            lambda *args: calls.append("accumulate") or accumulate(*args),
        )
        monkeypatch.setattr(
            kernels, "_pow_many", lambda *args: calls.append("modexp") or pow_many(*args)
        )
        modulus = 2**127 + 45
        payload = [(11, array("I", [3, 1, 3]), array("I", [4, 2, 1]))]
        answers = {}
        for backend in ("python", "cffi"):
            pin_backend(backend)
            del calls[:]
            answers[backend] = (
                parallel.accumulate_terms(payload, modulus),
                kernels.modexp_batch([2, 3, 5], 3**9, modulus),
            )
            assert calls == ([] if backend == "python" else ["accumulate", "modexp"])
        assert answers["python"] == answers["cffi"]
        # An explicit argument still outranks the pin: the oracle runs this way.
        del calls[:]
        parallel.accumulate_terms(payload, modulus, "python")
        assert calls == []

    def test_metrics_report_the_process_backend(self, index, pin_backend):
        service = RetrievalService(ServiceConfig(bucket_size=4))
        service.add_tenant("corpus", index=index)
        runner = ServiceRunner(service)
        try:
            with ServiceClient(*runner.start()) as client:
                for backend in ("python", nt.get_backend()):
                    pin_backend(backend)
                    section = client.metrics()["kernel"]
                    assert section["backend"] == nt.get_backend() == backend
                    assert section["reason"] == kernels.resolve_backend()[1]
        finally:
            runner.stop()


class TestSetBackend:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            nt.set_backend("numpy")

    def test_available_backends_reports_cffi_exactly_when_importable(self):
        listed = nt.available_backends()
        assert listed[0] == "python"
        assert ("cffi" in listed) == kernels.HAVE_CFFI

    def test_cffi_backend_gated_when_unavailable(self, monkeypatch):
        nt.set_backend("python")
        monkeypatch.setattr(kernels, "_COMPILED", None)
        monkeypatch.setattr(kernels, "_COMPILE_ERROR", None)
        monkeypatch.setattr(kernels, "HAVE_CFFI", False)
        with pytest.raises(RuntimeError) as excinfo:
            nt.set_backend("cffi")
        assert "cffi" in str(excinfo.value)
        assert nt.get_backend() == "python"

    def test_cffi_backend_failure_message_names_the_compile_error(self, monkeypatch):
        nt.set_backend("python")
        monkeypatch.setattr(kernels, "_COMPILED", None)
        monkeypatch.setattr(kernels, "_COMPILE_ERROR", "gcc exploded")
        with pytest.raises(RuntimeError) as excinfo:
            nt.set_backend("cffi")
        assert "gcc exploded" in str(excinfo.value)
        assert nt.get_backend() == "python"

    def test_set_backend_returns_previous(self, monkeypatch):
        monkeypatch.setattr(nt, "_BACKEND", None)
        probed = kernels.resolve_backend()[0]
        assert nt.set_backend("python") == probed
        assert nt.set_backend("python") == "python"


class TestDefaultPrimalityRNG:
    """``is_probable_prime`` draws witnesses from one module-level RNG."""

    def test_no_rng_argument_uses_the_shared_default(self):
        # Reseeding the default RNG makes the witness stream -- and therefore
        # the verdicts -- deterministic without passing an rng per call.
        nt.reseed_default_rng(424242)
        first = [nt.is_probable_prime(n) for n in range(10**6, 10**6 + 60)]
        nt.reseed_default_rng(424242)
        second = [nt.is_probable_prime(n) for n in range(10**6, 10**6 + 60)]
        assert first == second
        # Sanity: the verdicts themselves are correct on known values.
        assert nt.is_probable_prime(1_000_003)
        assert not nt.is_probable_prime(1_000_001)

    def test_explicit_rng_still_honoured(self):
        assert nt.is_probable_prime(1_000_003, rng=random.Random(1))

    def test_default_rng_is_not_recreated_per_call(self):
        # The regression: a fresh ``random.Random()`` was constructed (and
        # OS-seeded) on every call.  The shared instance must advance across
        # calls instead of being rebuilt.
        shared = nt._DEFAULT_RNG
        nt.reseed_default_rng(7)
        state_before = shared.getstate()
        assert nt.is_probable_prime(1_000_003)
        assert nt._DEFAULT_RNG is shared
        assert shared.getstate() != state_before, "default RNG was not consumed"
