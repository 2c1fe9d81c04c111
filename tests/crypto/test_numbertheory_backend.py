"""Tests for the backend gate: python by default, cffi only when it builds."""

import random

import pytest

from repro.crypto import numbertheory as nt


@pytest.fixture(autouse=True)
def restore_backend():
    """Every test leaves the process on the default pure-python backend."""
    previous = nt.get_backend()
    yield
    nt.set_backend(previous)


class TestBackendGating:
    def test_python_backend_is_the_default(self):
        assert nt.get_backend() == "python"
        assert "python" in nt.available_backends()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            nt.set_backend("numpy")

    def test_available_backends_reports_cffi_exactly_when_importable(self):
        listed = nt.available_backends()
        assert listed[0] == "python"
        assert ("cffi" in listed) == nt.HAVE_CFFI

    def test_cffi_backend_gated_when_unavailable(self, monkeypatch):
        from repro.crypto import kernels

        monkeypatch.setattr(kernels, "_COMPILED", None)
        monkeypatch.setattr(kernels, "_COMPILE_ERROR", None)
        monkeypatch.setattr(kernels, "HAVE_CFFI", False)
        with pytest.raises(RuntimeError) as excinfo:
            nt.set_backend("cffi")
        assert "cffi" in str(excinfo.value)
        assert nt.get_backend() == "python"

    def test_cffi_backend_failure_message_names_the_compile_error(self, monkeypatch):
        from repro.crypto import kernels

        monkeypatch.setattr(kernels, "_COMPILED", None)
        monkeypatch.setattr(kernels, "_COMPILE_ERROR", "gcc exploded")
        with pytest.raises(RuntimeError) as excinfo:
            nt.set_backend("cffi")
        assert "gcc exploded" in str(excinfo.value)
        assert nt.get_backend() == "python"

    def test_set_backend_returns_previous(self):
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
