"""Unit tests for the Benaloh cryptosystem (the PR scheme's workhorse)."""

import math
import random
import sys
import threading

import pytest

from repro.core.postfilter import PostFilterCounters, post_filter
from repro.core.server import EncryptedResult
from repro.crypto import kernels
from repro.crypto.benaloh import (
    BenalohPrivateKey,
    BenalohPublicKey,
    ZeroEncryptionPool,
    generate_keypair,
)


class TestKeyGeneration:
    def test_key_structure(self, benaloh_keypair):
        kp = benaloh_keypair
        assert kp.n == kp.private.p1 * kp.private.p2
        assert kp.r == kp.public.r
        # Benaloh's divisibility constraints on the primes.
        assert (kp.private.p1 - 1) % kp.r == 0
        assert math.gcd(kp.r, (kp.private.p1 - 1) // kp.r) == 1
        assert math.gcd(kp.r, kp.private.p2 - 1) == 1

    def test_generator_has_full_r_part(self, benaloh_keypair):
        # The Fousse et al. fix: g^(phi/q) != 1 for every prime q | r.
        kp = benaloh_keypair
        phi = kp.private.phi
        assert pow(kp.public.g, phi // 3, kp.n) != 1

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            generate_keypair(key_bits=8)
        with pytest.raises(ValueError):
            generate_keypair(block_size=1)

    def test_different_seeds_give_different_keys(self):
        a = generate_keypair(key_bits=96, block_size=9, rng=random.Random(1))
        b = generate_keypair(key_bits=96, block_size=9, rng=random.Random(2))
        assert a.n != b.n

    def test_same_seed_is_deterministic(self):
        a = generate_keypair(key_bits=96, block_size=9, rng=random.Random(5))
        b = generate_keypair(key_bits=96, block_size=9, rng=random.Random(5))
        assert a.n == b.n and a.public.g == b.public.g


class TestEncryptionDecryption:
    def test_roundtrip_small_messages(self, benaloh_keypair, rng):
        for message in (0, 1, 2, 3, 10, 100, 728):
            ciphertext = benaloh_keypair.public.encrypt(message, rng)
            assert benaloh_keypair.private.decrypt(ciphertext) == message

    def test_probabilistic_encryption(self, benaloh_keypair, rng):
        a = benaloh_keypair.public.encrypt(5, rng)
        b = benaloh_keypair.public.encrypt(5, rng)
        assert a != b
        assert benaloh_keypair.private.decrypt(a) == benaloh_keypair.private.decrypt(b) == 5

    def test_message_out_of_range_rejected(self, benaloh_keypair, rng):
        with pytest.raises(ValueError):
            benaloh_keypair.public.encrypt(benaloh_keypair.r, rng)
        with pytest.raises(ValueError):
            benaloh_keypair.public.encrypt(-1, rng)

    def test_rerandomisation_preserves_plaintext(self, benaloh_keypair, rng):
        original = benaloh_keypair.public.encrypt(42, rng)
        rerandomised = benaloh_keypair.public.rerandomize(original, rng)
        assert rerandomised != original
        assert benaloh_keypair.private.decrypt(rerandomised) == 42

    def test_non_power_block_size_uses_bsgs(self, rng):
        # r = 15 is not a power of a small base, forcing the BSGS fallback.
        kp = generate_keypair(key_bits=96, block_size=15, rng=rng)
        for message in range(15):
            assert kp.private.decrypt(kp.public.encrypt(message, rng)) == message

    def test_even_block_size_rejected(self, rng):
        with pytest.raises(ValueError):
            generate_keypair(key_bits=96, block_size=10, rng=rng)


class TestHomomorphism:
    def test_addition(self, benaloh_keypair, rng):
        pub, priv = benaloh_keypair.public, benaloh_keypair.private
        c = pub.add(pub.encrypt(100, rng), pub.encrypt(200, rng))
        assert priv.decrypt(c) == 300

    def test_addition_wraps_modulo_r(self, benaloh_keypair, rng):
        pub, priv = benaloh_keypair.public, benaloh_keypair.private
        r = benaloh_keypair.r
        c = pub.add(pub.encrypt(r - 1, rng), pub.encrypt(5, rng))
        assert priv.decrypt(c) == (r - 1 + 5) % r

    def test_scalar_multiplication(self, benaloh_keypair, rng):
        pub, priv = benaloh_keypair.public, benaloh_keypair.private
        c = pub.scalar_multiply(pub.encrypt(7, rng), 13)
        assert priv.decrypt(c) == 91

    def test_scalar_multiplication_of_zero_stays_zero(self, benaloh_keypair, rng):
        # The crucial PR-scheme property: decoys (selector 0) never perturb the score.
        pub, priv = benaloh_keypair.public, benaloh_keypair.private
        c = pub.scalar_multiply(pub.encrypt(0, rng), 255)
        assert priv.decrypt(c) == 0

    def test_negative_scalar_rejected(self, benaloh_keypair, rng):
        with pytest.raises(ValueError):
            benaloh_keypair.public.scalar_multiply(benaloh_keypair.public.encrypt(1, rng), -2)

    def test_add_many(self, benaloh_keypair, rng):
        pub, priv = benaloh_keypair.public, benaloh_keypair.private
        ciphertexts = [pub.encrypt(value, rng) for value in (1, 2, 3, 4, 5)]
        assert priv.decrypt(pub.add_many(ciphertexts)) == 15

    def test_score_accumulation_pattern(self, benaloh_keypair, rng):
        # Simulate Algorithm 4 on one document: sum of u_i * p_ij.
        pub, priv = benaloh_keypair.public, benaloh_keypair.private
        selectors = [1, 0, 1, 0, 0]
        impacts = [12, 50, 30, 77, 5]
        accumulator = 1
        for selector, impact in zip(selectors, impacts):
            accumulator = pub.add(accumulator, pub.scalar_multiply(pub.encrypt(selector, rng), impact))
        assert priv.decrypt(accumulator) == 12 + 30


class TestSubgroupDecryption:
    """The default decryption (Pohlig-Hellman in ``Z_p1``) against the
    paper's loop, ``decrypt(c, naive=True)``."""

    @pytest.mark.parametrize("block_size", [3**5, 3**6, 5**4])
    def test_every_message_matches_the_paper_loop(self, block_size):
        kp = generate_keypair(key_bits=96, block_size=block_size, rng=random.Random(block_size))
        rng = random.Random(7)
        for message in range(block_size):
            ciphertext = kp.public.encrypt(message, rng)
            assert kp.private.decrypt(ciphertext) == message
            assert kp.private.decrypt(ciphertext, naive=True) == message

    def test_ciphertexts_sharing_a_factor_with_n_raise_on_both_paths(self, benaloh_keypair, rng):
        priv = benaloh_keypair.private
        ciphertext = benaloh_keypair.public.encrypt(5, rng)
        factors = (priv.p1, priv.p2, 0, benaloh_keypair.n)
        for factor in factors + tuple(-f for f in factors):
            for naive in (False, True):
                with pytest.raises(ValueError, match="not a valid Benaloh encryption"):
                    priv.decrypt(ciphertext * factor, naive=naive)

    def test_swapped_primes_are_refused_while_the_loop_still_decrypts(self, benaloh_keypair, rng):
        priv = benaloh_keypair.private
        swapped = BenalohPrivateKey(p1=priv.p2, p2=priv.p1, public=benaloh_keypair.public)
        ciphertext = benaloh_keypair.public.encrypt(42, rng)
        with pytest.raises(ValueError, match="r does not divide p1 - 1"):
            swapped.decrypt(ciphertext)
        assert swapped.decrypt(ciphertext, naive=True) == 42

    def test_generator_without_full_order_mod_p1_is_refused(self, benaloh_keypair):
        pub, priv = benaloh_keypair.public, benaloh_keypair.private
        weak = BenalohPublicKey(n=pub.n, g=pow(pub.g, 3, pub.n), r=pub.r)
        key = BenalohPrivateKey(p1=priv.p1, p2=priv.p2, public=weak)
        with pytest.raises(ValueError, match="does not have order r"):
            key.decrypt(weak.encrypt(0, random.Random(1)))

    def test_concurrent_first_decryptions_agree_with_the_loop(self):
        kp = generate_keypair(key_bits=128, block_size=3**6, rng=random.Random(88))
        rng = random.Random(3)
        ciphertexts = [kp.public.encrypt(rng.randrange(kp.r), rng) for _ in range(40)]
        # The loop builds no tables, so all eight threads race to build them.
        expected = [kp.private.decrypt(c, naive=True) for c in ciphertexts]
        barrier = threading.Barrier(8)
        answers: list[list[int]] = []

        def decrypt_all():
            barrier.wait(timeout=30)
            answers.append([kp.private.decrypt(c) for c in ciphertexts])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=decrypt_all) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert answers == [expected] * 8

    def test_zero_is_answered_before_the_digit_tables_are_built(self, rng):
        kp = generate_keypair(key_bits=128, block_size=3**6, rng=random.Random(89))
        pub = kp.public
        zeros = {doc_id: pub.scalar_multiply(pub.encrypt(0, rng), 7) for doc_id in range(6)}
        counters = PostFilterCounters()
        ranking = post_filter(EncryptedResult(zeros, pub.n), kp.private, counters=counters)
        assert ranking.ranking == ()
        assert counters.decryptions == counters.candidates_received == 6
        assert "_digit_tables" not in vars(kp.private)
        assert kp.private.decrypt(pub.encrypt(4, rng)) == 4
        assert "_digit_tables" in vars(kp.private)


COMPILED = kernels.compiled_available()


class TestColumns:
    """A result decrypts as one column, and the zero stock is one column too,
    on the arithmetic the process resolved: the kernel wherever it builds."""

    @pytest.mark.skipif(not COMPILED, reason="compiled kernels unavailable")
    def test_a_result_is_one_kernel_call(self, monkeypatch, rng):
        kp = generate_keypair(key_bits=128, block_size=3**6, rng=random.Random(90))
        messages = [0, 5, 0, 0, 728, 1, 0, 300] * 3
        column = [kp.public.encrypt(m, rng) for m in messages]
        calls = []
        pow_many = kernels._pow_many

        def counted(ffi, lib, bases, *rest):
            calls.append(len(bases))
            return pow_many(ffi, lib, bases, *rest)

        monkeypatch.setattr(kernels, "_CLIENT_BACKEND", "cffi")
        monkeypatch.setattr(kernels, "_pow_many", counted)
        before = kernels.fallback_counts()
        assert kp.private.decrypt_many(column) == messages
        assert calls == [len(column)]
        assert kernels.fallback_counts() == before

    @pytest.mark.parametrize("backend", ["python", "cffi"])
    def test_replenished_stock_is_the_same_draws_to_the_r(self, backend, monkeypatch):
        if backend == "cffi" and not COMPILED:
            pytest.skip("compiled kernels unavailable")
        monkeypatch.setattr(kernels, "_CLIENT_BACKEND", backend)
        calls = []
        pow_many = kernels._pow_many
        monkeypatch.setattr(
            kernels, "_pow_many", lambda *args: calls.append(1) or pow_many(*args)
        )
        kp = generate_keypair(key_bits=256, block_size=3**9, rng=random.Random(91))
        pub = kp.public
        pool = ZeroEncryptionPool(pub, rng=random.Random(17), size=8)
        pool.replenish(24)
        draws = random.Random(17)
        assert pool._pool == [pow(pub._random_unit(draws), pub.r, pub.n) for _ in range(32)]
        assert len(calls) == (2 if backend == "cffi" else 0)
