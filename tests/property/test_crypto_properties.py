"""Property-based tests for the cryptographic primitives (hypothesis)."""

import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.postfilter import PostFilterCounters, post_filter
from repro.core.server import EncryptedResult
from repro.crypto import kernels, numbertheory
from repro.crypto.benaloh import generate_keypair as benaloh_keypair
from repro.crypto.numbertheory import crt_pair, is_probable_prime, jacobi_symbol, modinv
from repro.crypto.paillier import generate_keypair as paillier_keypair
from repro.crypto.pir import PIRClient, PIRDatabase, PIRServer

# Module-level fixed keys: hypothesis re-runs the test body many times, and
# key generation is the expensive part we do not want inside @given.
BENALOH = benaloh_keypair(key_bits=128, block_size=3**6, rng=random.Random(101))
BSGS = benaloh_keypair(key_bits=96, block_size=15, rng=random.Random(104))
#: Keys by how decryption reads ``r``: one table lookup (3^9), two levels of
#: 3^6 (3^12), and eleven base-3 levels (3^11: ``k`` is prime).
BY_LEVELS = {
    "one_level": benaloh_keypair(key_bits=128, block_size=3**9, rng=random.Random(105)),
    "two_levels": benaloh_keypair(key_bits=128, block_size=3**12, rng=random.Random(106)),
    "prime_k": benaloh_keypair(key_bits=128, block_size=3**11, rng=random.Random(107)),
}
PAILLIER = paillier_keypair(key_bits=128, rng=random.Random(102))
PIR_CLIENT = PIRClient.with_new_group(key_bits=64, rng=random.Random(103))

#: The client's two arithmetics: the python loop always, the kernel where it builds.
CLIENT_BACKENDS = ["python"] + (["cffi"] if kernels.resolve_backend()[0] == "cffi" else [])


@contextmanager
def client_arithmetic(backend):
    """Run the client's columns on ``backend``, pinned as :func:`set_backend` pins it."""
    previous = numbertheory.set_backend(backend)
    try:
        yield
    finally:
        numbertheory.set_backend(previous)


def column_messages(r):
    """Columns the way results arrive: decoy-only zeros, scores, and the top of ``Z_r``."""
    return st.lists(
        st.one_of(st.just(0), st.just(r - 1), st.integers(1, r - 2)), max_size=12
    )


def encrypt_column(keypair, messages, seed):
    rng = random.Random(seed)
    return [keypair.public.encrypt(m, rng) for m in messages]


class TestNumberTheoryProperties:
    @given(a=st.integers(min_value=1, max_value=10**9), p=st.sampled_from([101, 997, 65537]))
    def test_modinv_is_an_inverse(self, a, p):
        if a % p == 0:
            return
        assert (a * modinv(a, p)) % p == 1

    @given(a=st.integers(min_value=1, max_value=10**6), b=st.integers(min_value=1, max_value=10**6))
    def test_jacobi_is_multiplicative_in_numerator(self, a, b):
        n = 3 * 7 * 11
        assert jacobi_symbol(a * b, n) == jacobi_symbol(a, n) * jacobi_symbol(b, n)

    @given(
        r1=st.integers(min_value=0, max_value=100),
        r2=st.integers(min_value=0, max_value=100),
    )
    def test_crt_solves_both_congruences(self, r1, r2):
        m1, m2 = 101, 103
        x = crt_pair([r1 % m1, r2 % m2], [m1, m2])
        assert x % m1 == r1 % m1
        assert x % m2 == r2 % m2

    @given(n=st.integers(min_value=2, max_value=5000))
    def test_primality_agrees_with_trial_division(self, n):
        by_trial = all(n % d for d in range(2, int(n**0.5) + 1)) and n >= 2
        assert is_probable_prime(n) == by_trial


class TestBenalohProperties:
    @given(m=st.integers(min_value=0, max_value=3**6 - 1))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, m):
        rng = random.Random(m)
        assert BENALOH.private.decrypt(BENALOH.public.encrypt(m, rng)) == m

    @given(
        m1=st.integers(min_value=0, max_value=3**6 - 1),
        m2=st.integers(min_value=0, max_value=3**6 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_additive_homomorphism(self, m1, m2):
        rng = random.Random(m1 * 1000 + m2)
        pub, priv = BENALOH.public, BENALOH.private
        c = pub.add(pub.encrypt(m1, rng), pub.encrypt(m2, rng))
        assert priv.decrypt(c) == (m1 + m2) % BENALOH.r

    @given(
        m=st.integers(min_value=0, max_value=3**6 - 1),
        scalar=st.integers(min_value=0, max_value=255),
    )
    @settings(max_examples=40, deadline=None)
    def test_scalar_homomorphism(self, m, scalar):
        rng = random.Random(m * 7 + scalar)
        pub, priv = BENALOH.public, BENALOH.private
        assert priv.decrypt(pub.scalar_multiply(pub.encrypt(m, rng), scalar)) == (m * scalar) % BENALOH.r

    @given(
        key_seed=st.integers(min_value=0, max_value=2**32),
        messages=st.lists(st.integers(min_value=0, max_value=3**9 - 1), min_size=1, max_size=8),
    )
    @settings(max_examples=20, deadline=None)
    def test_subgroup_decryption_matches_the_paper_loop(self, key_seed, messages):
        kp = benaloh_keypair(key_bits=128, block_size=3**9, rng=random.Random(key_seed))
        rng = random.Random(key_seed + 1)
        for m in messages:
            c = kp.public.encrypt(m, rng)
            assert kp.private.decrypt(c) == kp.private.decrypt(c, naive=True) == m


@pytest.mark.parametrize("backend", CLIENT_BACKENDS)
class TestColumnDecryption:
    """``decrypt_many`` against the scalar path and the paper's loop, on both
    client arithmetics."""

    @pytest.mark.parametrize("levels", BY_LEVELS)
    @given(data=st.data(), seed=st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_column_equals_scalar_equals_the_paper_loop(self, backend, levels, data, seed):
        keypair = BY_LEVELS[levels]
        messages = data.draw(column_messages(keypair.r))
        column = encrypt_column(keypair, messages, seed)
        private = keypair.private
        with client_arithmetic(backend):
            got = private.decrypt_many(column)
            scalar = [private.decrypt(c) for c in column]
        assert got == scalar == [private.decrypt(c, naive=True) for c in column] == messages

    @pytest.mark.parametrize("levels", BY_LEVELS)
    @given(
        data=st.data(),
        factor=st.sampled_from(["p1", "p2", "n", "zero"]),
        negative=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_an_invalid_ciphertext_anywhere_raises_the_scalar_error(
        self, backend, levels, data, factor, negative
    ):
        keypair = BY_LEVELS[levels]
        private = keypair.private
        messages = data.draw(column_messages(keypair.r).filter(bool))
        column = encrypt_column(keypair, messages, len(messages))
        at = data.draw(st.integers(0, len(column) - 1))
        multiple = {"p1": private.p1, "p2": private.p2, "n": keypair.n, "zero": 0}[factor]
        column[at] *= -multiple if negative else multiple
        with client_arithmetic(backend):
            with pytest.raises(ValueError) as scalar:
                private.decrypt(column[at])
            with pytest.raises(ValueError) as whole:
                private.decrypt_many(column)
        assert str(whole.value) == str(scalar.value)
        assert "not a valid Benaloh encryption" in str(whole.value)

    @given(messages=column_messages(15), seed=st.integers(0, 2**32))
    @settings(max_examples=15, deadline=None)
    def test_a_non_prime_power_block_size_still_decrypts(self, backend, messages, seed):
        column = encrypt_column(BSGS, messages, seed)
        with client_arithmetic(backend):
            got = BSGS.private.decrypt_many(column)
        assert got == [BSGS.private.decrypt(c, naive=True) for c in column] == messages

    @given(messages=column_messages(3**6), seed=st.integers(0, 2**32))
    @settings(max_examples=30, deadline=None)
    def test_post_filter_counts_and_books_as_the_scalar_loop(self, backend, messages, seed):
        column = encrypt_column(BENALOH, messages, seed)
        result = EncryptedResult(dict(enumerate(column)), BENALOH.n)
        before = kernels.fallback_counts()
        counters = PostFilterCounters()
        with client_arithmetic(backend):
            ranking = post_filter(result, BENALOH.private, counters=counters)
        assert kernels.fallback_counts() == before
        assert counters == PostFilterCounters(
            decryptions=len(column),
            candidates_received=len(column),
            candidates_with_positive_score=sum(1 for m in messages if m),
        )
        scores = sorted(((-m, doc) for doc, m in enumerate(messages) if m))
        assert ranking.ranking == tuple((doc, float(-m)) for m, doc in scores)

    def test_an_empty_result_makes_no_kernel_call(self, backend, monkeypatch):
        calls = []
        monkeypatch.setattr(kernels, "modexp_batch", lambda *args: calls.append(args))
        monkeypatch.setattr(kernels, "resolve_backend", lambda: calls.append("probe"))
        counters = PostFilterCounters()
        with client_arithmetic(backend):
            assert BENALOH.private.decrypt_many([]) == []
            empty = EncryptedResult({}, BENALOH.n)
            ranking = post_filter(empty, BENALOH.private, counters=counters)
        assert ranking.ranking == ()
        assert counters == PostFilterCounters()
        assert calls == []


class TestPaillierProperties:
    @given(
        m1=st.integers(min_value=0, max_value=2**40),
        m2=st.integers(min_value=0, max_value=2**40),
    )
    @settings(max_examples=30, deadline=None)
    def test_additive_homomorphism(self, m1, m2):
        rng = random.Random(m1 ^ m2)
        pub, priv = PAILLIER.public, PAILLIER.private
        c = pub.add(pub.encrypt(m1, rng), pub.encrypt(m2, rng))
        assert priv.decrypt(c) == (m1 + m2) % PAILLIER.n


class TestPIRProperties:
    @given(
        columns=st.lists(st.binary(min_size=1, max_size=6), min_size=2, max_size=5),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_any_column_of_any_database_is_retrievable(self, columns, data):
        wanted = data.draw(st.integers(min_value=0, max_value=len(columns) - 1))
        database = PIRDatabase.from_columns(columns)
        server = PIRServer(database)
        recovered = PIR_CLIENT.retrieve(server, wanted)
        padded = columns[wanted] + b"\x00" * (max(len(c) for c in columns) - len(columns[wanted]))
        assert recovered == padded
