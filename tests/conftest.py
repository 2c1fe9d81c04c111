"""Shared pytest fixtures.

Everything expensive (lexicon construction, corpus indexing, key generation)
is session-scoped and built with small-but-realistic sizes so the whole suite
stays fast while still exercising the real code paths (no mocks anywhere).
"""

from __future__ import annotations

import random

import pytest

from repro.core.buckets import generate_buckets
from repro.core.sequencing import concatenate_sequences, sequence_dictionary
from repro.crypto import numbertheory
from repro.crypto.benaloh import generate_keypair as generate_benaloh_keypair
from repro.lexicon.builder import build_lexicon
from repro.lexicon.specificity import hypernym_depth_specificity
from repro.textsearch.inverted_index import InvertedIndex
from repro.textsearch.synthetic import SyntheticCorpusGenerator


@pytest.fixture(scope="session", autouse=True)
def process_backend():
    """The process's arithmetic, probed before any test patches the kernel
    loader: a simulated build failure must not become every later test's
    default."""
    return numbertheory.get_backend()


@pytest.fixture
def pin_backend():
    """``pin_backend(name)``: :func:`numbertheory.set_backend` until the test ends."""
    previous = []

    def pin(name):
        previous.append(numbertheory.set_backend(name))

    yield pin
    if previous:
        numbertheory.set_backend(previous[0])


@pytest.fixture(scope="session")
def small_lexicon():
    """A compact lexicon (~300 synsets) for unit tests of the lexical layer."""
    return build_lexicon(300, seed=11)


@pytest.fixture(scope="session")
def medium_lexicon():
    """A mid-sized lexicon used by the privacy-metric and pipeline tests."""
    return build_lexicon(900, seed=13)


@pytest.fixture(scope="session")
def specificity(medium_lexicon):
    return hypernym_depth_specificity(medium_lexicon)


@pytest.fixture(scope="session")
def dictionary_sequence(medium_lexicon):
    return concatenate_sequences(sequence_dictionary(medium_lexicon))


@pytest.fixture(scope="session")
def corpus(medium_lexicon):
    """A small synthetic corpus over the medium lexicon's vocabulary."""
    return SyntheticCorpusGenerator(
        lexicon=medium_lexicon, num_documents=200, mean_document_length=80, seed=17
    ).generate()


@pytest.fixture(scope="session")
def index(corpus):
    return InvertedIndex.build(corpus)


@pytest.fixture(scope="session")
def searchable_sequence(dictionary_sequence, index):
    searchable = set(index.terms)
    return [t for t in dictionary_sequence if t in searchable]


@pytest.fixture(scope="session")
def organization(searchable_sequence, specificity):
    """A BktSz=4 organisation over the searchable dictionary."""
    return generate_buckets(searchable_sequence, specificity, bucket_size=4)


@pytest.fixture(scope="session")
def full_organization(dictionary_sequence, specificity):
    """A BktSz=4 organisation over the full lexicon dictionary."""
    return generate_buckets(dictionary_sequence, specificity, bucket_size=4)


@pytest.fixture(scope="session")
def benaloh_keypair():
    """A small (fast) Benaloh key pair with plaintext space 3^6 = 729."""
    return generate_benaloh_keypair(key_bits=128, block_size=3**6, rng=random.Random(23))


@pytest.fixture()
def rng():
    """A per-test seeded random generator."""
    return random.Random(99)
