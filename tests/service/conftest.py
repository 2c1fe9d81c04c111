"""Fixtures for the serving front-end tests.

Everything reuses the session-scoped corpus/index/keypair from the top-level
conftest; what this module adds is the service-derived bucket organisation
(the deterministic chunked layout both ends agree on) and a factory that
stands up a real :class:`RetrievalService` on a background thread and tears
it down -- the tests exercise the service over actual sockets, no mocks.
"""

from __future__ import annotations

import random

import pytest

from repro.core.embellish import QueryEmbellisher
from repro.service import (
    RetrievalService,
    ServiceClient,
    ServiceConfig,
    ServiceRunner,
    chunked_organization,
)

BUCKET_SIZE = 4


@pytest.fixture(scope="module")
def service_org(index):
    return chunked_organization(index, BUCKET_SIZE)


@pytest.fixture(scope="module")
def embellisher(service_org, benaloh_keypair):
    return QueryEmbellisher(
        organization=service_org, keypair=benaloh_keypair, rng=random.Random(101)
    )


@pytest.fixture(scope="module")
def query_terms(index):
    """A pool of genuine terms spread across the dictionary."""
    terms = sorted(index.terms)
    return [terms[i] for i in range(0, len(terms), max(1, len(terms) // 24))]


@pytest.fixture
def running_service(index):
    """Factory: start a service over the shared index; stop it at teardown.

    Returns ``(service, client)``; keyword arguments become
    :class:`ServiceConfig` fields (bucket size pinned to the module's
    organisation so client-side embellishment and the service agree).
    Teardown closes the client's kept connection, then stops the service.
    """
    runners: list[ServiceRunner] = []
    clients: list[ServiceClient] = []

    def factory(**config) -> tuple[RetrievalService, ServiceClient]:
        config.setdefault("bucket_size", BUCKET_SIZE)
        service = RetrievalService(ServiceConfig(**config))
        service.add_tenant("corpus", index=index)
        runner = ServiceRunner(service)
        host, port = runner.start()
        runners.append(runner)
        factory.last_runner = runner
        clients.append(ServiceClient(host, port))
        return service, clients[-1]

    yield factory
    for client in clients:
        client.close()
    for runner in runners:
        runner.stop()
