"""Network serving front-end for the private-retrieval engine.

This package wraps the in-process pipeline (index + server) in an asyncio
HTTP service (frames on the data plane, JSON on the control plane) with
streaming batch responses, admission-control
backpressure, graceful drain and a ``/metrics`` endpoint -- see
``docs/architecture.md`` (service layer) and ``docs/operations.md`` for how
it is deployed and operated, and ``scripts/serve.py`` for the entry point.

Public surface:

* :class:`~repro.service.app.RetrievalService`,
  :class:`~repro.service.app.ServiceConfig` -- the service itself
* :class:`~repro.service.runner.ServiceRunner` -- background-thread host
* :class:`~repro.service.client.ServiceClient` -- blocking stdlib client
* :class:`~repro.service.admission.AdmissionController` and its
  :class:`~repro.service.admission.ServiceSaturatedError` /
  :class:`~repro.service.admission.ServiceDrainingError`
* the wire codecs in :mod:`repro.service.wire`
* the distribution layer in :mod:`repro.service.cluster` -- shard-server
  processes, the HTTP shard backend and :class:`LocalShardCluster` assembly
  for :mod:`repro.core.coordinator` scatter-gather serving
"""

from repro.service.admission import (
    AdmissionController,
    ServiceDrainingError,
    ServiceSaturatedError,
)
from repro.service.app import RetrievalService, ServiceConfig, chunked_organization
from repro.service.client import ServiceClient, ServiceError, ServiceUnavailableError
from repro.service.cluster import (
    HttpShardBackend,
    LocalShardCluster,
    ShardServerProcess,
)
from repro.service.metrics import LatencyRollup, ServiceMetrics
from repro.service.runner import ServiceRunner

__all__ = [
    "AdmissionController",
    "ServiceDrainingError",
    "ServiceSaturatedError",
    "RetrievalService",
    "ServiceConfig",
    "chunked_organization",
    "ServiceClient",
    "ServiceError",
    "ServiceUnavailableError",
    "HttpShardBackend",
    "LocalShardCluster",
    "ShardServerProcess",
    "LatencyRollup",
    "ServiceMetrics",
    "ServiceRunner",
]
