"""Simulation as a service: a daemon in front of the batch runner.

The campaign substrate (content-addressed jobs, shared result store,
batch runner) makes simulations *pure lookups*: a job's key determines
its result.  This package serves that property to many concurrent
clients as a long-lived daemon:

* :class:`ReproDaemon` — bounded submission queue with typed
  backpressure, coalescing of identical in-flight submissions (one
  simulation pass, any number of clients), a worker-thread pool over
  :class:`~repro.runner.BatchRunner`, per-submission event logs, a
  bounded registry of finished submissions and graceful drain.
* :class:`ServiceServer` / :func:`serve` — line-JSON protocol over a
  unix socket or loopback TCP, many exchanges per connection, SIGTERM
  wired to drain.
* :class:`ServiceClient` — the verbs the CLI commands (``repro
  submit|status|results|cancel``) compose, over one kept connection.
* :mod:`~repro.service.protocol` — submission specs, content-hashed
  submission ids, typed :class:`ServiceError` codes.

Results fetched from the daemon are byte-identical to a local ``repro
export`` of the same sweep: both render through
:func:`repro.core.export.runs_to_text`, and the simulations themselves
are deterministic.
"""

from repro.service.client import ServiceClient
from repro.service.daemon import (
    DEFAULT_QUEUE_DEPTH,
    ReproDaemon,
    Submission,
)
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ServiceError,
    build_jobs,
    submission_id,
    sweep_spec,
)
from repro.service.server import ServiceServer, serve

__all__ = [
    "DEFAULT_QUEUE_DEPTH",
    "PROTOCOL_VERSION",
    "ReproDaemon",
    "ServiceClient",
    "ServiceError",
    "ServiceServer",
    "Submission",
    "build_jobs",
    "serve",
    "submission_id",
    "sweep_spec",
]
