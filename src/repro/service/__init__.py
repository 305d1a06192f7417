"""The partition service: job engine, result store, queue, orchestrator.

Three layers over the fit/stream sessions (see DESIGN.md §Service):

1. **job engine** (:mod:`~repro.service.jobs`) — :class:`JobSpec` +
   :func:`job_digest` + :func:`execute_job`, the one execution path every
   front-end (CLI, bench harness, HTTP service) goes through;
2. **result store** (:mod:`~repro.service.store`) — content-addressed
   ``job_digest -> JobOutcome`` cache with bit-identical load semantics;
3. **orchestrator + front-end** (:mod:`~repro.service.queue`,
   :mod:`~repro.service.orchestrator`, :mod:`~repro.service.server`) —
   TTL-leased queue, heartbeat worker pool, stdlib-HTTP endpoints.
"""

from repro.service.jobs import (
    JOB_MODES,
    JobOutcome,
    JobSpec,
    execute_job,
    job_digest,
)
from repro.service.orchestrator import Orchestrator, run_jobs_serially
from repro.service.queue import (
    JOB_QUEUES,
    JobState,
    LeaseQueue,
    QueuedJob,
)
from repro.service.store import (
    RESULT_STORES,
    DiskResultStore,
    MemoryResultStore,
    ResultStore,
    StoreStats,
)

__all__ = [
    "JOB_QUEUES",
    "RESULT_STORES",
    "JOB_MODES",
    "JobSpec",
    "JobOutcome",
    "job_digest",
    "execute_job",
    "StoreStats",
    "ResultStore",
    "DiskResultStore",
    "MemoryResultStore",
    "JobState",
    "QueuedJob",
    "LeaseQueue",
    "Orchestrator",
    "run_jobs_serially",
    "PartitionService",
    "build_job_spec",
]


def __getattr__(name: str):
    # server.py imports http.server; load it lazily so plain job/store
    # users never pay for it.
    if name in ("PartitionService", "build_job_spec"):
        from repro.service import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
