"""Distributed-memory SBP — the paper's §6 future-work direction.

The conclusion asks "how best to distribute A-SBP and H-SBP in order to
further speed up the algorithms and enable processing of graphs that are
too large to fit in memory on a single computational node." This package
runs A-SBP sweeps sharded over N ranks (the EDiSt layout: a replicated
blockmodel, owned-vertex evaluation, deltas gathered at the barrier):

* :mod:`repro.distributed.comm` — the :class:`Transport` protocol
  (framed, CRC32-checksummed byte channels) with the ``sim`` engine,
  an in-process per-channel FIFO; :mod:`repro.distributed.wire` adds
  ``inproc`` (courier threads + queues) and ``pipes``
  (multiprocessing connections);
* :mod:`repro.distributed.partition` — vertex partitioners (contiguous,
  hash, degree-balanced) with edge-cut accounting;
* :mod:`repro.distributed.chaos` — seeded wire-fault injection
  (drops, duplicates, delays, truncation, bit-flips);
* :mod:`repro.distributed.reliable` — exactly-once in-order delivery
  via sequence numbers, retransmission under a
  :class:`~repro.resilience.resilient.RetryPolicy`, and a
  poisoned-frame quarantine;
* :mod:`repro.distributed.runtime` — the ``distributed:<transport>:
  <ranks>`` execution backend with sweep-barrier heartbeats, dead-shard
  detection, vertex re-leasing and ``shard_loss_policy``
  recover/degrade/fail.

Because asynchronous Gibbs evaluates against the frozen sweep-start
state with pre-drawn per-vertex randomness, the distributed execution is
*bit-identical* to single-node A-SBP — verified by tests, including
under injected faults and mid-sweep shard death — while the
communication ledger counts what the wire carried.
"""

from repro.distributed.chaos import FAULT_KINDS, ChaosSchedule, ChaosTransport
from repro.distributed.comm import (
    TRANSPORTS,
    CommLedger,
    SimTransport,
    Transport,
    decode_frame,
    encode_frame,
)
from repro.distributed.partition import (
    PartitionStats,
    edge_cut,
    partition_vertices,
)
from repro.distributed.reliable import ReliableComm
from repro.distributed.runtime import SHARD_LOSS_POLICIES, DistributedBackend
from repro.distributed.wire import InprocTransport, PipesTransport

__all__ = [
    "CommLedger",
    "PartitionStats",
    "partition_vertices",
    "edge_cut",
    "Transport",
    "SimTransport",
    "InprocTransport",
    "PipesTransport",
    "TRANSPORTS",
    "encode_frame",
    "decode_frame",
    "FAULT_KINDS",
    "ChaosSchedule",
    "ChaosTransport",
    "ReliableComm",
    "SHARD_LOSS_POLICIES",
    "DistributedBackend",
]
