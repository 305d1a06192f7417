"""Parallel execution backends for the asynchronous-Gibbs sweep.

The evaluation stage of an A-SBP sweep is embarrassingly parallel given
the frozen blockmodel (paper §3.1). This package provides
interchangeable executors for that stage:

* :class:`SerialBackend` — the reference per-vertex loop,
* :class:`VectorizedBackend` — whole-sweep numpy batch evaluation (the
  fast path on a single core; computationally identical to what OpenMP
  threads do in the authors' C++ implementation),
* :class:`~repro.distributed.runtime.DistributedBackend` — the same
  evaluation sharded over N ranks (``distributed:<transport>:<ranks>``;
  ``pipes`` runs the ranks as processes),
* :mod:`repro.parallel.simulate` — a calibrated p-thread execution model
  used to reproduce the strong-scaling experiment (Fig. 7) without a
  128-core machine.

The block-merge phase (Alg. 1) has its own backend pair in
:mod:`repro.parallel.merge`: the vectorized batch kernel every run uses
and the serial candidate-scan oracle the equivalence tests compare it
against.

All backends produce identical accept/reject decisions for a given seed
because the per-sweep randomness is pre-drawn in vertex order
(:mod:`repro.utils.rng`).
"""

from repro.parallel.backend import (
    BACKENDS,
    ExecutionBackend,
    MergeBackend,
    get_backend,
)
from repro.parallel.serial import SerialBackend
from repro.parallel.vectorized import VectorizedBackend
from repro.parallel.merge import SerialMergeBackend, VectorizedMergeBackend
from repro.parallel.partitioner import contiguous_chunks, balanced_chunks
from repro.parallel.simulate import SimulatedThreadModel, simulate_sweep_seconds

__all__ = [
    "ExecutionBackend",
    "MergeBackend",
    "BACKENDS",
    "get_backend",
    "SerialBackend",
    "VectorizedBackend",
    "SerialMergeBackend",
    "VectorizedMergeBackend",
    "contiguous_chunks",
    "balanced_chunks",
    "SimulatedThreadModel",
    "simulate_sweep_seconds",
]
