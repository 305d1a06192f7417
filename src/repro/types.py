"""Shared type aliases and small dataclasses used across the library."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TypeAlias

import numpy as np
import numpy.typing as npt

__all__ = [
    "IntArray",
    "FloatArray",
    "Assignment",
    "EdgeList",
    "PhaseTimings",
    "SweepStats",
]

#: 1-D or 2-D array of integer counts / indices.
IntArray: TypeAlias = npt.NDArray[np.int64]

#: 1-D or 2-D array of floats.
FloatArray: TypeAlias = npt.NDArray[np.float64]

#: Community membership vector: ``assignment[v]`` is the block of vertex v.
Assignment: TypeAlias = npt.NDArray[np.int64]

#: Edge list of shape (E, 2) with columns (source, target).
EdgeList: TypeAlias = npt.NDArray[np.int64]


@dataclass
class PhaseTimings:
    """Accumulated wall-clock time per algorithm phase, in seconds.

    The ICPP'22 paper reports its Fig. 2 breakdown (MCMC vs block-merge +
    other) and all speedup numbers from exactly these accumulators.

    ``merge_scan`` and ``merge_apply`` are sub-buckets of
    ``block_merge`` (already included in it, so excluded from ``total``):
    the embarrassingly parallel candidate scan — the part the merge
    backends accelerate — versus the sequential sort/union-find/rebuild
    tail of Alg. 1.

    ``barrier_rebuild`` and ``barrier_apply`` are likewise sub-buckets
    of ``rebuild``, splitting the per-sweep synchronization barrier by
    engine: a full O(E) blockmodel recount (the ``rebuild`` oracle the
    equivalence tests inject) versus the O(Σ deg(moved)) scatter
    delta-apply (the ``incremental`` engine every run uses). A run uses
    one engine, so at most one bucket is non-zero — the Fig. 2
    breakdown reads them to show where the barrier time went.

    ``peak_rss_bytes``, ``b_nnz`` and ``b_density`` are memory *gauges*,
    not accumulators: peak process RSS sampled at the end of the run,
    and the final blockmodel's inter-block-matrix non-zero count and
    density. ``merged_with`` keeps the max (a best-of protocol's peak is
    the max over member runs), unlike the time buckets which sum.

    ``sampling`` and ``extension`` are the SamBaS front-end stages
    (:mod:`repro.sampling`): drawing + fitting the sample (the whole
    sample-graph search, including its own merge/MCMC time) and the
    membership-extension pass. Both are *extra* top-level stages, so
    they are included in ``total``. ``finetune`` is a sub-bucket: the
    warm-started full-graph search *is* the run whose
    block_merge/mcmc/rebuild/other buckets this object already holds,
    so ``finetune`` (their sum) is excluded from ``total`` and exists
    only to let reports split full-graph time from front-end time. All
    three are zero for plain (``sample_rate=1.0``) runs and sum under
    ``merged_with``.

    The ``comm_*`` counters are the distributed runtime's wire report
    (zero for single-process backends): point-to-point messages and
    total bytes framed onto the transport, frame retransmissions
    (injected or real faults masked by the reliable layer), received
    frames quarantined for failing checksum/structure validation, and
    shard re-lease events (each one a dead rank whose vertices moved to
    survivors). They sum under ``merged_with`` like the time buckets —
    a best-of protocol's traffic is the total over member runs.
    """

    block_merge: float = 0.0
    mcmc: float = 0.0
    rebuild: float = 0.0
    other: float = 0.0
    merge_scan: float = 0.0
    merge_apply: float = 0.0
    barrier_rebuild: float = 0.0
    barrier_apply: float = 0.0
    sampling: float = 0.0
    extension: float = 0.0
    finetune: float = 0.0
    peak_rss_bytes: int = 0
    b_nnz: int = 0
    b_density: float = 0.0
    comm_messages: int = 0
    comm_bytes: int = 0
    comm_retries: int = 0
    frames_quarantined: int = 0
    shard_releases: int = 0

    @property
    def total(self) -> float:
        return (
            self.block_merge
            + self.mcmc
            + self.rebuild
            + self.other
            + self.sampling
            + self.extension
        )

    @property
    def mcmc_fraction(self) -> float:
        """Fraction of total runtime spent in the MCMC phase (Fig. 2)."""
        total = self.total
        if total <= 0.0:
            return 0.0
        return (self.mcmc + self.rebuild) / total

    def merged_with(self, other: "PhaseTimings") -> "PhaseTimings":
        return PhaseTimings(
            block_merge=self.block_merge + other.block_merge,
            mcmc=self.mcmc + other.mcmc,
            rebuild=self.rebuild + other.rebuild,
            other=self.other + other.other,
            merge_scan=self.merge_scan + other.merge_scan,
            merge_apply=self.merge_apply + other.merge_apply,
            barrier_rebuild=self.barrier_rebuild + other.barrier_rebuild,
            barrier_apply=self.barrier_apply + other.barrier_apply,
            sampling=self.sampling + other.sampling,
            extension=self.extension + other.extension,
            finetune=self.finetune + other.finetune,
            peak_rss_bytes=max(self.peak_rss_bytes, other.peak_rss_bytes),
            b_nnz=max(self.b_nnz, other.b_nnz),
            b_density=max(self.b_density, other.b_density),
            comm_messages=self.comm_messages + other.comm_messages,
            comm_bytes=self.comm_bytes + other.comm_bytes,
            comm_retries=self.comm_retries + other.comm_retries,
            frames_quarantined=self.frames_quarantined + other.frames_quarantined,
            shard_releases=self.shard_releases + other.shard_releases,
        )


@dataclass
class SweepStats:
    """Per-sweep bookkeeping emitted by the MCMC kernels.

    Attributes
    ----------
    proposals:
        Number of vertex moves proposed during the sweep.
    accepted:
        Number of proposals accepted.
    delta_mdl:
        Change in full MDL over the sweep (new - old); negative is better.
    serial_work:
        Work units (degree-weighted proposal evaluations) executed in the
        inherently serial portion of the sweep.
    parallel_work:
        Work units executed in the parallelizable portion of the sweep.
    barrier_moved:
        Number of vertices whose block changed at the sweep's
        synchronization barrier (the moved set the update engine must
        reconcile). Serial in-place passes apply moves immediately and
        contribute 0; for async/batched/hybrid sweeps this is the size
        of the delta the barrier pays for — the quantity the
        ``incremental`` engine's cost is proportional to.
    work_per_vertex:
        Optional per-vertex work-unit vector for the parallel portion,
        consumed by the simulated thread executor (Fig. 7).
    b_nnz, b_density:
        Gauges sampled after the sweep's barrier: non-zero cells of the
        inter-block matrix and their fraction of C^2. Tracks how sparse
        the matrix the storage engines hold actually is as the
        agglomeration coarsens.
    """

    proposals: int = 0
    accepted: int = 0
    delta_mdl: float = 0.0
    serial_work: float = 0.0
    parallel_work: float = 0.0
    barrier_moved: int = 0
    b_nnz: int = 0
    b_density: float = 0.0
    work_per_vertex: IntArray | None = field(default=None, repr=False)

    @property
    def acceptance_rate(self) -> float:
        if self.proposals == 0:
            return 0.0
        return self.accepted / self.proposals

    def without_work(self) -> "SweepStats":
        """A copy with the per-vertex work vector dropped.

        The scalar counters cost a few bytes per sweep and are always
        kept; the O(V) ``work_per_vertex`` vector is only retained when
        the caller opted into ``record_work`` (the simulated thread
        executor needs it, long diagnostic logs do not).
        """
        return SweepStats(
            proposals=self.proposals,
            accepted=self.accepted,
            delta_mdl=self.delta_mdl,
            serial_work=self.serial_work,
            parallel_work=self.parallel_work,
            barrier_moved=self.barrier_moved,
            b_nnz=self.b_nnz,
            b_density=self.b_density,
        )
