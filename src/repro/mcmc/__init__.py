"""MCMC kernels and the declarative sweep-plan engine.

``metropolis_sweep`` and ``async_gibbs_sweep`` implement the two
primitive segment modes (serial in-place vs frozen-parallel); the
:mod:`~repro.mcmc.engine` composes them into the paper's Algorithms 2
(SBP), 3 (A-SBP) and 4 (H-SBP) — plus batched and tiered schedules —
as registered :class:`~repro.mcmc.engine.SweepPlan` builders. Parallel
execution backends are injected (duck-typed).
"""

from repro.mcmc.async_gibbs import async_gibbs_sweep
from repro.mcmc.convergence import ConvergenceMonitor
from repro.mcmc.engine import (
    VARIANTS,
    AllVertices,
    DegreeBand,
    DegreeTop,
    SegmentMode,
    SweepEngine,
    SweepPlan,
    SweepSegment,
    VariantSpec,
    build_plan,
    split_vertices_by_degree,
)
from repro.mcmc.evaluate import VertexDecision, evaluate_vertex
from repro.mcmc.metropolis import metropolis_sweep

__all__ = [
    "VARIANTS",
    "VertexDecision",
    "evaluate_vertex",
    "metropolis_sweep",
    "async_gibbs_sweep",
    "split_vertices_by_degree",
    "ConvergenceMonitor",
    "SegmentMode",
    "AllVertices",
    "DegreeTop",
    "DegreeBand",
    "SweepSegment",
    "SweepPlan",
    "SweepEngine",
    "VariantSpec",
    "build_plan",
]
