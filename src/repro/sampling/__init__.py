"""Sampling-based SBP front-end (SamBaS, arXiv:2108.06651).

Fit the golden-section search on an induced vertex sample, extend the
partition to the full graph by argmax-ΔMDL insertion, fine-tune with
warm-started full-graph sweeps. Entry point: ``SBPConfig.sample_rate``
(``run_sbp`` delegates to :func:`repro.sampling.pipeline.run_sampled_sbp`
whenever it is below 1.0).

Only the sampler registry is imported eagerly; the extension pass and
the pipeline pull in the MCMC/core stack and load on first attribute
access, keeping this package importable from ``SBPConfig`` validation
without an import cycle.
"""

from __future__ import annotations

from repro.sampling.samplers import (
    SAMPLERS,
    SampledGraph,
    SamplerSpec,
    sample_graph,
    sample_size,
)

__all__ = [
    "SAMPLERS",
    "SampledGraph",
    "SamplerSpec",
    "sample_graph",
    "sample_size",
    "extend_assignment",
    "run_sampled_sbp",
]


def __getattr__(name: str):
    if name == "extend_assignment":
        from repro.sampling.extension import extend_assignment

        return extend_assignment
    if name == "run_sampled_sbp":
        from repro.sampling.pipeline import run_sampled_sbp

        return run_sampled_sbp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
