"""Shared helpers for the golden-trajectory and oracle equivalence suites.

The sweep-plan engine refactor (mcmc/engine.py) is only safe because the
repo holds it to the established bar: **byte-equal trajectories** against
the pre-refactor sweep dispatch. These helpers define the exact probe
used both by ``capture_golden.py`` (run once, at the pre-refactor commit,
to write ``tests/fixtures/golden_trajectories.npz``) and by
``test_golden_trajectories.py`` (run forever after, to compare the live
code against that fixture). Keeping the probe in one module guarantees
capture and verification exercise the same code path.

Two probe families:

``trace_phase``
    One MCMC phase from a fixed random blockmodel, recording the
    assignment vector and full MDL after *every sweep* (run_mcmc_phase
    computes the MDL exactly once per sweep, so wrapping
    ``Blockmodel.mdl`` yields the per-sweep trajectory without touching
    driver internals).

``run_full``
    One end-to-end ``run_sbp`` (agglomerative search included),
    recording the final assignment, the (C, MDL) search history and the
    per-sweep delta-MDL / acceptance sequences.

Both probes take the fixture's update ``strategy``: ``incremental`` is
the barrier every run uses, ``rebuild`` runs the same probe with the
O(E) recount oracle injected by :func:`injected_oracle`.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext

import numpy as np
import pytest

from repro import Blockmodel, DCSBMParams, SBPConfig, generate_dcsbm
from repro.core.sbp import run_mcmc_phase, run_sbp
from repro.parallel.backend import get_backend
from repro.parallel.merge import SerialMergeBackend
from repro.sbm.incremental import RebuildUpdater
from repro.utils.timer import StopwatchPool

#: The pre-refactor equivalence matrix: every variant x update strategy
#: x execution backend x seed must reproduce the fixture byte-for-byte.
GOLDEN_VARIANTS = ("sbp", "a-sbp", "b-sbp", "h-sbp")
GOLDEN_STRATEGIES = ("rebuild", "incremental")
GOLDEN_BACKENDS = ("serial", "vectorized")
GOLDEN_SEEDS = (3, 17)

#: Phase-probe shape: sweeps per traced phase, the (arbitrary, non-zero)
#: outer-iteration index — it exercises the per-iteration RNG tag stride
#: — and the block count of the deliberately-wrong starting assignment.
PHASE_SWEEPS = 6
PHASE_ITERATION = 2
START_BLOCKS = 12

#: Non-default knobs pinned by the fixture so config plumbing drifts are
#: caught too (B-SBP batch count; H-SBP V* fraction stays at the paper's
#: default 0.15).
NUM_BATCHES = 3

FIXTURE_NAME = "fixtures/golden_trajectories.npz"


def golden_graph():
    """The small, deterministic DCSBM graph every probe runs on."""
    graph, _ = generate_dcsbm(
        DCSBMParams(
            num_vertices=48,
            num_communities=3,
            within_between_ratio=8.0,
            mean_degree=7.0,
            d_max=14,
        ),
        seed=909,
    )
    return graph


def start_assignment(graph) -> np.ndarray:
    """Deterministic deliberately-wrong assignment for the phase probe."""
    rng = np.random.default_rng(5)
    return rng.integers(0, START_BLOCKS, graph.num_vertices)


class TracingBlockmodel(Blockmodel):
    """Blockmodel that snapshots (assignment, MDL) at every ``mdl()`` call.

    The phase driver computes the full MDL exactly once before the first
    sweep and once after every sweep, so the snapshots *are* the
    per-sweep assignment trajectory and MDL sequence.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trace_assignments: list[np.ndarray] = []
        self.trace_mdl: list[float] = []

    def mdl(self, graph) -> float:
        value = super().mdl(graph)
        self.trace_assignments.append(self.assignment.copy())
        self.trace_mdl.append(value)
        return value


#: Oracle name -> (production module, engine class it builds, the oracle).
#: Production offers no switch for either engine; the gates rebind the one
#: module attribute the production site resolves.
ORACLE_SITES = {
    "rebuild": ("repro.mcmc.engine", "IncrementalUpdater", RebuildUpdater),
    "serial": ("repro.core.merge", "VectorizedMergeBackend", SerialMergeBackend),
}


@contextmanager
def injected_oracle(name: str):
    """Run the enclosed block with a production engine swapped for its oracle.

    ``"rebuild"`` makes every :class:`~repro.mcmc.engine.SweepEngine`
    default to the O(E) recount barrier instead of the delta-apply;
    ``"serial"`` makes the block-merge phase scan candidates with the
    scalar loop instead of the batch kernel. The yielded class counts its
    instantiations, and a block that never built the oracle fails on
    exit, so a patch aimed at the wrong attribute cannot pass vacuously.
    """
    module, attr, oracle = ORACLE_SITES[name]

    class Counted(oracle):
        instances = 0

        def __init__(self, *args, **kwargs):
            Counted.instances += 1
            super().__init__(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(f"{module}.{attr}", Counted)
        yield Counted
    assert Counted.instances > 0, f"{module}.{attr} never built the {name} oracle"


def sweep_barrier(strategy: str):
    """Context that runs sweeps under the fixture's update ``strategy``."""
    assert strategy in GOLDEN_STRATEGIES, strategy
    return injected_oracle("rebuild") if strategy == "rebuild" else nullcontext()


def make_config(variant: str, backend: str, seed: int, **overrides) -> SBPConfig:
    kwargs = dict(
        variant=variant,
        seed=seed,
        backend=backend,
        num_batches=NUM_BATCHES,
    )
    kwargs.update(overrides)
    return SBPConfig(**kwargs)


def trace_phase(graph, variant: str, strategy: str, backend_name: str,
                seed: int, **overrides) -> tuple[np.ndarray, np.ndarray]:
    """Run one traced MCMC phase; return (assignments, mdls).

    ``assignments`` has shape ``(PHASE_SWEEPS + 1, V)`` — the starting
    state plus one row per sweep; ``mdls`` is the matching MDL sequence.
    A zero threshold plus ``max_sweeps=PHASE_SWEEPS`` pins the sweep
    count (the windowed mean |dMDL| is never strictly below 0).
    """
    config = make_config(variant, backend_name, seed,
                         max_sweeps=PHASE_SWEEPS, **overrides)
    bm = TracingBlockmodel.from_assignment(
        graph, start_assignment(graph), START_BLOCKS,
        storage=config.block_storage,
    )
    backend = get_backend(config.backend)
    try:
        with sweep_barrier(strategy):
            run_mcmc_phase(
                bm, graph, config, backend, PHASE_ITERATION, 0.0, StopwatchPool()
            )
    finally:
        backend.close()
    return np.stack(bm.trace_assignments), np.asarray(bm.trace_mdl)


def run_full(graph, variant: str, strategy: str, backend_name: str,
             seed: int, **overrides) -> dict[str, np.ndarray]:
    """Run one end-to-end ``run_sbp``; return the trajectory summary."""
    config = make_config(variant, backend_name, seed,
                         record_work=True, **overrides)
    with sweep_barrier(strategy):
        result = run_sbp(graph, config)
    return {
        "assignment": np.asarray(result.assignment, dtype=np.int64),
        "mdl": np.asarray([result.mdl], dtype=np.float64),
        "history_blocks": np.asarray(
            [c for c, _ in result.search_history], dtype=np.int64
        ),
        "history_mdl": np.asarray(
            [m for _, m in result.search_history], dtype=np.float64
        ),
        "delta_mdl": np.asarray(
            [s.delta_mdl for s in result.sweep_stats], dtype=np.float64
        ),
        "accepted": np.asarray(
            [s.accepted for s in result.sweep_stats], dtype=np.int64
        ),
    }


def matrix():
    """Yield every (variant, strategy, backend, seed) fixture combo."""
    for variant in GOLDEN_VARIANTS:
        for strategy in GOLDEN_STRATEGIES:
            for backend in GOLDEN_BACKENDS:
                for seed in GOLDEN_SEEDS:
                    yield variant, strategy, backend, seed


def combo_key(variant: str, strategy: str, backend: str, seed: int) -> str:
    return f"{variant}|{strategy}|{backend}|{seed}"
