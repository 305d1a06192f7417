"""Tests for the declarative sweep-plan engine (repro.mcmc.engine).

Covers the plan grammar (selectors, segments, validation), the variant
registry (including registering a brand-new variant with zero engine or
driver edits — the refactor's acceptance criterion), the H-SBP
fraction-boundary degeneracies, and the `tiered` plan that exists only
because the engine composes segment modes freely.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro import Blockmodel, SBPConfig
from repro.core.sbp import run_mcmc_phase
from repro.errors import ReproError
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
from repro.parallel.backend import get_backend
from repro.sbm.block_storage import DenseBlockState
from repro.utils.timer import StopwatchPool

sys.path.insert(0, str(Path(__file__).resolve().parent))

import golden_utils as gu  # noqa: E402


@pytest.fixture(scope="module")
def graph():
    return gu.golden_graph()


# ----------------------------------------------------------------------
# Selectors and plan grammar
# ----------------------------------------------------------------------
class TestSelectors:
    def test_all_vertices_is_ascending_ids(self, graph):
        assert_array_equal(
            AllVertices().select(graph),
            np.arange(graph.num_vertices, dtype=np.int64),
        )

    def test_degree_top_matches_split(self, graph):
        vstar, _ = split_vertices_by_degree(graph, 0.2)
        assert_array_equal(DegreeTop(0.2).select(graph), vstar)

    def test_degree_band_tail_matches_vminus(self, graph):
        _, vminus = split_vertices_by_degree(graph, 0.2)
        assert_array_equal(DegreeBand(0.2, 1.0).select(graph), vminus)

    def test_degree_bands_partition_the_graph(self, graph):
        pieces = [
            DegreeTop(0.1).select(graph),
            DegreeBand(0.1, 0.6).select(graph),
            DegreeBand(0.6, 1.0).select(graph),
        ]
        combined = np.sort(np.concatenate(pieces))
        assert_array_equal(combined, np.arange(graph.num_vertices))

    def test_empty_band(self, graph):
        assert DegreeBand(0.5, 0.5).select(graph).size == 0

    def test_selector_validation(self):
        with pytest.raises(ValueError):
            DegreeTop(1.5)
        with pytest.raises(ValueError):
            DegreeBand(0.6, 0.4)
        with pytest.raises(ValueError):
            DegreeBand(-0.1, 0.5)


class TestPlanGrammar:
    def test_empty_plan_rejected(self):
        with pytest.raises(ValueError):
            SweepPlan(())

    def test_serial_segment_cannot_batch(self):
        with pytest.raises(ValueError):
            SweepSegment(AllVertices(), SegmentMode.SERIAL_INPLACE, batches=2)

    def test_barriers_per_sweep(self):
        plan = SweepPlan(
            (
                SweepSegment(DegreeTop(0.1), SegmentMode.SERIAL_INPLACE),
                SweepSegment(
                    DegreeBand(0.1, 0.5), SegmentMode.FROZEN_PARALLEL, batches=3
                ),
                SweepSegment(DegreeBand(0.5, 1.0), SegmentMode.FROZEN_PARALLEL),
            )
        )
        assert plan.barriers_per_sweep == 4

    def test_serial_plan_has_no_barriers(self):
        assert build_plan(SBPConfig(variant="sbp")).barriers_per_sweep == 0

    def test_describe_mentions_every_segment(self):
        plan = build_plan(SBPConfig(variant="tiered"))
        text = plan.describe()
        assert "serial" in text and "frozen" in text and "batches" in text


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestVariantRegistry:
    def test_builtins_registered(self):
        assert {"sbp", "a-sbp", "b-sbp", "h-sbp", "tiered"} <= set(
            VARIANTS.names()
        )

    def test_unknown_variant_rejected(self):
        with pytest.raises(ReproError):
            VARIANTS.get("nope")
        with pytest.raises(ReproError):
            SBPConfig(variant="nope")

    def test_duplicate_registration_rejected(self):
        spec = VARIANTS.get("sbp")
        with pytest.raises(ReproError):
            VARIANTS.register("sbp", spec)

    def test_config_accepts_registered_string(self):
        config = SBPConfig(variant="tiered")
        assert str(config.variant) == "tiered"
        # digest-able and replace-able like enum variants
        assert str(config.replace(seed=7).variant) == "tiered"

    def test_new_variant_needs_only_a_registry_entry(self, graph):
        """Acceptance criterion: a new variant = plan builder + register."""
        name = "test-reverse-hybrid"
        if name not in VARIANTS.names():
            VARIANTS.register(name, VariantSpec(
                name=name,
                summary="frozen tail first, then serial top (test-only)",
                build_plan=lambda config: SweepPlan(
                    (
                        SweepSegment(
                            DegreeBand(config.vstar_fraction, 1.0),
                            SegmentMode.FROZEN_PARALLEL,
                        ),
                        SweepSegment(
                            DegreeTop(config.vstar_fraction),
                            SegmentMode.SERIAL_INPLACE,
                        ),
                    ),
                    name=name,
                ),
            ))
        # No engine or driver edits: the stock phase driver runs it.
        config = gu.make_config(name, "vectorized", seed=3,
                                max_sweeps=3)
        bm = Blockmodel.from_assignment(
            graph, gu.start_assignment(graph), gu.START_BLOCKS
        )
        backend = get_backend(config.backend)
        try:
            stats = run_mcmc_phase(
                bm, graph, config, backend, 1, 0.0, StopwatchPool()
            )
        finally:
            backend.close()
        assert len(stats) == 3
        bm.check_consistency(graph)


# ----------------------------------------------------------------------
# H-SBP fraction boundaries (the bug-surface satellite)
# ----------------------------------------------------------------------
class TestHybridBoundaries:
    @pytest.mark.parametrize("strategy", ["rebuild", "incremental"])
    @pytest.mark.parametrize("seed", gu.GOLDEN_SEEDS)
    def test_fraction_zero_is_asbp(self, graph, strategy, seed):
        h = gu.trace_phase(graph, "h-sbp", strategy, "vectorized", seed,
                           vstar_fraction=0.0)
        a = gu.trace_phase(graph, "a-sbp", strategy, "vectorized", seed)
        assert_array_equal(h[0], a[0])
        assert_array_equal(h[1], a[1])

    @pytest.mark.parametrize("strategy", ["rebuild", "incremental"])
    @pytest.mark.parametrize("seed", gu.GOLDEN_SEEDS)
    def test_fraction_one_is_sbp(self, graph, strategy, seed):
        h = gu.trace_phase(graph, "h-sbp", strategy, "vectorized", seed,
                           vstar_fraction=1.0)
        s = gu.trace_phase(graph, "sbp", strategy, "vectorized", seed)
        assert_array_equal(h[0], s[0])
        assert_array_equal(h[1], s[1])

    def test_boundary_plans_degenerate_structurally(self):
        zero = build_plan(SBPConfig(variant="h-sbp", vstar_fraction=0.0))
        one = build_plan(SBPConfig(variant="h-sbp", vstar_fraction=1.0))
        # f=1.0 must *be* the serial plan (ascending-id traversal), not a
        # degree-ordered serial pass over "all" vertices.
        assert len(one.segments) == 1
        assert one.segments[0].mode is SegmentMode.SERIAL_INPLACE
        assert isinstance(one.segments[0].selector, AllVertices)
        # f=0.0 keeps the two-segment shape; the empty serial segment is
        # dropped at bind time, which skips its RNG draw and barrier.
        assert zero.segments[0].mode is SegmentMode.SERIAL_INPLACE


# ----------------------------------------------------------------------
# Tiered plan (engine-only variant)
# ----------------------------------------------------------------------
class TestTieredVariant:
    def test_plan_shape(self):
        config = SBPConfig(variant="tiered", vstar_fraction=0.15,
                           tier_split=0.5, num_batches=4)
        plan = build_plan(config)
        assert len(plan.segments) == 3
        assert [s.mode for s in plan.segments] == [
            SegmentMode.SERIAL_INPLACE,
            SegmentMode.FROZEN_PARALLEL,
            SegmentMode.FROZEN_PARALLEL,
        ]
        assert plan.barriers_per_sweep == 5

    def test_smoke_phase_converges_and_stays_consistent(self, graph):
        config = gu.make_config("tiered", "vectorized", seed=3,
                                max_sweeps=4, record_work=True)
        bm = Blockmodel.from_assignment(
            graph, gu.start_assignment(graph), gu.START_BLOCKS
        )
        before = bm.mdl(graph)
        backend = get_backend(config.backend)
        try:
            stats = run_mcmc_phase(
                bm, graph, config, backend, 1, 0.0, StopwatchPool()
            )
        finally:
            backend.close()
        bm.check_consistency(graph)
        assert len(stats) == 4
        assert bm.mdl(graph) < before
        # Work split: serial top tier + parallel middle/tail tiers, and
        # the recorded parallel work vector covers exactly the frozen
        # vertices (V - |V*|).
        vstar, _ = split_vertices_by_degree(graph, config.vstar_fraction)
        for s in stats:
            assert s.serial_work > 0
            assert s.parallel_work > 0
            assert s.work_per_vertex is not None
            assert s.work_per_vertex.shape == (
                graph.num_vertices - len(vstar),
            )

    def test_tier_split_below_vstar_collapses_middle(self, graph):
        config = SBPConfig(variant="tiered", vstar_fraction=0.3,
                           tier_split=0.1)
        plan = build_plan(config)
        engine = SweepEngine(
            plan, config, get_backend("serial"), StopwatchPool()
        )
        bound = engine.bind(graph)
        # middle band [0.3, max(0.3, 0.1)) is empty -> dropped at bind
        assert len(bound) == 2

    def test_tier_split_validation(self):
        with pytest.raises(ValueError):
            SBPConfig(tier_split=1.2)


# ----------------------------------------------------------------------
# Stats plumbing
# ----------------------------------------------------------------------
class TestStatsPlumbing:
    def test_without_work_drops_only_the_vector(self):
        from repro.types import SweepStats

        stats = SweepStats(
            proposals=10, accepted=4, delta_mdl=-1.5, serial_work=3.0,
            parallel_work=7.0, barrier_moved=2,
            work_per_vertex=np.ones(5, dtype=np.int64),
        )
        stripped = stats.without_work()
        assert stripped.work_per_vertex is None
        assert stripped == SweepStats(
            proposals=10, accepted=4, delta_mdl=-1.5, serial_work=3.0,
            parallel_work=7.0, barrier_moved=2,
        )
        # original untouched
        assert stats.work_per_vertex is not None

    def test_phase_strips_work_unless_recorded(self, graph):
        for record_work, expect_vector in ((False, False), (True, True)):
            config = gu.make_config(
                "h-sbp", "vectorized", seed=3,
                max_sweeps=2, record_work=record_work,
            )
            bm = Blockmodel.from_assignment(
                graph, gu.start_assignment(graph), gu.START_BLOCKS
            )
            backend = get_backend(config.backend)
            try:
                stats = run_mcmc_phase(
                    bm, graph, config, backend, 1, 0.0, StopwatchPool()
                )
            finally:
                backend.close()
            assert all(
                (s.work_per_vertex is not None) == expect_vector
                for s in stats
            )

    def test_nnz_read_once_per_sweep_inside_mcmc_timer(self, graph):
        """The ``b_nnz``/``b_density`` gauges cost one timed ``nnz`` read.

        ``nnz`` is O(C²) on dense storage; reading it twice per sweep, or
        outside the ``mcmc`` stopwatch, leaves that work in no bucket.
        """
        timers = StopwatchPool()
        reads: list[bool] = []

        class CountingState(DenseBlockState):
            name = "counting-nnz"

            @property
            def nnz(self) -> int:
                reads.append(timers.timer("mcmc").running)
                return super().nnz

        config = gu.make_config("a-sbp", "vectorized", seed=3, max_sweeps=3)
        bm = Blockmodel.from_assignment(
            graph, gu.start_assignment(graph), gu.START_BLOCKS,
            storage=CountingState,
        )
        backend = get_backend(config.backend)
        try:
            stats = run_mcmc_phase(bm, graph, config, backend, 1, 0.0, timers)
        finally:
            backend.close()
        assert len(stats) == 3
        assert reads == [True] * len(stats)
        c = bm.num_blocks
        for s in stats:
            assert s.b_density == s.b_nnz / (c * c)
        assert stats[-1].b_nnz == np.count_nonzero(bm.B)

    def test_one_mdl_call_per_sweep(self, graph):
        """The tracing probe's contract: start + one MDL call per sweep."""
        assignments, mdls = gu.trace_phase(
            graph, "tiered", "incremental", "vectorized", 3
        )
        assert assignments.shape == (gu.PHASE_SWEEPS + 1, graph.num_vertices)
        assert mdls.shape == (gu.PHASE_SWEEPS + 1,)
