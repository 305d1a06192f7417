"""Integration tests for the full SBP drivers (paper's headline claims)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    DCSBMParams,
    SBPConfig,
    Variant,
    generate_dcsbm,
    run_best_of,
    run_sbp,
)
from repro.metrics import normalized_mutual_information


@pytest.fixture(scope="module")
def easy_graph():
    """Strong, clearly detectable community structure."""
    return generate_dcsbm(
        DCSBMParams(
            num_vertices=90,
            num_communities=3,
            within_between_ratio=10.0,
            mean_degree=9.0,
            d_max=20,
        ),
        seed=55,
    )


@pytest.fixture(scope="module")
def structureless_graph():
    """r = 1: a degree-corrected random graph with no communities."""
    return generate_dcsbm(
        DCSBMParams(
            num_vertices=90,
            num_communities=3,
            within_between_ratio=1.0,
            mean_degree=6.0,
        ),
        seed=56,
    )


@pytest.mark.slow
class TestVariantsRecoverStructure:
    @pytest.mark.parametrize("variant", [Variant.SBP, Variant.ASBP, Variant.HSBP])
    def test_planted_partition_recovered(self, easy_graph, variant):
        graph, truth = easy_graph
        result = run_sbp(graph, SBPConfig(variant=variant, seed=11))
        nmi = normalized_mutual_information(truth, result.assignment)
        assert nmi > 0.8, f"{variant} NMI {nmi}"
        assert result.normalized_mdl < 1.0
        assert 2 <= result.num_blocks <= 6

    @pytest.mark.parametrize("variant", [Variant.SBP, Variant.HSBP])
    def test_structureless_collapses(self, structureless_graph, variant):
        graph, _ = structureless_graph
        result = run_sbp(graph, SBPConfig(variant=variant, seed=12))
        # the paper's r=1 story: no structure found, MDL_norm ~ 1
        assert result.num_blocks <= 3
        assert result.normalized_mdl >= 0.98


@pytest.mark.slow
class TestDriverMechanics:
    def test_result_fields(self, easy_graph):
        graph, _ = easy_graph
        result = run_sbp(graph, SBPConfig(seed=1))
        assert result.variant == "sbp"
        assert result.num_vertices == graph.num_vertices
        assert result.assignment.shape == (graph.num_vertices,)
        assert result.assignment.max() == result.num_blocks - 1
        assert result.mcmc_sweeps > 0
        assert result.outer_iterations > 0
        assert result.converged
        assert result.timings.total > 0
        assert result.mcmc_seconds > 0

    def test_deterministic_per_seed(self, easy_graph):
        graph, _ = easy_graph
        a = run_sbp(graph, SBPConfig(seed=42))
        b = run_sbp(graph, SBPConfig(seed=42))
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert a.mdl == b.mdl

    def test_serial_and_vectorized_backends_agree(self, easy_graph):
        """The parallel backend must not change the chain (§3.1 exactness)."""
        graph, _ = easy_graph
        fast = run_sbp(graph, SBPConfig(variant=Variant.ASBP, seed=7, backend="vectorized"))
        slow = run_sbp(graph, SBPConfig(variant=Variant.ASBP, seed=7, backend="serial"))
        np.testing.assert_array_equal(fast.assignment, slow.assignment)
        assert fast.mdl == pytest.approx(slow.mdl)

    def test_record_work_collects_sweeps(self, easy_graph):
        graph, _ = easy_graph
        result = run_sbp(graph, SBPConfig(variant=Variant.HSBP, seed=3, record_work=True))
        assert len(result.sweep_stats) == result.mcmc_sweeps
        assert any(s.work_per_vertex is not None for s in result.sweep_stats)
        assert all(s.serial_work > 0 for s in result.sweep_stats)

    def test_validate_mode(self, easy_graph):
        graph, _ = easy_graph
        result = run_sbp(graph, SBPConfig(seed=2, validate=True, max_sweeps=5))
        assert result.num_blocks >= 1

    def test_hsbp_timings_split(self, easy_graph):
        graph, _ = easy_graph
        result = run_sbp(graph, SBPConfig(variant=Variant.HSBP, seed=4))
        assert result.timings.mcmc > 0
        assert result.timings.rebuild > 0
        assert result.timings.block_merge > 0

    def test_best_of_picks_lowest_mdl(self, easy_graph):
        graph, _ = easy_graph
        best, all_results = run_best_of(graph, SBPConfig(seed=9), runs=3)
        assert len(all_results) == 3
        assert best.mdl == min(r.mdl for r in all_results)
        # derived seeds must differ
        assert len({r.seed for r in all_results}) == 3

    def test_best_of_single_run(self, easy_graph):
        graph, _ = easy_graph
        best, all_results = run_best_of(graph, SBPConfig(seed=9), runs=1)
        assert len(all_results) == 1
        assert best is all_results[0]

    def test_best_of_zero_runs_rejected(self, easy_graph):
        graph, _ = easy_graph
        with pytest.raises(ValueError):
            run_best_of(graph, SBPConfig(), runs=0)


class TestConfigValidation:
    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            SBPConfig(vstar_fraction=2.0)

    def test_bad_rate(self):
        with pytest.raises(ValueError):
            SBPConfig(block_reduction_rate=1.0)

    def test_bad_sweeps(self):
        with pytest.raises(ValueError):
            SBPConfig(max_sweeps=0)

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            SBPConfig(beta=0.0)

    @pytest.mark.parametrize("value", [0, -5])
    def test_bad_outer_iterations(self, value):
        with pytest.raises(ValueError, match="max_outer_iterations"):
            SBPConfig(max_outer_iterations=value)

    @pytest.mark.parametrize("field", ["mcmc_threshold", "mcmc_threshold_final"])
    def test_negative_threshold(self, field):
        with pytest.raises(ValueError, match="mcmc_threshold"):
            SBPConfig(**{field: -1.0})
        assert getattr(SBPConfig(**{field: 0.0}), field) == 0.0

    @pytest.mark.parametrize("seed", [1.5, "3", True, None])
    def test_non_int_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an int"):
            SBPConfig(seed=seed)

    def test_numpy_int_seed_accepted(self):
        assert SBPConfig(seed=np.int64(7)).seed == 7

    def test_string_variant_coerced(self):
        assert SBPConfig(variant="h-sbp").variant is Variant.HSBP

    def test_replace(self):
        config = SBPConfig(seed=1)
        other = config.replace(seed=2, variant="a-sbp")
        assert other.seed == 2
        assert other.variant is Variant.ASBP
        assert config.seed == 1


@pytest.mark.slow
class TestSearchHistory:
    def test_history_descends_to_best(self, easy_graph):
        graph, _ = easy_graph
        result = run_sbp(graph, SBPConfig(seed=13))
        assert result.search_history, "history must be recorded"
        blocks = [c for c, _ in result.search_history]
        mdls = [m for _, m in result.search_history]
        # the halving stage starts from about V/2 blocks
        assert blocks[0] > result.num_blocks
        # the best recorded MDL matches the returned result
        assert min(mdls) == pytest.approx(result.mdl)
        # every evaluated C is positive and no larger than the start
        assert all(0 < c <= blocks[0] for c in blocks)
