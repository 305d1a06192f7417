"""Unit tests for the block-merge phase (Alg. 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Blockmodel, SBPConfig
from repro.core.merge import block_merge_phase
from repro.parallel.merge import SerialMergeBackend, VectorizedMergeBackend
from repro.utils.rng import philox_stream
from tests.golden_utils import injected_oracle


@pytest.fixture
def singleton_state(planted_graph):
    graph, truth = planted_graph
    return graph, Blockmodel.singleton(graph), truth


class TestBlockMergePhase:
    def test_halves_blocks(self, singleton_state):
        graph, bm, _ = singleton_state
        C = bm.num_blocks
        merged = block_merge_phase(bm, graph, C // 2, SBPConfig(seed=1), iteration=1)
        assert merged.num_blocks == C - C // 2
        merged.check_consistency(graph)

    def test_original_untouched(self, singleton_state):
        graph, bm, _ = singleton_state
        before = bm.B.copy()
        block_merge_phase(bm, graph, 10, SBPConfig(seed=1), iteration=1)
        np.testing.assert_array_equal(bm.B, before)

    def test_zero_merges_copy(self, singleton_state):
        graph, bm, _ = singleton_state
        out = block_merge_phase(bm, graph, 0, SBPConfig(seed=1), iteration=1)
        assert out is not bm
        assert out.num_blocks == bm.num_blocks

    def test_cannot_merge_below_one(self, tiny_graph, tiny_truth):
        bm = Blockmodel.from_assignment(tiny_graph, tiny_truth)
        out = block_merge_phase(bm, tiny_graph, 99, SBPConfig(seed=1), iteration=1)
        assert out.num_blocks == 1

    def test_deterministic_per_seed(self, singleton_state):
        graph, bm, _ = singleton_state
        a = block_merge_phase(bm, graph, 20, SBPConfig(seed=7), iteration=2)
        b = block_merge_phase(bm, graph, 20, SBPConfig(seed=7), iteration=2)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_different_seeds_differ(self, singleton_state):
        graph, bm, _ = singleton_state
        a = block_merge_phase(bm, graph, 20, SBPConfig(seed=7), iteration=2)
        b = block_merge_phase(bm, graph, 20, SBPConfig(seed=8), iteration=2)
        assert not np.array_equal(a.assignment, b.assignment)

    def test_dense_relabeling(self, singleton_state):
        graph, bm, _ = singleton_state
        merged = block_merge_phase(bm, graph, 30, SBPConfig(seed=3), iteration=1)
        labels = np.unique(merged.assignment)
        np.testing.assert_array_equal(labels, np.arange(merged.num_blocks))

    def test_merges_respect_structure(self, planted_graph):
        """Merging singletons on a planted graph should mostly join
        vertices of the same true community: with min-normalization a
        strict refinement of the truth scores 1.0, so the merged
        partition must stay well above chance."""
        from repro.metrics import normalized_mutual_information

        graph, truth = planted_graph
        bm = Blockmodel.singleton(graph)
        merged = block_merge_phase(
            bm, graph, graph.num_vertices // 2, SBPConfig(seed=5), iteration=1
        )
        homogeneity = normalized_mutual_information(
            truth, merged.assignment, norm="min"
        )
        assert homogeneity > 0.5


class TestMergeBackendEquivalence:
    """The vectorized scan must be bit-identical to the serial oracle."""

    @pytest.mark.parametrize("seed", [0, 3, 11])
    @pytest.mark.parametrize("proposals", [1, 3, 10])
    def test_scan_bit_identical(self, planted_graph, seed, proposals):
        graph, _ = planted_graph
        bm = Blockmodel.singleton(graph)
        C = bm.num_blocks
        uniforms = philox_stream(seed, 0, 1).random((C, proposals, 4))
        delta_s, target_s = SerialMergeBackend().evaluate_merges(bm, uniforms)
        delta_v, target_v = VectorizedMergeBackend().evaluate_merges(bm, uniforms)
        np.testing.assert_array_equal(target_s, target_v)
        # exact float equality, not allclose: decisions must match bitwise
        assert delta_s.tobytes() == delta_v.tobytes()

    @pytest.mark.parametrize("seed", [2, 9])
    def test_scan_bit_identical_partway(self, medium_graph, seed):
        """Equivalence must also hold on a coarsened (non-singleton) state
        where B has multi-count cells and empty rows are possible."""
        graph, _ = medium_graph
        bm = Blockmodel.singleton(graph)
        bm = block_merge_phase(
            bm, graph, bm.num_blocks // 2, SBPConfig(seed=seed), iteration=1
        )
        C = bm.num_blocks
        uniforms = philox_stream(seed, 0, 2).random((C, 5, 4))
        delta_s, target_s = SerialMergeBackend().evaluate_merges(bm, uniforms)
        delta_v, target_v = VectorizedMergeBackend().evaluate_merges(bm, uniforms)
        np.testing.assert_array_equal(target_s, target_v)
        assert delta_s.tobytes() == delta_v.tobytes()

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("num_merges", [1, 20, 10_000])
    def test_phase_assignment_identical(self, planted_graph, seed, num_merges):
        """Full phase (scan + greedy apply) agrees, including the
        ``num_merges > C - 1`` clamp."""
        graph, _ = planted_graph
        bm = Blockmodel.singleton(graph)
        config = SBPConfig(seed=seed)
        with injected_oracle("serial"):
            out_s = block_merge_phase(bm, graph, num_merges, config, iteration=1)
        out_v = block_merge_phase(bm, graph, num_merges, config, iteration=1)
        assert out_s.num_blocks == out_v.num_blocks
        np.testing.assert_array_equal(out_s.assignment, out_v.assignment)

    def test_single_block_is_noop(self, tiny_graph):
        bm = Blockmodel.from_assignment(
            tiny_graph, np.zeros(tiny_graph.num_vertices, dtype=np.int64)
        )
        # C=1 leaves nothing to merge: the phase returns before any scan.
        out = block_merge_phase(bm, tiny_graph, 5, SBPConfig(seed=1), iteration=1)
        assert out.num_blocks == 1

    def test_timer_sections_populated(self, planted_graph):
        from repro.utils.timer import StopwatchPool

        graph, _ = planted_graph
        bm = Blockmodel.singleton(graph)
        timers = StopwatchPool()
        block_merge_phase(
            bm, graph, 10, SBPConfig(seed=4), iteration=1, timers=timers
        )
        assert timers.elapsed("merge_scan") > 0.0
        assert timers.elapsed("merge_apply") > 0.0
