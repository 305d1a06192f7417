"""The ``hybrid`` size rule, the storage budget and the ``auto`` policy.

``hybrid`` builds a dense engine while the ``8·C²`` byte matrix fits the
storage budget and a sparse one above it, re-applied at every
``from_assignment`` and archive load. These tests pin the rule, the
budget's parsing, and the end-to-end claim: a fit that starts sparse at
C = V and turns dense after its first merge replays the dense chain
byte for byte. The equivalence matrices (``test_block_storage.py``,
``test_storage_equivalence.py``) cover the engines themselves.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro import SBPConfig, run_sbp
from repro.core import fit_session
from repro.errors import BackendError
from repro.io.serialize import load_blockmodel, save_blockmodel
from repro.resilience.checkpoint import RunCheckpointer, config_digest
from repro.sbm.block_storage import (
    AUTO_STORAGE,
    STORAGE_BUDGET_ENV,
    DenseBlockState,
    HybridRule,
    SparseBlockState,
    resolve_block_storage,
    storage_budget_bytes,
)
from repro.sbm.blockmodel import Blockmodel
from repro.sbm.incremental import ProposalCache
from tests.golden_utils import sweep_barrier

#: Sparse at the planted graph's singleton start (C = V = 80), dense
#: once a merge phase brings C to 60 or below.
SWITCH_BUDGET = 8 * 60 * 60


@pytest.fixture
def switch_budget(monkeypatch):
    monkeypatch.setenv(STORAGE_BUDGET_ENV, str(SWITCH_BUDGET))


def _ref_matrix(C: int = 8, seed: int = 3) -> np.ndarray:
    rng = np.random.default_rng(seed)
    B = rng.integers(0, 5, size=(C, C)).astype(np.int64)
    B[rng.random((C, C)) < 0.4] = 0
    return B


class TestSizeRule:
    def test_threshold_is_the_dense_footprint(self, monkeypatch):
        monkeypatch.delenv(STORAGE_BUDGET_ENV, raising=False)
        assert HybridRule.engine(8192) is DenseBlockState  # 512 MiB exactly
        assert HybridRule.engine(8193) is SparseBlockState
        monkeypatch.setenv(STORAGE_BUDGET_ENV, str(8 * 10 * 10))
        assert HybridRule.engine(10) is DenseBlockState
        assert HybridRule.engine(11) is SparseBlockState
        monkeypatch.setenv(STORAGE_BUDGET_ENV, "0")
        assert HybridRule.engine(1) is SparseBlockState

    def test_builders_follow_the_rule(self, monkeypatch):
        monkeypatch.setenv(STORAGE_BUDGET_ENV, str(8 * 8 * 8))
        ref = _ref_matrix(8)
        assert isinstance(HybridRule.from_dense(ref), DenseBlockState)
        big = _ref_matrix(9)
        state = HybridRule.from_dense(big)
        assert isinstance(state, SparseBlockState)
        assert_array_equal(state.to_dense(), big)
        src, dst = np.nonzero(big)
        assert isinstance(HybridRule.from_edges(src, dst, 9), SparseBlockState)

    def test_blockmodel_reports_hybrid_over_either_engine(
        self, planted_graph, switch_budget
    ):
        graph, _ = planted_graph
        singleton = Blockmodel.singleton(graph, storage="hybrid")
        assert isinstance(singleton.state, SparseBlockState)
        small = Blockmodel.from_assignment(
            graph, np.arange(graph.num_vertices) % 5, 5, storage="hybrid"
        )
        assert isinstance(small.state, DenseBlockState)
        for bm in (singleton, small, singleton.copy(), small.copy()):
            assert bm.storage_name == "hybrid"
        small.compact()
        assert isinstance(small.state, DenseBlockState)
        assert small.storage_name == "hybrid"

    def test_archive_load_reapplies_the_rule(
        self, planted_graph, tmp_path, monkeypatch
    ):
        """An archive records ``hybrid``; the load picks at its own C."""
        graph, _ = planted_graph
        assignment = np.arange(graph.num_vertices) % 7
        bm = Blockmodel.from_assignment(graph, assignment, 7, storage="hybrid")
        assert isinstance(bm.state, DenseBlockState)
        save_blockmodel(bm, tmp_path / "bm.npz")
        monkeypatch.setenv(STORAGE_BUDGET_ENV, "0")
        loaded = load_blockmodel(tmp_path / "bm.npz")
        assert isinstance(loaded.state, SparseBlockState)
        assert loaded.storage_name == "hybrid"
        assert_array_equal(loaded.state.to_dense(), bm.state.to_dense())


class TestBudget:
    @pytest.mark.parametrize("raw", ["abc", "-5", "1.5", ""])
    def test_malformed_budget_raises_typed_error(
        self, planted_graph, monkeypatch, raw
    ):
        graph, _ = planted_graph
        monkeypatch.setenv(STORAGE_BUDGET_ENV, raw)
        with pytest.raises(BackendError, match=STORAGE_BUDGET_ENV):
            storage_budget_bytes()
        with pytest.raises(BackendError, match=STORAGE_BUDGET_ENV):
            resolve_block_storage(AUTO_STORAGE, 1 << 16, 10**6)
        with pytest.raises(BackendError, match=STORAGE_BUDGET_ENV):
            Blockmodel.singleton(graph, storage="hybrid")

    def test_well_formed_budget_is_read(self, monkeypatch):
        monkeypatch.delenv(STORAGE_BUDGET_ENV, raising=False)
        assert storage_budget_bytes() == 512 * 2**20
        monkeypatch.setenv(STORAGE_BUDGET_ENV, "0")
        assert storage_budget_bytes() == 0
        monkeypatch.setenv(STORAGE_BUDGET_ENV, " 4096 ")
        assert storage_budget_bytes() == 4096


def _fit(graph, storage, variant="a-sbp", seed=3, strategy="incremental"):
    config = SBPConfig(
        variant=variant, seed=seed, block_storage=storage, record_work=True
    )
    with sweep_barrier(strategy):
        return run_sbp(graph, config)


def _assert_same_chain(result, dense) -> None:
    assert_array_equal(result.assignment, dense.assignment)
    assert result.mdl == dense.mdl  # bit-identical, not approx
    assert result.search_history == dense.search_history
    for field in ("delta_mdl", "accepted", "proposals", "b_nnz", "b_density"):
        assert [getattr(s, field) for s in result.sweep_stats] == [
            getattr(s, field) for s in dense.sweep_stats
        ], field


class TestSwitchingFit:
    def test_fit_goes_sparse_to_dense_on_the_dense_chain(
        self, planted_graph, switch_budget, monkeypatch
    ):
        graph, _ = planted_graph
        merges = []
        merge = fit_session.block_merge_phase

        def spy(start, *args, **kwargs):
            out = merge(start, *args, **kwargs)
            merges.append((start, out))
            return out

        monkeypatch.setattr(fit_session, "block_merge_phase", spy)
        hybrid = _fit(graph, "hybrid")
        first_start, first_out = merges[0]
        assert first_start.num_blocks == graph.num_vertices
        assert isinstance(first_start.state, SparseBlockState)
        assert 8 * first_out.num_blocks**2 <= SWITCH_BUDGET
        assert isinstance(first_out.state, DenseBlockState)
        for start, out in merges:
            assert start.storage_name == out.storage_name == "hybrid"
            assert type(out.state) is HybridRule.engine(out.num_blocks)
        assert hybrid.block_storage == "hybrid"
        monkeypatch.setattr(fit_session, "block_merge_phase", merge)
        _assert_same_chain(hybrid, _fit(graph, "dense"))


@pytest.mark.slow
class TestSwitchingEquivalence:
    """The ``test_storage_equivalence`` matrix, under the switching budget."""

    @pytest.mark.parametrize("strategy", ["rebuild", "incremental"])
    @pytest.mark.parametrize("variant", ["sbp", "a-sbp", "h-sbp"])
    def test_switching_hybrid_replays_dense_chain(
        self, planted_graph, switch_budget, variant, strategy
    ):
        graph, _ = planted_graph
        for seed in (3, 17):
            dense = _fit(graph, "dense", variant, seed, strategy)
            hybrid = _fit(graph, "hybrid", variant, seed, strategy)
            _assert_same_chain(hybrid, dense)


class TestMemoryAccounting:
    def test_sparse_counts_flat_cache(self):
        state = SparseBlockState.from_dense(_ref_matrix(32, seed=9))
        before = state.memory_bytes()
        state.gather(
            np.asarray([0, 1, 2], dtype=np.int64),
            np.asarray([3, 4, 5], dtype=np.int64),
        )  # materializes the lazy flat-CSR cache
        assert state._flat is not None
        assert state.memory_bytes() > before

    def test_sparse_covers_line_payloads(self):
        state = SparseBlockState.from_dense(_ref_matrix(16, seed=5))
        payload = sum(
            int(arr.nbytes)
            for store in (state._row_cols, state._row_vals,
                          state._col_rows, state._col_vals)
            for arr in store
        )
        assert state.memory_bytes() >= payload


class TestProposalCache:
    def test_eager_protocol_unchanged_for_dense(self, planted_graph):
        graph, _ = planted_graph
        rng = np.random.default_rng(8)
        assignment = rng.integers(0, 6, graph.num_vertices)
        bm = Blockmodel.from_assignment(graph, assignment, 6, storage="dense")
        cache = ProposalCache(bm)
        cache.row_cdf(0)
        cache.row_cdf(4)
        cache.invalidate_move(
            0, 1, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        assert 0 not in cache._cdfs
        assert 4 in cache._cdfs


class TestAutoPolicy:
    def test_explicit_names_pass_through(self):
        for name in ("dense", "sparse", "hybrid"):
            engine, reason = resolve_block_storage(name, 10**6, 10**7)
            assert engine == name
            assert reason == "explicit"

    def test_small_graphs_go_dense(self):
        engine, reason = resolve_block_storage(AUTO_STORAGE, 500, 4000)
        assert engine == "dense"
        assert "fits" in reason

    def test_large_sparse_graphs_go_hybrid(self):
        # C = 2^16 would need 32 GiB dense; way past any default budget.
        engine, _ = resolve_block_storage(AUTO_STORAGE, 1 << 16, 10**6)
        assert engine == "hybrid"

    def test_near_dense_within_budget_stays_dense(self):
        # 8 * 4096^2 = 128 MiB <= 512 MiB default budget, density ~ 0.06.
        c = 4096
        engine, reason = resolve_block_storage(AUTO_STORAGE, c, c * c // 16)
        assert engine == "dense"
        assert "density" in reason

    def test_budget_env_override(self, monkeypatch):
        c = 4096
        monkeypatch.setenv(STORAGE_BUDGET_ENV, str(10**6))
        engine, _ = resolve_block_storage(AUTO_STORAGE, c, c * c // 16)
        assert engine == "hybrid"
        monkeypatch.delenv(STORAGE_BUDGET_ENV)
        engine, _ = resolve_block_storage(AUTO_STORAGE, c, c * c // 16)
        assert engine == "dense"

    def test_explicit_budget_beats_env(self, monkeypatch):
        monkeypatch.setenv(STORAGE_BUDGET_ENV, str(10**12))
        engine, _ = resolve_block_storage(
            AUTO_STORAGE, 4096, 4096 * 4096 // 16, budget_bytes=10**6
        )
        assert engine == "hybrid"

    def test_config_accepts_auto(self):
        config = SBPConfig(block_storage=AUTO_STORAGE)
        assert config.block_storage == AUTO_STORAGE

    @pytest.mark.slow
    def test_run_records_resolved_engine(self, planted_graph):
        graph, _ = planted_graph
        config = SBPConfig(seed=9, block_storage=AUTO_STORAGE, max_sweeps=8)
        result = run_sbp(graph, config)
        # 80 vertices → dense fits comfortably.
        assert result.block_storage == "dense"
        explicit = run_sbp(
            graph, SBPConfig(seed=9, block_storage="dense", max_sweeps=8)
        )
        assert_array_equal(result.assignment, explicit.assignment)
        assert result.mdl == explicit.mdl

    @pytest.mark.slow
    def test_auto_checkpoint_interops_with_resolved_name(
        self, planted_graph, tmp_path
    ):
        """Digests record the *resolved* engine, so auto and its
        resolution share checkpoints instead of refusing each other."""
        graph, _ = planted_graph
        ck = RunCheckpointer(tmp_path / "ckpt")
        auto = SBPConfig(seed=5, block_storage=AUTO_STORAGE, max_sweeps=8)
        first = run_sbp(graph, auto, checkpointer=ck)
        resumed = run_sbp(
            graph,
            SBPConfig(seed=5, block_storage="dense", max_sweeps=8),
            checkpointer=ck,
        )
        assert_array_equal(resumed.assignment, first.assignment)
        assert resumed.mdl == first.mdl

    def test_digest_requires_resolution_first(self):
        """A digest of an unresolved auto config differs from dense's —
        the run loop must resolve before digesting (and does)."""
        auto = SBPConfig(seed=1, block_storage=AUTO_STORAGE)
        dense = SBPConfig(seed=1, block_storage="dense")
        assert config_digest(auto) != config_digest(dense)
        assert config_digest(auto.replace(block_storage="dense")) == (
            config_digest(dense)
        )
