"""Block-storage engines: unit contract + recorded-trace replay.

Two layers of evidence that ``dense`` and ``sparse`` are
interchangeable, and that the ``hybrid`` rule builds a working engine:

* **Contract tests** exercise every :class:`BlockState` operation on
  small hand-built matrices (self-loops, empty blocks, zero rows) and
  compare every engine cell-for-cell against a plain ndarray reference.
* **Recorded traces** register a ``recording`` engine (a dense subclass
  that logs every mutation) and drive *real* phase code — an MCMC phase
  via the sweep engine and a block-merge phase — then replay the logged
  op sequence against fresh states of every engine, asserting byte-equal
  dense views after **every** op. Replay catches ordering/aliasing bugs
  a final-state comparison would miss.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from repro import Blockmodel, SBPConfig
from repro.core.sbp import run_mcmc_phase
from repro.errors import BackendError, BlockmodelError
from repro.parallel.backend import get_backend
from repro.sbm.block_storage import (
    BLOCK_STORAGES,
    BlockState,
    DenseBlockState,
    HybridRule,
    RowCDF,
    SparseBlockState,
)
from repro.utils.timer import StopwatchPool

#: The ``hybrid`` rule is not an engine, but its builders are what an
#: archive load and every ``from_assignment`` call use, so the contract
#: runs on whatever it builds (dense at these sizes).
ENGINES = (DenseBlockState, SparseBlockState, HybridRule)


def _ref_matrix() -> np.ndarray:
    """5x5 reference with self-loops, an empty block (3) and zero cells."""
    return np.array(
        [
            [2, 1, 0, 0, 3],
            [0, 4, 1, 0, 0],
            [1, 0, 0, 0, 2],
            [0, 0, 0, 0, 0],  # block 3 is empty
            [0, 2, 0, 0, 5],
        ],
        dtype=np.int64,
    )


@pytest.fixture(params=ENGINES, ids=lambda c: c.name)
def engine(request):
    return request.param


class TestContract:
    def test_from_dense_round_trip(self, engine):
        ref = _ref_matrix()
        state = engine.from_dense(ref)
        assert_array_equal(state.to_dense(), ref)
        assert state.num_blocks == 5
        assert state.nnz == np.count_nonzero(ref)
        assert state.total == ref.sum()
        assert state.density == pytest.approx(np.count_nonzero(ref) / 25)
        assert state.equals_dense(ref)

    def test_from_dense_copies(self, engine):
        ref = _ref_matrix()
        state = engine.from_dense(ref)
        ref[0, 0] = 99
        assert state.get(0, 0) == 2

    def test_from_edges_matches_reference(self, engine):
        rng = np.random.default_rng(7)
        src = rng.integers(0, 6, 40)
        dst = rng.integers(0, 6, 40)
        ref = np.zeros((6, 6), dtype=np.int64)
        np.add.at(ref, (src, dst), 1)
        state = engine.from_edges(src, dst, 6)
        assert_array_equal(state.to_dense(), ref)

    def test_from_edges_empty(self, engine):
        state = engine.from_edges(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 3
        )
        assert_array_equal(state.to_dense(), np.zeros((3, 3), dtype=np.int64))
        assert state.nnz == 0

    def test_reads(self, engine):
        ref = _ref_matrix()
        state = engine.from_dense(ref)
        idx = np.array([4, 0, 3, 2], dtype=np.int64)
        for r in range(5):
            assert_array_equal(state.row_gather(r, idx), ref[r, idx])
            assert_array_equal(state.col_gather(r, idx), ref[idx, r])
            assert_array_equal(state.dense_row(r), ref[r, :])
            assert_array_equal(state.dense_col(r), ref[:, r])
            for c in range(5):
                assert state.get(r, c) == ref[r, c]
        assert_array_equal(state.gather(idx, idx[::-1]), ref[idx, idx[::-1]])
        assert_array_equal(state.diagonal(), np.diagonal(ref))
        assert_array_equal(state.row_sums(), ref.sum(axis=1))
        assert_array_equal(state.col_sums(), ref.sum(axis=0))

    def test_nonzero_is_row_major_reference(self, engine):
        ref = _ref_matrix()
        rows, cols, vals = engine.from_dense(ref).nonzero()
        rr, rc = np.nonzero(ref)
        assert_array_equal(rows, rr)
        assert_array_equal(cols, rc)
        assert_array_equal(vals, ref[rr, rc])

    def test_likelihood_matrix_matches_dense(self, engine):
        ref = _ref_matrix()
        assert_array_equal(engine.from_dense(ref).likelihood_matrix(), ref)

    def test_sym_row_cdf_draws_match_dense_identity(self, engine):
        ref = _ref_matrix()
        state = engine.from_dense(ref)
        for u in range(5):
            weights = ref[u, :] + ref[:, u]
            dense_cdf = RowCDF(None, np.cumsum(weights))
            cdf = state.sym_row_cdf(u)
            assert cdf.total == dense_cdf.total == weights.sum()
            for uniform in (0.0, 0.199, 0.2, 0.5, 0.73, 0.999999, 1.0):
                assert cdf.draw(uniform, -1) == dense_cdf.draw(uniform, -1)
            if cdf.total > 0:
                grid = np.linspace(0.0, 0.9999, 37)
                assert_array_equal(cdf.draw_many(grid), dense_cdf.draw_many(grid))

    def test_sym_row_cdf_zero_row_falls_back(self, engine):
        state = engine.from_dense(np.zeros((4, 4), dtype=np.int64))
        assert state.sym_row_cdf(2).draw(0.5, 3) == 3

    def test_apply_move(self, engine):
        ref = _ref_matrix()
        state = engine.from_dense(ref)
        # move a vertex from block 0 to block 4: out-edges to {1, 4},
        # in-edges from {2}, one self-loop
        t_out = np.array([1, 4], dtype=np.int64)
        c_out = np.array([1, 2], dtype=np.int64)
        t_in = np.array([2], dtype=np.int64)
        c_in = np.array([1], dtype=np.int64)
        state.apply_move(0, 4, t_out, c_out, t_in, c_in, loops=1)
        ref[0, t_out] -= c_out
        ref[4, t_out] += c_out
        ref[t_in, 0] -= c_in
        ref[t_in, 4] += c_in
        ref[0, 0] -= 1
        ref[4, 4] += 1
        assert_array_equal(state.to_dense(), ref)

    def test_scatter_edges(self, engine):
        ref = _ref_matrix()
        state = engine.from_dense(ref)
        old_src = np.array([0, 0, 4, 2], dtype=np.int64)
        old_dst = np.array([4, 4, 4, 0], dtype=np.int64)
        new_src = np.array([1, 1, 4, 2], dtype=np.int64)
        new_dst = np.array([4, 1, 1, 2], dtype=np.int64)
        state.scatter_edges(old_src, old_dst, new_src, new_dst)
        np.subtract.at(ref, (old_src, old_dst), 1)
        np.add.at(ref, (new_src, new_dst), 1)
        assert_array_equal(state.to_dense(), ref)

    def test_merge_into(self, engine):
        ref = _ref_matrix()
        state = engine.from_dense(ref)
        state.merge_into(4, 0)  # block 4 has a self-loop and cross terms
        expect = _ref_matrix()
        expect[0, :] += expect[4, :]
        expect[:, 0] += expect[:, 4]
        expect[4, :] = 0
        expect[:, 4] = 0
        assert_array_equal(state.to_dense(), expect)

    def test_merge_into_empty_target(self, engine):
        state = engine.from_dense(_ref_matrix())
        state.merge_into(0, 3)  # target block 3 starts with no edges
        expect = _ref_matrix()
        expect[3, :] += expect[0, :]
        expect[:, 3] += expect[:, 0]
        expect[0, :] = 0
        expect[:, 0] = 0
        assert_array_equal(state.to_dense(), expect)

    def test_compact_drops_empty_block(self, engine):
        state = engine.from_dense(_ref_matrix())
        keep = np.array([0, 1, 2, 4], dtype=np.int64)
        mapping = np.array([0, 1, 2, -1, 3], dtype=np.int64)
        compacted = state.compact(keep, mapping)
        assert compacted.num_blocks == 4
        assert_array_equal(
            compacted.to_dense(), _ref_matrix()[np.ix_(keep, keep)]
        )
        # the source state is untouched
        assert_array_equal(state.to_dense(), _ref_matrix())

    def test_copy_is_independent(self, engine):
        state = engine.from_dense(_ref_matrix())
        dup = state.copy()
        state.merge_into(0, 1)
        assert_array_equal(dup.to_dense(), _ref_matrix())

    def test_memory_bytes_positive(self, engine):
        assert engine.from_dense(_ref_matrix()).memory_bytes() > 0


class TestSparseSpecifics:
    def test_negative_count_rejected(self):
        state = SparseBlockState.from_dense(_ref_matrix())
        # removing an edge that does not exist drives a cell below zero
        with pytest.raises(BlockmodelError):
            state.scatter_edges(
                np.array([3], dtype=np.int64), np.array([3], dtype=np.int64),
                np.array([0], dtype=np.int64), np.array([1], dtype=np.int64),
            )

    def test_zero_cells_are_not_stored(self):
        state = SparseBlockState.from_dense(_ref_matrix())
        # move every count out of cell (0, 1); the support must shrink
        state.scatter_edges(
            np.array([0], dtype=np.int64), np.array([1], dtype=np.int64),
            np.array([0], dtype=np.int64), np.array([4], dtype=np.int64),
        )
        before = state.nnz
        assert state.get(0, 1) == 0
        assert before == np.count_nonzero(state.to_dense())

    def test_net_negative_triplet_rejected(self):
        with pytest.raises(BlockmodelError, match="negative aggregate count"):
            SparseBlockState._from_triplets(
                np.array([0, 0]), np.array([1, 1]), np.array([-3, 1]), 2
            )

    def test_triplets_aggregate_before_audit(self):
        """A negative triplet is fine when its cell's total is not."""
        state = SparseBlockState._from_triplets(
            np.array([0, 0, 1, 1]), np.array([1, 1, 0, 0]),
            np.array([-1, 3, 2, -2]), 2,
        )
        assert_array_equal(state.to_dense(), [[0, 2], [0, 0]])
        assert state.nnz == 1

    def test_builders_store_sorted_positive_lines(self):
        """from_edges, from_dense and compact build the reference state."""
        ref = _ref_matrix()
        rows, cols = np.nonzero(ref)
        counts = ref[rows, cols]
        keep = np.array([0, 1, 2, 4], dtype=np.int64)
        mapping = np.array([0, 1, 2, -1, 3], dtype=np.int64)
        built = [
            (SparseBlockState.from_dense(ref), ref),
            (SparseBlockState.from_edges(
                np.repeat(rows, counts), np.repeat(cols, counts), 5), ref),
            (SparseBlockState.from_dense(ref).compact(keep, mapping),
             ref[np.ix_(keep, keep)]),
        ]
        for state, expect in built:
            assert_array_equal(state.to_dense(), expect)
            _assert_lines_canonical(state, expect)

    def test_sparse_beats_dense_memory_when_sparse(self):
        C = 2048
        rng = np.random.default_rng(3)
        src = rng.integers(0, C, 4 * C)
        dst = rng.integers(0, C, 4 * C)
        dense = DenseBlockState.from_edges(src, dst, C)
        sparse = SparseBlockState.from_edges(src, dst, C)
        assert sparse.memory_bytes() < dense.memory_bytes()


class TestRegistry:
    def test_builtins_listed(self):
        names = BLOCK_STORAGES.names()
        assert "dense" in names and "sparse" in names and "hybrid" in names

    def test_get_unknown_raises(self):
        with pytest.raises(BackendError, match="unknown"):
            BLOCK_STORAGES.get("no-such-engine")

    def test_duplicate_register_raises(self):
        with pytest.raises(BackendError, match="already"):
            BLOCK_STORAGES.register("dense", DenseBlockState)

    def test_config_validates_storage_name(self):
        with pytest.raises(ValueError, match="block_storage"):
            SBPConfig(block_storage="no-such-engine")


# ----------------------------------------------------------------------
# Batched line merge against the dense oracle
# ----------------------------------------------------------------------
def _assert_lines_canonical(state: SparseBlockState, expect: np.ndarray) -> None:
    """Every stored line is sorted, unique, strictly positive and exact."""
    for u in range(state.num_blocks):
        for keys, vals, line in (
            (state._row_cols[u], state._row_vals[u], expect[u]),
            (state._col_rows[u], state._col_vals[u], expect[:, u]),
        ):
            assert_array_equal(keys, np.flatnonzero(line))
            assert_array_equal(vals, line[keys])


def _edge_units(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every edge counted in ``M`` as one ``(row, col)`` pair."""
    rows, cols = np.nonzero(M)
    counts = M[rows, cols]
    return np.repeat(rows, counts), np.repeat(cols, counts)


def _subset(rng, items: np.ndarray) -> np.ndarray:
    """A sorted random subset of ``items`` (unique, possibly empty)."""
    return np.sort(rng.choice(items, rng.integers(0, items.shape[0] + 1), replace=False))


def _random_batch(kind: str, M: np.ndarray, rng) -> tuple[str, tuple]:
    """One mutation ``(method, args)`` drawn against the current matrix."""
    C = M.shape[0]
    r, s = (int(x) for x in rng.choice(C, 2, replace=False))
    src, dst = _edge_units(M)
    if kind == "scatter":
        pick = rng.choice(src.shape[0], rng.integers(0, src.shape[0] + 1), replace=False)
        n = int(rng.integers(0, 2 * C + 1))
        new_src = rng.integers(0, C, n)
        new_dst = rng.integers(0, C, n)
        loops = rng.random(n) < 0.2
        new_dst[loops] = new_src[loops]  # self-loop cells
        return "scatter_edges", (src[pick], dst[pick], new_src, new_dst)
    if kind == "empty":
        # move every edge of row and column r to block s: line r empties
        hit = (src == r) | (dst == r)
        old_src, old_dst = src[hit], dst[hit]
        return "scatter_edges", (
            old_src, old_dst,
            np.where(old_src == r, s, old_src), np.where(old_dst == r, s, old_dst),
        )
    if kind == "move":
        # counts bounded by the cells they leave; the (r, r) cell can
        # still go negative, which the caller checks against the oracle
        t_out = _subset(rng, np.flatnonzero(M[r]))
        t_in = _subset(rng, np.flatnonzero(M[:, r]))
        c_out = rng.integers(1, M[r, t_out] + 1) if t_out.size else t_out
        c_in = rng.integers(1, M[t_in, r] + 1) if t_in.size else t_in
        loops = int(rng.integers(0, M[r, r] + 1))
        return "apply_move", (r, s, t_out, c_out, t_in, c_in, loops)
    if kind == "merge":
        return "merge_into", (r, s)
    # phantom: remove one edge more than cell (r, s) holds
    phantom = int(M[r, s]) + 1
    return "scatter_edges", (
        np.concatenate([src[:3], np.full(phantom, r)]),
        np.concatenate([dst[:3], np.full(phantom, s)]),
        rng.integers(0, C, 2), rng.integers(0, C, 2),
    )


def _assert_reads_match(state: BlockState, M: np.ndarray) -> None:
    """Every whole-matrix read equals the oracle."""
    C = M.shape[0]
    rows = np.repeat(np.arange(C), C)
    cols = np.tile(np.arange(C), C)
    assert_array_equal(state.gather(rows, cols), M[rows, cols])
    assert_array_equal(state.likelihood_matrix(), M)
    assert state.nnz == np.count_nonzero(M)
    assert_array_equal(state.row_sums(), M.sum(axis=1))
    assert_array_equal(state.col_sums(), M.sum(axis=0))
    for got, expect in zip(state.nonzero(), DenseBlockState(M).nonzero()):
        assert_array_equal(got, expect)
    assert_array_equal(state.to_dense(), M)


class TestBatchedMergeProperty:
    """Random batches on the sparse engine at three sizes of C.

    Every example ends with a batch that drives a cell negative.
    """

    @pytest.mark.parametrize("C", [5, 40, 300])
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(steps=st.lists(
        st.tuples(st.sampled_from(["scatter", "empty", "move", "merge"]),
                  st.integers(0, 2**32 - 1)),
        max_size=5,
    ), final_seed=st.integers(0, 2**32 - 1))
    def test_batches_match_dense_oracle(self, C, steps, final_seed):
        rng = np.random.default_rng(C)
        start = DenseBlockState.from_edges(
            rng.integers(0, C, 4 * C), rng.integers(0, C, 4 * C), C
        ).B
        dense = DenseBlockState(start.copy())
        sparse = SparseBlockState.from_dense(start)
        for kind, seed in steps + [("phantom", final_seed)]:
            rng = np.random.default_rng(seed)
            op, args = _random_batch(kind, dense.B, rng)
            expect = dense.B.copy()
            getattr(DenseBlockState(expect), op)(*args)
            if expect.min() < 0:
                line = int(np.flatnonzero((expect < 0).any(axis=1))[0])
                with pytest.raises(
                    BlockmodelError, match=f"negative count in sparse storage line {line}$"
                ):
                    getattr(sparse, op)(*args)
                # a rejected batch leaves the sparse state untouched
                _assert_lines_canonical(sparse, dense.B)
                return
            for state in (dense, sparse):
                getattr(state, op)(*args)
            assert_array_equal(dense.B, expect)
            _assert_reads_match(sparse, expect)
            _assert_lines_canonical(sparse, expect)
        pytest.fail("the final phantom batch did not go negative")


# ----------------------------------------------------------------------
# Recorded traces from real runs
# ----------------------------------------------------------------------
class RecordingBlockState(DenseBlockState):
    """Dense engine that logs every mutation for later replay."""

    name = "recording"

    def __init__(self, B: np.ndarray, ops: list | None = None) -> None:
        super().__init__(B)
        self.ops = [] if ops is None else ops

    def apply_move(self, r, s, t_out, c_out, t_in, c_in, loops) -> None:
        self.ops.append((
            "apply_move",
            (int(r), int(s), np.array(t_out), np.array(c_out),
             np.array(t_in), np.array(c_in), int(loops)),
        ))
        super().apply_move(r, s, t_out, c_out, t_in, c_in, loops)

    def scatter_edges(self, old_src, old_dst, new_src, new_dst) -> None:
        self.ops.append((
            "scatter_edges",
            tuple(np.array(a) for a in (old_src, old_dst, new_src, new_dst)),
        ))
        super().scatter_edges(old_src, old_dst, new_src, new_dst)

    def merge_into(self, r: int, s: int) -> None:
        self.ops.append(("merge_into", (int(r), int(s))))
        super().merge_into(r, s)

    def compact(self, keep, mapping) -> "RecordingBlockState":
        self.ops.append(("compact", (np.array(keep), np.array(mapping))))
        base = super().compact(keep, mapping)
        return RecordingBlockState(base.B, self.ops)  # continue the lineage

    def copy(self) -> "RecordingBlockState":
        return RecordingBlockState(self.B.copy(), self.ops)  # shared log

    @classmethod
    def from_edges(cls, src_blocks, dst_blocks, num_blocks):
        return cls(DenseBlockState.from_edges(src_blocks, dst_blocks,
                                              num_blocks).B)

    @classmethod
    def from_dense(cls, dense):
        return cls(np.asarray(dense, dtype=np.int64).copy())


def _replay(ops, start: np.ndarray, engine) -> BlockState:
    """Apply a recorded op sequence to a fresh state of ``engine``."""
    state = engine.from_dense(start)
    for op, payload in ops:
        if op == "compact":
            state = state.compact(*payload)
        else:
            getattr(state, op)(*payload)
    return state


def _replay_pair(ops, start: np.ndarray) -> None:
    """Replay against every engine, asserting equality after every op."""
    dense = DenseBlockState.from_dense(start)
    others = [SparseBlockState.from_dense(start)]
    for i, (op, payload) in enumerate(ops):
        if op == "compact":
            dense = dense.compact(*payload)
            others = [o.compact(*payload) for o in others]
        else:
            getattr(dense, op)(*payload)
            for other in others:
                getattr(other, op)(*payload)
        expect = dense.to_dense()
        for other in others:
            assert_array_equal(
                other.to_dense(), expect,
                err_msg=f"{other.name} diverged from dense at op {i} ({op})",
            )


@pytest.fixture(scope="module")
def recording_registered():
    try:
        BLOCK_STORAGES.register("recording", RecordingBlockState)
    except BackendError:
        pass  # already registered by an earlier module run
    return "recording"


@pytest.mark.slow
class TestRecordedTraces:
    def _recorded_phase(self, graph, variant: str, seed: int):
        """Run one real MCMC phase on a recording state; return its trace."""
        rng = np.random.default_rng(31)
        assignment = rng.integers(0, 10, graph.num_vertices)
        bm = Blockmodel.from_assignment(
            graph, assignment, 10, storage=RecordingBlockState
        )
        start = bm.state.to_dense()
        config = SBPConfig(variant=variant, seed=seed, max_sweeps=4)
        backend = get_backend(config.backend)
        try:
            run_mcmc_phase(bm, graph, config, backend, 1, 0.0, StopwatchPool())
        finally:
            backend.close()
        return start, bm.state

    @pytest.mark.parametrize("variant", ["sbp", "a-sbp", "h-sbp"])
    def test_mcmc_phase_trace_replays_on_both_engines(
        self, medium_graph, variant
    ):
        graph, _ = medium_graph
        start, final_state = self._recorded_phase(graph, variant, seed=11)
        assert final_state.ops, "phase recorded no mutations"
        _replay_pair(final_state.ops, start)
        for engine in ENGINES:
            replayed = _replay(final_state.ops, start, engine)
            assert_array_equal(replayed.to_dense(), final_state.to_dense())

    def test_merge_phase_trace_replays_on_both_engines(self, medium_graph):
        """Merge decisions from a real candidate scan, applied as a trace.

        The production apply step rebuilds from the assignment, so the
        ``merge_into``/``compact`` ops are exercised via the in-place
        :meth:`Blockmodel.merge_blocks` path using the same real
        decisions ``block_merge_phase`` would pick.
        """
        from repro.sbm.delta import merge_delta_batch
        from repro.sbm.moves import propose_block_merges_batch
        from repro.utils.rng import philox_stream

        graph, _ = medium_graph
        rng = np.random.default_rng(13)
        assignment = rng.integers(0, 12, graph.num_vertices)
        bm = Blockmodel.from_assignment(
            graph, assignment, 12, storage=RecordingBlockState
        )
        start = bm.state.to_dense()
        uniforms = philox_stream(5, 0, 0).random((12, 4, 4))
        blocks = np.arange(12, dtype=np.int64)
        targets = propose_block_merges_batch(bm, uniforms)
        applied = 0
        for p in range(targets.shape[1]):
            if applied >= 4:
                break
            deltas = merge_delta_batch(bm, blocks, targets[:, p])
            r = int(blocks[np.argmin(deltas)])
            s = int(targets[np.argmin(deltas), p])
            if r != s and (bm.assignment == r).any() and (bm.assignment == s).any():
                bm.merge_blocks(r, s)
                applied += 1
        bm.compact()
        ops = bm.state.ops
        assert any(op == "merge_into" for op, _ in ops)
        assert any(op == "compact" for op, _ in ops)
        _replay_pair(ops, start)

    def test_full_run_accepts_registered_engine(
        self, planted_graph, recording_registered
    ):
        """``block_storage`` accepts any registered engine end to end."""
        from repro.core.sbp import run_sbp

        graph, _ = planted_graph
        config = SBPConfig(seed=6, max_sweeps=6,
                           block_storage=recording_registered)
        reference = run_sbp(graph, SBPConfig(seed=6, max_sweeps=6))
        result = run_sbp(graph, config)
        assert_array_equal(result.assignment, reference.assignment)
        assert result.mdl == reference.mdl
