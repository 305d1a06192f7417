"""Storage-engine equivalence: full runs, checkpoints, CLI.

The ``sparse`` and ``hybrid`` engines are only admissible because they
replay the exact chains the ``dense`` oracle produces — byte-equal
assignments and bit-identical MDL floats, per sweep, across the variant
x update strategy x seed matrix (``rebuild`` runs with the recount
oracle injected in place of the production barrier). On top of the
chain equivalence this module covers the persistence surface:
blockmodel archives round-trip their storage engine, checkpoints refuse
a resume under a different engine, and the CLI flag reaches the config.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro import SBPConfig, run_best_of, run_sbp
from repro.cli import main
from repro.errors import CheckpointError
from repro.io.serialize import load_blockmodel, save_blockmodel
from repro.resilience.checkpoint import RunCheckpointer, config_digest
from repro.sbm.blockmodel import Blockmodel
from tests.golden_utils import sweep_barrier

#: The equivalence matrix the CI gate runs: every combo must match.
VARIANTS = ("sbp", "a-sbp", "h-sbp")
STRATEGIES = ("rebuild", "incremental")
SEEDS = (3, 17)

_MATRIX = [
    (v, st, sd) for v in VARIANTS for st in STRATEGIES for sd in SEEDS
]


def _ids(combo):
    return "|".join(str(part) for part in combo)


def _run(graph, variant, strategy, seed, storage, **overrides):
    config = SBPConfig(
        variant=variant,
        seed=seed,
        block_storage=storage,
        record_work=True,
        **overrides,
    )
    with sweep_barrier(strategy):
        return run_sbp(graph, config)


@pytest.mark.slow
class TestFullRunEquivalence:
    @pytest.mark.parametrize("combo", _MATRIX, ids=_ids)
    def test_engines_replay_dense_chain(self, planted_graph, combo):
        variant, strategy, seed = combo
        graph, _ = planted_graph
        dense = _run(graph, variant, strategy, seed, "dense")
        dense_mdls = [s.delta_mdl for s in dense.sweep_stats]
        dense_acc = [s.accepted for s in dense.sweep_stats]
        for storage in ("sparse", "hybrid"):
            other = _run(graph, variant, strategy, seed, storage)
            assert_array_equal(other.assignment, dense.assignment)
            assert other.mdl == dense.mdl  # bit-identical, not approx
            assert other.num_blocks == dense.num_blocks
            assert other.search_history == dense.search_history
            assert [s.delta_mdl for s in other.sweep_stats] == dense_mdls
            assert [s.accepted for s in other.sweep_stats] == dense_acc


class TestSerializationRoundTrip:
    @pytest.mark.parametrize("storage", ["dense", "sparse", "hybrid"])
    def test_blockmodel_archive_preserves_engine(
        self, planted_graph, tmp_path, storage
    ):
        graph, _ = planted_graph
        rng = np.random.default_rng(2)
        assignment = rng.integers(0, 5, graph.num_vertices)
        bm = Blockmodel.from_assignment(graph, assignment, 5, storage=storage)
        path = tmp_path / "bm.npz"
        save_blockmodel(bm, path)
        loaded = load_blockmodel(path)
        assert loaded.storage_name == storage
        assert_array_equal(loaded.state.to_dense(), bm.state.to_dense())
        assert_array_equal(loaded.assignment, bm.assignment)
        assert_array_equal(loaded.d_out, bm.d_out)
        assert_array_equal(loaded.d_in, bm.d_in)

    def test_legacy_archive_without_storage_field(self, tmp_path):
        """Archives from before the engines existed load as dense."""
        B = np.array([[2, 1], [0, 3]], dtype=np.int64)
        path = tmp_path / "legacy.npz"
        np.savez_compressed(
            path,
            B=B,
            assignment=np.array([0, 0, 1, 1], dtype=np.int64),
            num_blocks=np.asarray([2], dtype=np.int64),
        )
        loaded = load_blockmodel(path)
        assert loaded.storage_name == "dense"
        assert_array_equal(loaded.state.to_dense(), B)


@pytest.mark.slow
class TestCheckpointStorage:
    _FAST = dict(max_sweeps=8)

    def test_sparse_checkpoint_round_trip(self, planted_graph, tmp_path):
        """Interrupt-free resume check: snapshot, then rerun to the end."""
        graph, _ = planted_graph
        ck = RunCheckpointer(tmp_path / "ckpt")
        config = SBPConfig(seed=5, block_storage="sparse", **self._FAST)
        first = run_sbp(graph, config, checkpointer=ck)
        assert ck.has_snapshot()
        resumed = run_sbp(graph, config, checkpointer=ck)
        assert_array_equal(resumed.assignment, first.assignment)
        assert resumed.mdl == first.mdl

    def test_cross_storage_resume_refused(self, planted_graph, tmp_path):
        graph, _ = planted_graph
        ck = RunCheckpointer(tmp_path / "ckpt")
        run_sbp(
            graph,
            SBPConfig(seed=5, block_storage="dense", **self._FAST),
            checkpointer=ck,
        )
        with pytest.raises(CheckpointError, match="incompatible"):
            run_sbp(
                graph,
                SBPConfig(seed=5, block_storage="sparse", **self._FAST),
                checkpointer=ck,
            )

    def test_cross_storage_completed_member_refused(
        self, planted_graph, tmp_path
    ):
        """A *finished* best-of member must not replay under another engine.

        In-progress snapshots are digest-checked inside ``run_sbp``; the
        completed-member fast path in ``run_best_of`` reads the stored
        result without re-entering ``run_sbp``, so it carries its own
        digest sidecar and must refuse the same way.
        """
        graph, _ = planted_graph
        ck = RunCheckpointer(tmp_path / "ckpt")
        sparse = SBPConfig(seed=5, block_storage="sparse", **self._FAST)
        run_best_of(graph, sparse, runs=1, checkpointer=ck)
        with pytest.raises(CheckpointError, match="incompatible"):
            run_best_of(
                graph,
                sparse.replace(block_storage="dense"),
                runs=1,
                checkpointer=ck,
            )
        # Same config replays the stored result without recomputing.
        best, results = run_best_of(graph, sparse, runs=1, checkpointer=ck)
        assert len(results) == 1

    def test_digest_separates_storage_engines(self):
        digests = {
            config_digest(SBPConfig(seed=1, block_storage=name))
            for name in ("dense", "sparse", "hybrid")
        }
        assert len(digests) == 3


class TestCLI:
    def test_detect_accepts_block_storage(self, tmp_path, capsys):
        graph_path = tmp_path / "g.txt"
        assert main([
            "generate", "--custom", "--vertices", "60", "--communities", "3",
            "--ratio", "9.0", "--seed", "4", "--output", str(graph_path),
        ]) == 0
        capsys.readouterr()
        code = main([
            "detect", str(graph_path), "--variant", "a-sbp",
            "--block-storage", "sparse", "--json",
        ])
        assert code == 0
        assert '"communities"' in capsys.readouterr().out

    def test_unknown_storage_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["detect", "g.txt", "--block-storage", "no-such-engine"])

    def test_registry_lists_every_section(self, capsys):
        assert main(["registry", "--list"]) == 0
        out = capsys.readouterr().out
        for section in ("variants", "execution backends", "block storages"):
            assert section in out
        for section in ("merge backends", "update strategies"):
            assert section not in out  # fixed paths, not registries
        for name in ("dense", "sparse", "hybrid", "auto", "h-sbp"):
            assert name in out
