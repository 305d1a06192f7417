"""Tests for the in-process ``sim`` transport, the vertex partitioners
and the sharded sweep over it."""

from __future__ import annotations

import numpy as np
import pytest

from repro import Blockmodel
from repro.distributed.comm import SimTransport
from repro.distributed.partition import edge_cut, partition_stats, partition_vertices
from repro.distributed.runtime import DistributedBackend
from repro.errors import TransportError
from repro.mcmc.async_gibbs import async_gibbs_sweep
from repro.parallel.vectorized import VectorizedBackend
from repro.utils.rng import SweepRandomness


class TestCommWorld:
    """The in-process comm world: ``SimTransport``'s per-channel FIFO."""

    def test_send_recv_roundtrip(self):
        transport = SimTransport(3)
        transport.push(b"first", source=0, dest=2)
        transport.push(b"second", source=0, dest=2)
        transport.push(b"other", source=1, dest=2)
        assert transport.pull(source=0, dest=2) == b"first"
        assert transport.pull(source=0, dest=2) == b"second"
        assert transport.pull(source=1, dest=2) == b"other"

    def test_recv_without_send(self):
        transport = SimTransport(2)
        assert transport.pull(source=0, dest=1) is None
        transport.push(b"x", source=0, dest=1)
        assert transport.pull(source=1, dest=0) is None  # channels are one-way

    def test_send_to_self_rejected(self):
        with pytest.raises(TransportError, match="self-channels"):
            SimTransport(2).push(b"x", source=1, dest=1)

    def test_bad_rank_count(self):
        with pytest.raises(TransportError):
            SimTransport(0)


class TestPartitioning:
    @pytest.mark.parametrize("strategy", ["contiguous", "hash", "degree_balanced"])
    def test_partition_covers_all(self, medium_graph, strategy):
        graph, _ = medium_graph
        owner = partition_vertices(graph, 4, strategy)
        assert owner.shape == (graph.num_vertices,)
        assert set(np.unique(owner)) <= set(range(4))

    def test_contiguous_is_ranges(self, medium_graph):
        graph, _ = medium_graph
        owner = partition_vertices(graph, 3, "contiguous")
        assert (np.diff(owner) >= 0).all()

    def test_degree_balanced_beats_contiguous_on_balance(self, medium_graph):
        graph, _ = medium_graph
        balanced = partition_stats(
            graph, partition_vertices(graph, 8, "degree_balanced"), "degree_balanced"
        )
        contiguous = partition_stats(
            graph, partition_vertices(graph, 8, "contiguous"), "contiguous"
        )
        assert balanced.degree_imbalance <= contiguous.degree_imbalance + 1e-9

    def test_edge_cut_single_rank_zero(self, medium_graph):
        graph, _ = medium_graph
        owner = partition_vertices(graph, 1, "hash")
        assert edge_cut(graph, owner) == 0

    def test_unknown_strategy(self, medium_graph):
        graph, _ = medium_graph
        with pytest.raises(ValueError):
            partition_vertices(graph, 2, "metis")


class TestDistributedSweep:
    def _state(self, medium_graph):
        graph, _ = medium_graph
        rng = np.random.default_rng(13)
        assignment = rng.integers(0, 7, graph.num_vertices)
        return graph, Blockmodel.from_assignment(graph, assignment, 7)

    @pytest.mark.parametrize("ranks", [1, 2, 4, 7])
    @pytest.mark.parametrize("strategy", ["contiguous", "degree_balanced"])
    def test_identical_to_single_node(self, medium_graph, ranks, strategy):
        """The distribution invariant: decisions never depend on ranks."""
        graph, bm = self._state(medium_graph)
        vertices = np.arange(graph.num_vertices, dtype=np.int64)
        rand = SweepRandomness.draw(3, 5, 0, graph.num_vertices)
        reference = VectorizedBackend().evaluate_sweep(
            bm, graph, vertices, rand.uniforms, 3.0
        )
        with DistributedBackend(
            transport="sim", ranks=ranks, partition_strategy=strategy
        ) as backend:
            got = backend.evaluate_sweep(bm, graph, vertices, rand.uniforms, 3.0)
        np.testing.assert_array_equal(got[0], reference[0])
        np.testing.assert_array_equal(got[1], reference[1])

    def test_report_fields(self, medium_graph):
        graph, bm = self._state(medium_graph)
        vertices = np.arange(graph.num_vertices, dtype=np.int64)
        rand = SweepRandomness.draw(5, 5, 0, graph.num_vertices)
        with DistributedBackend(transport="sim", ranks=4) as backend:
            backend.evaluate_sweep(bm, graph, vertices, rand.uniforms, 3.0)
            report = backend.comm_report()
        assert report["ranks"] == 4
        assert report["p2p_messages"] == 3  # one delta per non-supervisor rank
        assert report["p2p_bytes"] > 0

    def test_incremental_updater_barrier_identical(self, medium_graph):
        """The shared-memory barrier engine drops in behind the shards."""
        from repro.sbm.incremental import IncrementalUpdater
        from repro.utils.timer import StopwatchPool

        graph, legacy = self._state(medium_graph)
        _, bm = self._state(medium_graph)
        vertices = np.arange(graph.num_vertices, dtype=np.int64)
        rand = SweepRandomness.draw(7, 5, 0, graph.num_vertices)
        updater = IncrementalUpdater(timers=StopwatchPool())
        with DistributedBackend(transport="sim", ranks=3) as backend:
            async_gibbs_sweep(legacy, graph, vertices, rand, 3.0, backend)
            async_gibbs_sweep(bm, graph, vertices, rand, 3.0, backend, updater=updater)
        np.testing.assert_array_equal(bm.assignment, legacy.assignment)
        np.testing.assert_array_equal(bm.B, legacy.B)

    def test_report_carries_sweep_stats(self, medium_graph):
        graph, bm = self._state(medium_graph)
        vertices = np.arange(graph.num_vertices, dtype=np.int64)
        rand = SweepRandomness.draw(9, 5, 0, graph.num_vertices)
        with DistributedBackend(transport="sim", ranks=4) as backend:
            stats = async_gibbs_sweep(
                bm, graph, vertices, rand, 3.0, backend, record_work=True
            )
        assert stats.proposals == graph.num_vertices
        assert stats.barrier_moved == stats.accepted
        assert stats.work_per_vertex is not None
        assert stats.work_per_vertex.shape == (graph.num_vertices,)
        assert stats.work_per_vertex.sum() == stats.parallel_work
        bm.check_consistency(graph)
