"""Backend equivalence: serial oracle vs vectorized batch evaluation.

This is the load-bearing property of the whole parallelization story:
because asynchronous Gibbs evaluates every vertex against the frozen
state and the per-sweep randomness is pre-drawn in vertex order, every
execution strategy must produce identical decisions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Blockmodel
from repro.errors import BackendError
from repro.parallel.backend import BACKENDS, get_backend
from repro.parallel.serial import SerialBackend
from repro.parallel.vectorized import VectorizedBackend
from repro.utils.rng import SweepRandomness

@pytest.fixture
def state(medium_graph):
    graph, _ = medium_graph
    rng = np.random.default_rng(21)
    assignment = rng.integers(0, 10, graph.num_vertices)
    return graph, Blockmodel.from_assignment(graph, assignment, 10)


def _sweep_inputs(graph, seed=0, phase=1, sweep=0):
    vertices = np.arange(graph.num_vertices, dtype=np.int64)
    rand = SweepRandomness.draw(seed, phase, sweep, graph.num_vertices)
    return vertices, rand.uniforms


class TestVectorizedEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_decisions_identical(self, state, seed):
        graph, bm = state
        vertices, uniforms = _sweep_inputs(graph, seed=seed)
        a1, t1 = SerialBackend().evaluate_sweep(bm, graph, vertices, uniforms, 3.0)
        a2, t2 = VectorizedBackend().evaluate_sweep(bm, graph, vertices, uniforms, 3.0)
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(a1, a2)

    def test_beta_variation(self, state):
        graph, bm = state
        vertices, uniforms = _sweep_inputs(graph, seed=9)
        for beta in (0.5, 1.0, 3.0, 10.0):
            a1, t1 = SerialBackend().evaluate_sweep(bm, graph, vertices, uniforms, beta)
            a2, t2 = VectorizedBackend().evaluate_sweep(bm, graph, vertices, uniforms, beta)
            np.testing.assert_array_equal(t1, t2)
            np.testing.assert_array_equal(a1, a2)

    def test_subset_sweep(self, state):
        graph, bm = state
        vertices = np.arange(10, 60, dtype=np.int64)
        rand = SweepRandomness.draw(4, 1, 0, len(vertices))
        a1, t1 = SerialBackend().evaluate_sweep(bm, graph, vertices, rand.uniforms, 3.0)
        a2, t2 = VectorizedBackend().evaluate_sweep(bm, graph, vertices, rand.uniforms, 3.0)
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(a1, a2)

    def test_empty_sweep(self, state):
        graph, bm = state
        empty = np.empty(0, dtype=np.int64)
        a, t = VectorizedBackend().evaluate_sweep(
            bm, graph, empty, np.empty((0, 5)), 3.0
        )
        assert a.shape == (0,)
        assert t.shape == (0,)

    def test_does_not_mutate(self, state):
        graph, bm = state
        before_B = bm.B.copy()
        vertices, uniforms = _sweep_inputs(graph)
        VectorizedBackend().evaluate_sweep(bm, graph, vertices, uniforms, 3.0)
        np.testing.assert_array_equal(bm.B, before_B)

    def test_singleton_blockmodel(self, medium_graph):
        """C = V (first agglomerative iteration) must also agree."""
        graph, _ = medium_graph
        bm = Blockmodel.singleton(graph)
        vertices, uniforms = _sweep_inputs(graph, seed=13)
        a1, t1 = SerialBackend().evaluate_sweep(bm, graph, vertices, uniforms, 3.0)
        a2, t2 = VectorizedBackend().evaluate_sweep(bm, graph, vertices, uniforms, 3.0)
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(a1, a2)


class TestRegistry:
    def test_builtins_available(self):
        names = BACKENDS.names()
        assert {"serial", "vectorized", "distributed", "resilient"} <= set(names)

    def test_get_unknown_rejected(self):
        with pytest.raises(BackendError):
            get_backend("quantum")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(BackendError):
            BACKENDS.register("serial", SerialBackend)

    def test_factory_kwargs(self):
        with get_backend("distributed", transport="sim", ranks=3) as backend:
            assert backend.num_ranks == 3

    def test_context_manager(self):
        with get_backend("serial") as backend:
            assert backend.name == "serial"
