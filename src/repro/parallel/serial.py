"""Reference backend: evaluate the sweep one vertex at a time.

This is the oracle every other backend is tested against, and also the
1-thread baseline the speedup figures divide by.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph
from repro.parallel.backend import BACKENDS, ExecutionBackend
from repro.sbm.blockmodel import Blockmodel
from repro.types import IntArray

__all__ = ["SerialBackend"]


class SerialBackend(ExecutionBackend):
    """Per-vertex loop over the shared single-vertex evaluator."""

    name = "serial"

    def evaluate_sweep(
        self,
        bm: Blockmodel,
        graph: Graph,
        vertices: IntArray,
        uniforms: np.ndarray,
        beta: float,
    ) -> tuple[np.ndarray, IntArray]:
        # Imported here, not at module level: repro.mcmc imports
        # repro.sbm.incremental, which imports this package (a cycle).
        from repro.mcmc.evaluate import evaluate_vertex

        count = len(vertices)
        accepted = np.zeros(count, dtype=bool)
        targets = np.empty(count, dtype=np.int64)
        for i in range(count):
            decision = evaluate_vertex(bm, graph, int(vertices[i]), uniforms[i], beta)
            accepted[i] = decision.accepted
            targets[i] = decision.target
        return accepted, targets


BACKENDS.register("serial", SerialBackend)
