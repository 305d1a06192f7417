"""Merge-phase backends: the serial oracle and the vectorized kernel.

The paper calls the block-merge phase (Alg. 1) "embarrassingly
parallel": every candidate merge is scored against the frozen
blockmodel, and only the greedy apply step afterwards is sequential.
The serial backend is the reference double loop over
``C x merge_proposals_per_block`` scalar calls; the vectorized backend
evaluates the same candidates with numpy batch kernels —

1. **Propose** all candidates in one shot from the pre-drawn Philox
   table (:func:`repro.sbm.moves.propose_block_merges_batch`): both
   multinomial stages resolve against one compressed row-offset CDF
   built from the non-zeros of ``B + B^T`` with integer-exact
   searchsorted semantics — O(nnz) instead of O(C^2).
2. **Delta-MDL** for all distinct ``(r, s)`` pairs at once
   (:func:`repro.sbm.delta.merge_delta_batch`): only the support
   intersections of the merged rows/columns contribute (all other
   generic terms are exactly ``+0.0``), materialized as sparse triplets
   and reduced in the same sequential-accumulation ordering the serial
   oracle uses (the ``_seq_sum`` discipline of the MCMC path).
3. **Select** each block's best candidate by first-occurrence argmin,
   matching the serial strict-``<`` scan on ties.

Both backends therefore pick bit-identical merges. The block-merge phase
always runs the vectorized kernel; the equivalence tests inject the
serial oracle in its place (``tests/test_merge_phase.py``).
"""

from __future__ import annotations

import numpy as np

from repro.parallel.backend import MergeBackend
from repro.sbm.blockmodel import Blockmodel
from repro.sbm.delta import merge_delta, merge_delta_batch
from repro.sbm.moves import propose_block_merge, propose_block_merges_batch
from repro.types import IntArray

__all__ = ["SerialMergeBackend", "VectorizedMergeBackend"]


class SerialMergeBackend(MergeBackend):
    """Reference scalar double loop — the correctness oracle."""

    name = "serial"

    def evaluate_merges(
        self, bm: Blockmodel, uniforms: np.ndarray
    ) -> tuple[np.ndarray, IntArray]:
        C = bm.num_blocks
        proposals = uniforms.shape[1]
        best_delta = np.full(C, np.inf, dtype=np.float64)
        best_target = np.full(C, -1, dtype=np.int64)
        # Conceptually `for community c in B do in parallel` — evaluations
        # are independent reads of the frozen blockmodel.
        for r in range(C):
            for j in range(proposals):
                s = propose_block_merge(bm, r, uniforms[r, j])
                delta = merge_delta(bm, r, s)
                if delta < best_delta[r]:
                    best_delta[r] = delta
                    best_target[r] = s
        return best_delta, best_target


class VectorizedMergeBackend(MergeBackend):
    """Numpy batch evaluation of the full candidate scan."""

    name = "vectorized"

    def evaluate_merges(
        self, bm: Blockmodel, uniforms: np.ndarray
    ) -> tuple[np.ndarray, IntArray]:
        C = bm.num_blocks
        targets = propose_block_merges_batch(bm, uniforms)
        proposals = targets.shape[1]
        r = np.repeat(np.arange(C, dtype=np.int64), proposals)
        deltas = merge_delta_batch(bm, r, targets.ravel()).reshape(C, proposals)
        best_j = np.argmin(deltas, axis=1)  # first occurrence, as serial `<`
        rows = np.arange(C)
        return deltas[rows, best_j], targets[rows, best_j]
