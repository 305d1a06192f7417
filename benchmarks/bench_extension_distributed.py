"""EXT — §6 future work: distributed A-SBP scaling (beyond the paper).

The paper's conclusion asks how to distribute A-SBP/H-SBP across nodes.
This extension bench runs the sharded backend
(``--backend distributed:sim:<ranks>``: replicated blockmodel,
owned-vertex evaluation, one delta per rank per sweep barrier) over the
in-process ``sim`` transport and reports, per rank count:

* wall clock of the sharded sweeps,
* wire messages and bytes (from the backend's ``comm_report()``) and
  partition quality (edge cut, degree imbalance),
* the invariant that the result is bit-identical to 1-rank A-SBP.

The second table runs full ``--backend distributed:<transport>:<ranks>``
fits over the three wire transports, clean and under seeded chaos,
reporting measured wall clock, wire traffic, and masked-fault counts —
all bit-identical to the single-node oracle.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from benchmarks.conftest import run_once
from repro import generate_real_world_standin
from repro.bench.reporting import format_table, write_report
from repro.core.sbp import run_sbp
from repro.core.variants import SBPConfig
from repro.distributed.partition import partition_stats, partition_vertices
from repro.generators import DCSBMParams, generate_dcsbm
from repro.mcmc.async_gibbs import async_gibbs_sweep
from repro.parallel.backend import get_backend
from repro.sbm.blockmodel import Blockmodel
from repro.utils.rng import SweepRandomness

RANKS = [1, 2, 4, 8, 16, 32]

WIRE_CHAOS = dict(drop=0.04, duplicate=0.03, delay=0.03, truncate=0.02,
                  bitflip=0.02, seed=13)


def distributed_rows(seed: int = 0, sweeps: int = 3):
    graph = generate_real_world_standin("soc-Slashdot0902", seed=seed)
    rng = np.random.default_rng(seed + 1)
    # a mid-inference state: a few dozen blocks, as after early merges
    assignment = rng.integers(0, 24, graph.num_vertices)
    vertices = np.arange(graph.num_vertices, dtype=np.int64)
    rows: list[dict[str, object]] = []
    reference: str | None = None
    for ranks in RANKS:
        bm = Blockmodel.from_assignment(graph, assignment)
        accepted = 0
        start = time.perf_counter()
        with get_backend(f"distributed:sim:{ranks}") as backend:
            for sweep in range(sweeps):
                rand = SweepRandomness.draw(seed, 900, sweep, graph.num_vertices)
                stats = async_gibbs_sweep(bm, graph, vertices, rand, 3.0, backend)
                accepted += stats.accepted
            report = backend.comm_report()
        elapsed = time.perf_counter() - start
        # The backend shards by the same partitioner and default strategy.
        owner = partition_vertices(graph, ranks, strategy="degree_balanced")
        partition = partition_stats(graph, owner, "degree_balanced")
        digest = hashlib.sha256(bm.assignment.astype(np.int64).tobytes()).hexdigest()
        reference = reference or digest
        rows.append(
            {
                "ranks": ranks,
                "wall_s": elapsed,
                "msgs": report["p2p_messages"],
                "wire_bytes": report["total_bytes"],
                "edge_cut": partition.edge_cut_fraction,
                "degree_imbalance": partition.degree_imbalance,
                "moves": accepted,
                "assignment_sha256": digest,
                "result_matches_1rank": digest == reference,
            }
        )
    return rows


def test_distributed_scaling(benchmark):
    rows = run_once(benchmark, distributed_rows, seed=0)
    report = format_table(
        rows,
        title="Extension: distributed A-SBP over distributed:sim:<ranks> "
              "(soc-Slashdot0902 stand-in)",
    )
    write_report("extension_distributed", report)

    # Determinism invariant: ranks never change the chain.
    assert all(r["result_matches_1rank"] for r in rows)
    # One delta per non-supervisor rank per sweep; none at one rank.
    assert [r["msgs"] for r in rows] == [3 * (n - 1) for n in RANKS]
    assert rows[0]["wire_bytes"] == 0
    # Finer partitions cut more edges.
    cuts = [r["edge_cut"] for r in rows]
    assert all(b >= a for a, b in zip(cuts, cuts[1:]))


def transport_rows(seed: int = 7):
    graph, _ = generate_dcsbm(
        DCSBMParams(num_vertices=120, num_communities=4,
                    within_between_ratio=7.0, mean_degree=8.0, d_max=20),
        seed=seed + 100,
    )
    oracle = run_sbp(graph, SBPConfig(variant="a-sbp", seed=seed))
    rows: list[dict[str, object]] = []
    for transport in ("sim", "inproc", "pipes"):
        for ranks in (2, 4):
            for chaos in (None, WIRE_CHAOS):
                config = SBPConfig(
                    variant="a-sbp", seed=seed,
                    backend=f"distributed:{transport}:{ranks}",
                    backend_options=(
                        dict(chaos=chaos) if chaos else {}
                    ),
                )
                start = time.perf_counter()
                result = run_sbp(graph, config)
                elapsed = time.perf_counter() - start
                t = result.timings
                rows.append(
                    {
                        "transport": transport,
                        "ranks": ranks,
                        "chaos": bool(chaos),
                        "wall_s": elapsed,
                        "msgs": t.comm_messages,
                        "wire_bytes": t.comm_bytes,
                        "retries": t.comm_retries,
                        "quarantined": t.frames_quarantined,
                        "bit_identical": bool(
                            np.array_equal(result.assignment, oracle.assignment)
                            and result.mdl == oracle.mdl
                        ),
                    }
                )
    return rows


def test_distributed_transports(benchmark):
    rows = run_once(benchmark, transport_rows, seed=7)
    report = format_table(
        rows,
        title="Extension: distributed A-SBP over real wire transports "
              "(clean vs seeded chaos)",
    )
    write_report("extension_distributed_transports", report)

    # The resilience gate's core invariant, measured not mocked: no
    # transport, rank count, or maskable fault pattern moves the chain.
    assert all(r["bit_identical"] for r in rows)
    # Chaos actually fired and was actually masked on every chaotic row.
    assert all(r["retries"] > 0 for r in rows if r["chaos"])
    assert all(r["retries"] == 0 for r in rows if not r["chaos"])
