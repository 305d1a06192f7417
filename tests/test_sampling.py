"""SamBaS sampling front-end: samplers, extension pass, pipeline gates.

Covers the sampler registry contracts (determinism, structure,
isolated-vertex coverage), the argmax-ΔMDL membership extension against
a brute-force oracle, the ``sample_rate=1.0`` bit-identity gate (the
front-end must be a pure bypass), composition with the distributed
backend and all block storages, the config/digest/serialization wiring,
and a small NMI quality smoke at rate 0.3.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.results import SBPResult
from repro.core.sbp import run_sbp
from repro.core.variants import SBPConfig
from repro.errors import ReproError
from repro.generators import DCSBMParams, generate_dcsbm
from repro.graph.graph import Graph
from repro.io.serialize import load_result, save_result
from repro.mcmc.engine import (
    DegreeBand,
    DegreeTop,
    degree_descending_batches,
    split_vertices_by_degree,
)
from repro.metrics.nmi import normalized_mutual_information
from repro.resilience.checkpoint import RunCheckpointer, config_digest
from repro.sampling import samplers
from repro.sampling.extension import extend_assignment
from repro.sampling.samplers import sample_graph, sample_size
from repro.sbm.entropy import xlogx
from repro.types import PhaseTimings

SAMPLERS = ("uniform-random", "degree-weighted", "expansion-snowball")
RATES = (0.1, 0.3, 0.5, 0.9, 1.0)


def _planted(num_vertices=240, seed=3, **overrides):
    params = dict(
        num_vertices=num_vertices, num_communities=4,
        within_between_ratio=8.0, mean_degree=12.0, d_max=30,
    )
    params.update(overrides)
    return generate_dcsbm(DCSBMParams(**params), seed=seed)


def _with_isolated(num_isolated=7, seed=5):
    """A planted graph plus ``num_isolated`` trailing degree-0 vertices."""
    base, truth = _planted(num_vertices=90, seed=seed)
    V = base.num_vertices + num_isolated
    src, dst = [], []
    for v in range(base.num_vertices):
        for w in base.out_neighbors(v):
            src.append(v)
            dst.append(int(w))
    edges = np.column_stack([src, dst]).astype(np.int64)
    truth = np.concatenate([truth, np.full(num_isolated, -1, dtype=np.int64)])
    return Graph(V, edges), truth


def _weakly_connected(graph: Graph, vertices: np.ndarray) -> bool:
    """BFS over incident (undirected) edges restricted to ``vertices``."""
    members = set(int(v) for v in vertices)
    seen = {int(vertices[0])}
    frontier = [int(vertices[0])]
    while frontier:
        v = frontier.pop()
        for w in graph.incident_neighbors(v):
            w = int(w)
            if w in members and w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(members)


class TestSamplers:
    def test_registry_lists_the_three_samplers(self):
        assert samplers.SAMPLERS.names() == sorted(SAMPLERS)

    def test_sample_size_ceil_and_clamp(self):
        assert sample_size(100, 0.1) == 10
        assert sample_size(100, 0.101) == 11
        assert sample_size(100, 1.0) == 100
        assert sample_size(3, 0.01) == 1
        with pytest.raises(ReproError):
            sample_size(100, 0.0)
        with pytest.raises(ReproError):
            sample_size(100, 1.5)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("rate", (0.1, 0.3, 0.7))
    def test_same_seed_identical_sample(self, sampler, rate):
        graph, _ = _planted()
        a = sample_graph(graph, rate, sampler, seed=11)
        b = sample_graph(graph, rate, sampler, seed=11)
        assert np.array_equal(a.vertices, b.vertices)
        assert a.graph == b.graph
        assert a.sampler == sampler
        # sorted ascending, distinct, in range, exact ceil size
        assert np.array_equal(a.vertices, np.unique(a.vertices))
        assert a.num_sampled == sample_size(graph.num_vertices, rate)
        assert 0 <= a.vertices[0] and a.vertices[-1] < graph.num_vertices

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_different_seeds_differ(self, sampler):
        graph, _ = _planted()
        a = sample_graph(graph, 0.3, sampler, seed=1)
        b = sample_graph(graph, 0.3, sampler, seed=2)
        assert not np.array_equal(a.vertices, b.vertices)

    def test_samplers_draw_independent_streams(self):
        graph, _ = _planted()
        picks = {
            s: sample_graph(graph, 0.3, s, seed=9).vertices for s in SAMPLERS
        }
        assert not np.array_equal(picks["uniform-random"], picks["degree-weighted"])
        assert not np.array_equal(picks["uniform-random"], picks["expansion-snowball"])

    @pytest.mark.parametrize("sampler", SAMPLERS)
    def test_rate_one_is_every_vertex(self, sampler):
        graph, _ = _planted(num_vertices=60)
        s = sample_graph(graph, 1.0, sampler, seed=3)
        assert np.array_equal(s.vertices, np.arange(graph.num_vertices))
        assert s.realized_rate == 1.0
        assert s.graph == graph

    @pytest.mark.parametrize("rate", (0.2, 0.5, 0.8))
    def test_snowball_connected_on_connected_graph(self, rate):
        # A directed ring plus chords is weakly connected by construction.
        V = 120
        ring = np.column_stack([np.arange(V), (np.arange(V) + 1) % V])
        chords = np.column_stack([np.arange(0, V, 3), (np.arange(0, V, 3) * 7 + 2) % V])
        graph = Graph(V, np.vstack([ring, chords]).astype(np.int64))
        s = sample_graph(graph, rate, "expansion-snowball", seed=13)
        assert _weakly_connected(graph, s.vertices)

    def test_degree_weighted_inclusion_frequencies(self):
        # Star: hub 0 (degree 30), leaves 1..30 (degree 1), isolated
        # 31..39 (degree 0, weight 1 thanks to the +1 smoothing).
        V = 40
        edges = np.column_stack([
            np.zeros(30, dtype=np.int64), np.arange(1, 31, dtype=np.int64)
        ])
        graph = Graph(V, edges)
        hits = np.zeros(V, dtype=np.int64)
        seeds = 400
        for seed in range(seeds):
            hits[sample_graph(graph, 5 / V, "degree-weighted", seed).vertices] += 1
        freq = hits / seeds
        hub, leaf, isolated = freq[0], freq[1:31].mean(), freq[31:].mean()
        assert hub > 0.6, f"hub sampled only {hub:.2f} of the time"
        assert 0.02 < leaf < 0.35
        assert isolated > 0.005, "isolated vertices must keep inclusion mass"
        assert leaf > isolated  # weight 2 vs weight 1

    def test_lift_marks_unsampled_as_minus_one(self):
        graph, _ = _planted(num_vertices=50)
        s = sample_graph(graph, 0.4, "uniform-random", seed=2)
        lifted = s.lift(np.arange(s.num_sampled) % 3)
        assert lifted.shape == (graph.num_vertices,)
        assert np.array_equal(lifted[s.vertices], np.arange(s.num_sampled) % 3)
        mask = np.ones(graph.num_vertices, dtype=bool)
        mask[s.vertices] = False
        assert (lifted[mask] == -1).all()

    def test_unknown_sampler_rejected(self):
        graph, _ = _planted(num_vertices=40)
        with pytest.raises(ReproError, match="unknown sampler"):
            sample_graph(graph, 0.5, "nope", seed=0)


def _oracle_scores(graph, assignment, vertex, C):
    """Brute-force ΔMDL oracle: rebuild the partial blockmodel with
    ``vertex`` placed in each candidate block and return the full
    likelihood Σg(B) − Σg(d_out) − Σg(d_in) per block (higher=better)."""
    lengths = np.diff(graph.out_ptr)
    tails = np.repeat(np.arange(graph.num_vertices), lengths)
    heads = graph.out_nbrs
    scores = np.empty(C, dtype=np.float64)
    for s in range(C):
        trial = assignment.copy()
        trial[vertex] = s
        live = (trial[tails] >= 0) & (trial[heads] >= 0)
        B = np.bincount(
            trial[tails[live]] * C + trial[heads[live]], minlength=C * C
        ).reshape(C, C)
        scores[s] = (
            np.sum(xlogx(B))
            - np.sum(xlogx(B.sum(axis=1)))
            - np.sum(xlogx(B.sum(axis=0)))
        )
    return scores


class TestExtension:
    def _partial(self, graph, truth, rate, seed):
        rng = np.random.default_rng(seed)
        assignment = truth.copy()
        drop = rng.permutation(graph.num_vertices)[
            : int((1 - rate) * graph.num_vertices)
        ]
        assignment[drop] = -1
        return assignment

    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_matches_brute_force_oracle(self, seed):
        graph, truth = _planted(num_vertices=60, seed=seed)
        C = int(truth.max()) + 1
        partial = self._partial(graph, truth, 0.5, seed)
        # One batch: every vertex scores against the same frozen counts,
        # exactly what the oracle rebuilds per candidate.
        extended = extend_assignment(graph, partial, C, num_batches=1)
        for v in np.nonzero(partial < 0)[0]:
            scores = _oracle_scores(graph, partial, int(v), C)
            chosen = extended[v]
            assert scores[chosen] >= scores.max() - 1e-9, (
                f"vertex {v}: chose block {chosen} "
                f"({scores[chosen]:.12f}) but oracle max is "
                f"{scores.max():.12f} at block {int(scores.argmax())}"
            )

    @pytest.mark.parametrize("num_batches", (1, 2, 8, 64))
    def test_assigns_every_vertex(self, num_batches):
        graph, truth = _planted(num_vertices=80, seed=4)
        C = int(truth.max()) + 1
        partial = self._partial(graph, truth, 0.3, 7)
        extended = extend_assignment(graph, partial, C, num_batches)
        assert (extended >= 0).all() and (extended < C).all()
        assigned = partial >= 0
        assert np.array_equal(extended[assigned], partial[assigned])

    def test_deterministic(self):
        graph, truth = _planted(num_vertices=80, seed=4)
        C = int(truth.max()) + 1
        partial = self._partial(graph, truth, 0.3, 7)
        a = extend_assignment(graph, partial, C, 8)
        b = extend_assignment(graph, partial, C, 8)
        assert np.array_equal(a, b)

    def test_orphans_join_largest_block(self):
        # 0-3 assigned (blocks 0,0,1,0 -> block 0 is largest), vertex 4
        # connects only to unassigned 5; both have no assigned
        # neighbours and must fall back to block 0.
        graph = Graph(6, np.array([[0, 1], [2, 3], [4, 5], [5, 4]], dtype=np.int64))
        partial = np.array([0, 0, 1, 0, -1, -1], dtype=np.int64)
        extended = extend_assignment(graph, partial, 2, num_batches=1)
        assert extended[4] == 0 and extended[5] == 0

    def test_later_batches_see_earlier_assignments(self):
        # Chain anchored at an assigned vertex: with per-vertex batches
        # the chain is absorbed link by link into the anchor's block.
        edges = np.array(
            [[0, 1], [1, 0], [1, 2], [2, 1], [2, 3], [3, 2]], dtype=np.int64
        )
        graph = Graph(5, np.vstack([edges, [[4, 4]]]).astype(np.int64))
        partial = np.array([0, -1, -1, -1, 1], dtype=np.int64)
        extended = extend_assignment(graph, partial, 2, num_batches=4)
        assert extended[1] == 0 and extended[2] == 0 and extended[3] == 0

    def test_rejects_bad_input(self):
        graph, truth = _planted(num_vertices=40)
        with pytest.raises(ReproError):
            extend_assignment(graph, np.full(graph.num_vertices, -1), 3, 1)
        with pytest.raises(ReproError):
            extend_assignment(graph, truth, int(truth.max()), 1)


class TestIsolatedVertexCoverage:
    """Satellite: degree machinery must never drop degree-0 vertices."""

    def test_degree_batches_partition_with_isolated(self):
        graph, _ = _with_isolated()
        vertices = np.arange(graph.num_vertices, dtype=np.int64)
        for num_batches in (1, 3, 8, 200):
            batches = degree_descending_batches(graph, vertices, num_batches)
            merged = np.concatenate([b for b in batches if b.size])
            assert np.array_equal(np.sort(merged), vertices)
            degs = graph.degree[merged]
            assert (np.diff(degs) <= 0).all(), "must be degree-descending"

    def test_degree_selectors_cover_isolated(self):
        graph, _ = _with_isolated()
        everything = np.arange(graph.num_vertices, dtype=np.int64)
        for fraction in (0.0, 0.1, 0.5, 0.9, 1.0):
            vstar, vminus = split_vertices_by_degree(graph, fraction)
            assert np.array_equal(
                np.sort(np.concatenate([vstar, vminus])), everything
            )
            top = DegreeTop(fraction).select(graph)
            band = DegreeBand(fraction, 1.0).select(graph)
            assert np.array_equal(np.sort(np.concatenate([top, band])), everything)

    @pytest.mark.parametrize("sampler", SAMPLERS)
    @pytest.mark.parametrize("rate", RATES)
    def test_pipeline_assigns_isolated_at_every_rate(self, sampler, rate):
        graph, _ = _with_isolated()
        config = SBPConfig(
            variant="a-sbp", seed=7, sample_rate=rate, sampler=sampler,
            max_sweeps=6,
        )
        result = run_sbp(graph, config)
        assert result.assignment.shape == (graph.num_vertices,)
        assert (result.assignment >= 0).all()
        assert (result.assignment < result.num_blocks).all()

    def test_rate_one_bit_identical_on_isolated_graph(self):
        graph, _ = _with_isolated()
        plain = run_sbp(graph, SBPConfig(variant="a-sbp", seed=3))
        sampled = run_sbp(graph, SBPConfig(variant="a-sbp", seed=3, sample_rate=1.0))
        assert np.array_equal(plain.assignment, sampled.assignment)
        assert plain.mdl == sampled.mdl


class TestBitIdentityGate:
    """The CI gate: sample_rate=1.0 must be a pure bypass of the front-end."""

    @pytest.mark.parametrize("variant", ("a-sbp", "h-sbp"))
    @pytest.mark.parametrize("seed", (3, 11))
    @pytest.mark.parametrize("storage", ("dense", "auto"))
    def test_rate_one_matches_plain_pipeline(self, variant, seed, storage):
        graph, _ = _planted(num_vertices=120, seed=1)
        base = SBPConfig(variant=variant, seed=seed, block_storage=storage)
        plain = run_sbp(graph, base)
        sampled = run_sbp(
            graph,
            SBPConfig(
                variant=variant, seed=seed, block_storage=storage,
                sample_rate=1.0, sampler="degree-weighted",
            ),
        )
        assert np.array_equal(plain.assignment, sampled.assignment)
        assert plain.mdl == sampled.mdl
        assert plain.search_history == sampled.search_history
        assert plain.mcmc_sweeps == sampled.mcmc_sweeps
        assert sampled.timings.sampling == 0.0
        assert sampled.timings.extension == 0.0
        assert sampled.timings.finetune == 0.0
        assert sampled.sampler == "" and sampled.sample_rate == 1.0

    def test_sampled_pipeline_is_deterministic(self):
        graph, _ = _planted(num_vertices=160, seed=2)
        config = SBPConfig(variant="a-sbp", seed=5, sample_rate=0.4)
        a = run_sbp(graph, config)
        b = run_sbp(graph, config)
        assert np.array_equal(a.assignment, b.assignment)
        assert a.mdl == b.mdl
        assert a.sampler == "degree-weighted"
        assert a.sample_rate == pytest.approx(0.4, abs=0.01)
        assert a.timings.sampling > 0.0

    def test_timings_total_includes_frontend_stages(self):
        graph, _ = _planted(num_vertices=160, seed=2)
        result = run_sbp(graph, SBPConfig(variant="a-sbp", seed=5, sample_rate=0.4))
        t = result.timings
        assert t.total == pytest.approx(
            t.block_merge + t.mcmc + t.rebuild + t.other + t.sampling + t.extension
        )
        assert t.finetune == pytest.approx(
            t.block_merge + t.mcmc + t.rebuild + t.other
        )


class TestComposition:
    def test_sampled_run_matches_across_storages(self):
        graph, _ = _planted(num_vertices=160, seed=6)
        results = [
            run_sbp(graph, SBPConfig(
                variant="a-sbp", seed=9, sample_rate=0.5,
                block_storage=storage,
            ))
            for storage in ("dense", "sparse", "hybrid")
        ]
        for other in results[1:]:
            assert np.array_equal(results[0].assignment, other.assignment)
            assert results[0].mdl == other.mdl

    def test_sampled_run_matches_on_distributed_backend(self):
        graph, _ = _planted(num_vertices=120, seed=6)
        local = run_sbp(graph, SBPConfig(
            variant="a-sbp", seed=9, sample_rate=0.5, backend="vectorized",
        ))
        dist = run_sbp(graph, SBPConfig(
            variant="a-sbp", seed=9, sample_rate=0.5,
            backend="distributed:inproc:2",
        ))
        assert np.array_equal(local.assignment, dist.assignment)
        assert local.mdl == dist.mdl

    def test_rate_030_matches_on_distributed_backend(self):
        # The CLI composition `--sample-rate 0.3 --backend
        # distributed:inproc:2`: a small sample leaves most vertices to
        # the extension pass, which must still shard bit-identically.
        graph, _ = _planted(num_vertices=120, seed=6)
        local = run_sbp(graph, SBPConfig(
            variant="a-sbp", seed=9, sample_rate=0.3, backend="vectorized",
        ))
        dist = run_sbp(graph, SBPConfig(
            variant="a-sbp", seed=9, sample_rate=0.3,
            backend="distributed:inproc:2",
        ))
        assert np.array_equal(local.assignment, dist.assignment)
        assert local.mdl == dist.mdl
        assert local.sample_rate == dist.sample_rate == 0.3

    def test_sampled_checkpoint_resume_is_bit_identical(self, tmp_path):
        graph, _ = _planted(num_vertices=120, seed=6)
        config = SBPConfig(variant="a-sbp", seed=4, sample_rate=0.5)
        fresh = run_sbp(graph, config)
        first = run_sbp(graph, config, checkpointer=RunCheckpointer(tmp_path))
        resumed = run_sbp(graph, config, checkpointer=RunCheckpointer(tmp_path))
        for result in (first, resumed):
            assert np.array_equal(fresh.assignment, result.assignment)
            assert fresh.mdl == result.mdl


class TestConfigWiring:
    def test_default_block_storage_is_auto(self):
        assert SBPConfig().block_storage == "auto"

    def test_cli_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["detect", "g.txt"])
        assert args.block_storage == "auto"
        assert args.sample_rate == 1.0
        assert args.sampler == "degree-weighted"
        assert args.extension_batches == 8

    def test_sampling_defaults_and_validation(self):
        config = SBPConfig()
        assert config.sample_rate == 1.0
        assert config.sampler == "degree-weighted"
        assert config.extension_batches == 8
        with pytest.raises(ValueError):
            SBPConfig(sample_rate=0.0)
        with pytest.raises(ValueError):
            SBPConfig(sample_rate=1.5)
        with pytest.raises(ValueError):
            SBPConfig(extension_batches=0)
        with pytest.raises(ReproError):
            SBPConfig(sampler="bogus")

    def test_digest_covers_sampling_fields(self):
        base = SBPConfig(block_storage="dense")
        assert config_digest(base) != config_digest(base.replace(sample_rate=0.5))
        assert config_digest(base) != config_digest(
            base.replace(sampler="uniform-random")
        )
        assert config_digest(base) != config_digest(
            base.replace(extension_batches=4)
        )
        assert config_digest(base) == config_digest(base.replace())


class TestSerializationV6:
    def test_round_trip_preserves_sampling_fields(self, tmp_path):
        graph, _ = _planted(num_vertices=120, seed=2)
        result = run_sbp(graph, SBPConfig(variant="a-sbp", seed=5, sample_rate=0.4))
        path = tmp_path / "result.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.sampler == result.sampler
        assert loaded.sample_rate == result.sample_rate
        assert loaded.timings.sampling == result.timings.sampling
        assert loaded.timings.extension == result.timings.extension
        assert loaded.timings.finetune == result.timings.finetune
        assert np.array_equal(loaded.assignment, result.assignment)

    def test_legacy_v5_payload_reads_defaults(self, tmp_path):
        payload = {
            "format": "repro.sbp_result",
            "version": 5,
            "variant": "a-sbp",
            "assignment": [0, 1, 0],
            "num_blocks": 2,
            "mdl": 10.0,
            "normalized_mdl": 0.5,
            "num_vertices": 3,
            "num_edges": 4,
            "timings": {
                "block_merge": 1.0, "mcmc": 2.0, "rebuild": 0.5, "other": 0.1,
            },
            "mcmc_sweeps": 7,
            "outer_iterations": 2,
            "seed": 0,
            "converged": True,
            "interrupted": False,
            "block_storage": "dense",
        }
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(payload))
        loaded = load_result(path)
        assert loaded.sampler == ""
        assert loaded.sample_rate == 1.0
        assert loaded.timings.sampling == 0.0
        assert loaded.timings.finetune == 0.0

    def test_summary_row_has_sampling_columns(self):
        result = SBPResult(
            variant="a-sbp", assignment=np.zeros(3, dtype=np.int64),
            num_blocks=1, mdl=1.0, normalized_mdl=0.1, num_vertices=3,
            num_edges=2, timings=PhaseTimings(), mcmc_sweeps=0,
            outer_iterations=0, seed=0, converged=True,
            sampler="degree-weighted", sample_rate=0.25,
        )
        row = result.summary_row()
        assert row["sampler"] == "degree-weighted"
        assert row["sample_rate"] == 0.25


class TestQualitySmoke:
    def test_nmi_floor_at_rate_03(self):
        # The CI quality gate: a strongly assortative DCSBM where the
        # rate-0.3 sample still carries the community structure.
        graph, truth = generate_dcsbm(
            DCSBMParams(
                num_vertices=600, num_communities=4,
                within_between_ratio=8.0, mean_degree=16.0, d_max=40,
            ),
            seed=3,
        )
        result = run_sbp(graph, SBPConfig(variant="a-sbp", seed=7, sample_rate=0.3))
        nmi = normalized_mutual_information(truth, result.assignment)
        assert nmi >= 0.85, f"sampled NMI {nmi:.3f} below the 0.85 floor"
        assert result.timings.sampling > 0.0
        assert result.sample_rate == pytest.approx(0.3)
