"""Partition service: job digests, result store, lease queue, orchestrator,
HTTP front-end.

The three contracts CI gates here:

* **cache discipline** — executing the same (graph, config, mode, runs)
  twice through a store yields a byte-equal outcome the second time,
  without re-running MCMC;
* **orchestrator correctness** — N workers draining a mixed queue of
  >= 20 jobs produce results identical to serial execution, and a
  killed worker's job survives via lease expiry onto a survivor;
* **front-end fidelity** — the stdlib-HTTP endpoints submit, track and
  serve exactly what the store holds.
"""

from __future__ import annotations

import json
import os
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.variants import SBPConfig
from repro.errors import LeaseError, ServiceError, UnknownJobError
from repro.generators import DCSBMParams, generate_dcsbm
from repro.graph.graph import Graph
from repro.io.serialize import result_payload
from repro.service.jobs import JOB_MODES, JobSpec, execute_job, job_digest
from repro.service.orchestrator import Orchestrator, run_jobs_serially
from repro.service.queue import JOB_QUEUES, JobState, LeaseQueue
from repro.service.store import RESULT_STORES, DiskResultStore, MemoryResultStore
from repro.streaming.source import synthetic_churn_stream

# Tiny-but-structured graphs keep every MCMC run in the sub-second range.
_FAST = dict(max_sweeps=6)


def _planted(num_vertices=40, seed=7):
    params = DCSBMParams(
        num_vertices=num_vertices, num_communities=2,
        within_between_ratio=8.0, mean_degree=6.0,
    )
    graph, _ = generate_dcsbm(params, seed=seed)
    return graph


def _spec(graph=None, seed=3, runs=1, **config_overrides):
    graph = graph if graph is not None else _planted()
    config = SBPConfig(seed=seed, **{**_FAST, **config_overrides})
    return JobSpec.for_graph(graph, config, runs=runs)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


# ----------------------------------------------------------------------
# Job specs and digests
# ----------------------------------------------------------------------
class TestJobDigest:
    def test_digest_is_stable(self):
        spec = _spec()
        assert spec.digest() == spec.digest() == job_digest(spec.resolved())
        assert len(spec.digest()) == 32

    def test_digest_covers_graph_content(self):
        assert _spec(graph=_planted(seed=1)).digest() != \
            _spec(graph=_planted(seed=2)).digest()

    def test_digest_covers_config_and_runs(self):
        base = _spec(seed=3, runs=1)
        assert base.digest() != _spec(seed=4, runs=1).digest()
        assert base.digest() != _spec(seed=3, runs=2).digest()

    def test_auto_storage_shares_address_with_resolved_engine(self):
        graph = _planted()
        auto = JobSpec.for_graph(graph, SBPConfig(seed=3, block_storage="auto"))
        resolved = auto.resolved()
        assert resolved.config.block_storage != "auto"
        explicit = JobSpec.for_graph(
            graph,
            SBPConfig(seed=3, block_storage=resolved.config.block_storage),
        )
        assert auto.digest() == explicit.digest()

    def test_backend_choice_does_not_fragment_the_cache(self):
        # All backends are bit-identical by construction, so the digest
        # deliberately excludes them (mirrors config_digest).
        graph = _planted()
        a = JobSpec.for_graph(graph, SBPConfig(seed=3, backend="vectorized"))
        b = JobSpec.for_graph(graph, SBPConfig(seed=3, backend="serial"))
        assert a.digest() == b.digest()

    def test_stream_digest_covers_batches_and_policy(self):
        s1 = synthetic_churn_stream(
            num_vertices=40, num_communities=2, num_snapshots=3, seed=5)
        s2 = synthetic_churn_stream(
            num_vertices=40, num_communities=2, num_snapshots=3, seed=6)
        config = SBPConfig(seed=3, **_FAST)
        d1 = JobSpec.for_stream(s1, config).digest()
        assert d1 != JobSpec.for_stream(s2, config).digest()
        assert d1 != JobSpec.for_stream(
            s1, config, drift_threshold=0.5).digest()
        # Same stream rebuilt from the same seed: same address.
        s1_again = synthetic_churn_stream(
            num_vertices=40, num_communities=2, num_snapshots=3, seed=5)
        assert d1 == JobSpec.for_stream(s1_again, config).digest()

    def test_mode_validation(self):
        graph = _planted()
        assert JobSpec.for_graph(graph, SBPConfig(sample_rate=0.5)).mode == "sample"
        assert JobSpec.for_graph(graph, SBPConfig()).mode == "fit"
        assert set(JOB_MODES) == {"fit", "sample", "stream"}
        with pytest.raises(ServiceError):
            JobSpec(graph=graph, config=SBPConfig(), mode="nope")
        with pytest.raises(ServiceError):
            JobSpec(graph=graph, config=SBPConfig(), runs=0)
        with pytest.raises(ServiceError):
            JobSpec(graph=graph, config=SBPConfig(), mode="stream")
        with pytest.raises(ServiceError):
            JobSpec(graph=graph, config=SBPConfig(sample_rate=0.5), mode="fit")

    def test_stream_spec_checks_initial_graph(self):
        stream = synthetic_churn_stream(
            num_vertices=40, num_communities=2, num_snapshots=2, seed=5)
        with pytest.raises(ServiceError):
            JobSpec(graph=_planted(), config=SBPConfig(), mode="stream",
                    stream=stream)


# ----------------------------------------------------------------------
# Result store
# ----------------------------------------------------------------------
def _make_store(engine: str, tmp_path, budget=None):
    if engine == "disk":
        return DiskResultStore(tmp_path / "store", size_budget_bytes=budget)
    return MemoryResultStore(size_budget_bytes=budget)


@pytest.mark.parametrize("engine", ["disk", "memory"])
class TestResultStore:
    def test_round_trip_is_byte_equal(self, engine, tmp_path):
        store = _make_store(engine, tmp_path)
        outcome = execute_job(_spec())
        store.put(outcome)
        loaded = store.get(outcome.digest)
        assert loaded.cache_hit
        assert loaded.digest == outcome.digest
        assert np.array_equal(loaded.best.assignment, outcome.best.assignment)
        # Full payload equality — timings included, not just the argmax.
        assert result_payload(loaded.best) == result_payload(outcome.best)
        assert store._read(outcome.digest) == store._read(outcome.digest)

    def test_miss_and_hit_accounting(self, engine, tmp_path):
        store = _make_store(engine, tmp_path)
        assert store.get("0" * 32) is None
        outcome = execute_job(_spec())
        store.put(outcome)
        store.get(outcome.digest)
        health = store.health()
        assert health["hits"] == 1 and health["misses"] == 1
        assert health["puts"] == 1 and health["entries"] == 1
        assert health["bytes"] > 0
        assert outcome.digest in store
        assert store.digests() == [outcome.digest]

    def test_eviction_respects_budget_and_keeps_newest(self, engine, tmp_path):
        first = execute_job(_spec(seed=1))
        second = execute_job(_spec(seed=2))
        probe = _make_store(engine, tmp_path / "probe")
        probe.put(first)
        entry_size = probe.health()["bytes"]
        store = _make_store(engine, tmp_path / "real", budget=entry_size + 16)
        store.put(first)
        store.put(second)  # pushes past budget: first must be evicted
        assert store.get(second.digest) is not None
        assert store.get(first.digest) is None
        assert store.stats.evictions == 1

    def test_registry(self, engine, tmp_path):
        assert engine in RESULT_STORES.names()
        factory = RESULT_STORES.get(engine)
        store = (
            factory(tmp_path / "reg") if engine == "disk" else factory()
        )
        outcome = execute_job(_spec())
        store.put(outcome)
        assert store.get(outcome.digest) is not None


class TestDiskStoreSpecifics:
    def test_persists_across_instances(self, tmp_path):
        outcome = execute_job(_spec())
        DiskResultStore(tmp_path).put(outcome)
        reopened = DiskResultStore(tmp_path)
        loaded = reopened.get(outcome.digest)
        assert loaded is not None and loaded.cache_hit

    def test_reads_refresh_lru_recency(self, tmp_path):
        a, b, c = (execute_job(_spec(seed=s)) for s in (1, 2, 3))
        probe = DiskResultStore(tmp_path / "probe")
        probe.put(a)
        entry = probe.health()["bytes"]
        store = DiskResultStore(tmp_path / "s", size_budget_bytes=2 * entry + 32)
        store.put(a)
        store.put(b)
        # Backdate mtimes so recency order is unambiguous, then read `a`
        # to refresh it: the next eviction must take `b`, not `a`.
        os.utime(store._path(a.digest), (1, 1))
        os.utime(store._path(b.digest), (2, 2))
        assert store.get(a.digest) is not None
        store.put(c)
        assert store.get(a.digest) is not None
        assert store.get(b.digest) is None

    def test_bad_budget_rejected(self, tmp_path):
        with pytest.raises(ServiceError):
            DiskResultStore(tmp_path, size_budget_bytes=0)

    def test_memory_store_read_refreshes_recency(self):
        a, b, c = (execute_job(_spec(seed=s)) for s in (1, 2, 3))
        probe = MemoryResultStore()
        probe.put(a)
        entry = probe.health()["bytes"]
        store = MemoryResultStore(size_budget_bytes=2 * entry + 32)
        store.put(a)
        store.put(b)
        store.get(a.digest)  # a becomes most-recent
        store.put(c)
        assert store.get(a.digest) is not None
        assert store.get(b.digest) is None


# ----------------------------------------------------------------------
# execute_job cache discipline
# ----------------------------------------------------------------------
class TestExecuteJob:
    @pytest.mark.parametrize("engine", ["disk", "memory"])
    def test_cache_hit_is_bit_identical_and_skips_mcmc(
        self, engine, tmp_path, monkeypatch
    ):
        store = _make_store(engine, tmp_path)
        spec = _spec(runs=2)
        first = execute_job(spec, store=store)
        assert not first.cache_hit

        import repro.core.sbp as sbp_module

        def _boom(*args, **kwargs):  # a hit must never reach the engine
            raise AssertionError("cache hit re-ran MCMC")

        monkeypatch.setattr(sbp_module, "run_best_of", _boom)
        second = execute_job(spec, store=store)
        assert second.cache_hit
        assert len(second.results) == len(first.results) == 2
        for ours, cached in zip(first.results, second.results):
            assert result_payload(ours) == result_payload(cached)

    def test_interrupted_outcomes_are_not_cached(self, monkeypatch):
        store = MemoryResultStore()
        spec = _spec()
        real = execute_job(spec)
        for result in real.results:
            object.__setattr__(result, "interrupted", True)

        import repro.core.sbp as sbp_module

        monkeypatch.setattr(
            sbp_module, "run_best_of",
            lambda *a, **k: (real.results[0], real.results),
        )
        outcome = execute_job(spec, store=store)
        assert outcome.interrupted
        assert store.health()["entries"] == 0

    def test_resilient_flag_wraps_plain_backends_only(self):
        spec = _spec()
        outcome = execute_job(spec, resilient=True)
        reference = execute_job(spec)
        assert np.array_equal(
            outcome.best.assignment, reference.best.assignment
        )
        assert outcome.best.mdl == reference.best.mdl

    def test_stream_cache_round_trip(self, tmp_path):
        stream = synthetic_churn_stream(
            num_vertices=40, num_communities=2, num_snapshots=3, seed=5)
        spec = JobSpec.for_stream(stream, SBPConfig(seed=3, **_FAST))
        store = DiskResultStore(tmp_path)
        first = execute_job(spec, store=store)
        second = execute_job(spec, store=store)
        assert second.cache_hit
        assert second.stream is not None
        assert second.summary()["warm_refits"] == first.summary()["warm_refits"]
        assert np.array_equal(
            first.best.assignment, second.best.assignment
        )

    def test_run_health_surfaces_store_stats(self):
        from repro.diagnostics import run_health

        store = MemoryResultStore()
        outcome = execute_job(_spec(), store=store)
        execute_job(_spec(), store=store)
        health = run_health(outcome.best, store=store)
        assert health["store"]["hits"] == 1
        assert health["store"]["entries"] == 1
        plain = run_health(outcome.best)
        assert "store" not in plain


# ----------------------------------------------------------------------
# Lease queue (fake clock: deterministic expiry)
# ----------------------------------------------------------------------
class TestLeaseQueue:
    def _queue(self, **kwargs):
        clock = FakeClock()
        defaults = dict(lease_ttl=10.0, max_attempts=3, clock=clock)
        defaults.update(kwargs)
        return LeaseQueue(**defaults), clock

    def test_submit_dedupes_by_digest(self):
        q, _ = self._queue()
        spec = _spec()
        assert q.submit(spec) == q.submit(spec)
        assert q.counts()["pending"] == 1

    def test_fifo_and_lifo_orders(self):
        specs = [_spec(seed=s) for s in (1, 2, 3)]
        q, _ = self._queue(order="fifo")
        ids = [q.submit(s) for s in specs]
        assert [q.lease("w").job_id for _ in specs] == ids
        q, _ = self._queue(order="lifo")
        ids = [q.submit(s) for s in specs]
        assert [q.lease("w").job_id for _ in specs] == ids[::-1]

    def test_lease_complete_lifecycle(self):
        q, _ = self._queue()
        job_id = q.submit(_spec())
        job = q.lease("w1")
        assert job.state is JobState.LEASED and job.attempts == 1
        q.heartbeat(job_id, "w1")
        q.complete(job_id, "w1")
        assert q.status(job_id)["state"] == "done"
        assert q.drained() and q.lease("w2") is None

    def test_heartbeat_keeps_lease_alive(self):
        q, clock = self._queue(lease_ttl=10.0)
        job_id = q.submit(_spec())
        q.lease("w1")
        for _ in range(5):
            clock.advance(6.0)  # would expire without the heartbeat
            q.heartbeat(job_id, "w1")
        assert q.counts()["expirations"] == 0
        q.complete(job_id, "w1")

    def test_expired_lease_requeues_for_survivor(self):
        q, clock = self._queue(lease_ttl=10.0)
        job_id = q.submit(_spec())
        q.lease("dead-worker")
        clock.advance(10.5)
        job = q.lease("survivor")
        assert job is not None and job.job_id == job_id
        assert job.worker == "survivor" and job.attempts == 2
        assert q.counts()["expirations"] == 1
        # The zombie is fenced off every lease-holder operation.
        with pytest.raises(LeaseError):
            q.heartbeat(job_id, "dead-worker")
        with pytest.raises(LeaseError):
            q.complete(job_id, "dead-worker")
        with pytest.raises(LeaseError):
            q.fail(job_id, "dead-worker", "zombie report")
        q.complete(job_id, "survivor")
        assert q.status(job_id)["state"] == "done"

    def test_attempts_exhaustion_fails_the_job(self):
        q, clock = self._queue(lease_ttl=1.0, max_attempts=2)
        job_id = q.submit(_spec())
        for _ in range(2):
            assert q.lease("w") is not None
            clock.advance(1.5)
        assert q.lease("w") is None
        status = q.status(job_id)
        assert status["state"] == "failed"
        assert "attempts exhausted" in status["error"]

    def test_failed_job_revives_on_resubmit(self):
        q, _ = self._queue(max_attempts=1)
        spec = _spec()
        job_id = q.submit(spec)
        q.lease("w")
        q.fail(job_id, "w", "boom")
        assert q.status(job_id)["state"] == "failed"
        assert q.submit(spec) == job_id
        status = q.status(job_id)
        assert status["state"] == "pending" and status["attempts"] == 0

    def test_unknown_job_raises(self):
        q, _ = self._queue()
        with pytest.raises(UnknownJobError):
            q.status("f" * 32)

    def test_snapshot_and_get_spec(self):
        q, _ = self._queue()
        spec = _spec()
        job_id = q.submit(spec)
        rows = q.snapshot()
        assert len(rows) == 1 and rows[0]["job_id"] == job_id
        assert q.get_spec(job_id).digest() == job_id

    def test_constructor_validation_and_registry(self):
        with pytest.raises(ServiceError):
            LeaseQueue(lease_ttl=0)
        with pytest.raises(ServiceError):
            LeaseQueue(max_attempts=0)
        with pytest.raises(ServiceError):
            LeaseQueue(order="priority")
        assert JOB_QUEUES.names() == ["fifo", "lifo"]
        assert JOB_QUEUES.get("lifo")(lease_ttl=5.0).order == "lifo"
        with pytest.raises(ServiceError):
            JOB_QUEUES.get("no-such-queue")


# ----------------------------------------------------------------------
# Orchestrator
# ----------------------------------------------------------------------
class TestOrchestrator:
    def test_workers_match_serial_on_mixed_queue(self, tmp_path):
        # >= 20 jobs across all three modes, drained by 4 workers, must
        # equal one-at-a-time execution result-for-result.
        graphs = [_planted(seed=s) for s in (1, 2)]
        specs = []
        for graph in graphs:
            for seed in range(8):
                specs.append(_spec(graph=graph, seed=seed))
            specs.append(_spec(graph=graph, seed=50, runs=2))
        for seed in (5, 6):
            stream = synthetic_churn_stream(
                num_vertices=40, num_communities=2, num_snapshots=2,
                seed=seed)
            specs.append(JobSpec.for_stream(stream, SBPConfig(seed=3, **_FAST)))
        specs.append(_spec(seed=9, sample_rate=0.5))
        specs.append(_spec(seed=10, sample_rate=0.5))
        assert len(specs) >= 20

        serial = run_jobs_serially(specs, MemoryResultStore())

        store = DiskResultStore(tmp_path / "store")
        queue = LeaseQueue(lease_ttl=30.0)
        for spec in specs:
            queue.submit(spec)
        orch = Orchestrator(
            queue, store, workers=4, checkpoint_root=tmp_path / "ckpt")
        assert orch.run_until_drained(timeout=600)
        counts = queue.counts()
        assert counts["done"] == len({s.digest() for s in specs})
        assert counts["failed"] == 0

        for spec, reference in zip(specs, serial):
            outcome = store.get(spec.digest())
            assert outcome is not None
            assert outcome.best.mdl == reference.best.mdl
            assert np.array_equal(
                outcome.best.assignment, reference.best.assignment
            )
            assert [r.mdl for r in outcome.results] == \
                [r.mdl for r in reference.results]

    def test_killed_worker_job_completes_on_survivor(self, tmp_path):
        # worker-0 dies on its first lease (no fail call, heartbeat
        # stops); after the TTL the queue re-leases to worker-1.
        specs = [_spec(seed=s) for s in (1, 2, 3)]
        store = MemoryResultStore()
        queue = LeaseQueue(lease_ttl=1.0, max_attempts=3)
        for spec in specs:
            queue.submit(spec)
        orch = Orchestrator(
            queue, store, workers=2,
            checkpoint_root=tmp_path / "ckpt",
            crash_plan={"worker-0": 1},
        )
        assert orch.run_until_drained(timeout=300)
        counts = queue.counts()
        assert counts["done"] == len(specs)
        assert counts["failed"] == 0
        assert counts["expirations"] >= 1  # the kill really expired a lease
        reference = run_jobs_serially(specs)
        for spec, ref in zip(specs, reference):
            outcome = store.get(spec.digest())
            assert outcome is not None
            assert np.array_equal(
                outcome.best.assignment, ref.best.assignment)

    def test_job_exception_fails_and_requeues(self):
        queue = LeaseQueue(lease_ttl=30.0, max_attempts=2)
        store = MemoryResultStore()
        spec = _spec()
        queue.submit(spec)
        orch = Orchestrator(queue, store, workers=1)

        import repro.service.orchestrator as orch_module

        original = orch_module.execute_job
        try:
            def _always_raise(*args, **kwargs):
                raise RuntimeError("engine exploded")

            orch_module.execute_job = _always_raise
            assert orch.run_until_drained(timeout=60)
        finally:
            orch_module.execute_job = original
        status = queue.status(spec.digest())
        assert status["state"] == "failed"
        assert "engine exploded" in status["error"]

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            Orchestrator(LeaseQueue(), MemoryResultStore(), workers=0)


# ----------------------------------------------------------------------
# HTTP front-end
# ----------------------------------------------------------------------
def _two_cliques(n=6):
    edges = []
    for block in (range(n), range(n, 2 * n)):
        block = list(block)
        for i in block:
            for j in block:
                if i != j:
                    edges.append([i, j])
    edges.append([0, n])
    edges.append([n, 0])
    return edges, 2 * n


@pytest.fixture()
def service(tmp_path):
    from repro.service.server import PartitionService

    svc = PartitionService(
        MemoryResultStore(),
        LeaseQueue(lease_ttl=30.0),
        workers=2,
        port=0,
        checkpoint_root=tmp_path / "ckpt",
    )
    svc.start()
    try:
        yield svc
    finally:
        svc.close()


def _get(base: str, path: str):
    with urllib.request.urlopen(base + path, timeout=30) as resp:
        return resp.status, resp.read()


def _post(base: str, path: str, body: dict):
    req = urllib.request.Request(
        base + path, data=json.dumps(body).encode("utf-8"), method="POST")
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, resp.read()


class TestHTTPService:
    def _base(self, service):
        host, port = service.address
        return f"http://{host}:{port}"

    def _wait_done(self, base, job_id, deadline_s=240.0):
        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            _, raw = _get(base, f"/status/{job_id}")
            status = json.loads(raw)
            if status["state"] in ("done", "failed"):
                return status
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} never finished")

    def test_submit_status_result_report_health(self, service):
        base = self._base(service)
        edges, num_vertices = _two_cliques()
        body = {
            "edges": edges,
            "num_vertices": num_vertices,
            "config": {"seed": 1, "max_sweeps": 6},
            "runs": 1,
        }
        code, raw = _post(base, "/submit", body)
        assert code == 200
        submitted = json.loads(raw)
        job_id = submitted["job_id"]
        assert submitted["state"] in ("pending", "leased", "done")

        status = self._wait_done(base, job_id)
        assert status["state"] == "done", status
        assert status["outcome"]["digest"] == job_id
        assert status["outcome"]["V"] == num_vertices

        code, raw = _get(base, f"/result/{job_id}")
        assert code == 200
        payload = json.loads(raw)
        assert payload["format"] == "repro.job_outcome"
        assert payload["digest"] == job_id
        assert len(payload["results"]) == 1

        code, raw = _get(base, "/report")
        assert code == 200
        report = raw.decode()
        assert "partition service store (1 outcomes)" in report
        assert job_id in report

        code, raw = _get(base, "/health")
        health = json.loads(raw)
        assert health["ok"] is True
        assert health["queue"]["done"] == 1
        assert health["store"]["entries"] == 1

        # Resubmitting the same content returns the same job id (dedupe).
        code, raw = _post(base, "/submit", body)
        assert json.loads(raw)["job_id"] == job_id

    def test_bad_requests_are_4xx(self, service):
        base = self._base(service)
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base, "/submit", {"config": {"seed": 1}})  # no graph source
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _post(base, "/submit", {"edges": [[0, 1]], "config": {"nope": 1}})
        assert err.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base, "/status/" + "f" * 32)
        assert err.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(base, "/no-such-endpoint")
        assert err.value.code == 404
        # Non-scalar numeric fields, removed config fields and config
        # values that would only fail in a worker answer with a JSON 400,
        # not a dropped connection or a queued job, and the server keeps
        # serving.
        for body, field in (
            ({"edges": [[0, 1], [1, 2]], "num_vertices": 3, "runs": [1]}, "runs"),
            ({"edges": [[0, 1], [1, 2]], "num_vertices": [3]}, "num_vertices"),
            ({"edges": [[0, 1]], "config": {"update_strategy": "rebuild"}},
             "update_strategy"),
            ({"edges": [[0, 1]], "config": {"max_outer_iterations": 0}},
             "max_outer_iterations"),
        ):
            with pytest.raises(urllib.error.HTTPError) as err:
                _post(base, "/submit", body)
            assert err.value.code == 400
            assert field in json.loads(err.value.read())["error"]
            status, raw = _get(base, "/health")
            assert status == 200 and "queue" in json.loads(raw)

    def test_build_job_spec_sources(self):
        from repro.service.server import build_job_spec

        edges, num_vertices = _two_cliques()
        spec = build_job_spec({
            "edges": edges, "num_vertices": num_vertices,
            "config": {"seed": 2},
        })
        assert isinstance(spec.graph, Graph)
        assert spec.graph.num_vertices == num_vertices
        corpus_spec = build_job_spec({"corpus": "S1", "config": {"seed": 1}})
        assert corpus_spec.mode == "fit"
        stream_spec = build_job_spec({
            "stream": {
                "source": "synthetic-churn",
                "options": {"num_vertices": 40, "num_communities": 2,
                            "num_snapshots": 2, "seed": 5},
            },
            "config": {"seed": 3},
        })
        assert stream_spec.mode == "stream"
        with pytest.raises(ServiceError):
            build_job_spec({"edges": [[0, 1]], "corpus": "S1"})
        with pytest.raises(ServiceError):
            build_job_spec({"path": "/nonexistent/graph.txt"})


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------
class TestCLIIntegration:
    def test_registry_lists_service_sections(self, capsys):
        from repro.cli import main

        assert main(["registry", "--list"]) == 0
        out = capsys.readouterr().out
        assert "result stores" in out
        assert "job queues" in out
        for name in ("disk", "memory", "fifo", "lifo"):
            assert name in out

    def test_serve_parser_defaults(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.store == "disk"
        assert args.queue == "fifo"
        assert args.port == 8642
        assert args.lease_ttl == 30.0
        assert args.max_attempts == 3

    def test_detect_store_flag_caches(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graph.io import write_edge_list

        graph = _planted()
        graph_path = tmp_path / "g.txt"
        write_edge_list(graph, graph_path)
        store_dir = tmp_path / "store"
        argv = ["detect", str(graph_path), "--variant", "sbp",
                "--seed", "3", "--store", str(store_dir), "--json"]
        assert main(argv) == 0
        first = json.loads(capsys.readouterr().out)
        assert "cached" not in first
        assert main(argv) == 0
        second = json.loads(capsys.readouterr().out)
        assert second.pop("cached") is True
        assert first == second
