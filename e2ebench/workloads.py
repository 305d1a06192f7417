"""The benchmark's workloads: inputs from a seed, a timed unit, output checks.

Each workload's ``setup(seed, workdir)`` builds every input the timed
phase needs and returns a state object with a ``close()``; ``warmup(state)``
runs a small untimed job through the same engines; ``run(state, tracer)``
runs the timed phase, a fixed amount of work, and returns an :class:`Outcome`.
The graph seed comes from ``--seed``; fit seeds stay at the config
default, so one seed always gives the same inputs and the same chains.
The program only ever sees the generated graphs.
"""

from __future__ import annotations

import http.client
import json
import shutil
import statistics
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from e2ebench.tracing import Tracer

__all__ = [
    "FitWorkload",
    "Outcome",
    "ServiceWorkload",
    "StreamWorkload",
    "GraphParams",
    "make_workloads",
    "tail",
]


@dataclass(frozen=True)
class GraphParams:
    """A planted DCSBM: 8 communities, within:between ratio 10."""

    num_vertices: int
    communities: int = 8
    ratio: float = 10.0
    mean_degree: float = 20.0
    d_max: int = 80

    def generate(self, seed: int):
        from repro.generators.dcsbm import DCSBMParams, generate_dcsbm

        return generate_dcsbm(
            DCSBMParams(
                num_vertices=self.num_vertices,
                num_communities=self.communities,
                within_between_ratio=self.ratio,
                d_max=self.d_max,
                mean_degree=self.mean_degree,
            ),
            seed=seed,
        )


@dataclass
class Outcome:
    """What one timed phase produced, checked."""

    #: median wall time of one pass of the work (all fits, a stream, a job plan).
    wall_s: float
    #: wall time of the whole timed phase.
    elapsed_s: float
    #: per-operation latencies (fits, warm refits, jobs), replays folded.
    latencies: list[float]
    nmi: float
    mdl_norm: float
    attempted: int
    #: operations done in the timed phase, replays included.
    operations: int
    failures: list[str] = field(default_factory=list)
    #: what actually ran: storage engine and reason, backend, counts.
    info: dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)


def tail(values: list[float]) -> tuple[float, int]:
    """The 90th percentile, interpolated between the two samples around
    it, and how many samples lie above it.

    An interpolated percentile moves less from run to run than a single
    order statistic; the workloads give it a dozen samples or more.
    """
    if len(values) == 1:
        return values[0], 0
    p90 = statistics.quantiles(values, n=10, method="inclusive")[-1]
    return p90, sum(v > p90 for v in values)


def _check_assignment(
    assignment, num_vertices: int, num_blocks: int, label: str, failures: list[str]
) -> bool:
    a = np.asarray(assignment)
    if a.shape != (num_vertices,) or a.min() < 0 or a.max() >= num_blocks:
        failures.append(f"{label}: assignment does not cover {num_vertices} vertices")
        return False
    return True


def _nmi(truth, assignment) -> float:
    from repro.metrics.nmi import normalized_mutual_information

    return float(normalized_mutual_information(np.asarray(truth), np.asarray(assignment)))


def _repeat(unit, passes: int) -> tuple[list[Any], list[float], float]:
    """Run ``unit()`` ``passes`` times; returns results, unit walls, elapsed.

    The count is fixed, not fitted to a time budget, so a faster program
    is timed on the same work as a slower one.
    """
    results, walls = [], []
    start = time.perf_counter()
    for _ in range(passes):
        t0 = time.perf_counter()
        results.append(unit())
        walls.append(time.perf_counter() - t0)
    return results, walls, time.perf_counter() - start


def _best_of(replays: list[list[float]]) -> list[float]:
    """Per operation, the fastest of its replays. Replays repeat the same
    deterministic chains, so they do the same work; the minimum drops
    the time other processes on the host took from it."""
    return [min(times) for times in zip(*replays)]


def _storage(name: str, num_vertices: int, num_edges: int) -> dict[str, str]:
    from repro.sbm.block_storage import resolve_block_storage

    engine, reason = resolve_block_storage(name, num_vertices, num_edges)
    return {"engine": engine, "reason": reason}


# ----------------------------------------------------------------------
# fit-hybrid, fit-hsbp-pipes
# ----------------------------------------------------------------------
@dataclass
class _FitState:
    #: (graph, planted truth) pairs, fit in order.
    graphs: list[tuple[Any, np.ndarray]]

    def close(self) -> None:
        pass


@dataclass(frozen=True)
class FitWorkload:
    """Full fits through ``execute_job(JobSpec.for_graph(...))``, no store.

    A run fits each of ``graphs`` graphs once: a single a-sbp chain's
    cost moves by a quarter from one seed to the next, so a run times
    enough fits for a median and a 90th percentile.
    """

    name: str
    graph: GraphParams
    graphs: int
    variant: str
    backend: str
    storage: str
    nmi_floor: float

    def setup(self, seed: int, workdir: Path) -> _FitState:
        return _FitState([self.graph.generate(seed * 1000 + k) for k in range(self.graphs)])

    def _config(self):
        from repro.core.variants import SBPConfig

        return SBPConfig(variant=self.variant, backend=self.backend,
                         block_storage=self.storage)

    def warmup(self, state: _FitState) -> None:
        """One small fit with the same engines, so first-call costs stay
        out of the timed phase."""
        from repro.service import jobs

        graph, _ = GraphParams(100).generate(0)
        jobs.execute_job(jobs.JobSpec.for_graph(graph, self._config()))

    def run(self, state: _FitState, tracer: Tracer | None) -> Outcome:
        from repro.service import jobs

        config = self._config()
        latencies: list[float] = []
        fits: list[tuple[Any, np.ndarray, Any]] = []
        start = time.perf_counter()
        for graph, truth in state.graphs:
            t0 = time.perf_counter()
            # Looked up through the module so a traced run sees the wrapper.
            best = jobs.execute_job(jobs.JobSpec.for_graph(graph, config)).best
            latencies.append(time.perf_counter() - t0)
            fits.append((graph, truth, best))
        elapsed = time.perf_counter() - start
        failures: list[str] = []
        nmis = []
        for i, (graph, truth, result) in enumerate(fits):
            label = f"{self.name} fit {i}"
            _check_assignment(
                result.assignment, graph.num_vertices, result.num_blocks, label, failures
            )
            nmis.append(_nmi(truth, result.assignment))
            if nmis[-1] < self.nmi_floor:
                failures.append(f"{label}: NMI {nmis[-1]:.3f} < floor {self.nmi_floor}")
            if result.interrupted:
                failures.append(f"{label}: interrupted")
            expected = _storage(self.storage, graph.num_vertices, graph.num_edges)["engine"]
            if result.block_storage != expected:
                failures.append(f"{label}: ran {result.block_storage}, expected {expected}")
        first = state.graphs[0][0]
        return Outcome(
            wall_s=elapsed,
            elapsed_s=elapsed,
            latencies=latencies,
            nmi=statistics.median(nmis),
            mdl_norm=statistics.median(r.normalized_mdl for _, _, r in fits),
            attempted=len(fits),
            operations=len(fits),
            failures=failures,
            info={
                "V": first.num_vertices,
                "E": [g.num_edges for g, _ in state.graphs],
                "variant": self.variant,
                "backend": self.backend,
                "storage": _storage(self.storage, first.num_vertices, first.num_edges),
                "auto_storage": _storage("auto", first.num_vertices, first.num_edges),
                "ran_storage": sorted({r.block_storage for _, _, r in fits}),
                "fits": len(fits),
            },
        )


# ----------------------------------------------------------------------
# stream-churn
# ----------------------------------------------------------------------
@dataclass
class _StreamState:
    stream: Any

    def close(self) -> None:
        pass


@dataclass(frozen=True)
class StreamWorkload:
    """A churn stream fit snapshot by snapshot under the mdl-ratio policy.

    The stream is replayed ``passes`` times; each warm refit's latency
    is the fastest of its replays, and the replays must agree snapshot
    by snapshot.
    """

    name: str
    graph: GraphParams
    snapshots: int
    passes: int
    churn: float
    variant: str
    nmi_floor: float

    def _stream(self, num_vertices: int, snapshots: int, seed: int):
        from repro.streaming.source import synthetic_churn_stream

        return synthetic_churn_stream(
            num_vertices=num_vertices,
            num_communities=self.graph.communities,
            num_snapshots=snapshots,
            churn=self.churn,
            within_between_ratio=self.graph.ratio,
            mean_degree=self.graph.mean_degree,
            seed=seed,
        )

    def setup(self, seed: int, workdir: Path) -> _StreamState:
        return _StreamState(self._stream(self.graph.num_vertices, self.snapshots, seed))

    def warmup(self, state: _StreamState) -> None:
        """A short small stream, so first-call costs stay out of the timed phase."""
        from repro.core.variants import SBPConfig
        from repro.streaming.session import StreamSession

        stream = self._stream(200, 4, 0)
        StreamSession(SBPConfig(variant=self.variant), drift_policy="mdl-ratio").run(stream)

    def run(self, state: _StreamState, tracer: Tracer | None) -> Outcome:
        from repro.core.variants import SBPConfig
        from repro.streaming.session import StreamSession

        config = SBPConfig(variant=self.variant)
        stream = state.stream

        def unit():
            return StreamSession(config, drift_policy="mdl-ratio").run(stream)

        runs, walls, elapsed = _repeat(unit, self.passes)
        failures: list[str] = []
        replays: list[list[float]] = []
        V = stream.graph.num_vertices
        for i, res in enumerate(runs):
            if len(res.snapshots) != self.snapshots:
                failures.append(f"stream {i}: {len(res.snapshots)} of {self.snapshots} snapshots")
            replays.append([])
            for snap in res.snapshots:
                label = f"stream {i} snapshot {snap.index}"
                r = snap.result
                _check_assignment(r.assignment, V, r.num_blocks, label, failures)
                if snap.index < len(runs[0].snapshots) and not np.array_equal(
                        r.assignment, runs[0].snapshots[snap.index].result.assignment):
                    failures.append(f"{label}: differs from the same snapshot in stream 0")
                if snap.index > 0:
                    replays[-1].append(snap.seconds)
                    if r.refit_mode != "warm":
                        failures.append(f"{label}: {r.refit_mode} fit, expected warm")
        latencies = _best_of(replays)
        finals = [res.final for res in runs]
        nmis = [_nmi(stream.truth, r.assignment) for r in finals]
        for i, value in enumerate(nmis):
            if value < self.nmi_floor:
                failures.append(f"stream {i}: final NMI {value:.3f} < floor {self.nmi_floor}")
        return Outcome(
            wall_s=statistics.median(walls),
            elapsed_s=elapsed,
            latencies=latencies,
            nmi=statistics.median(nmis),
            mdl_norm=statistics.median(r.normalized_mdl for r in finals),
            attempted=sum(len(res.snapshots) for res in runs),
            operations=sum(len(times) for times in replays),
            failures=failures,
            info={
                "V": V,
                "E": stream.graph.num_edges,
                "snapshots": self.snapshots,
                "variant": self.variant,
                "backend": config.backend,
                "storage": _storage(config.block_storage, V, stream.graph.num_edges),
                "ran_storage": sorted({r.block_storage for r in finals}),
                "warm_refits": sum(res.warm_refits for res in runs),
                "cold_fits": sum(res.cold_fits for res in runs),
                "replays": len(runs),
            },
        )


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
#: client poll period, the orchestrator's own idle poll.
_POLL_S = 0.05
#: a job not done this long after its submit counts as failed.
_JOB_TIMEOUT_S = 120.0


@dataclass
class _Job:
    """One plan item: a request body and what its result must satisfy."""

    kind: str  # fit | sample | hit | resubmit
    body: bytes
    truth: np.ndarray
    #: expected /result bytes, known up front for store hits.
    expect: bytes | None = None
    #: for resubmits: index of the plan item first submitted with this body.
    first: int | None = None


class _Client:
    """Blocking HTTP client; each call is a span when tracing."""

    def __init__(self, address: tuple[str, int], tracer: Tracer | None) -> None:
        self.host, self.port = address
        self.tracer = tracer
        self.requests = 0
        self.errors = 0

    def call(self, method: str, path: str, body: bytes | None = None, run: str | None = None):
        endpoint = path.strip("/").split("/")[0]
        if self.tracer is None:
            return self._call(method, path, body)
        with self.tracer.span(f"http.{endpoint}", run=run):
            status, data = self._call(method, path, body)
        self.tracer.count("http.requests")
        if not 200 <= status < 300:
            self.tracer.count("http.errors")
        return status, data

    def _call(self, method: str, path: str, body: bytes | None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            headers = {"Content-Type": "application/json"} if body is not None else {}
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        self.requests += 1
        if not 200 <= response.status < 300:
            self.errors += 1
        return response.status, data


def _wait_done(client: _Client, job_id: str) -> str:
    deadline = time.monotonic() + _JOB_TIMEOUT_S
    while time.monotonic() < deadline:
        status, data = client.call("GET", f"/status/{job_id}", run=job_id)
        if status != 200:
            return f"http {status}"
        state = json.loads(data)["state"]
        if state in ("done", "failed"):
            return state
        time.sleep(_POLL_S)
    return "timeout"


@dataclass
class _ServiceState:
    service: Any
    plan: list[_Job]
    directory: Path
    info: dict[str, Any]

    def close(self) -> None:
        self.service.close()
        shutil.rmtree(self.directory, ignore_errors=True)


@dataclass(frozen=True)
class ServiceWorkload:
    """A closed loop of HTTP clients against an in-process partition service.

    Set-up generates every job's graph and request body, runs an earlier
    service instance that puts the store-hit jobs into a disk store,
    and starts the measured service on that store. The timed phase is
    one pass over a fixed job plan with ``in_flight`` jobs outstanding.
    """

    name: str
    fit_graph: GraphParams
    sample_graph: GraphParams
    sample_rate: float
    #: sample rate of the store-hit jobs (high enough for a good NMI).
    hit_sample_rate: float
    variant: str
    workers: int
    in_flight: int
    #: new jobs come in fit/sample pairs; one resubmit follows every pair
    #: after the first, and a store hit follows the pairs listed here.
    pairs: int
    hit_after: tuple[int, ...]
    nmi_floor: float

    def _body(self, graph, sample_rate: float = 1.0) -> bytes:
        config: dict[str, Any] = {"variant": self.variant}
        if sample_rate < 1.0:
            config["sample_rate"] = sample_rate
        return json.dumps({
            "edges": graph.edges.tolist(),
            "num_vertices": graph.num_vertices,
            "config": config,
        }).encode("utf-8")

    def _start(self, directory: Path):
        from repro.service.queue import LeaseQueue
        from repro.service.server import PartitionService
        from repro.service.store import DiskResultStore

        service = PartitionService(
            DiskResultStore(directory / "store"), LeaseQueue(),
            workers=self.workers, port=0,
        )
        service.start()
        return service

    def setup(self, seed: int, workdir: Path) -> _ServiceState:
        directory = Path(tempfile.mkdtemp(prefix="service-", dir=workdir))
        new: list[_Job] = []
        storage: dict[str, dict[str, str]] = {}
        for k in range(2 * self.pairs):
            kind = "sample" if k % 2 else "fit"
            params = self.sample_graph if kind == "sample" else self.fit_graph
            graph, truth = params.generate(seed * 1000 + k)
            storage.setdefault(kind, _storage("auto", graph.num_vertices, graph.num_edges))
            rate = self.sample_rate if kind == "sample" else 1.0
            new.append(_Job(kind, self._body(graph, rate), truth))
        # Store hits are cheap sample jobs on the fit-size graph: a hit
        # costs a store read of a V-sized result whatever the job cost,
        # and set-up stays short.
        hits: list[_Job] = []
        for k in range(len(self.hit_after)):
            graph, truth = self.fit_graph.generate(seed * 1000 + 500 + k)
            hits.append(_Job("hit", self._body(graph, self.hit_sample_rate), truth))

        # An earlier service instance puts the store-hit jobs in the store.
        earlier = self._start(directory)
        try:
            client = _Client(earlier.address, None)
            ids = [json.loads(client.call("POST", "/submit", job.body)[1])["job_id"]
                   for job in hits]
            for job, job_id in zip(hits, ids):
                if _wait_done(client, job_id) != "done":
                    raise RuntimeError(f"set-up job {job_id[:12]} did not finish")
                job.expect = client.call("GET", f"/result/{job_id}")[1]
        finally:
            earlier.close()

        plan: list[_Job] = []
        position: list[int] = []  # plan index of each new job
        for pair in range(self.pairs):
            for job in new[2 * pair:2 * pair + 2]:
                position.append(len(plan))
                plan.append(job)
            if pair >= 1:
                again = new[pair - 1]
                plan.append(_Job("resubmit", again.body, again.truth, first=position[pair - 1]))
            if pair in self.hit_after:
                plan.append(hits[self.hit_after.index(pair)])
        return _ServiceState(
            service=self._start(directory),
            plan=plan,
            directory=directory,
            info={
                "fit_V": self.fit_graph.num_vertices,
                "sample_V": self.sample_graph.num_vertices,
                "sample_rate": self.sample_rate,
                "variant": self.variant,
                "backend": "resilient:vectorized",
                "storage": storage,
                "workers": self.workers,
                "in_flight": self.in_flight,
                "plan": [job.kind for job in plan],
            },
        )

    def warmup(self, state: _ServiceState) -> None:
        """Nothing: set-up already ran jobs through an earlier instance."""

    def run(self, state: _ServiceState, tracer: Tracer | None) -> Outcome:
        client = _Client(state.service.address, tracer)
        plan = state.plan
        queue = deque(range(len(plan)))
        flying: dict[int, tuple[str, float]] = {}
        done_bytes: dict[int, bytes] = {}
        latency: dict[int, float] = {}
        failures: list[str] = []
        nmis: list[float] = []
        mdls: list[float] = []
        start = time.perf_counter()
        while queue or flying:
            while queue and len(flying) < self.in_flight:
                i = queue.popleft()
                t0 = time.perf_counter()
                status, data = client.call("POST", "/submit", plan[i].body)
                if status != 200:
                    failures.append(f"job {i} ({plan[i].kind}): submit http {status}")
                    continue
                flying[i] = (json.loads(data)["job_id"], t0)
            finished = False
            for i, (job_id, t0) in list(flying.items()):
                status, data = client.call("GET", f"/status/{job_id}", run=job_id)
                if status != 200:
                    state_name = f"status http {status}"
                else:
                    state_name = json.loads(data)["state"]
                    if time.perf_counter() - t0 > _JOB_TIMEOUT_S:
                        state_name = f"{state_name} after {_JOB_TIMEOUT_S} s"
                    elif state_name not in ("done", "failed"):
                        continue
                del flying[i]
                finished = True
                if state_name != "done":
                    failures.append(f"job {i} ({plan[i].kind}): {state_name}")
                    continue
                status, raw = client.call("GET", f"/result/{job_id}", run=job_id)
                latency[i] = time.perf_counter() - t0
                if status != 200:
                    failures.append(f"job {i} ({plan[i].kind}): result http {status}")
                    continue
                done_bytes[i] = raw
                self._check(i, plan, raw, done_bytes, failures, nmis, mdls)
            if flying and not finished:
                time.sleep(_POLL_S)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.count("store.bytes", state.service.store.bytes_used)
            tracer.count("queue.expirations", state.service.queue.expirations)
        lat = list(latency.values())
        by_kind: dict[str, list[float]] = {}
        for i, value in latency.items():
            by_kind.setdefault(plan[i].kind, []).append(value)
        info = dict(state.info)
        info["latency_p50_by_kind"] = {
            kind: statistics.median(values) for kind, values in sorted(by_kind.items())
        }
        info["http_requests"] = client.requests
        info["http_errors"] = client.errors
        return Outcome(
            wall_s=elapsed,
            elapsed_s=elapsed,
            latencies=lat,
            nmi=statistics.median(nmis) if nmis else 0.0,
            mdl_norm=statistics.median(mdls) if mdls else 0.0,
            attempted=len(plan),
            operations=len(lat),
            failures=failures,
            info=info,
        )

    def _check(self, i, plan, raw, done_bytes, failures, nmis, mdls) -> None:
        job = plan[i]
        label = f"job {i} ({job.kind})"
        if job.expect is not None and raw != job.expect:
            failures.append(f"{label}: store-hit bytes differ from the first completion")
        if job.first is not None and raw != done_bytes.get(job.first):
            failures.append(f"{label}: resubmit bytes differ from the first completion")
        result = json.loads(raw)["results"][0]
        if not _check_assignment(result["assignment"], len(job.truth),
                                 result["num_blocks"], label, failures):
            return
        nmis.append(_nmi(job.truth, result["assignment"]))
        mdls.append(float(result["normalized_mdl"]))
        if nmis[-1] < self.nmi_floor:
            failures.append(f"{label}: NMI {nmis[-1]:.3f} < floor {self.nmi_floor}")


def make_workloads(tiny: bool = False) -> dict[str, Any]:
    """The four workloads at benchmark size, or at smoke-test size."""
    if tiny:
        fit_v, fits, hsbp_v, hsbp_fits, stream_v, snaps, svc_fit_v, svc_sample_v, rate, pairs = (
            300, 2, 200, 2, 200, 24, 150, 600, 0.3, 3)
    else:
        fit_v, fits, hsbp_v, hsbp_fits, stream_v, snaps, svc_fit_v, svc_sample_v, rate, pairs = (
            500, 16, 200, 16, 2000, 81, 300, 1000, 0.3, 13)
    # NMI floors catch broken output, not an unlucky chain: full fits on
    # these graphs land at 0.8-1.0, sample jobs on a few hundred sampled
    # vertices at 0.55-0.95.
    workloads = [
        FitWorkload("fit-hybrid", GraphParams(fit_v), fits, "a-sbp", "vectorized",
                    storage="hybrid", nmi_floor=0.7),
        FitWorkload("fit-hsbp-pipes", GraphParams(hsbp_v), hsbp_fits, "h-sbp",
                    "distributed:pipes:2", storage="auto", nmi_floor=0.7),
        StreamWorkload("stream-churn", GraphParams(stream_v), snapshots=snaps, passes=2,
                       churn=0.05, variant="a-sbp", nmi_floor=0.7),
        ServiceWorkload("service-mix", GraphParams(svc_fit_v), GraphParams(svc_sample_v),
                        sample_rate=rate, hit_sample_rate=0.6, variant="a-sbp", workers=2,
                        in_flight=2, pairs=pairs, hit_after=(0, pairs // 2 + 1), nmi_floor=0.5),
    ]
    return {w.name: w for w in workloads}
