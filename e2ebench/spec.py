"""What the benchmark measures: workloads, end-to-end and per-layer metrics.

This module is the single source of ``BENCHMARK.json`` at the repository
root (``python3 e2ebench/spec.py`` rewrites it; a test checks that the
two agree). The file format allows only a name, unit and direction per
per-layer metric, so the layer each metric times and the end-to-end
metric and workload it should move live here, in :data:`PER_LAYER`, and
are printed beside the traced run's table.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Seconds one run measures, about: each workload's timed work is fixed
#: and sized to take this long on a 2-core x86 host.
RUN_SECONDS = 25

#: Set-ups per run: at least ``SETUP_REPEATS``, and more, up to
#: ``SETUP_REPEATS_MAX``, while they took less than ``SETUP_BUDGET_S`` in
#: all; ``setup_s`` is their median.
SETUP_REPEATS = 3
SETUP_REPEATS_MAX = 9
SETUP_BUDGET_S = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end-to-end only: allowed worsening as a share of the parent's median.
    bound: float | None = None
    #: per-layer only: the module and public calls timed.
    layer: str = ""
    #: per-layer only: which end-to-end metric and workload it should move.
    moves: str = ""


WORKLOADS = [
    Workload(
        "fit-hybrid",
        "a-sbp on 16 DCSBM graphs of V=500 in hybrid block storage, the engine auto picks "
        "above V=2048: its sweep barrier, MDL and merge scan, many small fits per run",
    ),
    Workload(
        "fit-hsbp-pipes",
        "h-sbp on 16 DCSBM graphs of V=200 over distributed:pipes:2: the serial top-degree "
        "pass dominates, the only workload crossing the wire; storage and barrier idle",
    ),
    Workload(
        "stream-churn",
        "81 snapshots of a V=2000 graph with 5% edge churn under the mdl-ratio policy, "
        "replayed twice: a cold fit, then 80 warm refits (edge deltas, drift, warm_refit)",
    ),
    Workload(
        "service-mix",
        "HTTP partition service, 2 workers, closed loop of 2 jobs in flight mixing new fit "
        "and sample jobs, store hits and resubmits: the only load on service, store, sampling",
    ),
]

# Latencies are reported as a mean and an interpolated 90th percentile:
# the median of warm-refit times jumped by a fifth between seeds, as the
# middle of their spread holds few samples; the mean moves smoothly.
END_TO_END = [
    Metric("setup_s", "s", "lower", 0.25),
    Metric("wall_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.2),
    Metric("nmi", "1", "higher", 0.1),
    Metric("mdl_norm", "1", "lower", 0.05),
    Metric("latency_mean_s", "s", "lower", 0.25),
    Metric("latency_tail_s", "s", "lower", 0.25),
    Metric("ops_per_s", "1/s", "higher", 0.25),
]

_FIT = "wall_s on fit-hybrid and fit-hsbp-pipes"
_BARRIER = "sbm.incremental: IncrementalUpdater.apply_sweep"
_SERVICE = "latency_mean_s, latency_tail_s on service-mix"
_STREAM = "latency_mean_s, latency_tail_s on stream-churn"

PER_LAYER = [
    # core.fit_session
    Metric("fit.searches", "count", "lower", layer="core.fit_session: FitSession.run", moves=_FIT),
    Metric("fit.outer_iterations", "count", "lower", layer="core.fit_session: FitSession.run",
           moves=_FIT),
    Metric("fit.self_s", "s", "lower", layer="core.fit_session: FitSession.run", moves=_FIT),
    # core.merge
    Metric("merge.calls", "count", "lower", layer="core.merge: block_merge_phase",
           moves="wall_s on fit-hybrid, fit-hsbp-pipes; ~0 on warm refits"),
    Metric("merge.s", "s", "lower", layer="core.merge: block_merge_phase",
           moves="wall_s on fit-hybrid and fit-hsbp-pipes"),
    Metric("merge.scan_s", "s", "lower", layer="parallel.merge: MergeBackend.evaluate_merges",
           moves="wall_s on fit-hybrid"),
    Metric("merge.apply_s", "s", "lower", layer="core.merge: block_merge_phase minus scan",
           moves="wall_s on fit-hybrid"),
    Metric("merge.blocks_scanned", "count", "lower",
           layer="parallel.merge: MergeBackend.evaluate_merges", moves="wall_s on fit-hybrid"),
    # mcmc.engine
    Metric("mcmc.phases", "count", "lower", layer="mcmc.engine: SweepEngine.run_phase",
           moves=f"{_FIT}; latency_mean_s on stream-churn"),
    Metric("mcmc.sweeps", "count", "lower", layer="mcmc.engine: SweepEngine.run_sweep",
           moves=f"{_FIT}; latency_mean_s on stream-churn"),
    Metric("mcmc.s", "s", "lower", layer="mcmc.engine: run_phase minus barrier",
           moves=f"{_FIT}; latency_mean_s on stream-churn"),
    Metric("mcmc.self_s", "s", "lower", layer="mcmc.engine: run_phase + run_sweep self time",
           moves=_FIT),
    # mcmc.metropolis
    Metric("serial.s", "s", "lower", layer="mcmc.metropolis: metropolis_sweep",
           moves="wall_s on fit-hsbp-pipes (most of it); zero on a-sbp workloads"),
    Metric("serial.proposals", "count", "lower", layer="mcmc.metropolis: metropolis_sweep",
           moves="wall_s on fit-hsbp-pipes"),
    Metric("serial.accepted", "count", "higher", layer="mcmc.metropolis: metropolis_sweep",
           moves="wall_s on fit-hsbp-pipes"),
    Metric("serial.accept_ratio", "1", "higher", layer="mcmc.metropolis: metropolis_sweep",
           moves="wall_s on fit-hsbp-pipes"),
    # parallel
    Metric("eval.calls", "count", "lower", layer="parallel.vectorized: evaluate_sweep",
           moves="wall_s on fit-hybrid; latency_mean_s on stream-churn"),
    Metric("eval.s", "s", "lower", layer="parallel.vectorized: evaluate_sweep",
           moves="wall_s on fit-hybrid; latency_mean_s on stream-churn"),
    Metric("eval.vertices", "count", "lower", layer="parallel.vectorized: evaluate_sweep",
           moves="wall_s on fit-hybrid; latency_mean_s on stream-churn"),
    Metric("eval.accepted", "count", "higher", layer="parallel.vectorized: evaluate_sweep",
           moves="wall_s on fit-hybrid"),
    Metric("eval.accept_ratio", "1", "higher", layer="parallel.vectorized: evaluate_sweep",
           moves="wall_s on fit-hybrid"),
    # distributed
    Metric("wire.s", "s", "lower", layer="distributed.runtime: evaluate_sweep self time",
           moves="wall_s on fit-hsbp-pipes only"),
    Metric("wire.messages", "count", "lower", layer="distributed.runtime: comm_report()",
           moves="wall_s on fit-hsbp-pipes only"),
    Metric("wire.bytes", "B", "lower", layer="distributed.runtime: comm_report()",
           moves="wall_s on fit-hsbp-pipes only"),
    Metric("wire.retries", "count", "lower", layer="distributed.runtime: comm_report()",
           moves="wall_s on fit-hsbp-pipes only"),
    # sbm.incremental
    Metric("barrier.calls", "count", "lower", layer=_BARRIER,
           moves="wall_s on fit-hybrid; none on fit-hsbp-pipes"),
    Metric("barrier.s", "s", "lower", layer=_BARRIER,
           moves="wall_s on fit-hybrid; none on fit-hsbp-pipes (<1% of it)"),
    Metric("barrier.moved", "count", "lower", layer=_BARRIER,
           moves="wall_s on fit-hybrid"),
    # sbm.blockmodel / sbm.entropy
    Metric("mdl.calls", "count", "lower", layer="sbm.blockmodel: Blockmodel.mdl",
           moves="wall_s, peak_rss_mb on fit-hybrid"),
    Metric("mdl.s", "s", "lower", layer="sbm.blockmodel: Blockmodel.mdl",
           moves="wall_s on fit-hybrid"),
    Metric("mdl.rss_step_mb", "MB", "lower", layer="sbm.blockmodel: Blockmodel.mdl",
           moves="peak_rss_mb on fit-hybrid"),
    Metric("rebuild.s", "s", "lower", layer="sbm.blockmodel: Blockmodel.from_assignment",
           moves="wall_s on fit-hybrid; latency_mean_s on stream-churn"),
    Metric("compact.s", "s", "lower", layer="sbm.blockmodel: Blockmodel.compact",
           moves="wall_s on fit-hybrid"),
    # sbm.block_storage
    Metric("storage.hybrid_share", "1", "lower", layer="sbm.block_storage: resolve_block_storage",
           moves="wall_s, peak_rss_mb on fit-hybrid"),
    Metric("storage.bytes_peak_mb", "MB", "lower",
           layer="sbm.block_storage: memory_bytes() at phase ends",
           moves="peak_rss_mb on fit-hybrid"),
    # sampling
    Metric("sampling.sample_s", "s", "lower", layer="sampling.samplers: sample_graph",
           moves=_SERVICE),
    Metric("sampling.subfit_s", "s", "lower", layer="sampling.pipeline: run_sampled_sbp cold fit",
           moves=_SERVICE),
    Metric("sampling.extend_s", "s", "lower", layer="sampling.extension: extend_assignment",
           moves=_SERVICE),
    Metric("sampling.finetune_s", "s", "lower",
           layer="sampling.pipeline: run_sampled_sbp warm refit", moves=_SERVICE),
    # streaming, graph.stream
    Metric("stream.batch_s", "s", "lower", layer="graph.stream: apply_edge_batch", moves=_STREAM),
    Metric("stream.delta_s", "s", "lower", layer="sbm.blockmodel: apply_edge_delta", moves=_STREAM),
    Metric("stream.drift_s", "s", "lower", layer="streaming.drift: drift_value", moves=_STREAM),
    Metric("stream.refit_s", "s", "lower", layer="core.fit_session: FitSession.warm_refit",
           moves=_STREAM),
    Metric("stream.refit_sweeps", "count", "lower", layer="core.fit_session: FitSession.warm_refit",
           moves=_STREAM),
    Metric("stream.warm_refits", "count", "higher", layer="streaming.session: StreamSession.run",
           moves=_STREAM),
    Metric("stream.cold_fits", "count", "lower", layer="streaming.session: StreamSession.run",
           moves=_STREAM),
    # service.jobs, service.store
    Metric("jobs.execute_s", "s", "lower", layer="service.jobs: execute_job", moves=_SERVICE),
    Metric("jobs.digest_s", "s", "lower", layer="service.jobs: JobSpec.digest", moves=_SERVICE),
    Metric("store.hits", "count", "higher", layer="service.store: ResultStore.get in execute_job",
           moves=_SERVICE),
    Metric("store.misses", "count", "lower", layer="service.store: ResultStore.get in execute_job",
           moves=_SERVICE),
    Metric("store.hit_ratio", "1", "higher", layer="service.store: ResultStore.get in execute_job",
           moves=_SERVICE),
    Metric("store.get_s", "s", "lower", layer="service.store: ResultStore.get", moves=_SERVICE),
    Metric("store.put_s", "s", "lower", layer="service.store: ResultStore.put", moves=_SERVICE),
    Metric("store.bytes", "B", "lower", layer="service.store: bytes_used after the run",
           moves=_SERVICE),
    # service.queue, .orchestrator, .server
    Metric("queue.wait_s", "s", "lower", layer="service.queue: submit to first lease, mean",
           moves=f"{_SERVICE}, ops_per_s; rises before ops_per_s stops rising"),
    Metric("queue.leases", "count", "lower", layer="service.queue: LeaseQueue.lease",
           moves="ops_per_s on service-mix"),
    Metric("queue.expirations", "count", "lower", layer="service.queue: LeaseQueue.expirations",
           moves="ops_per_s on service-mix"),
    Metric("queue.dedup", "count", "higher", layer="service.queue: LeaseQueue.submit of a known id",
           moves=_SERVICE),
    Metric("http.requests", "count", "lower", layer="service.server: client HTTP calls",
           moves=_SERVICE),
    Metric("http.submit_s", "s", "lower", layer="service.server: POST /submit", moves=_SERVICE),
    Metric("http.status_s", "s", "lower", layer="service.server: GET /status", moves=_SERVICE),
    Metric("http.result_s", "s", "lower", layer="service.server: GET /result", moves=_SERVICE),
    Metric("http.errors", "count", "lower", layer="service.server: non-2xx replies",
           moves=_SERVICE),
    # process
    Metric("cpu_s", "s", "lower", layer="process: os.times() around the timed phase",
           moves="wall_s on fit-hsbp-pipes; ops_per_s on service-mix"),
    Metric("cores_used", "1", "higher", layer="process: cpu_s / wall_s",
           moves="wall_s on fit-hsbp-pipes; ops_per_s on service-mix"),
    # the program's own PhaseTimings buckets from the same traced run
    Metric("phase.merge_scan_s", "s", "lower", layer="PhaseTimings.merge_scan (program's own)",
           moves="cross-check of merge.scan_s"),
    Metric("phase.barrier_apply_s", "s", "lower",
           layer="PhaseTimings.barrier_apply (program's own)", moves="cross-check of barrier.s"),
    Metric("phase.mcmc_s", "s", "lower", layer="PhaseTimings.mcmc (program's own)",
           moves="cross-check of mcmc.s"),
    # the tracer itself
    Metric("trace.spans", "count", "lower", layer="tracer", moves="trace.overhead_s"),
    Metric("trace.overhead_s", "s", "lower", layer="traced wall_s minus untraced wall_s",
           moves="none; bounds how far traced seconds may drift"),
    Metric("trace.overhead_frac", "1", "lower", layer="trace.overhead_s / untraced wall_s",
           moves="none"),
]


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document this module defines."""
    return {
        "command": ["python3", "e2ebench/run.py"],
        "paths": ["e2ebench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


def render_benchmark_json() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    target = ROOT / "BENCHMARK.json"
    target.write_text(render_benchmark_json())
    print(f"wrote {target.relative_to(ROOT)}", file=sys.stderr)
