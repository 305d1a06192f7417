"""Which public calls of each layer the traced run wraps, and the
per-layer metrics derived from the spans and counts they record.

Every wrap names the attribute the *caller* looks up: a function
imported into another module with ``from ... import`` is wrapped in the
importing module (``fit_session.block_merge_phase``, not
``merge.block_merge_phase``), a method on the class that defines it.
"""

from __future__ import annotations

import time
from collections import defaultdict

from e2ebench.tracing import Span, Tracer

__all__ = ["install", "layer_metrics"]


def _rss_mb() -> float:
    from repro.utils.memory import peak_rss_bytes

    return peak_rss_bytes() / 2**20


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer table times."""
    from repro.core import fit_session
    from repro.distributed.runtime import DistributedBackend
    from repro.mcmc import engine
    from repro.parallel.merge import SerialMergeBackend, VectorizedMergeBackend
    from repro.parallel.vectorized import VectorizedBackend
    from repro.sampling import pipeline
    from repro.sbm.blockmodel import Blockmodel
    from repro.sbm.incremental import IncrementalUpdater
    from repro.service import jobs, orchestrator
    from repro.service.queue import LeaseQueue
    from repro.service.store import ResultStore
    from repro.streaming import session

    t = tracer
    wrap = tracer.wrap

    # core.fit_session
    def fit_done(span, args, kwargs, result):
        t.count("fit.outer_iterations", result.outer_iterations)
        span.args["sweeps"] = result.mcmc_sweeps
        for name in ("merge_scan", "barrier_apply", "mcmc"):
            t.count(f"phase.{name}_s", getattr(result.timings, name))

    wrap(fit_session.FitSession, "run", "fit.run", after=fit_done)
    wrap(fit_session.FitSession, "cold_fit", "fit.cold")
    wrap(fit_session.FitSession, "warm_refit", "fit.warm",
         after=lambda span, a, k, r: span.args.update(sweeps=r.mcmc_sweeps))

    # core.merge, parallel.merge
    wrap(fit_session, "block_merge_phase", "merge.phase")
    for cls in (SerialMergeBackend, VectorizedMergeBackend):
        wrap(cls, "evaluate_merges", "merge.scan",
             before=lambda span, a, k: t.count("merge.blocks_scanned", a[1].num_blocks))

    # mcmc.engine, mcmc.metropolis
    def phase_done(span, args, kwargs, result):
        state = args[1].state
        t.high_water("storage.bytes_peak_mb", state.memory_bytes() / 1e6)

    wrap(engine.SweepEngine, "run_phase", "mcmc.phase", after=phase_done)
    wrap(engine.SweepEngine, "run_sweep", "mcmc.sweep")

    def serial_done(span, args, kwargs, stats):
        t.count("serial.proposals", stats.proposals)
        t.count("serial.accepted", stats.accepted)

    wrap(engine, "metropolis_sweep", "serial.sweep", after=serial_done)

    # parallel, distributed
    def eval_done(span, args, kwargs, result):
        t.count("eval.vertices", len(args[3]))
        t.count("eval.accepted", int(result[0].sum()))

    wrap(VectorizedBackend, "evaluate_sweep", "eval.sweep", after=eval_done)
    wrap(DistributedBackend, "evaluate_sweep", "wire.sweep")

    def wire_report(span, args, kwargs, report):
        t.count("wire.messages", report.get("p2p_messages", 0))
        t.count("wire.bytes", report.get("total_bytes", 0))
        t.count("wire.retries", report.get("retries", 0))

    wrap(DistributedBackend, "comm_report", "wire.report", after=wire_report)

    # sbm.incremental, sbm.blockmodel, sbm.block_storage
    wrap(IncrementalUpdater, "apply_sweep", "barrier.apply",
         before=lambda span, a, k: t.count("barrier.moved", len(a[3])))

    def mdl_before(span, args, kwargs):
        span.args["rss0"] = _rss_mb()

    def mdl_done(span, args, kwargs, result):
        t.high_water("mdl.rss_step_mb", _rss_mb() - span.args.pop("rss0"))

    wrap(Blockmodel, "mdl", "mdl.eval", before=mdl_before, after=mdl_done)
    wrap(Blockmodel, "from_assignment", "rebuild.from_assignment")
    wrap(Blockmodel, "compact", "compact")
    wrap(Blockmodel, "apply_edge_delta", "stream.delta")

    def storage_done(span, args, kwargs, result):
        engine_name, reason = result
        t.count("storage.resolves")
        t.count("storage.hybrid", engine_name == "hybrid")
        t.notes.setdefault("storage", {})[f"{args[0]} V={args[1]} E={args[2]}"] = {
            "engine": engine_name, "reason": reason,
        }

    wrap(fit_session, "resolve_block_storage", "storage.resolve", after=storage_done)

    # sampling
    wrap(pipeline, "run_sampled_sbp", "sampling.run")
    wrap(pipeline, "sample_graph", "sampling.sample")
    wrap(pipeline, "extend_assignment", "sampling.extend")

    # streaming, graph.stream
    wrap(session.StreamSession, "run", "stream.run")
    wrap(session, "apply_edge_batch", "stream.batch")
    wrap(session, "drift_value", "stream.drift")

    # service.jobs, service.store
    def job_done(span, args, kwargs, outcome):
        span.run = outcome.digest
        store = kwargs.get("store", args[1] if len(args) > 1 else None)
        if store is not None:
            t.count("store.hits" if outcome.cache_hit else "store.misses")

    for module in (jobs, orchestrator):
        wrap(module, "execute_job", "jobs.execute", after=job_done)
    wrap(jobs.JobSpec, "digest", "jobs.digest")
    wrap(ResultStore, "get", "store.get")
    wrap(ResultStore, "put", "store.put")

    # service.queue
    submitted: dict[str, float] = {}
    leased: set[str] = set()

    def submit_done(span, args, kwargs, job_id):
        span.run = job_id
        if job_id in submitted:
            t.count("queue.dedup")
        else:
            submitted[job_id] = span.start

    def lease_done(span, args, kwargs, job):
        if job is None:
            return
        span.run = job.job_id
        t.count("queue.leases")
        if job.job_id not in leased and job.job_id in submitted:
            leased.add(job.job_id)
            t.count("queue.waited")
            t.count("queue.wait_total_s", time.perf_counter() - submitted[job.job_id])

    wrap(LeaseQueue, "submit", "queue.submit", after=submit_done)
    wrap(LeaseQueue, "lease", "queue.lease", after=lease_done)
    wrap(LeaseQueue, "complete", "queue.complete")


def layer_metrics(
    tracer: Tracer, *, elapsed_s: float, wall_s: float, untraced_wall_s: float, cpu_s: float
) -> dict[str, float]:
    """Every per-layer metric of :data:`e2ebench.spec.PER_LAYER`.

    ``elapsed_s`` and ``cpu_s`` cover the whole traced phase; ``wall_s``
    and ``untraced_wall_s`` are one unit's wall time with tracing on and
    off, whose difference is the tracing overhead.
    """
    spans = tracer.spans
    by_id = {s.span_id: s for s in spans}
    self_s = tracer.self_times()
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    own: dict[str, float] = defaultdict(float)
    for span in spans:
        total[span.name] += span.duration
        calls[span.name] += 1
        own[span.name] += self_s[span.span_id]

    def under(span: Span, name: str) -> bool:
        return any(a.name == name for a in tracer.ancestors(span, by_id))

    barrier_in_phase = sum(
        s.duration for s in spans if s.name == "barrier.apply" and under(s, "mcmc.phase")
    )
    sampled_cold = [s for s in spans if s.name == "fit.cold" and under(s, "sampling.run")]
    sampled_warm = [s for s in spans if s.name == "fit.warm" and under(s, "sampling.run")]
    stream_warm = [s for s in spans if s.name == "fit.warm" and under(s, "stream.run")]
    stream_cold = [s for s in spans if s.name == "fit.cold" and under(s, "stream.run")]
    c = tracer.counts
    store_gets = c["store.hits"] + c["store.misses"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {
        "fit.searches": calls["fit.run"],
        "fit.outer_iterations": c["fit.outer_iterations"],
        "fit.self_s": own["fit.run"],
        "merge.calls": calls["merge.phase"],
        "merge.s": total["merge.phase"],
        "merge.scan_s": total["merge.scan"],
        "merge.apply_s": total["merge.phase"] - total["merge.scan"],
        "merge.blocks_scanned": c["merge.blocks_scanned"],
        "mcmc.phases": calls["mcmc.phase"],
        "mcmc.sweeps": calls["mcmc.sweep"],
        "mcmc.s": total["mcmc.phase"] - barrier_in_phase,
        "mcmc.self_s": own["mcmc.phase"] + own["mcmc.sweep"],
        "serial.s": total["serial.sweep"],
        "serial.proposals": c["serial.proposals"],
        "serial.accepted": c["serial.accepted"],
        "serial.accept_ratio": ratio(c["serial.accepted"], c["serial.proposals"]),
        "eval.calls": calls["eval.sweep"],
        "eval.s": total["eval.sweep"],
        "eval.vertices": c["eval.vertices"],
        "eval.accepted": c["eval.accepted"],
        "eval.accept_ratio": ratio(c["eval.accepted"], c["eval.vertices"]),
        "wire.s": own["wire.sweep"],
        "wire.messages": c["wire.messages"],
        "wire.bytes": c["wire.bytes"],
        "wire.retries": c["wire.retries"],
        "barrier.calls": calls["barrier.apply"],
        "barrier.s": total["barrier.apply"],
        "barrier.moved": c["barrier.moved"],
        "mdl.calls": calls["mdl.eval"],
        "mdl.s": total["mdl.eval"],
        "mdl.rss_step_mb": tracer.maxima["mdl.rss_step_mb"],
        "rebuild.s": total["rebuild.from_assignment"],
        "compact.s": total["compact"],
        "storage.hybrid_share": ratio(c["storage.hybrid"], c["storage.resolves"]),
        "storage.bytes_peak_mb": tracer.maxima["storage.bytes_peak_mb"],
        "sampling.sample_s": total["sampling.sample"],
        "sampling.subfit_s": sum(s.duration for s in sampled_cold),
        "sampling.extend_s": total["sampling.extend"],
        "sampling.finetune_s": sum(s.duration for s in sampled_warm),
        "stream.batch_s": total["stream.batch"],
        "stream.delta_s": total["stream.delta"],
        "stream.drift_s": total["stream.drift"],
        "stream.refit_s": sum(s.duration for s in stream_warm),
        "stream.refit_sweeps": sum(s.args.get("sweeps", 0) for s in stream_warm),
        "stream.warm_refits": len(stream_warm),
        "stream.cold_fits": len(stream_cold),
        "jobs.execute_s": total["jobs.execute"],
        "jobs.digest_s": total["jobs.digest"],
        "store.hits": c["store.hits"],
        "store.misses": c["store.misses"],
        "store.hit_ratio": ratio(c["store.hits"], store_gets),
        "store.get_s": total["store.get"],
        "store.put_s": total["store.put"],
        "store.bytes": c["store.bytes"],
        "queue.wait_s": ratio(c["queue.wait_total_s"], c["queue.waited"]),
        "queue.leases": c["queue.leases"],
        "queue.expirations": c["queue.expirations"],
        "queue.dedup": c["queue.dedup"],
        "http.requests": c["http.requests"],
        "http.submit_s": total["http.submit"],
        "http.status_s": total["http.status"],
        "http.result_s": total["http.result"],
        "http.errors": c["http.errors"],
        "cpu_s": cpu_s,
        "cores_used": ratio(cpu_s, elapsed_s),
        "phase.merge_scan_s": c["phase.merge_scan_s"],
        "phase.barrier_apply_s": c["phase.barrier_apply_s"],
        "phase.mcmc_s": c["phase.mcmc_s"],
        "trace.spans": len(spans),
        "trace.overhead_s": wall_s - untraced_wall_s,
        "trace.overhead_frac": ratio(wall_s - untraced_wall_s, untraced_wall_s),
    }
    return {name: float(value) for name, value in metrics.items()}
