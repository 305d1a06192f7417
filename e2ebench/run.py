"""End-to-end benchmark of the repro partitioner: one command, four workloads.

Run from the repository root::

    python3 e2ebench/run.py --workload fit-hybrid --seed 1 --seconds 25 --trace 0

``--seed`` makes the workload's graphs; fit seeds stay fixed. Set-up runs
at least ``SETUP_REPEATS`` times and ``setup_s`` is the median. A small
warm-up job, untimed, goes through the same engines; the timed phase
then runs with tracing off and yields the end-to-end metrics. The timed
phase is a fixed amount of work per workload, sized to take about
``RUN_SECONDS`` on a 2-core x86 host, so that two versions of the
program are timed on the same work; ``--seconds`` is recorded, not used
to size it. With ``--trace 1`` a
second timed phase runs on a fresh set-up with every layer entry point
wrapped, and the per-layer metrics come from its spans; the trace is
written as Chrome trace-event JSON under ``.e2ebench/``.

Human-readable tables and provenance go to stderr; the last stdout line
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``. The
exit code is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".e2ebench"


def _fail(message: str) -> None:
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    """Put the checkout's own ``src/`` first on the path, or refuse to run."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no program to measure: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(ROOT))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        _fail(f"imported repro from {repro.__file__}, not from {src}")


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(info: dict) -> dict:
    """What ran, on what: the program version, engine choices and machine."""
    import numpy as np

    from repro.sbm.kernels import jit_status

    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "workload": info,
        "jit": jit_status(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
    }


def _metric_table(title: str, rows: list[tuple[str, float, str, str]]) -> str:
    lines = [title]
    for name, value, unit, note in rows:
        lines.append(f"  {name:<24} {value:>14.6g} {unit:<6} {note}")
    return "\n".join(lines)


@dataclass
class Measurement:
    """One run's metrics, checks and, when traced, its tracer."""

    end_to_end: dict[str, float]
    per_layer: dict[str, float] | None
    attempted: int
    failures: list[str]
    failed: int
    provenance: dict
    tracer: object | None = None

    def result_line(self) -> dict:
        """The benchmark's result object (per-layer metrics when traced)."""
        from e2ebench import spec

        if self.per_layer is not None:
            chosen, table = spec.PER_LAYER, self.per_layer
        else:
            chosen, table = spec.END_TO_END, self.end_to_end
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {m.name: {"value": table[m.name], "unit": m.unit} for m in chosen},
        }


def measure(workload, seed: int, trace: bool, workdir: Path = WORKDIR) -> Measurement:
    """Set up, time with tracing off, check; then, if ``trace``, time a
    traced phase on a fresh set-up and derive the per-layer metrics."""
    from repro.utils.memory import peak_rss_bytes

    from e2ebench import layers, spec
    from e2ebench.tracing import Tracer
    from e2ebench.workloads import tail

    workdir.mkdir(exist_ok=True)
    setup_times: list[float] = []
    state = None
    # A traced run reports no setup_s, so it sets up once; a cheap set-up
    # runs more often, so its median is steadier.
    while not setup_times or (
        not trace and len(setup_times) < spec.SETUP_REPEATS_MAX
        and (len(setup_times) < spec.SETUP_REPEATS or sum(setup_times) < spec.SETUP_BUDGET_S)
    ):
        if state is not None:
            state.close()
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        setup_times.append(time.perf_counter() - t0)
    try:
        workload.warmup(state)
        gc.collect()
        cpu0 = _cpu_s()
        outcome = workload.run(state, None)
        cpu_untraced = _cpu_s() - cpu0
    finally:
        state.close()
    peak_rss = peak_rss_bytes() / 2**20
    info = dict(outcome.info)
    info["seed"] = seed
    info["setup_s_each"] = setup_times
    prov = provenance(info)

    lat_tail, beyond = tail(outcome.latencies)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "wall_s": outcome.wall_s,
        "peak_rss_mb": peak_rss,
        "nmi": outcome.nmi,
        "mdl_norm": outcome.mdl_norm,
        "latency_mean_s": statistics.mean(outcome.latencies),
        "latency_tail_s": lat_tail,
        "ops_per_s": outcome.operations / outcome.elapsed_s,
    }
    units = {m.name: m.unit for m in spec.END_TO_END}
    notes = {
        "latency_mean_s": f"n={len(outcome.latencies)}, "
                          f"median {statistics.median(outcome.latencies):.4g} s",
        "ops_per_s": f"{outcome.operations} operations",
        "latency_tail_s": f"n={len(outcome.latencies)}, {beyond} samples beyond",
        "wall_s": f"cpu {cpu_untraced:.2f} s, cores {cpu_untraced / outcome.elapsed_s:.2f}",
    }
    print(_metric_table(
        f"{workload.name} seed={seed}: end-to-end (tracing off)",
        [(n, v, units[n], notes.get(n, "")) for n, v in end_to_end.items()],
    ), file=sys.stderr)
    measurement = Measurement(
        end_to_end=end_to_end,
        per_layer=None,
        attempted=outcome.attempted,
        failures=list(outcome.failures),
        failed=outcome.failed,
        provenance=prov,
    )
    if not trace:
        return measurement

    tracer = Tracer()
    state = workload.setup(seed, workdir)
    try:
        gc.collect()
        layers.install(tracer)
        cpu0 = _cpu_s()
        with tracer.span(f"workload.{workload.name}", run=f"{workload.name}-seed{seed}"):
            traced = workload.run(state, tracer)
        cpu_traced = _cpu_s() - cpu0
    finally:
        tracer.unwrap_all()
        state.close()
    measurement.tracer = tracer
    measurement.attempted += traced.attempted
    measurement.failed += traced.failed
    measurement.failures += traced.failures
    per_layer = measurement.per_layer = layers.layer_metrics(
        tracer, elapsed_s=traced.elapsed_s, wall_s=traced.wall_s,
        untraced_wall_s=outcome.wall_s, cpu_s=cpu_traced,
    )
    trace_path = workdir / f"trace-{workload.name}-seed{seed}.json"
    document = tracer.chrome_trace()
    document["otherData"] = {"provenance": prov, "storage": tracer.notes.get("storage")}
    trace_path.write_text(json.dumps(document))
    print(_metric_table(
        f"{workload.name} seed={seed}: per layer (traced; trace in {trace_path})",
        [(m.name, per_layer[m.name], m.unit, m.moves) for m in spec.PER_LAYER],
    ), file=sys.stderr)
    print(_agreement(per_layer, traced.elapsed_s), file=sys.stderr)
    return measurement


def _agreement(per_layer: dict[str, float], wall_s: float) -> str:
    """Traced layer seconds against the program's own PhaseTimings."""
    overhead = abs(per_layer["trace.overhead_s"])
    lines = [f"traced vs PhaseTimings (tracing overhead {per_layer['trace.overhead_s']:+.3f} s)"]
    for traced, own in (("merge.scan_s", "phase.merge_scan_s"),
                        ("barrier.s", "phase.barrier_apply_s"),
                        ("mcmc.s", "phase.mcmc_s")):
        diff = per_layer[traced] - per_layer[own]
        verdict = "within overhead" if abs(diff) <= overhead else "beyond overhead"
        lines.append(f"  {traced:<14} {per_layer[traced]:9.3f} s  {own:<22} "
                     f"{per_layer[own]:9.3f} s  diff {diff:+.3f} s  {verdict}")
    for name in ("barrier.s", "serial.s", "merge.s", "eval.s", "wire.s"):
        lines.append(f"  share of wall: {name:<10} {per_layer[name] / wall_s:7.1%}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    # Temporary files of the program and its helpers stay in the checkout.
    WORKDIR.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(WORKDIR)
    import tempfile

    tempfile.tempdir = str(WORKDIR)

    from e2ebench.workloads import make_workloads

    workloads = make_workloads()
    if args.workload not in workloads:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")
    measurement = measure(workloads[args.workload], args.seed, bool(args.trace))
    measurement.provenance["workload"]["seconds"] = args.seconds
    print(json.dumps({"provenance": measurement.provenance}))
    for failure in measurement.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(measurement.result_line()))
    return 0 if measurement.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
