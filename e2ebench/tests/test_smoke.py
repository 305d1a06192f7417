"""Smoke tests of the end-to-end benchmark at tiny sizes.

Run from the repository root::

    python -m pytest -q e2ebench/tests
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from e2ebench import run, spec
from e2ebench.workloads import make_workloads, tail

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module", params=sorted(make_workloads(tiny=True)))
def traced(request, tmp_path_factory):
    workload = make_workloads(tiny=True)[request.param]
    workdir = tmp_path_factory.mktemp(request.param)
    return workload, workdir, run.measure(workload, 1, True, workdir)


def test_outputs_pass_their_checks(traced):
    _, _, m = traced
    assert m.failures == []
    assert m.attempted >= 2 and m.failed == 0


def test_every_metric_is_printed_with_its_unit(traced):
    _, _, m = traced
    line = m.result_line()
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert [n for n in line["metrics"]] == [x.name for x in spec.PER_LAYER]
    e2e = dataclasses.replace(m, per_layer=None).result_line()["metrics"]
    assert [n for n in e2e] == [x.name for x in spec.END_TO_END]
    for metrics in (line["metrics"], e2e):
        for name, entry in metrics.items():
            assert NAME.match(name), name
            assert UNIT.match(entry["unit"]), (name, entry)
            assert isinstance(entry["value"], float), (name, entry)
    for name, value in e2e.items():
        assert value["value"] > 0, name  # end-to-end metrics are never 0


def test_spans_are_closed_and_nested(traced):
    _, _, m = traced
    tracer = m.tracer
    assert tracer.open_spans == 0
    assert all(s.end is not None for s in tracer.spans)
    by_id = {s.span_id: s for s in tracer.spans}
    for span in tracer.spans:
        if span.parent is not None:
            parent = by_id[span.parent]
            assert parent.thread == span.thread
            assert parent.start <= span.start and span.end <= parent.end
    assert min(tracer.self_times().values()) >= 0.0


def test_chrome_trace_is_written(traced):
    workload, workdir, m = traced
    document = json.loads((workdir / f"trace-{workload.name}-seed1.json").read_text())
    events = document["traceEvents"]
    assert len(events) == len(m.tracer.spans)
    assert {e["ph"] for e in events} == {"X"}
    assert all(e["dur"] >= 0 and e["args"]["run"] for e in events)
    assert document["otherData"]["provenance"]["source_sha256"]


def test_layers_the_workload_exercises_are_timed(traced):
    workload, _, m = traced
    layer = m.per_layer
    expected = {
        "fit-hybrid": ["merge.s", "barrier.s", "eval.s", "mdl.s"],
        "fit-hsbp-pipes": ["serial.s", "wire.s", "wire.messages", "eval.s"],
        "stream-churn": ["stream.batch_s", "stream.delta_s", "stream.refit_s"],
        "service-mix": ["sampling.subfit_s", "store.hits", "queue.dedup", "http.requests"],
    }[workload.name]
    for name in expected:
        assert layer[name] > 0, name
    assert layer["http.errors"] == 0
    # the traced layer seconds match the program's own timers
    assert layer["merge.scan_s"] == pytest.approx(layer["phase.merge_scan_s"], rel=0.2, abs=0.02)
    assert layer["mcmc.s"] == pytest.approx(layer["phase.mcmc_s"], rel=0.2, abs=0.05)


def test_wrappers_are_removed_after_the_traced_run(traced):
    from repro.sbm.blockmodel import Blockmodel

    assert not hasattr(Blockmodel.mdl, "__wrapped__")
    assert not hasattr(Blockmodel.from_assignment, "__wrapped__")


def test_tail_is_the_interpolated_90th_percentile():
    assert tail([3.0]) == (3.0, 0)
    assert tail([1.0, 2.0]) == (pytest.approx(1.9), 1)
    values = [float(i) for i in range(101)]
    assert tail(values) == (90.0, 10)


def test_benchmark_json_matches_spec():
    text = (ROOT / "BENCHMARK.json").read_text()
    assert text == spec.render_benchmark_json()
    doc = json.loads(text)
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in doc["workloads"]]
    assert names == list(make_workloads()) == list(make_workloads(tiny=True))
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(0 < len(w["why"]) <= 200 for w in doc["workloads"])
    assert all(m["bound"] <= 0.25 for m in doc["end_to_end"])
    assert max(doc["end_to_end"], key=lambda m: m["bound"])["bound"] == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert all(m.layer and m.moves for m in spec.PER_LAYER)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "fit-hybrid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
