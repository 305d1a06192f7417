"""Unit tests for the bench harness and reporting layers."""

from __future__ import annotations

import pytest

from repro import DCSBMParams, SBPConfig, Variant, generate_dcsbm
from repro.bench.harness import (
    BenchScale,
    current_scale,
    run_variant_suite,
    speedup_rows,
)
from repro.bench.reporting import format_series, format_table, write_report


@pytest.fixture(scope="module")
def small_suite():
    graph, truth = generate_dcsbm(
        DCSBMParams(num_vertices=70, num_communities=3,
                    within_between_ratio=8.0, mean_degree=7.0),
        seed=3,
    )
    config = SBPConfig(max_sweeps=10)
    suite = run_variant_suite(
        "toy", graph, [Variant.SBP, Variant.HSBP], runs=2, seed=4, config=config
    )
    return graph, truth, suite


class TestScale:
    def test_default_smoke(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_SCALE", raising=False)
        assert current_scale() is BenchScale.SMOKE

    def test_paper_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "paper")
        assert current_scale() is BenchScale.PAPER
        assert BenchScale.PAPER.runs > BenchScale.SMOKE.runs

    def test_bad_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SCALE", "galactic")
        with pytest.raises(ValueError):
            current_scale()


@pytest.mark.slow
class TestVariantSuite:
    def test_best_of_selection(self, small_suite):
        _, _, suite = small_suite
        for run in suite.values():
            assert len(run.all_results) == 2
            assert run.best.mdl == min(r.mdl for r in run.all_results)

    def test_aggregate_times_sum_runs(self, small_suite):
        _, _, suite = small_suite
        run = suite["sbp"]
        assert run.total_mcmc_seconds == pytest.approx(
            sum(r.mcmc_seconds for r in run.all_results)
        )
        assert run.total_sweeps == sum(r.mcmc_sweeps for r in run.all_results)

    def test_row_fields(self, small_suite):
        graph, truth, suite = small_suite
        row = suite["h-sbp"].row(graph, truth)
        assert row["algorithm"] == "H-SBP"
        assert "NMI" in row and "MDL_norm" in row and "modularity" in row

    def test_speedup_rows(self, small_suite):
        _, _, suite = small_suite
        rows = speedup_rows({"toy": suite})
        assert len(rows) == 1
        assert rows[0]["H-SBP_speedup"] > 0

    def test_speedup_missing_baseline(self, small_suite):
        _, _, suite = small_suite
        trimmed = {k: v for k, v in suite.items() if k != "sbp"}
        with pytest.raises(KeyError):
            speedup_rows({"toy": trimmed})


class TestReporting:
    def test_format_table_alignment(self):
        rows = [
            {"graph": "S1", "NMI": 0.923456, "sweeps": 120},
            {"graph": "S22", "NMI": 0.1, "sweeps": 7},
        ]
        text = format_table(rows, title="demo")
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "graph" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="t")

    def test_format_table_column_subset(self):
        rows = [{"a": 1, "b": 2}]
        text = format_table(rows, columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_format_values(self):
        text = format_table([{"x": float("nan"), "y": True, "z": 12345.6}])
        assert "nan" in text
        assert "yes" in text
        assert "1.23e+04" in text

    def test_format_series_bars(self):
        text = format_series({1: 10.0, 2: 5.0, 4: 2.5}, title="scaling", unit="s")
        lines = text.splitlines()
        assert lines[0] == "scaling"
        assert lines[1].count("#") > lines[2].count("#") > lines[3].count("#")

    def test_format_series_empty(self):
        assert "(empty)" in format_series({})

    def test_write_report(self, tmp_path, capsys):
        out = write_report("unit", "hello\n", directory=tmp_path)
        assert out.read_text() == "hello\n"
        assert "hello" in capsys.readouterr().out


class TestExperimentHelpers:
    def test_table1_shape(self):
        from repro.bench.experiments import table1_rows

        rows = table1_rows(seed=0)
        assert len(rows) == 24
        assert rows[0]["ID"] == "S1"
        assert {r["r"] for r in rows} == {1.0, 3.0, 5.0}

    def test_table2_shape(self):
        from repro.bench.experiments import table2_rows

        rows = table2_rows(seed=0)
        assert len(rows) == 14
        for row in rows:
            assert row["standin_V"] < row["paper_V"]

    def test_smoke_ids_valid(self):
        from repro.bench.experiments import SMOKE_REAL_WORLD_IDS, SMOKE_SYNTHETIC_IDS
        from repro.generators.corpus import SYNTHETIC_SPECS
        from repro.generators.realworld import REAL_WORLD_SPECS

        assert set(SMOKE_SYNTHETIC_IDS) <= set(SYNTHETIC_SPECS)
        assert set(SMOKE_REAL_WORLD_IDS) <= set(REAL_WORLD_SPECS)


class TestGroupedBars:
    def test_structure_and_scale(self):
        from repro.bench.reporting import format_grouped_bars

        rows = [
            {"graph": "S2", "a": 1.0, "b": 0.5},
            {"graph": "S4", "a": 0.25, "b": 0.0},
        ]
        text = format_grouped_bars(rows, "graph", ["a", "b"], bar_width=20)
        lines = text.splitlines()
        assert lines[0] == "S2"
        # full-scale bar has 20 marks, half-scale 10
        assert lines[1].count("#") == 20
        assert lines[2].count("#") == 10
        assert lines[4].count("#") == 5
        assert lines[5].count("#") == 0

    def test_handles_nan_and_missing(self):
        from repro.bench.reporting import format_grouped_bars

        rows = [{"graph": "g", "a": float("nan")}]
        text = format_grouped_bars(rows, "graph", ["a", "b"])
        assert text.count("(n/a)") == 2

    def test_empty_rows(self):
        from repro.bench.reporting import format_grouped_bars

        assert "(no rows)" in format_grouped_bars([], "graph", ["a"])

    def test_vmax_caps_bars(self):
        from repro.bench.reporting import format_grouped_bars

        rows = [{"graph": "g", "a": 5.0}]
        text = format_grouped_bars(rows, "graph", ["a"], bar_width=10, vmax=1.0)
        assert text.splitlines()[1].count("#") == 10


class TestDisplayNames:
    def test_every_registered_variant_has_a_display_name(self):
        from repro.bench.harness import _display_name
        from repro.mcmc.engine import VARIANTS

        for variant in VARIANTS.names():
            name = _display_name(variant)
            assert name  # never empty
            # Registered variants render a styled label, not the raw key.
            assert name != variant or variant.isupper()

    def test_tiered_display_name(self):
        from repro.bench.harness import _display_name

        assert _display_name("tiered") == "Tiered-SBP"
        assert _display_name("b-sbp") == "B-SBP"
        assert _display_name("unregistered-thing") == "unregistered-thing"


class TestSuiteStore:
    def test_rebench_hits_store(self):
        import numpy as np

        from repro.service.store import MemoryResultStore

        graph, truth = generate_dcsbm(
            DCSBMParams(num_vertices=60, num_communities=3,
                        within_between_ratio=8.0, mean_degree=7.0),
            seed=3,
        )
        config = SBPConfig(max_sweeps=8)
        store = MemoryResultStore()
        first = run_variant_suite(
            "toy", graph, [Variant.SBP], runs=1, seed=4, config=config,
            store=store,
        )
        again = run_variant_suite(
            "toy", graph, [Variant.SBP], runs=1, seed=4, config=config,
            store=store,
        )
        assert store.stats.hits == 1 and store.stats.puts == 1
        a, b = first["sbp"], again["sbp"]
        assert a.best.mdl == b.best.mdl
        assert np.array_equal(a.best.assignment, b.best.assignment)
        # Cached rows report the original run's clock, bit-identically.
        assert a.total_mcmc_seconds == b.total_mcmc_seconds
