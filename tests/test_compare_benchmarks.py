"""Unit tests for the nightly benchmark regression detector
(``scripts/compare_benchmarks.py``) — previously exercised only by the
CI job itself."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = (Path(__file__).resolve().parent.parent
           / "scripts" / "compare_benchmarks.py")
_spec = importlib.util.spec_from_file_location("compare_benchmarks", _SCRIPT)
compare_benchmarks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_benchmarks)


def payload(mean: float, extra_info: dict | None = None,
            name: str = "bench::one") -> dict:
    return {"benchmarks": [{
        "fullname": name,
        "stats": {"mean": mean},
        "extra_info": extra_info or {},
    }]}


def write(tmp_path: Path, name: str, data: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestIterGauges:
    def test_finds_nested_speedups_and_throughputs(self):
        extra = {
            "engine": {"speedup": 3.1, "max_abs_diff": 0.0},
            "scheduler": {
                "ragged": {"speedup": 1.7,
                           "scheduler_regions_per_sec": 1700.0,
                           "sequential_regions_per_sec": 1000.0},
                "stats": {"buckets": {"n30/d360/float64":
                                      {"regions_per_sec": 950.0,
                                       "requests": 29}}},
            },
        }
        gauges = dict(compare_benchmarks.iter_gauges(extra))
        assert gauges == {
            "engine.speedup": 3.1,
            "scheduler.ragged.speedup": 1.7,
            "scheduler.ragged.scheduler_regions_per_sec": 1700.0,
            "scheduler.ragged.sequential_regions_per_sec": 1000.0,
            "scheduler.stats.buckets.n30/d360/float64.regions_per_sec": 950.0,
        }

    def test_ignores_non_gauge_numbers_and_bools(self):
        assert dict(compare_benchmarks.iter_gauges(
            {"padded": True, "seconds": 1.0, "speedup_note": 3.0})) == {}

    def test_latency_suffixes_are_a_separate_family(self):
        extra = {"frontend": {"latency": {"p50_latency": 0.002,
                                          "p99_latency": 0.009,
                                          "mean_seconds": 0.003},
                              "regions_per_sec": 5000.0}}
        lower = dict(compare_benchmarks.iter_gauges(
            extra, suffixes=compare_benchmarks.LOWER_GAUGE_SUFFIXES))
        assert lower == {"frontend.latency.p50_latency": 0.002,
                         "frontend.latency.p99_latency": 0.009}
        # The default (higher-is-better) walk must not pick them up.
        assert dict(compare_benchmarks.iter_gauges(extra)) == {
            "frontend.regions_per_sec": 5000.0}


class TestRegressionDetector:
    def test_wall_clock_regression_beyond_20_percent_flagged(self):
        rows, regressions = compare_benchmarks.compare(
            {"b": payload(1.0)["benchmarks"][0]},
            {"b": payload(1.25)["benchmarks"][0]},
            threshold=0.2)
        assert len(regressions) == 1
        assert "1.0000s -> 1.2500s" in regressions[0]

    def test_wall_clock_within_threshold_not_flagged(self):
        _, regressions = compare_benchmarks.compare(
            {"b": payload(1.0)["benchmarks"][0]},
            {"b": payload(1.19)["benchmarks"][0]}, threshold=0.2)
        assert regressions == []

    def test_gauge_drop_beyond_threshold_flagged(self):
        old = payload(1.0, {"serving": {"speedup": 2.9}})["benchmarks"][0]
        new = payload(1.0, {"serving": {"speedup": 2.0}})["benchmarks"][0]
        _, regressions = compare_benchmarks.compare({"b": old}, {"b": new},
                                                    threshold=0.2)
        assert len(regressions) == 1
        assert "serving.speedup" in regressions[0]

    def test_per_bucket_throughput_drop_flagged(self):
        bucket = "buckets.n30/d12x6/float64.regions_per_sec"
        old = payload(1.0, {"scheduler": {"buckets": {
            "n30/d12x6/float64": {"regions_per_sec": 1000.0}}}})
        new = payload(1.0, {"scheduler": {"buckets": {
            "n30/d12x6/float64": {"regions_per_sec": 700.0}}}})
        _, regressions = compare_benchmarks.compare(
            {"b": old["benchmarks"][0]}, {"b": new["benchmarks"][0]},
            threshold=0.2)
        assert len(regressions) == 1
        assert bucket in regressions[0]

    def test_latency_increase_beyond_threshold_flagged(self):
        old = payload(1.0, {"latency": {"p99_latency": 0.010}})
        new = payload(1.0, {"latency": {"p99_latency": 0.015}})
        rows, regressions = compare_benchmarks.compare(
            {"b": old["benchmarks"][0]}, {"b": new["benchmarks"][0]},
            threshold=0.2)
        assert len(regressions) == 1
        assert "latency.p99_latency" in regressions[0]
        assert "10.00ms -> 15.00ms" in regressions[0]

    def test_latency_decrease_is_an_improvement(self):
        old = payload(1.0, {"latency": {"p50_latency": 0.010,
                                        "p99_latency": 0.020}})
        new = payload(1.0, {"latency": {"p50_latency": 0.004,
                                        "p99_latency": 0.008}})
        rows, regressions = compare_benchmarks.compare(
            {"b": old["benchmarks"][0]}, {"b": new["benchmarks"][0]},
            threshold=0.2)
        assert regressions == []
        assert any("p50_latency" in r for r in rows)

    def test_zero_latency_baseline_skipped(self):
        old = payload(1.0, {"latency": {"p99_latency": 0.0}})
        new = payload(1.0, {"latency": {"p99_latency": 0.5}})
        rows, regressions = compare_benchmarks.compare(
            {"b": old["benchmarks"][0]}, {"b": new["benchmarks"][0]},
            threshold=0.2)
        assert regressions == []

    def test_gauge_improvement_not_flagged(self):
        old = payload(1.0, {"speedup": 2.0})["benchmarks"][0]
        new = payload(1.0, {"speedup": 3.0})["benchmarks"][0]
        rows, regressions = compare_benchmarks.compare({"b": old}, {"b": new},
                                                       threshold=0.2)
        assert regressions == []
        assert any("speedup" in r for r in rows)


class TestMain:
    def test_exit_codes_and_summary(self, tmp_path, capsys):
        baseline = write(tmp_path, "base.json",
                         payload(1.0, {"speedup": 2.0}))
        current = write(tmp_path, "cur.json",
                        payload(1.5, {"speedup": 1.0}))
        # Default: regressions are surfaced, exit 0 (nightly must not
        # fail on shared-runner noise).
        assert compare_benchmarks.main([str(baseline), str(current)]) == 0
        out = capsys.readouterr().out
        assert "2 regression(s) beyond 20%" in out
        assert ":warning:" in out
        # --fail-on-regression flips the exit code.
        assert compare_benchmarks.main(
            [str(baseline), str(current), "--fail-on-regression"]) == 1

    def test_clean_run(self, tmp_path, capsys):
        baseline = write(tmp_path, "base.json", payload(1.0))
        current = write(tmp_path, "cur.json", payload(1.0))
        assert compare_benchmarks.main([str(baseline), str(current)]) == 0
        assert "No regressions beyond 20%" in capsys.readouterr().out

    def test_disjoint_benchmarks(self, tmp_path, capsys):
        baseline = write(tmp_path, "base.json", payload(1.0, name="a"))
        current = write(tmp_path, "cur.json", payload(1.0, name="b"))
        assert compare_benchmarks.main([str(baseline), str(current)]) == 0
        assert "No overlapping benchmarks" in capsys.readouterr().out


class TestOneSidedBenchmarks:
    def test_missing_benchmark_and_new_gauge_listed(self, tmp_path, capsys):
        base = {"benchmarks": [
            payload(1.0, {"compiled": {"speedup": 2.1}},
                    name="bench::kept")["benchmarks"][0],
            payload(2.0, {"backend": {"speedup": 1.5}},
                    name="bench::gone")["benchmarks"][0]]}
        cur = payload(1.0, {"compiled": {"speedup": 2.1},
                            "serving": {"regions_per_sec": 900.0}},
                      name="bench::kept")
        baseline = write(tmp_path, "base.json", base)
        current = write(tmp_path, "cur.json", cur)
        rows = compare_benchmarks.unmatched(
            compare_benchmarks.load_benchmarks(baseline),
            compare_benchmarks.load_benchmarks(current))
        assert rows == [
            "| `bench::gone` | benchmark | missing from current run |",
            "| `bench::kept` | serving.regions_per_sec | new in current run |",
        ]
        assert compare_benchmarks.main([str(baseline), str(current)]) == 0
        out = capsys.readouterr().out
        assert "In only one run" in out
        assert "`bench::gone`" in out
        assert "No regressions beyond 20%" in out

    def test_disjoint_runs_list_both_sides(self, tmp_path, capsys):
        baseline = write(tmp_path, "base.json", payload(1.0, name="a"))
        current = write(tmp_path, "cur.json", payload(1.0, name="b"))
        assert compare_benchmarks.main([str(baseline), str(current)]) == 0
        out = capsys.readouterr().out
        assert "| `a` | benchmark | missing from current run |" in out
        assert "| `b` | benchmark | new in current run |" in out


class TestMissingBaseline:
    def test_falls_back_to_seed_baseline(self, tmp_path, capsys):
        seed = write(tmp_path, "seed.json", payload(1.0, {"speedup": 2.0}))
        current = write(tmp_path, "cur.json", payload(1.0, {"speedup": 2.1}))
        assert compare_benchmarks.main(
            [str(tmp_path / "missing.json"), str(current),
             "--seed-baseline", str(seed)]) == 0
        out = capsys.readouterr().out
        assert "committed seed baseline" in out
        assert "speedup" in out

    def test_no_baseline_at_all_is_explicit(self, tmp_path, capsys):
        current = write(tmp_path, "cur.json",
                        payload(1.0, {"serving": {"speedup": 2.9},
                                      "latency": {"p99_latency": 0.010}}))
        assert compare_benchmarks.main(
            [str(tmp_path / "missing.json"), str(current),
             "--seed-baseline", str(tmp_path / "also-missing.json")]) == 0
        out = capsys.readouterr().out
        assert "**No baseline**" in out
        assert "serving.speedup" in out       # gauges still surfaced
        assert "latency.p99_latency" in out
        assert "10.00ms" in out

    def test_committed_seed_baseline_exists_and_loads(self):
        assert compare_benchmarks.SEED_BASELINE.is_file(), (
            "benchmarks/baselines/benchmark-seed.json must be committed "
            "so a fresh clone's first nightly has a diff target")
        baseline = compare_benchmarks.load_benchmarks(
            compare_benchmarks.SEED_BASELINE)
        assert baseline, "seed baseline holds no benchmarks"
        gauges = [g for bench in baseline.values()
                  for g in compare_benchmarks.iter_gauges(
                      bench.get("extra_info", {}))]
        assert gauges, "seed baseline carries no speedup/throughput gauges"


class TestTopKernels:
    EXTRA = {"backend": {
        "speedup": 1.4,
        "top_kernels": [
            {"kernel": "F:matmul#12", "seconds": 0.0123, "bytes": 1048576},
            {"kernel": "B:fused_gate#3", "seconds": 0.0088, "bytes": 524288},
        ]}}

    def test_top_kernels_rendered_in_summary(self, tmp_path, capsys):
        baseline = write(tmp_path, "base.json", payload(1.0, self.EXTRA))
        current = write(tmp_path, "cur.json", payload(1.0, self.EXTRA))
        assert compare_benchmarks.main([str(baseline), str(current)]) == 0
        out = capsys.readouterr().out
        assert "Hottest replay kernels" in out
        assert "F:matmul#12" in out
        assert "0.0123s" in out

    def test_top_kernels_limited_to_five(self, capsys):
        many = {"profile": {"top_kernels": [
            {"kernel": f"F:op#{i}", "seconds": 0.01 - i * 1e-3, "bytes": 0}
            for i in range(8)]}}
        compare_benchmarks.print_top_kernels(
            {"b": {"extra_info": many}})
        out = capsys.readouterr().out
        assert "F:op#4" in out
        assert "F:op#5" not in out

    def test_no_top_kernels_no_section(self, capsys):
        compare_benchmarks.print_top_kernels({"b": {"extra_info": {}}})
        assert "Hottest" not in capsys.readouterr().out
