"""Unit tests for the CI benchmark-regression gate.

``benchmarks/check_regression.py`` is the only thing standing between a
perf regression and a green build, and until now it was itself
untested.  Covered here: metric collection from pytest-benchmark JSON,
missing/new metrics, the exact-threshold boundary semantics (a value
*at* the limit passes; one past it fails), the below-measurable-timing
branch, and ``--update`` rebaselining.
"""

import importlib.util
import json
import pathlib

import pytest

_MODPATH = pathlib.Path(__file__).parent.parent / "benchmarks" / "check_regression.py"
_spec = importlib.util.spec_from_file_location("check_regression", _MODPATH)
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)


def bench_json(names_means=None, extra=None):
    """A minimal pytest-benchmark --benchmark-json document."""
    benches = []
    for name, mean in (names_means or {}).items():
        benches.append({"name": name, "stats": {"mean": mean},
                        "extra_info": (extra or {}).get(name, {})})
    return {"benchmarks": benches}


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


BASE = {
    "gates": {"gates_optimized": 1000},
    "ratios": {"batch_speedup": 3.0, "vector_speedup": 1.5},
    "mean_seconds": {"test_x": 0.1},
}


def run_main(tmp_path, current, baseline=BASE, argv_extra=()):
    bench = write(tmp_path, "bench.json", current)
    basefile = write(tmp_path, "baseline.json", baseline)
    return check_regression.main([bench, "--baseline", basefile, *argv_extra])


def current_doc(gates=1000, batch=3.0, vector=1.5, mean=0.1):
    return bench_json(
        {"test_x": mean, "test_gates": 1e-6, "test_ratio": 1e-6},
        extra={
            "test_gates": {"gates_optimized": gates},
            "test_ratio": {"batch_speedup": batch, "vector_speedup": vector},
        },
    )


class TestCollect:
    def test_collect_classifies_extra_info(self):
        got = check_regression.collect(current_doc())
        assert got["gates"] == {"gates_optimized": 1000}
        assert got["ratios"] == {"batch_speedup": 3.0, "vector_speedup": 1.5}
        # stub benchmarks (attach-only lambdas) stay out of the timing gate
        assert got["mean_seconds"] == {"test_x": 0.1}
        assert set(got["names"]) == {"test_x", "test_gates", "test_ratio"}

    def test_optimized_signal_count_is_a_gated_count(self):
        """The optimizer's comb-signal census on the processor gates
        like the cell counts: machine-independent, must not grow."""
        assert "opt_comb_signals" in check_regression.GATE_KEYS
        doc = bench_json({"test_opt": 0.2},
                         extra={"test_opt": {"opt_comb_signals": 7023}})
        assert check_regression.collect(doc)["gates"] == {"opt_comb_signals": 7023}

    def test_vector_speedup_is_a_gated_ratio(self):
        assert "vector_speedup" in check_regression.RATIO_KEYS

    def test_compaction_speedup_is_a_gated_ratio(self):
        """The skewed-suite compaction ratio gates like the other
        machine-relative speedups; its companion diagnostic
        (occupancy) rides along in extra_info but is informational
        only."""
        assert "compaction_speedup" in check_regression.RATIO_KEYS
        doc = bench_json(
            {"test_skew": 1e-6},
            extra={"test_skew": {"compaction_speedup": 1.7,
                                 "occupancy": 0.41}},
        )
        got = check_regression.collect(doc)
        assert got["ratios"] == {"compaction_speedup": 1.7}
        assert "occupancy" not in got["gates"]

    def test_warm_start_speedup_is_a_gated_ratio(self):
        """The artifact-store warm-start ratio gates like the other
        machine-relative speedups; its companion diagnostic
        (warm_start_ms) is informational only."""
        assert "warm_start_speedup" in check_regression.RATIO_KEYS
        doc = bench_json(
            {"test_warm": 1e-6},
            extra={"test_warm": {"warm_start_speedup": 6.1,
                                 "warm_start_ms": 150.0}},
        )
        got = check_regression.collect(doc)
        assert got["ratios"] == {"warm_start_speedup": 6.1}
        assert "warm_start_ms" not in got["gates"]

    def test_fleet_speedup_is_a_gated_ratio(self):
        """The multiprocess fleet ratio gates like the other
        machine-relative speedups; its companion diagnostics
        (fleet_lane_cycles_per_sec, fleet_occupancy) are informational
        only."""
        assert "fleet_speedup" in check_regression.RATIO_KEYS
        doc = bench_json(
            {"test_fleet": 1e-6},
            extra={"test_fleet": {"fleet_speedup": 2.4,
                                  "fleet_lane_cycles_per_sec": 500000,
                                  "fleet_occupancy": 0.99}},
        )
        got = check_regression.collect(doc)
        assert got["ratios"] == {"fleet_speedup": 2.4}
        assert "fleet_occupancy" not in got["gates"]

    def test_fleet_ratio_below_floor_fails(self, tmp_path, capsys):
        base = {k: dict(v) for k, v in BASE.items()}
        base["ratios"]["fleet_speedup"] = 2.0
        doc = current_doc()
        doc["benchmarks"][2]["extra_info"]["fleet_speedup"] = 1.59
        assert run_main(tmp_path, doc, baseline=base) == 1  # floor 1.6
        assert "fleet_speedup" in capsys.readouterr().out
        doc["benchmarks"][2]["extra_info"]["fleet_speedup"] = 1.6
        assert run_main(tmp_path, doc, baseline=base) == 0

    def test_warm_start_ratio_below_floor_fails(self, tmp_path, capsys):
        base = {k: dict(v) for k, v in BASE.items()}
        base["ratios"]["warm_start_speedup"] = 5.0
        doc = current_doc()
        doc["benchmarks"][2]["extra_info"]["warm_start_speedup"] = 3.9
        assert run_main(tmp_path, doc, baseline=base) == 1  # floor 4.0
        assert "warm_start_speedup" in capsys.readouterr().out
        doc["benchmarks"][2]["extra_info"]["warm_start_speedup"] = 4.0
        assert run_main(tmp_path, doc, baseline=base) == 0

    def test_compaction_ratio_below_floor_fails(self, tmp_path, capsys):
        base = {k: dict(v) for k, v in BASE.items()}
        base["ratios"]["compaction_speedup"] = 1.6
        doc = current_doc()
        doc["benchmarks"][2]["extra_info"]["compaction_speedup"] = 1.27
        assert run_main(tmp_path, doc, baseline=base) == 1  # floor 1.28
        assert "compaction_speedup" in capsys.readouterr().out
        doc["benchmarks"][2]["extra_info"]["compaction_speedup"] = 1.28
        assert run_main(tmp_path, doc, baseline=base) == 0


class TestMissingAndNewMetrics:
    def test_missing_gate_metric_fails(self, tmp_path, capsys):
        doc = current_doc()
        doc["benchmarks"][1]["extra_info"] = {}
        assert run_main(tmp_path, doc) == 1
        assert "gates_optimized missing" in capsys.readouterr().out

    def test_missing_ratio_fails(self, tmp_path, capsys):
        doc = current_doc()
        doc["benchmarks"][2]["extra_info"] = {"batch_speedup": 3.0}
        assert run_main(tmp_path, doc) == 1
        assert "vector_speedup missing" in capsys.readouterr().out

    def test_missing_timing_fails(self, tmp_path, capsys):
        doc = current_doc()
        doc["benchmarks"] = [b for b in doc["benchmarks"] if b["name"] != "test_x"]
        assert run_main(tmp_path, doc) == 1
        assert "test_x missing" in capsys.readouterr().out

    def test_new_metric_not_in_baseline_is_ignored(self, tmp_path):
        doc = current_doc()
        doc["benchmarks"][2]["extra_info"]["brand_new_ratio"] = 9.9
        doc["benchmarks"].append(
            {"name": "test_new", "stats": {"mean": 5.0}, "extra_info": {}}
        )
        assert run_main(tmp_path, doc) == 0

    def test_below_threshold_timing_counts_as_improvement(self, tmp_path, capsys):
        # the benchmark still ran but finished under the stub filter
        doc = current_doc()
        doc["benchmarks"][0]["stats"]["mean"] = 1e-6
        assert run_main(tmp_path, doc) == 0
        assert "below measurable threshold" in capsys.readouterr().out


class TestThresholdBoundaries:
    def test_gates_exactly_at_limit_pass(self, tmp_path):
        assert run_main(tmp_path, current_doc(gates=1200)) == 0  # 1000 * 1.20

    def test_gates_one_past_limit_fail(self, tmp_path):
        assert run_main(tmp_path, current_doc(gates=1201)) == 1

    def test_ratio_exactly_at_floor_passes(self, tmp_path):
        assert run_main(tmp_path, current_doc(vector=1.2)) == 0  # 1.5 * 0.80

    def test_ratio_below_floor_fails(self, tmp_path, capsys):
        assert run_main(tmp_path, current_doc(vector=1.19)) == 1
        assert "vector_speedup" in capsys.readouterr().out

    def test_timing_at_throughput_limit_passes(self, tmp_path):
        assert run_main(tmp_path, current_doc(mean=0.3)) == 0  # 0.1 * 3.0

    def test_timing_past_throughput_limit_fails(self, tmp_path):
        assert run_main(tmp_path, current_doc(mean=0.30001)) == 1

    def test_strict_gates_timings_at_tolerance(self, tmp_path):
        assert run_main(tmp_path, current_doc(mean=0.121), argv_extra=["--strict"]) == 1
        assert run_main(tmp_path, current_doc(mean=0.119), argv_extra=["--strict"]) == 0


class TestUpdate:
    def test_update_rewrites_baseline_without_names(self, tmp_path):
        bench = write(tmp_path, "bench.json", current_doc(gates=777, vector=9.0))
        basefile = tmp_path / "baseline.json"
        basefile.write_text(json.dumps(BASE))
        assert check_regression.main(
            [bench, "--baseline", str(basefile), "--update"]
        ) == 0
        snap = json.loads(basefile.read_text())
        assert snap["gates"]["gates_optimized"] == 777
        assert snap["ratios"]["vector_speedup"] == 9.0
        assert "names" not in snap

    def test_updated_baseline_round_trips(self, tmp_path):
        bench = write(tmp_path, "bench.json", current_doc())
        basefile = tmp_path / "baseline.json"
        basefile.write_text(json.dumps(BASE))
        check_regression.main([bench, "--baseline", str(basefile), "--update"])
        assert check_regression.main([bench, "--baseline", str(basefile)]) == 0


@pytest.mark.parametrize("key", ["gates", "ratios", "mean_seconds"])
def test_empty_baseline_section_is_fine(tmp_path, key):
    base = {k: dict(v) for k, v in BASE.items()}
    base[key] = {}
    assert run_main(tmp_path, current_doc(), baseline=base) == 0
