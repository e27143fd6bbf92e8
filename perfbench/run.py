"""Benchmark entry point.

    python3 perfbench/run.py --workload suite-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

One run builds its inputs from ``--seed``, sets up, measures for
``--seconds`` seconds, checks every output against an independent
reference, prints each metric by name with its unit, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics,
taken from spans the benchmark records around calls into each layer,
and the Chrome trace is written to ``.perfbench/trace-<workload>.json``.
The end-to-end times are host-normalized reference seconds
(``common.HostClock``); the wall times behind them are printed too.

``--self-check`` runs every workload at tiny size, traced and untraced,
and fails unless every named metric is present and no output mismatched.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, WORK, load_spec, run_child, use_checkout_sources  # noqa: E402

#: workload name -> the module (in this directory) whose ``run`` measures it
WORKLOADS = {"cold-cli": "cold_cli", "suite-sweep": "sweep"}


def _import_probe(out) -> None:
    """Time ``import repro.cli`` in a fresh process and note whether it
    pulled in NumPy."""
    _, text, _ = run_child([str(ROOT / "perfbench" / "probe.py"), "import"])
    probe = json.loads(text.strip().splitlines()[-1])
    out.layers["cli.import_s"] = probe["import_s"]
    out.layers["cli.numpy_loaded"] = int(probe["numpy_loaded"])


def run_once(args) -> int:
    use_checkout_sources()
    from tracing import Tracer

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    tracer = Tracer(enabled=bool(args.trace))
    out = importlib.import_module(WORKLOADS[args.workload]).run(args, tracer)
    if args.trace:
        _import_probe(out)
        for layer, seconds in tracer.self_times().items():
            out.layers[f"{layer}.self_s"] = seconds
        out.layers["trace.spans"] = len(tracer.spans)
        WORK.mkdir(exist_ok=True)
        tracer.write_chrome(WORK / f"trace-{args.workload}.json")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = out.layers if args.trace else out.e2e
    metrics = {}
    for m in wanted:
        # a per-layer metric of a layer this workload never calls reads 0
        value = values.get(m["name"], 0 if args.trace else None)
        if value is None or not math.isfinite(value):
            raise SystemExit(f"perfbench: {args.workload} did not measure {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for line in out.notes:
        print(f"# {line}")
    for name, m in metrics.items():
        print(f"{args.workload}: {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


def self_check() -> int:
    """Every workload at tiny size, untraced and traced."""
    spec = load_spec()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", "7",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            lines = proc.stdout.strip().splitlines()
            tag = f"{workload} trace={trace}"
            print(f"self-check {tag}: rc={proc.returncode} {time.perf_counter() - t0:.1f}s")
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-1500:]}")
                continue
            result = json.loads(lines[-1])
            names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
            missing = names - set(result["metrics"])
            if missing:
                problems.append(f"{tag}: missing metrics {sorted(missing)}")
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{tag}: fail_frac {result['failed']}/{result['attempted']}")
                problems.extend(f"{tag}: {ln}" for ln in lines if ln.startswith("# MISMATCH"))
    for p in problems:
        print(f"SELF-CHECK FAILED {p}")
    print("self-check ok" if not problems else "self-check failed")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest sizes, one set-up (the self-check uses it)")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at tiny size and verify the result lines")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    return run_once(args)


if __name__ == "__main__":
    sys.exit(main())
