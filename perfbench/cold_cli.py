"""``cold-cli``: fresh ``python -m repro simulate`` processes on the
generated processor source, the flow where users wait.

One round runs three kinds of process back to back:

* ``sim`` -- scalar, ``-n 500``: import, the ``sapper`` front end, the
  optimizer, scalar codegen and 500 steps;
* ``batch`` -- ``--lanes 256 -n 100``: the same build, then the NumPy
  vector engine's codegen and 100 steps of 256 lanes;
* ``store`` -- scalar with ``--store`` over a store filled during
  set-up: compile and optimize are store reads, so this kind bypasses
  the front end and the optimizer.

Every process's printed summary is checked against an unoptimized
scalar simulator of the raw compiled processor (the processor runs
from empty memory, so every lane must match the one scalar run).

The traced run also drives a warm server (``server_mix.py``), so the
server, toolchain and analyze layers are measured here.
"""

from __future__ import annotations

import ast
import json
import re
import time

from common import ROOT, HostClock, Outcome, fresh_dir, median, run_child, timed_setups

KINDS = ("sim", "batch", "store")
#: simulated cycles per kind: the workload is about start-up, so the
#: 256-lane process runs fewer cycles than the scalar ones
CYCLES = {"sim": 500, "batch": 100, "store": 500}
#: medians need this many rounds, however long they take
MIN_ROUNDS = 3
_SCALAR = re.compile(r"^# (\d+) cycles, (\d+) violation cycle\(s\), final outputs: (\{.*\})$")
_LANE = re.compile(r"^# lane (\d+): (\d+) violation cycle\(s\), final outputs: (\{.*\})$")


class _Setup:
    """The processor source on disk and a store holding its compiled and
    optimized artifacts."""

    def __init__(self, tracer):
        from repro.lattice import two_level
        from repro.proc.design import generate_design
        from repro.store import ArtifactStore
        from repro.toolchain import Toolchain

        work = fresh_dir("cold-cli")
        self.path = work / "proc.sapper"
        self.source = generate_design(two_level())
        self.path.write_text(self.source)
        self.store_dir = work / "store"
        store = ArtifactStore(self.store_dir)
        if tracer.enabled:
            from layers import traced_store

            traced_store(store, tracer)
        self.store = store
        tc = Toolchain(store=store)
        self.design = tc.compile(self.source, two_level(), name=self.path.stem)
        tc.optimize(self.design)


def _argv(kind: str, setup: _Setup, cycles: int, lanes: int) -> list[str]:
    argv = ["-m", "repro", "simulate", str(setup.path), "-n", str(cycles), "--quiet"]
    if kind == "batch":
        argv += ["--lanes", str(lanes)]
    elif kind == "store":
        argv += ["--store", str(setup.store_dir)]
    return argv


def _parse(kind: str, text: str, lanes: int) -> tuple[list[int], list[dict]] | None:
    """(violations, final outputs) per lane from a summary, or None."""
    lines = text.strip().splitlines()
    if kind != "batch":
        m = _SCALAR.match(lines[-1]) if lines else None
        return ([int(m.group(2))], [ast.literal_eval(m.group(3))]) if m else None
    found = {}
    for line in lines:
        m = _LANE.match(line)
        if m:
            found[int(m.group(1))] = (int(m.group(2)), ast.literal_eval(m.group(3)))
    if sorted(found) != list(range(lanes)):
        return None
    return [found[i][0] for i in range(lanes)], [found[i][1] for i in range(lanes)]


def _reference(design, cycles: set[int]) -> dict[int, tuple[int, dict]]:
    """Violation cycles and final outputs of the raw processor, scalar,
    after each cycle count in *cycles*."""
    from repro.hdl.sim import Simulator

    sim = Simulator(design.module, optimize=False)
    violations, out, ref = 0, {}, {}
    for cycle in range(1, max(cycles) + 1):
        out = sim.step({})
        violations += int(bool(out.get("violation", 0)))
        if cycle in cycles:
            ref[cycle] = (violations, out)
    return ref


def _expected(ref, width: int) -> tuple[list[int], list[dict]]:
    violations, final = ref
    return [violations] * width, [final] * width


def run(args, tracer) -> Outcome:
    out = Outcome()
    cycles = {k: 20 for k in KINDS} if args.tiny else CYCLES
    lanes = 64 if args.tiny else 256
    width = {"sim": 1, "batch": lanes, "store": 1}
    reps = 1 if args.tiny else 3
    clock = HostClock()
    out.e2e["setup_s"], setup_wall, setup = timed_setups(lambda: _Setup(tracer), reps, clock)
    ref = _reference(setup.design, set(cycles.values()))

    walls: dict[str, list[float]] = {k: [] for k in KINDS}
    scaled: dict[str, list[float]] = {k: [] for k in KINDS}
    peak_mb = 0.0
    # the traced run splits its time: rounds, then the server mix
    seconds = args.seconds / 2 if tracer.enabled else args.seconds
    deadline = time.perf_counter() + seconds
    while len(walls["sim"]) < (1 if args.tiny else MIN_ROUNDS) or time.perf_counter() < deadline:
        for kind in KINDS:
            wall, text, mb = run_child(_argv(kind, setup, cycles[kind], lanes))
            walls[kind].append(wall)
            scaled[kind].append(clock.add(wall))
            peak_mb = max(peak_mb, mb)
            out.check(
                _parse(kind, text, width[kind]) == _expected(ref[cycles[kind]], width[kind]),
                f"{kind} process summary {text.strip().splitlines()[-1:]}",
            )
    kind_s = {k: median(v) for k, v in walls.items()}
    out.notes.append(
        f"rounds {len(walls['sim'])}: wall cold_sim_s {kind_s['sim']:.3f}, cold_batch_s "
        f"{kind_s['batch']:.3f}, store_start_s {kind_s['store']:.3f}, round "
        f"{sum(kind_s.values()):.3f}, setup {setup_wall:.3f}; process wall seconds "
        + "; ".join(f"{k} " + " ".join(f"{t:.3f}" for t in v) for k, v in walls.items())
    )
    out.notes.append(clock.note())
    # one round of the three kinds, each at its median: a slow spell
    # that hits one process moves only that kind's sample
    out.e2e["op_ref_ms"] = sum(median(v) for v in scaled.values()) * 1000
    out.e2e["peak_rss_mb"] = peak_mb
    if tracer.enabled:
        from server_mix import measure

        out.layers.update({
            "host.calibration_ms": median(clock.blocks) * 1000,
            "host.op_wall_ms": sum(kind_s.values()) * 1000,
            "cli.cold_sim_s": kind_s["sim"],
            "cli.cold_batch_s": kind_s["batch"],
            "cli.store_start_s": kind_s["store"],
        })
        _traced(tracer, out, setup, cycles, lanes, width, ref, reps)
        measure(out, tracer, args.seed, 2.0 if args.tiny else args.seconds / 4)
    return out


def _traced(tracer, out, setup, cycles, lanes, width, ref, reps) -> None:
    """One traced stand-in process per kind; their spans join this trace."""
    out.layers["store.put_s"] = tracer.total("store.put") / reps
    out.layers["store.puts"] = setup.store.counters["writes"]
    out.layers["store.bytes"] = sum(p.stat().st_size for p in setup.store.entries())
    walls = {True: 0.0, False: 0.0}
    for kind in KINDS:
        argv = [str(ROOT / "perfbench" / "probe.py"), "scalar" if kind == "sim" else kind,
                str(setup.path), "--cycles", str(cycles[kind])]
        if kind == "batch":
            argv += ["--lanes", str(lanes)]
        if kind == "store":
            argv += ["--store", str(setup.store_dir)]
        walls[False] += run_child(argv + ["--no-trace"])[0]
        with tracer.span(f"cli.process.{kind}") as parent:
            wall, text, _ = run_child(argv)
        walls[True] += wall
        probe = json.loads(text.strip().splitlines()[-1])
        tracer.adopt(probe["spans"], parent)
        out.check(
            (probe["violations"], probe["final"])
            == _expected(ref[cycles[kind]], width[kind]),
            f"traced {kind} process",
        )
        spans = {s["name"]: (s["end_ns"] - s["start_ns"]) / 1e9 for s in probe["spans"]}
        steps = cycles[kind] - 1
        if kind == "sim":
            out.layers.update(probe["layers"])
            out.layers["sim.codegen_s"] = spans["sim.codegen"]
            out.layers["sim.step_us"] = spans["sim.step"] / steps * 1e6
        elif kind == "batch":
            out.layers.update({k: v for k, v in probe["layers"].items() if k.startswith("batch.")})
            out.layers["batch.codegen_s"] = spans["batch.codegen"]
            out.layers["batch.step_us"] = spans["batch.step"] / steps * 1e6
        else:
            out.layers["store.get_s"] = sum(
                (s["end_ns"] - s["start_ns"]) / 1e9 for s in probe["spans"]
                if s["name"] == "store.get"
            )
            out.layers["store.hits"] = probe["store_hits"]
    # one round of stand-ins, recorder on minus recorder off
    out.layers["trace.overhead_ms"] = (walls[True] - walls[False]) * 1000
