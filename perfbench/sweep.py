"""``suite-sweep``: one warm process runs a seeded program suite through
``run_workloads``, repeated for the run's duration.

Set-up compiles the processor and warms the batched engine, so the
optimizer and codegen stay in ``setup_s`` and the measured passes are
the batched engines alone: vector steps, lane compaction and
uniform-state specialization.

The traced run adds the fleet layer: the same suite through one
persistent ``FleetRunner(shards=2)`` over a traced artifact store,
reporting per-shard steps, waves and the mean wave width.
"""

from __future__ import annotations

import time

from common import HostClock, Outcome, fresh_dir, median, own_peak_rss_mb, timed_setups
from layers import batch_counters, build, build_metrics, traced_store
from suite import BUDGET, make_suite, matches, references


def _suite(seed: int, tiny: bool):
    from repro.mips.assembler import assemble

    programs = make_suite(seed, 24 if tiny else 256, mean_iters=3 if tiny else 10.0)
    return programs, [assemble(p.source) for p in programs]


def _build(lanes: int):
    """Compile and optimize the processor in a fresh toolchain and
    generate the batched engine's step code (constructor + one step)."""
    from repro.proc.machine import compile_processor
    from repro.toolchain import Toolchain, set_toolchain

    tc = Toolchain()
    set_toolchain(tc)
    design = compile_processor()
    tc.optimize(design)
    tc.batch_simulator(design, lanes).step()
    return design


def _setup(exes, reps: int, clock: HostClock):
    """Set-up (reference seconds, wall seconds, design): the median of
    *reps* cold builds, plus one warm pass over the suite, which compiles
    the engine's state-specialized bodies (they are generated lazily, per
    register binding met)."""
    from repro.proc.machine import run_workloads

    build_s, build_wall, design = timed_setups(lambda: _build(len(exes)), reps, clock)
    warm_s, _ = clock.measure(lambda: run_workloads(exes, max_cycles=BUDGET))
    return build_s + warm_s, build_wall + clock.walls[-1], design


def _check(out: Outcome, results, expected, what: str) -> None:
    for i, (res, exp) in enumerate(zip(results, expected)):
        out.check(matches(res, exp), f"{what} program {i}: got {res}, expected {exp}")


def run(args, tracer) -> Outcome:
    from repro.proc.machine import run_workloads

    out = Outcome()
    programs, exes = _suite(args.seed, args.tiny)
    clock = HostClock()
    out.e2e["setup_s"], setup_wall, design = _setup(exes, 1 if args.tiny else 3, clock)
    expected = references(programs, exes, design.module)
    tagged = [e for p, e in zip(programs, expected) if p.tagged]
    out.notes.append(
        f"suite: {len(programs)} programs, {len(tagged)} tagged, reference "
        f"violations {sum(e.violations for e in tagged)}"
    )

    times, scaled = [], []
    # the traced run splits its time: untraced passes, then the traced
    # replays and the fleet
    deadline = time.perf_counter() + (args.seconds / 2 if tracer.enabled else args.seconds)
    while len(times) < 2 or time.perf_counter() < deadline:
        seconds, results = clock.measure(lambda: run_workloads(exes, max_cycles=BUDGET))
        scaled.append(seconds)
        times.append(clock.walls[-1])
        _check(out, results, expected, f"pass {len(times)}")
    lane_cycles = sum(r.cycles for r in results)
    out.notes.append(
        f"passes: {len(times)}, violations {sum(r.violations for r in results)}, "
        f"lane-cycles/pass {lane_cycles} ({lane_cycles / median(times):.0f}/s wall), "
        f"setup wall {setup_wall:.3f}s; pass wall seconds " + " ".join(f"{t:.3f}" for t in times)
    )
    out.notes.append(clock.note())
    out.e2e["op_ref_ms"] = median(scaled) * 1000
    if tracer.enabled:
        out.layers["host.calibration_ms"] = median(clock.blocks) * 1000
        out.layers["host.op_wall_ms"] = median(times) * 1000
        _traced(tracer, out, programs, exes, expected, median(times))
    out.e2e["peak_rss_mb"] = own_peak_rss_mb()
    return out


def _traced(tracer, out, programs, exes, expected, untraced_s) -> None:
    from repro.lattice import two_level
    from repro.proc.design import generate_design
    from repro.proc.machine import BatchedMachines
    from repro.hdl.vector import VectorSimulator
    from repro.hdl.sim import Simulator

    # the processor build, stage by stage
    with tracer.span("sapper.build"):
        design, result = build(tracer, generate_design(two_level()), two_level(), "sapper_mips")
    with tracer.span("batch.codegen"):
        VectorSimulator(result.module, len(exes), optimize=False).step()
    out.layers.update(build_metrics(tracer, design, result))
    out.layers["batch.codegen_s"] = tracer.total("batch.codegen")

    # the scalar simulator layer, as the tagged references use it
    exe = next(e for p, e in zip(programs, exes) if p.tagged)
    with tracer.span("sim.codegen"):
        ref = Simulator(design.module, optimize=False)
    ref.arrays["memory"] = dict(exe.as_memory())
    with tracer.span("sim.step"):
        for _ in range(200):
            ref.step({})
    out.layers["sim.codegen_s"] = tracer.total("sim.codegen")
    out.layers["sim.step_us"] = tracer.total("sim.step") / 200 * 1e6

    # traced passes through the batched path run_workloads takes
    traced_times = []
    for _ in range(2):
        with tracer.span("batch.pass") as span:
            bm = BatchedMachines(exes)
            results = bm.run(BUDGET)
        traced_times.append(span.seconds)
        _check(out, results, expected, "traced pass")
    out.layers.update(batch_counters(bm.sim, len(exes)))
    out.layers["batch.step_us"] = median(traced_times) / bm.sim.cycles * 1e6
    out.layers["trace.overhead_ms"] = (median(traced_times) - untraced_s) * 1000
    _fleet(tracer, out, exes, expected)


def _fleet(tracer, out, exes, expected) -> None:
    """The suite through one persistent two-shard fleet."""
    from repro.fleet import FleetRunner
    from repro.store import ArtifactStore

    store = traced_store(ArtifactStore(fresh_dir("fleet-store")), tracer)
    runner = FleetRunner(shards=2, store=store)
    try:
        with tracer.span("fleet.start"):
            runner.start()
        with tracer.span("fleet.warm"):
            _check(out, runner.run(exes, max_cycles=BUDGET), expected, "fleet warm pass")
        before = {w: dict(c) for w, c in runner.stats.shard.items()}
        with tracer.span("fleet.run"):
            results = runner.run(exes, max_cycles=BUDGET)
        _check(out, results, expected, "fleet pass")
        lane_cycles = steps = 0
        for wid, now in sorted(runner.stats.shard.items()):
            prev = before.get(wid, {})
            delta = {k: now.get(k, 0) - prev.get(k, 0) for k in ("lane_cycles", "steps", "waves")}
            lane_cycles += delta["lane_cycles"]
            steps += delta["steps"]
            out.layers.update({f"fleet.shard{wid}_{k}": v for k, v in delta.items()})
            out.notes.append(f"fleet shard {wid}: {delta}")
        merged = runner.stats.merged()
    finally:
        runner.close()
    out.layers["fleet.start_s"] = tracer.total("fleet.start")
    out.layers["fleet.run_s"] = tracer.total("fleet.run")
    out.layers["fleet.mean_wave_width"] = lane_cycles / steps if steps else 0.0
    out.layers["fleet.occupancy"] = merged["occupancy"]
    out.layers["fleet.requeues"] = merged["requeues"]
    out.layers["fleet.deaths"] = merged["deaths"]
    tc = merged["toolchain"]
    out.layers["fleet.store_hits"] = sum(v for k, v in tc.items() if k.startswith("store_hit:"))
    out.layers["store.get_s"] = tracer.total("store.get")
    out.layers["store.put_s"] = tracer.total("store.put")
    out.layers["store.hits"] = store.counters["hits"]
    out.layers["store.puts"] = store.counters["writes"]
    out.layers["store.bytes"] = sum(p.stat().st_size for p in store.entries())
