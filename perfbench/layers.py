"""Traced calls into each layer's public functions.

The traced run replays the program's flow stage by stage through
public entry points -- ``parse_program``, ``analyze``,
``compile_program``, ``run_pipeline``, the simulator constructors,
``ArtifactStore.get``/``put`` -- with a span around each, so the time
lands on the layer that spent it.  Optimizer pass timings are not taken
twice: they come from the ``PassStat`` list ``run_pipeline`` returns.
"""

from __future__ import annotations

#: the optimizer passes, in pipeline order, as ``PassStat.name`` spells them
PASSES = ("constfold", "narrow", "simplify", "cse", "dce")


def traced_store(store, tracer):
    """Wrap one :class:`ArtifactStore` instance's ``get``/``put`` in
    spans (the class and every other instance stay untouched)."""
    get, put = store.get, store.put

    def traced_get(key, default=None):
        with tracer.span("store.get"):
            return get(key, default)

    def traced_put(key, value):
        with tracer.span("store.put"):
            return put(key, value)

    store.get, store.put = traced_get, traced_put
    return store


def build(tracer, source: str, lattice, name: str):
    """Parse, analyze, compile and optimize *source*, one span per stage.
    Returns ``(design, OptResult)``."""
    from repro.hdl.passes import run_pipeline
    from repro.sapper.analysis import analyze
    from repro.sapper.compiler import compile_program
    from repro.sapper.parser import parse_program

    with tracer.span("sapper.parse"):
        prog = parse_program(source, name)
    with tracer.span("sapper.analyze"):
        info = analyze(prog, lattice)
    with tracer.span("sapper.compile"):
        design = compile_program(info, lattice, secure=True, name=name)
    with tracer.span("passes.optimize") as parent:
        result = run_pipeline(design.module)
    if parent is not None:
        # lay the pipeline's own per-pass timings out as child spans
        cursor = parent.start_ns
        for stat in result.stats:
            end = min(cursor + int(stat.seconds * 1e9), parent.end_ns)
            tracer.add(f"passes.{stat.name}", cursor, end, parent)
            cursor = end
    return design, result


def build_metrics(tracer, design, result) -> dict[str, float]:
    """sapper/passes per-layer metrics from one :func:`build`."""
    out = {
        "sapper.parse_s": tracer.total("sapper.parse"),
        "sapper.analyze_s": tracer.total("sapper.analyze"),
        "sapper.compile_s": tracer.total("sapper.compile"),
        "sapper.raw_signals": len(design.module.comb),
        "passes.optimize_s": tracer.total("passes.optimize"),
        "passes.sweeps": len(result.stats) // len(PASSES),
        "passes.opt_signals": len(result.module.comb),
    }
    for name in PASSES:
        out[f"passes.{name}_s"] = sum(s.seconds for s in result.stats if s.name == name)
    return out


def batch_counters(sim, width: int) -> dict[str, float]:
    """Public step counters of one batched simulator after its run;
    occupancy is active lane-cycles over steps at the starting *width*."""
    return {
        "batch.steps": sim.cycles,
        "batch.lane_cycles": sim.lane_cycles,
        "batch.occupancy": sim.lane_cycles / (sim.cycles * width) if sim.cycles else 0.0,
        "batch.compactions": sim.compactions,
        "batch.split_steps": sim.split_steps,
    }
