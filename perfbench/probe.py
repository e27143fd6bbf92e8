"""Traced stand-in for a fresh ``python -m repro`` process.

    python3 perfbench/probe.py import
    python3 perfbench/probe.py {scalar|batch|store} SOURCE --cycles N [--lanes N] [--store DIR]
                               [--no-trace]

``import`` times ``import repro.cli`` and reports whether NumPy came
with it.  The other kinds walk the path ``repro simulate`` takes for
that kind of process, through the same public calls, with a span around
each, then print one JSON line: the spans, the final outputs and the
violation count (checked by the parent like the real process's output).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_checkout_sources  # noqa: E402
from layers import batch_counters, build, build_metrics, traced_store  # noqa: E402
from tracing import Tracer, export  # noqa: E402


def _simulate(tracer, sim, first, cycles: int, lanes: int):
    """The CLI's simulate loop with an empty input drive; *first* holds
    the outputs of the step already taken."""
    with tracer.span("sim.step" if lanes == 1 else "batch.step"):
        if lanes == 1:
            out = first
            violations = int(bool(out.get("violation", 0)))
            for _ in range(cycles - 1):
                out = sim.step({})
                violations += int(bool(out.get("violation", 0)))
            return [violations], [out]
        violations = [0] * lanes
        final: list = [{} for _ in range(lanes)]
        outs = first
        for cycle in range(cycles):
            if cycle:
                outs = sim.step({})
            for pos, out in enumerate(outs):
                lane = sim.active_lanes[pos]
                violations[lane] += int(bool(out.get("violation", 0)))
                final[lane] = out
        return violations, final


def main() -> None:
    kind = sys.argv[1]
    use_checkout_sources()
    tracer = Tracer(enabled="--no-trace" not in sys.argv)
    with tracer.span("cli.import"):
        import repro.cli  # noqa: F401
    numpy_loaded = "numpy" in sys.modules
    if kind == "import":
        print(json.dumps({"import_s": tracer.total("cli.import"), "numpy_loaded": numpy_loaded}))
        return
    import argparse

    parser = argparse.ArgumentParser()
    parser.add_argument("kind")
    parser.add_argument("source")
    parser.add_argument("--cycles", type=int, required=True)
    parser.add_argument("--lanes", type=int, default=1)
    parser.add_argument("--store", default=None)
    parser.add_argument("--no-trace", action="store_true",
                        help="same work with the span recorder off")
    args = parser.parse_args()

    from repro.hdl.sim import Simulator
    from repro.lattice import two_level

    source = Path(args.source).read_text()
    name = Path(args.source).stem
    with tracer.span("cli.main"):
        if kind == "store":
            from repro.store import ArtifactStore
            from repro.toolchain import Toolchain

            tc = Toolchain(store=traced_store(ArtifactStore(args.store), tracer))
            with tracer.span("toolchain.compile"):
                design = tc.compile(source, two_level(), name=name)
            with tracer.span("toolchain.optimize"):
                module = tc.optimize(design)
            layers = {}
            store_hits = tc.store.counters["hits"]
        else:
            design, result = build(tracer, source, two_level(), name)
            module = result.module
            layers = build_metrics(tracer, design, result)
            store_hits = 0
        if args.lanes == 1:
            with tracer.span("sim.codegen"):
                sim = Simulator(module, optimize=False)
            first = sim.step({})
        else:
            # the vector engine finishes its codegen on the first step
            from repro.hdl.vector import VectorSimulator

            with tracer.span("batch.codegen"):
                sim = VectorSimulator(module, args.lanes, optimize=False)
                first = sim.step({})
        violations, final = _simulate(tracer, sim, first, args.cycles, args.lanes)
    if args.lanes > 1:
        layers.update(batch_counters(sim, args.lanes))
    print(json.dumps({
        "spans": export(tracer),
        "layers": layers,
        "numpy_loaded": numpy_loaded,
        "violations": violations,
        "final": final,
        "store_hits": store_hits,
    }))


if __name__ == "__main__":
    main()
