"""Command-line interface to the Sapper toolchain.

Built entirely on the :class:`~repro.toolchain.Toolchain` facade::

    python -m repro compile  design.sapper            # emit Verilog
    python -m repro simulate design.sapper -n 100     # run the simulator
    python -m repro synth    design.sapper            # gate census report
    python -m repro stats    design.sapper            # pass-pipeline effect
    python -m repro check    design.sapper            # design lint + taint audit

Common options: ``--lattice two|diamond``, ``--insecure`` (compile the
Base variant with tracking stripped), ``--no-opt`` (raw compiler
output), ``--name`` (module name).  ``simulate`` drives constant input
values given as ``-i port=value`` (tag inputs as ``port__tag=bits``;
with ``--lanes``, ``port=v0,v1,...`` drives one value per lane)
and prints the output ports each cycle plus a violation summary;
``--lanes N`` advances N independent machine states per cycle through
the lane-batched simulator (bit-identical to N scalar runs), and
``--engine {scalar,swar,vector}`` pins the simulation engine
(``auto`` picks scalar at one lane, the SWAR wide-word engine for
small batches, and the NumPy vector engine -- when NumPy is
installed -- from 64 lanes up, where its ufunc amortization wins).
``--compact`` (default; disable with ``--no-compact``) retires lanes
whose ``halted`` output fires from the batch -- the simulator repacks
its state to the surviving lanes, keeping skewed multi-lane runs at
full occupancy, and stops early once every lane has halted -- and the
summary reports active lane-cycles and the final occupancy::

    python -m repro simulate design.sapper -n 100 --lanes 8 --quiet
    python -m repro simulate design.sapper -n 100 --lanes 8 --engine vector
    python -m repro simulate design.sapper -n 100 --lanes 8 --no-compact

``check`` runs the static analyzer (:mod:`repro.analyze`): design-lint
rules (combinational loops, undriven/multiply-driven signals, dead
input ports, width discipline, unreachable FSM states, unused lattice
levels) plus the information-flow taint certificate, printed as text
or ``--format json``; the exit status is nonzero iff an
error-severity finding is present, so it slots straight into CI.
``--seed-defect comb-loop`` injects a known defect first -- a smoke
test that the checker fails loudly::

    python -m repro check design.sapper --format json
    python -m repro check design.sapper --seed-defect comb-loop; echo $?

``--store DIR`` (any command) adds a persistent artifact-store tier
under the in-memory cache: compiled and optimized modules, synthesis
reports, and Verilog text are reloaded from ``DIR`` on later runs
instead of recompiled.  ``python -m repro serve`` runs the async
toolchain server (newline-delimited JSON over TCP, or ``--stdio``),
coalescing concurrent identical requests onto single builds and
pre-warming the two-level/diamond/powerset processor family::

    python -m repro serve --store ~/.cache/repro --port 9178
    python -m repro serve --stdio --store /tmp/artifacts --no-warm
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from collections.abc import Sequence

from repro.lattice import Lattice, diamond, two_level
from repro.store import ArtifactStore, StoreError
from repro.toolchain import BATCH_ENGINES, Toolchain, auto_engine

_LATTICES = {"two": two_level, "diamond": diamond}


def _have_numpy() -> bool:
    from repro.hdl.vector import HAVE_NUMPY

    return HAVE_NUMPY


def _positive_int(text: str) -> int:
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value < 1:
        raise argparse.ArgumentTypeError(f"lane count must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Sapper hardware security-policy toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("source", help="path to a .sapper source file, or '-' for stdin")
        p.add_argument("--lattice", choices=sorted(_LATTICES), default="two",
                       help="security lattice (default: two-level L<H)")
        p.add_argument("--insecure", action="store_true",
                       help="compile the Base variant (no tags, no checks)")
        p.add_argument("--no-opt", action="store_true",
                       help="skip the optimization pipeline")
        p.add_argument("--name", default=None, help="module name (default: file stem)")
        p.add_argument("--store", default=None, metavar="DIR",
                       help="persistent artifact-store directory (reload compiled "
                            "and optimized artifacts across runs)")

    common(sub.add_parser("compile", help="compile to synthesizable Verilog"))

    sim = sub.add_parser("simulate", help="run the cycle-accurate simulator")
    common(sim)
    sim.add_argument("-n", "--cycles", type=int, default=32, help="cycles to run")
    sim.add_argument("-i", "--input", action="append", default=[], metavar="PORT=VALUE",
                     help="constant input drive (repeatable); with --lanes, "
                          "PORT=V0,V1,... drives one value per lane")
    sim.add_argument("--lanes", type=_positive_int, default=1, metavar="N",
                     help="advance N independent machine states with the "
                          "lane-batched simulator (default: 1, scalar)")
    sim.add_argument("--shards", type=_positive_int, default=1, metavar="S",
                     help="split the lane batch across S worker processes "
                          "(the multiprocess fleet scheduler; workers share "
                          "compiled artifacts through one store and results "
                          "are bit-identical to --shards 1; default: 1, "
                          "in-process)")
    sim.add_argument("--engine",
                     choices=["scalar", *BATCH_ENGINES],
                     default="auto",
                     help="simulation engine: 'scalar' (one Simulator per "
                          "run, --lanes 1 only), 'swar' (lane-packed tags "
                          "+ guard-banded wide-word lane packing), 'vector' "
                          "(NumPy uint64 lane arrays; needs numpy), or "
                          "'auto' (scalar at 1 lane, swar for small "
                          "batches, vector from 64 lanes when numpy is "
                          "available; default)")
    sim.add_argument("--compact", action=argparse.BooleanOptionalAction, default=True,
                     help="retire lanes whose 'halted' output fires and repack "
                          "the batch to the survivors (lane compaction), "
                          "stopping early once every lane has halted; "
                          "default on, a no-op for designs without a 'halted' "
                          "output port or with --lanes 1")
    sim.add_argument("--quiet", action="store_true", help="only print the summary")

    common(sub.add_parser("synth", help="synthesize to a gate census / cost report"))
    common(sub.add_parser("stats", help="report what each optimization pass did"))

    check = sub.add_parser(
        "check",
        help="run the static design-lint + information-flow analyzer",
    )
    common(check)
    check.add_argument("--format", choices=["text", "json"], default="text",
                       help="report format (default: text)")
    check.add_argument("--seed-defect", choices=["comb-loop"], default=None,
                       help="inject a known defect before analysis -- a smoke "
                            "test that the checker fails loudly (exit 1)")

    serve = sub.add_parser(
        "serve",
        help="run the async artifact server (newline-delimited JSON requests)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=9178, help="TCP port (default 9178)")
    serve.add_argument("--stdio", action="store_true",
                       help="serve one client over stdin/stdout instead of TCP")
    serve.add_argument("--store", default=None, metavar="DIR",
                       help="persistent artifact-store directory shared by requests")
    serve.add_argument("--workers", type=_positive_int, default=4,
                       help="bounded build worker pool size (default 4)")
    serve.add_argument("--warm", action=argparse.BooleanOptionalAction, default=True,
                       help="pre-compile the two-level/diamond/powerset processor "
                            "family on startup (default on; --no-warm to skip)")
    return parser


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _design(args: argparse.Namespace, tc: Toolchain):
    lattice: Lattice = _LATTICES[args.lattice]()
    name = args.name or (Path(args.source).stem if args.source != "-" else "design")
    source = _read_source(args.source)
    return tc.compile(source, lattice, secure=not args.insecure, name=name), lattice


def _parse_inputs(pairs: Sequence[str]) -> dict[str, int | list[int]]:
    """``PORT=VALUE`` drives every lane; ``PORT=V0,V1,...`` drives one
    value per lane (length must match ``--lanes``)."""
    out: dict[str, int | list[int]] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"bad --input {pair!r}: expected PORT=VALUE")
        port, _, value = pair.partition("=")
        try:
            if "," in value:
                out[port.strip()] = [int(v, 0) for v in value.split(",")]
            else:
                out[port.strip()] = int(value, 0)
        except ValueError:
            raise SystemExit(f"bad --input {pair!r}: {value!r} is not an integer")
    return out


def _lane_stimulus(
    inputs: dict[str, int | list[int]], lanes: int
) -> list[dict[str, int]] | None:
    """Per-lane input dicts when any port carries a per-lane list."""
    if not any(isinstance(v, list) for v in inputs.values()):
        return None
    for port, value in inputs.items():
        if isinstance(value, list) and len(value) != lanes:
            raise SystemExit(
                f"--input {port} drives {len(value)} lanes but --lanes is {lanes}"
            )
    return [
        {port: (value[lane] if isinstance(value, list) else value)
         for port, value in inputs.items()}
        for lane in range(lanes)
    ]


def _cmd_compile(args: argparse.Namespace, tc: Toolchain) -> int:
    design, _ = _design(args, tc)
    if args.no_opt:
        from repro.hdl import emit_verilog

        print(emit_verilog(design.module, optimize=False))
    else:
        print(tc.verilog(design))
    return 0


def _cmd_simulate(args: argparse.Namespace, tc: Toolchain) -> int:
    from repro.hdl import BatchSimulator, Simulator

    design, _ = _design(args, tc)
    inputs = _parse_inputs(args.input)
    engine = args.engine
    if engine == "auto":
        engine = "scalar" if args.lanes <= 1 else auto_engine(args.lanes)
    if engine == "scalar" and args.lanes > 1:
        raise SystemExit(
            f"--engine scalar supports --lanes 1 only (got {args.lanes}); "
            "use --engine swar or vector"
        )
    if engine == "scalar" and any(isinstance(v, list) for v in inputs.values()):
        raise SystemExit(
            "per-lane input lists (PORT=V0,V1,...) need the batched engine; "
            "pass --lanes N"
        )
    if engine == "vector" and not _have_numpy():
        from repro.hdl.vector import _NUMPY_HINT

        raise SystemExit(_NUMPY_HINT)
    if args.shards > 1:
        if engine == "scalar":
            raise SystemExit("--shards needs the batched engine; pass --lanes N (N > 1)")
        if args.no_opt:
            raise SystemExit("--shards shares optimized artifacts; drop --no-opt")
        return _simulate_sharded(args, tc, inputs)
    if engine != "scalar":
        if args.no_opt:
            if engine == "vector":
                from repro.hdl import VectorSimulator

                sim = VectorSimulator(design.module, args.lanes, optimize=False)
            else:
                sim = BatchSimulator(design.module, args.lanes, optimize=False)
        else:
            sim = tc.batch_simulator(design, args.lanes, engine=engine)
        lane_stim = _lane_stimulus(inputs, args.lanes)
        violations = [0] * args.lanes
        final: list[dict[str, int]] = [{} for _ in range(args.lanes)]
        for cycle in range(args.cycles):
            outs = sim.step(lane_stim if lane_stim is not None else inputs)
            for pos, out in enumerate(outs):
                lane = sim.active_lanes[pos]
                violations[lane] += int(bool(out.get("violation", 0)))
                final[lane] = out
            if not args.quiet:
                ports = " | ".join(
                    " ".join(f"{k}={v}" for k, v in out.items()) for out in outs
                )
                print(f"cycle {cycle:4d}  {ports}")
            if args.compact:
                retire = [pos for pos, out in enumerate(outs) if out.get("halted")]
                if retire and len(retire) == sim.lanes:
                    break  # every lane halted; nothing left to simulate
                if retire:
                    gone = set(retire)
                    sim.compact(retire)
                    if lane_stim is not None:  # keep stimulus lane-aligned
                        lane_stim = [
                            d for pos, d in enumerate(lane_stim) if pos not in gone
                        ]
        print(f"# {sim.cycles} cycles x {args.lanes} lanes "
              f"({sim.lane_cycles} active lane-cycles, final occupancy "
              f"{sim.lanes}/{args.lanes})")
        for lane, out in enumerate(final):
            print(f"# lane {lane}: {violations[lane]} violation cycle(s), "
                  f"final outputs: {out}")
        return 0
    sim = Simulator(design.module, optimize=False) if args.no_opt else tc.simulator(design)
    violations = 0
    out: dict[str, int] = {}
    for cycle in range(args.cycles):
        out = sim.step(inputs)
        violations += int(bool(out.get("violation", 0)))
        if not args.quiet:
            ports = "  ".join(f"{k}={v}" for k, v in out.items())
            print(f"cycle {cycle:4d}  {ports}")
    print(f"# {args.cycles} cycles, {violations} violation cycle(s), "
          f"final outputs: {out}")
    return 0


def _simulate_sharded(args: argparse.Namespace, tc: Toolchain, inputs) -> int:
    """``simulate --shards S``: lane slices across fleet workers.

    Per-cycle traces live in the workers, so this path always prints
    summary-only (as --quiet does); per-lane violation counts and
    final outputs are bit-identical to the in-process run.  ``auto``
    resolves in each worker, at its own slice width.
    """
    from repro.fleet import simulate_sharded

    lattice: Lattice = _LATTICES[args.lattice]()
    name = args.name or (Path(args.source).stem if args.source != "-" else "design")
    source = _read_source(args.source)
    lane_stim = _lane_stimulus(inputs, args.lanes)
    scalar_inputs = {p: v for p, v in inputs.items() if not isinstance(v, list)}
    if not args.quiet:
        print(f"# --shards {args.shards}: per-cycle trace runs in the workers; "
              "printing the summary only")
    out = simulate_sharded(
        source, lattice,
        cycles=args.cycles, lanes=args.lanes, shards=args.shards,
        name=name, secure=not args.insecure, inputs=scalar_inputs,
        lane_stim=lane_stim, engine=args.engine,
        compact=args.compact, store=tc.store,
    )
    merged = out["stats"].merged()
    print(f"# {out['steps']} cycles x {args.lanes} lanes "
          f"({out['lane_cycles']} active lane-cycles, {args.shards} shard(s), "
          f"mean occupancy {merged['occupancy']:.2f})")
    print(f"# fleet: start_method={merged['start_method']} "
          f"degraded={merged['degraded']} requeues={merged['requeues']} "
          f"store_hits={merged['toolchain'].get('store_hit:compile', 0)}")
    for lane, final in enumerate(out["final"]):
        print(f"# lane {lane}: {out['violations'][lane]} violation cycle(s), "
              f"final outputs: {final}")
    return 0


def _cmd_synth(args: argparse.Namespace, tc: Toolchain) -> int:
    design, _ = _design(args, tc)
    if args.no_opt:
        from repro.hdl import synthesize

        rpt = synthesize(design.module, optimize=False)
    else:
        rpt = tc.synthesize(design)
    print(f"module {rpt.name}")
    for key, value in rpt.summary().items():
        print(f"  {key:12s} {value:,.1f}")
    counts = rpt.counts
    print(f"  cells        and2={counts.and2} or2={counts.or2} xor2={counts.xor2} "
          f"inv={counts.inv} dff={counts.dff}")
    return 0


def _cmd_stats(args: argparse.Namespace, tc: Toolchain) -> int:
    from repro.hdl.passes import run_pipeline

    design, _ = _design(args, tc)
    result = run_pipeline(design.module)
    before = len(design.module.comb)
    after = len(result.module.comb)
    print(f"module {design.module.name}: {before} -> {after} signals "
          f"({before - after} removed)")
    for stat in result.stats:
        flag = "*" if stat.changed else " "
        print(f" {flag} {stat.name:10s} {stat.signals_before:6d} -> "
              f"{stat.signals_after:6d}  {stat.seconds * 1000:7.1f} ms")
    return 0


def _seed_comb_loop(module) -> None:
    """Append a two-signal combinational cycle to *module* (in place)."""
    from repro.hdl.ir import HRef

    module.comb.append(("seeded_loop_a", HRef("seeded_loop_b", 1)))
    module.comb.append(("seeded_loop_b", HRef("seeded_loop_a", 1)))


def _cmd_check(args: argparse.Namespace, tc: Toolchain) -> int:
    import json

    design, _ = _design(args, tc)
    if args.seed_defect == "comb-loop":
        # Mutated module: analyze directly so the broken report never
        # lands in the cache or store under the clean design's key.
        from repro.analyze import analyze_design

        _seed_comb_loop(design.module)
        report = analyze_design(design)
    else:
        report = tc.analyze(design)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render_text())
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace, tc: Toolchain) -> int:
    import asyncio

    from repro.server import ReproServer

    server = ReproServer(toolchain=tc, max_workers=args.workers)
    try:
        if args.stdio:
            asyncio.run(server.run_stdio(warm=args.warm))
        else:
            asyncio.run(server.run_tcp(args.host, args.port, warm=args.warm))
    except OSError as exc:
        raise SystemExit(
            f"error: cannot listen on {args.host}:{args.port}: {exc}\n"
            "hint: is another 'repro serve' already running there? "
            "pass --port to pick a free port, or --stdio to skip TCP entirely"
        )
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down", file=sys.stderr)
    return 0


_COMMANDS = {
    "compile": _cmd_compile,
    "simulate": _cmd_simulate,
    "synth": _cmd_synth,
    "stats": _cmd_stats,
    "check": _cmd_check,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    from repro.sapper.errors import SapperError

    args = _build_parser().parse_args(argv)
    store = None
    if getattr(args, "store", None):
        try:
            store = ArtifactStore(args.store)
        except StoreError as exc:
            raise SystemExit(
                f"error: {exc}\n"
                "hint: --store needs a creatable, writable directory; "
                "check the path and its permissions"
            )
    tc = Toolchain(store=store)
    try:
        return _COMMANDS[args.command](args, tc)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SapperError as exc:
        print(f"{getattr(args, 'source', 'input')}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
