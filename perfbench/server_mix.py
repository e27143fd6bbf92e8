"""The server layer, measured inside the traced ``cold-cli`` run: a
warm ``python -m repro serve`` process driven closed-loop by two client
connections with a seeded op mix.

* ~60% reads -- cache hits on TDMA and the two Figure 3 adders:
  ``compile``, ``synth``, ``check``, ``verilog`` and 1-lane ``simulate``
  (the adder drives include tagged inputs, so checks fire);
* ~25% processor ``simulate`` at 1 lane (scalar engine) and 8 lanes
  (SWAR engine);
* ~10% writes -- a distinct seeded TDMA variant per request, which
  misses, compiles, optimizes, is put in the store and simulates;
* ~5% ``stats``.

The server starts over a filled store with ``--workers 2 --no-warm``
and gets one of every read once before the measured stretch, so
measured reads hit.  Replies are checked against library runs made in
this process without the server or the store: ``simulate`` replies
against an unoptimized scalar simulator, the other ops against the
toolchain's own result.

This mix is not an end-to-end workload: on a 2-CPU host its request
rate swung by a quarter between runs of the same code, past the
benchmark's bound.  Its per-layer numbers (client latencies per op
kind, the server's and toolchain's counters, the analyzer) come from
here.
"""

from __future__ import annotations

import json
import random
import re
import socket
import subprocess
import sys
import threading
import time

from common import ROOT, Outcome, child_env, fresh_dir, median, percentile, vm_hwm_mb

CLIENTS = 2
SIM_CYCLES = 64
PROC_CYCLES = 64
PROC_LANES = (1, 8)
#: read-request drives per small design (port -> value); tag inputs
#: carry encoded label bits, so the adder's check fires on some of them
DRIVES = {
    "tdma": [{"lo_in": 3, "hi_in": 5}, {"lo_in": 7, "hi_in": 0}, {"lo_in": 1, "hi_in": 9}],
    "adder_check": [{"in_b": 5, "in_c": 3}, {"in_b": 5, "in_c": 3, "in_b__tag": 1},
                    {"in_b": 255, "in_c": 17, "in_c__tag": 1}],
    "adder_track": [{"in_b": 6, "in_c": 12}, {"in_b": 6, "in_c": 12, "in_c__tag": 1}],
}
#: timer reloads of the write variants (one reference per value)
TIMERS = (3, 5, 8, 13, 21, 34)


def _sources() -> dict[str, str]:
    from repro.sapper import samples

    return {"tdma": samples.TDMA, "adder_check": samples.ADDER_CHECK,
            "adder_track": samples.ADDER_TRACK}


def _variant(timer: int, tag: str) -> str:
    from repro.sapper import samples

    return f"// variant {tag}\n" + samples.TDMA.replace("timer := 100;", f"timer := {timer};")


class _Server:
    """A filled store and a running server over it.  The store is not
    traced: the ``store`` layer's numbers come from ``cold-cli``."""

    def __init__(self, proc_source: str):
        from repro.lattice import two_level
        from repro.store import ArtifactStore
        from repro.toolchain import Toolchain

        self.store_dir = fresh_dir("server-store")
        self.store = ArtifactStore(self.store_dir)
        tc = Toolchain(store=self.store)
        tc.optimize(tc.compile(proc_source, two_level(), name="sapper_mips"))
        for name, source in _sources().items():
            design = tc.compile(source, two_level(), name=name)
            tc.optimize(design)
            tc.synthesize(design)
            tc.verilog(design)
            tc.analyze(design)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--store", str(self.store_dir),
             "--workers", "2", "--no-warm", "--port", "0"],
            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        line = self.proc.stderr.readline()
        m = re.search(r"listening on ([\d.]+):(\d+)", line)
        if not m:
            self.proc.kill()
            self.proc.wait(timeout=10)
            raise RuntimeError(f"server did not start: {line!r}")
        self.addr = (m.group(1), int(m.group(2)))

    def connect(self) -> _Client:
        return _Client(self.addr)

    def close(self) -> None:
        self.peak_mb = vm_hwm_mb(self.proc.pid) or 0.0
        if self.proc.poll() is None:
            try:
                with self.connect() as c:
                    c.call({"op": "shutdown"})
            except OSError:
                pass
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stderr.close()


class _Client:
    def __init__(self, addr):
        self.sock = socket.create_connection(addr, timeout=60)
        self.reader = self.sock.makefile("r")
        self.next_id = 0

    def call(self, req: dict) -> dict:
        self.next_id += 1
        req = dict(req, id=self.next_id)
        self.sock.sendall((json.dumps(req) + "\n").encode())
        return json.loads(self.reader.readline())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.reader.close()
        self.sock.close()


# -- requests and their references -------------------------------------------


class _Mix:
    """Seeded request generator plus the reference for every reply."""

    def __init__(self, seed: int, proc_source: str):
        from repro.lattice import two_level
        from repro.toolchain import Toolchain

        self.seed = seed
        self.proc_source = proc_source
        self.sources = _sources()
        tc = Toolchain()  # in-process, no store: independent of the server's
        self.expect: dict[tuple, object] = {}
        for name, source in self.sources.items():
            design = tc.compile(source, two_level(), name=name)
            module = tc.optimize(design)
            rpt = tc.synthesize(design)
            self.expect[("compile", name)] = {
                "name": design.name, "signals": len(module.comb), "regs": len(module.regs),
                "inputs": dict(module.inputs), "outputs": sorted(module.outputs),
            }
            c = rpt.counts
            self.expect[("synth", name)] = {
                "summary": rpt.summary(),
                "cells": {"and2": c.and2, "or2": c.or2, "xor2": c.xor2, "inv": c.inv,
                          "dff": c.dff},
            }
            self.expect[("verilog", name)] = tc.verilog(design)
            self.expect[("check", name)] = json.loads(json.dumps(tc.analyze(design).to_json()))
            for i, drive in enumerate(DRIVES[name]):
                self.expect[("simulate", name, i)] = _raw_run(design.module, drive, SIM_CYCLES)
        for timer in TIMERS:
            design = tc.compile(_variant(timer, "ref"), two_level(), name="tdma_v")
            self.expect[("write", timer)] = _raw_run(design.module, DRIVES["tdma"][0], SIM_CYCLES)
        proc = tc.compile(proc_source, two_level(), name="sapper_mips")
        self.expect[("proc",)] = _raw_run(proc.module, {}, PROC_CYCLES)

    def reads(self):
        """One of every distinct read request (the set-up warm-up)."""
        for name in self.sources:
            for op in ("compile", "synth", "check", "verilog"):
                yield self._read(name, op, 0)
            for i in range(len(DRIVES[name])):
                yield self._read(name, "simulate", i)
        for lanes in PROC_LANES:
            yield self._proc(lanes)

    def _read(self, name: str, op: str, drive: int):
        req = {"op": op, "source": self.sources[name], "name": name}
        if op == "simulate":
            req.update(cycles=SIM_CYCLES, inputs=DRIVES[name][drive])
            return "read", req, ("simulate", name, drive)
        return "read", req, (op, name)

    def _proc(self, lanes: int):
        req = {"op": "simulate", "source": self.proc_source, "name": "sapper_mips",
               "cycles": PROC_CYCLES, "lanes": lanes}
        return "proc", req, ("proc",)

    def stream(self, client: int):
        """An endless seeded request sequence for one client."""
        rng = random.Random(self.seed * 7919 + client)
        n = 0
        while True:
            n += 1
            kind = rng.choices(("read", "proc", "write", "stats"), (60, 25, 10, 5))[0]
            if kind == "read":
                name = rng.choice(tuple(self.sources))
                op = rng.choice(("compile", "synth", "check", "verilog", "simulate"))
                yield self._read(name, op, rng.randrange(len(DRIVES[name])))
            elif kind == "proc":
                yield self._proc(rng.choice(PROC_LANES))
            elif kind == "write":
                timer = rng.choice(TIMERS)
                tag = f"{self.seed}-{client}-{n}"
                req = {"op": "simulate", "source": _variant(timer, tag), "name": "tdma_v",
                       "cycles": SIM_CYCLES, "inputs": DRIVES["tdma"][0]}
                yield "write", req, ("write", timer)
            else:
                yield "stats", {"op": "stats"}, ("stats",)

    def ok(self, req: dict, key: tuple, reply: dict) -> bool:
        if not reply.get("ok"):
            return False
        got = reply["result"]
        if key[0] == "stats":
            return {"server", "toolchain", "store"} <= set(got)
        exp = self.expect[key]
        if key[0] == "compile":
            return {k: got.get(k) for k in exp} == exp
        if key[0] == "synth":
            return got["summary"] == exp["summary"] and got["cells"] == exp["cells"]
        if key[0] == "verilog":
            return got["verilog"] == exp
        if key[0] == "check":
            return {k: v for k, v in got.items() if k != "key"} == exp
        violations, final = exp
        lanes = req.get("lanes", 1)
        if lanes == 1:
            return (got["cycles"], got["violations"], got["outputs"]) == (
                req["cycles"], violations, final)
        return (got["cycles"], got["violations"], got["outputs"]) == (
            req["cycles"], [violations] * lanes, [final] * lanes)


def _raw_run(module, drive: dict, cycles: int) -> tuple[int, dict]:
    """Violation cycles and final outputs of an unoptimized scalar run."""
    from repro.hdl.sim import Simulator

    sim = Simulator(module, optimize=False)
    violations, out = 0, {}
    for _ in range(cycles):
        out = sim.step(drive)
        violations += int(bool(out.get("violation", 0)))
    return violations, out


# -- the run -----------------------------------------------------------------


def _drive(server: _Server, mix: _Mix, client: int, deadline: float, log: list,
           tracer) -> None:
    """Closed loop: the next request goes out when the reply is back."""
    with server.connect() as conn:
        for kind, req, key in mix.stream(client):
            if time.perf_counter() >= deadline:
                return
            t0 = time.perf_counter()
            with tracer.span(f"server.{kind}"):
                reply = conn.call(req)
            log.append((kind, time.perf_counter() - t0, req, key, reply))


def _measure(server: _Server, mix: _Mix, seconds: float, tracer) -> tuple[list, float]:
    """All clients' (kind, latency, request, key, reply) entries, and the
    elapsed wall time."""
    logs: list[list] = [[] for _ in range(CLIENTS)]
    t0 = time.perf_counter()
    threads = [
        threading.Thread(target=_drive, args=(server, mix, c, t0 + seconds, logs[c], tracer))
        for c in range(CLIENTS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [entry for log in logs for entry in log], time.perf_counter() - t0


def measure(out: Outcome, tracer, seed: int, seconds: float) -> None:
    """Start a server, drive the seeded mix for *seconds*, check every
    reply, and fill in the server, toolchain and analyze layers."""
    from repro.lattice import two_level
    from repro.proc.design import generate_design

    proc_source = generate_design(two_level())
    mix = _Mix(seed, proc_source)
    server = _Server(proc_source)
    try:
        with server.connect() as conn:
            for _kind, req, _key in mix.reads():
                conn.call(req)
        log, elapsed = _measure(server, mix, seconds, tracer)
        with server.connect() as conn:
            stats = conn.call({"op": "stats"})["result"]
    finally:
        server.close()
    for kind, _lat, req, key, reply in log:
        out.check(mix.ok(req, key, reply), f"{kind} {req['op']}: {str(reply)[:300]}")
    lat = [entry[1] for entry in log]
    by_kind = {k: [e[1] for e in log if e[0] == k] for k in ("read", "proc", "write", "stats")}
    out.notes.append(
        f"server: {len(log)} requests in {elapsed:.1f}s; "
        + ", ".join(f"{k} {len(v)} p50 {median(v) * 1e3:.2f}ms p99 "
                    f"{percentile(v, 0.99) * 1e3:.2f}ms" for k, v in by_kind.items())
    )
    out.layers["server.p50_ms"] = median(lat) * 1000
    out.layers["server.p99_ms"] = percentile(lat, 0.99) * 1000
    for kind, values in by_kind.items():
        out.layers[f"server.{kind}_p50_ms"] = median(values) * 1000
        out.layers[f"server.{kind}_p99_ms"] = percentile(values, 0.99) * 1000
    for name in ("coalesced", "errors", "builds"):
        out.layers[f"server.{name}"] = stats["server"][name]
    out.layers["server.peak_rss_mb"] = server.peak_mb
    counters = stats["toolchain"]
    for stage in ("compile", "optimize", "synth", "verilog", "check"):
        out.layers[f"toolchain.hits_{stage}"] = counters.get(f"hit:{stage}", 0)
        out.layers[f"toolchain.misses_{stage}"] = counters.get(f"miss:{stage}", 0)
    out.layers["toolchain.store_hits"] = sum(
        v for k, v in counters.items() if k.startswith("store_hit:"))
    _replays(out, tracer, server, proc_source)


def _replays(out, tracer, server, proc_source) -> None:
    """What the server does at start and for ``check``, replayed here
    through the same public calls: a toolchain warm-starting the
    processor from the server's store, and the analyzer on the small
    designs."""
    from repro.analyze import analyze_design
    from repro.lattice import two_level
    from repro.store import ArtifactStore
    from repro.toolchain import Toolchain

    with tracer.span("toolchain.start") as span:
        tc = Toolchain(store=ArtifactStore(server.store_dir))
        tc.optimize(tc.compile(proc_source, two_level(), name="sapper_mips"))
    out.layers["toolchain.start_s"] = span.seconds
    checks = []
    for name, source in _sources().items():
        design = Toolchain().compile(source, two_level(), name=name)
        with tracer.span("analyze.check") as span:
            analyze_design(design)
        checks.append(span.seconds)
    out.layers["analyze.check_s"] = median(checks)
