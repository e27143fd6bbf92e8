"""Shared plumbing for the benchmark workloads.

Every path the benchmark reads or writes sits inside the checkout:
sources come from ``src/``, scratch files go under ``.perfbench/``.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and keep temporary
    files inside the checkout (for this process and its children)."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no Sapper sources at {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ.pop("REPRO_STORE", None)
    import tempfile

    tempfile.tempdir = str(tmp)


def fresh_dir(name: str) -> Path:
    """An empty directory ``.perfbench/<name>`` (wiped if it existed)."""
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def child_env() -> dict[str, str]:
    """The environment of every child: this checkout's sources, and one
    string-hash seed, so set and dict orders inside the program repeat
    from process to process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def vm_hwm_mb(pid: int) -> float | None:
    """Peak resident set of a live process (``VmHWM``), or None once it
    is gone.  Unlike ``ru_maxrss`` this starts afresh at ``exec``, so it
    does not inherit the benchmark process's own size."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def run_child(argv: list[str], timeout: float = 150.0) -> tuple[float, str, float]:
    """Run a fresh Python child to completion; returns (wall seconds,
    stdout, peak RSS in MB sampled every 10 ms).  A nonzero exit raises
    with the child's stderr."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    peak = [0.0]
    done = threading.Event()

    def sample() -> None:
        while not done.wait(0.01):
            mb = vm_hwm_mb(proc.pid)
            if mb is not None:
                peak[0] = max(peak[0], mb)

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    finally:
        done.set()
        sampler.join()
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv[:3]} exited {proc.returncode}: {stderr[-2000:]}")
    return wall, stdout, peak[0]


def own_peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """The *q*-quantile (0..1) of *values* by nearest rank."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


#: signals in the calibration netlist, and calls of it per block
CAL_SIGNALS = 2500
CAL_CALLS = 250
#: NumPy steps per block, over arrays of CAL_LANES lanes
CAL_STEPS = 16_000
CAL_LANES = 256
#: wall seconds one calibration block took on a quiet stretch of the
#: 2-CPU host the benchmark was tuned on: the reference speed
REF_BLOCK_S = 0.150


def _netlist(signals: int):
    """A fixed straight-line function of the shape the simulators
    generate: masked integer operations, selects and a dict memory over
    64 registers.  Built from seed 0, never from the program under test."""
    rng = random.Random(0)
    names = [f"r[{i}]" for i in range(64)]
    lines = ["def step(r, mem):"]
    for i in range(signals):
        a, b = rng.choice(names[-200:]), rng.choice(names)
        kind = rng.random()
        if kind < 0.5:
            expr = f"({a} {rng.choice('+^&|-')} {b}) & 0xFFFFFFFF"
        elif kind < 0.6:
            expr = f"({a} * {b}) & 0xFFFFFFFFFFFFFFFF"
        elif kind < 0.7:
            expr = f"({a} >> {rng.randrange(1, 31)}) | ({b} << 3) & 0xFFFF"
        elif kind < 0.8:
            expr = f"mem.get({a} & 1023, 0) ^ {b}"
        elif kind < 0.9:
            expr = f"{a} if {b} & 1 else {rng.choice(names)}"
        else:
            expr = f"int({a} < {b})"
        lines.append(f"    v{i} = {expr}")
        names.append(f"v{i}")
    lines += [f"    r[{j}] = {rng.choice(names[-500:])}" for j in range(64)]
    lines.append(f"    mem[{names[-1]} & 1023] = {names[-2]}")
    scope: dict = {}
    exec(compile("\n".join(lines), "<calibration>", "exec"), scope)
    return scope["step"]


def calibration_block(step) -> float:
    """Wall seconds of fixed work that does not depend on the program
    under test, so it measures the host's speed alone: calls of the
    netlist *step* (interpreted generated code) and NumPy steps on small
    uint64 arrays, about half the time each -- the two kinds of work the
    vector engine's passes are made of."""
    import numpy as np

    t0 = time.perf_counter()
    regs, mem = list(range(1, 65)), {}
    for _ in range(CAL_CALLS):
        step(regs, mem)
    a = np.arange(1, CAL_LANES + 1, dtype=np.uint64)
    b = a * np.uint64(2654435761)
    mask, three = np.uint64(0xFFFFFFFF), np.uint64(3)
    for _ in range(CAL_STEPS):
        c = (a * b) & mask
        a = np.where(c > b, c, a) ^ (b >> three)
        b = b + a
    return time.perf_counter() - t0


class HostClock:
    """Times work in reference seconds: the wall time it would take at
    the host's reference speed.

    On a shared host the same code runs at more than one speed: busy
    stretches of seconds to minutes slow it by up to 2x.  A
    calibration block runs after every timed piece of work, and the
    piece's wall time is scaled by ``REF_BLOCK_S`` over the mean of the
    blocks on either side of it, so a busy stretch that slows both
    cancels out while a change to the program does not.
    """

    def __init__(self) -> None:
        self.step = _netlist(CAL_SIGNALS)
        self.blocks = [calibration_block(self.step)]
        self.walls: list[float] = []

    def add(self, wall: float) -> float:
        """*wall* seconds of work that just ended, in reference seconds."""
        before = self.blocks[-1]
        self.blocks.append(calibration_block(self.step))
        self.walls.append(wall)
        return wall * REF_BLOCK_S / ((before + self.blocks[-1]) / 2)

    def measure(self, fn) -> tuple[float, object]:
        """(reference seconds of ``fn()``, its result)."""
        t0 = time.perf_counter()
        result = fn()
        return self.add(time.perf_counter() - t0), result

    def note(self) -> str:
        return (f"host: calibration block median {median(self.blocks) * 1000:.1f} ms "
                f"(reference {REF_BLOCK_S * 1000:.0f} ms), {len(self.blocks)} blocks")


def timed_setups(setup, reps: int, clock: HostClock) -> tuple[float, float, object]:
    """Run *setup* *reps* times from scratch; returns (median reference
    seconds, median wall seconds, the last set-up's result).  Each
    earlier result is released through its ``close`` method when it
    has one."""
    ref, wall = [], []
    result = None
    for i in range(reps):
        seconds, result = clock.measure(setup)
        ref.append(seconds)
        wall.append(clock.walls[-1])
        if i < reps - 1 and hasattr(result, "close"):
            result.close()
    return median(ref), median(wall), result


@dataclass
class Outcome:
    """What one workload run produced."""

    attempted: int = 0
    failed: int = 0
    #: end-to-end metric name -> value
    e2e: dict[str, float] = field(default_factory=dict)
    #: per-layer metric name -> value (traced runs only)
    layers: dict[str, float] = field(default_factory=dict)
    #: human-readable lines printed before the result line
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one checked output; a mismatch is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"MISMATCH: {what}")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())
