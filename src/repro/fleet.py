"""Multiprocess fleet scheduler for workload suites.

:class:`FleetRunner` shards a suite of workloads across N worker
processes, each hosting its own lane-batched simulator (engine
auto-selected per shard width) over a shared read-through
:class:`~repro.store.ArtifactStore`: the parent compiles the design
exactly once and publishes it, every worker warm-starts from the store
(``store_hit:compile`` in the per-shard counters is the proof).

Scheduling is occupancy-aware re-batching rather than static sharding:
each worker runs one wide batched *wave* and, whenever a lane halts or
exhausts its budget, resets that lane in place (registers to their
init values, arrays cleared) and reloads it with the next workload
pulled from the global queue -- the lane mask stays full as long as the
queue has work.  Only when the queue runs dry are starved lanes
compacted away.  Workers advertise free capacity with ``need``
messages; the parent records every assignment *before* handing tasks
over, so a worker that dies mid-wave cannot lose work.

Robustness:

* worker crash detection (``Process.is_alive``/exitcode) with bounded
  requeue of that shard's unfinished workloads (``requeue_limit``
  attempts per task, then the task runs in-process);
* stall detection: workers heartbeat during long waves, and a worker
  silent past ``worker_timeout`` with tasks assigned is killed and its
  tasks requeued;
* graceful degradation: if no multiprocessing start method is usable
  (or worker startup fails), the whole suite runs in-process -- same
  results, ``stats.degraded`` set;
* deterministic output: results are returned in submission order
  regardless of which worker finished what when, and duplicated
  results (a worker that died after sending) are deduplicated
  first-wins.  Every engine is bit-identical per lane, so fleet output
  equals single-process :func:`~repro.proc.machine.run_workloads`
  output bit for bit.

Entry points: :class:`FleetRunner` (persistent workers, cheapest for
repeated suites), ``run_workloads(shards=N)`` (one-shot convenience),
``python -m repro simulate --shards N`` and the NDJSON server's
``fleet`` op (both built on :func:`simulate_sharded` / the runner).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import signal
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from collections.abc import Sequence
from typing import Any

from repro.lattice import Lattice, two_level
from repro.mips.assembler import Executable
from repro.proc.machine import (
    RunResult,
    SapperMachine,
    check_budgets,
    compile_processor,
)
from repro.store import ArtifactStore, coerce_store
from repro.toolchain import BATCH_ENGINES, Toolchain

__all__ = [
    "FleetError",
    "FleetRunner",
    "FleetStats",
    "FleetWorkloadResult",
    "simulate_sharded",
]

#: start methods tried in order when none is pinned; fork is cheapest
#: (workers inherit the warm parent image), spawn is the portable
#: fallback, forkserver covers platforms where only it survives.
_START_METHODS = ("fork", "spawn", "forkserver")


class FleetError(RuntimeError):
    """A fleet-level scheduling failure (not a workload failure)."""


@dataclass
class FleetWorkloadResult(RunResult):
    """A :class:`RunResult` plus the lane's final architectural state.

    Captured when the runner was built with ``capture_state=True``:
    *regs* maps every register (tags included) to its final value,
    *arrays* maps each array to its sparse ``{index: value}`` contents.
    Array snapshots drop default-valued entries; compare through
    ``get(i, default)`` over the key union.
    """

    regs: dict[str, int] | None = None
    arrays: dict[str, dict[int, int]] | None = None


@dataclass
class FleetStats:
    """Fleet-level scheduling counters merged from per-shard reports."""

    shards: int
    start_method: str | None = None
    degraded: bool = False
    requeues: int = 0
    deaths: int = 0
    fallback_tasks: int = 0
    completed: int = 0
    #: wid -> that worker's last counter snapshot (lane_cycles, steps,
    #: waves, completed, width_cycles, toolchain/store counters)
    shard: dict[int, dict[str, Any]] = field(default_factory=dict)

    def merged(self) -> dict[str, Any]:
        """One fleet-wide rollup: summed shard counters, weighted
        occupancy, and summed toolchain/store counters."""
        total = {k: 0 for k in ("lane_cycles", "steps", "waves", "completed", "width_cycles")}
        toolchain: dict[str, int] = {}
        for counters in self.shard.values():
            for key in total:
                total[key] += counters.get(key, 0)
            for key, value in counters.get("toolchain", {}).items():
                toolchain[key] = toolchain.get(key, 0) + value
        width = total.pop("width_cycles")
        occupancy = total["lane_cycles"] / width if width else 0.0
        return {
            **total,
            "occupancy": round(occupancy, 4),
            "toolchain": toolchain,
            "shards": self.shards,
            "start_method": self.start_method,
            "degraded": self.degraded,
            "requeues": self.requeues,
            "deaths": self.deaths,
            "fallback_tasks": self.fallback_tasks,
        }


# --------------------------------------------------------------- jobs
#
# A job describes what the fleet is running: how the parent publishes
# shared artifacts, what spec the workers need, and how a task runs
# in-process when the fleet degrades or a task exhausts its requeues.


class _ProcJob:
    """Workload suites on the secure processor (the default job)."""

    mode = "proc"

    def __init__(self, lattice: Lattice | None, secure: bool, capture_state: bool):
        self.lattice = lattice or two_level()
        self.secure = secure
        self.capture_state = capture_state

    def prepare(self, tc: Toolchain) -> None:
        # publish the compiled and optimized design so every worker
        # warm-starts from the store instead of recompiling
        design = compile_processor(self.lattice, self.secure, toolchain=tc)
        tc.optimize(design)

    def worker_spec(self) -> dict[str, Any]:
        return {
            "mode": "proc",
            "lattice": self.lattice,
            "secure": self.secure,
            "capture_state": self.capture_state,
        }

    def run_local(self, payload: tuple) -> dict[str, Any]:
        exe, budget = payload
        machine = SapperMachine(self.lattice, self.secure)
        machine.load(exe)
        res = machine.run(budget)
        raw = {
            "outputs": res.outputs,
            "cycles": res.cycles,
            "violations": res.violations,
            "halted": res.halted,
        }
        if self.capture_state:
            raw["regs"] = dict(machine.sim.regs)
            raw["arrays"] = {name: dict(vals) for name, vals in machine.sim.arrays.items()}
        return raw

    def decode(self, raw: dict[str, Any]) -> RunResult:
        if self.capture_state:
            return FleetWorkloadResult(
                outputs=raw["outputs"],
                cycles=raw["cycles"],
                violations=raw["violations"],
                halted=raw["halted"],
                regs=raw.get("regs"),
                arrays=raw.get("arrays"),
            )
        return RunResult(raw["outputs"], raw["cycles"], raw["violations"], raw["halted"])


def _run_design_slice(tc, design, payload, *, cycles, inputs, compact, engine, tick=None):
    """One lane-slice of a generic design, mirroring the CLI simulate
    loop exactly (violation counting, final outputs, halted-lane
    compaction with stimulus realignment, all-halted early stop)."""
    lane_ids, stim = payload
    k = len(lane_ids)
    sim = tc.batch_simulator(design, k, engine=engine or "auto")
    violations = [0] * k
    final: list[dict[str, int]] = [{} for _ in range(k)]
    lane_stim = list(stim) if stim is not None else None
    for _ in range(cycles):
        if tick is not None:
            tick()
        outs = sim.step(lane_stim if lane_stim is not None else inputs)
        for pos, out in enumerate(outs):
            lane = sim.active_lanes[pos]
            violations[lane] += int(bool(out.get("violation", 0)))
            final[lane] = out
        if compact:
            retire = [pos for pos, out in enumerate(outs) if out.get("halted")]
            if retire and len(retire) == sim.lanes:
                break
            if retire:
                gone = set(retire)
                sim.compact(retire)
                if lane_stim is not None:
                    lane_stim = [d for pos, d in enumerate(lane_stim) if pos not in gone]
    return {
        "lanes": list(lane_ids),
        "violations": violations,
        "final": final,
        "steps": sim.cycles,
        "lane_cycles": sim.lane_cycles,
    }


class _DesignJob:
    """Lane slices of one generic design (``simulate --shards``)."""

    mode = "design"

    def __init__(self, source, lattice, secure, name, cycles, inputs, compact, engine):
        self.source = source
        self.lattice = lattice or two_level()
        self.secure = secure
        self.name = name
        self.cycles = cycles
        self.inputs = dict(inputs or {})
        self.compact = compact
        self.engine = engine
        self._tc: Toolchain | None = None
        self._design = None

    def prepare(self, tc: Toolchain) -> None:
        self._tc = tc
        self._design = tc.compile(self.source, self.lattice, secure=self.secure, name=self.name)
        tc.optimize(self._design)

    def worker_spec(self) -> dict[str, Any]:
        return {
            "mode": "design",
            "source": self.source,
            "lattice": self.lattice,
            "secure": self.secure,
            "name": self.name,
            "cycles": self.cycles,
            "inputs": self.inputs,
            "compact": self.compact,
        }

    def run_local(self, payload: tuple) -> dict[str, Any]:
        return _run_design_slice(
            self._tc, self._design, payload,
            cycles=self.cycles, inputs=self.inputs,
            compact=self.compact, engine=self.engine,
        )

    def decode(self, raw: dict[str, Any]) -> dict[str, Any]:
        return raw


# ------------------------------------------------------------- workers


class _StopWorker(Exception):
    """Internal: the stop event fired mid-wave; unwind quietly."""


class _Slot:
    """One live lane: which task occupies it and its progress."""

    __slots__ = ("gen", "idx", "budget", "cycle", "outputs", "violations")

    def __init__(self, gen: int, idx: int, budget: int):
        self.gen = gen
        self.idx = idx
        self.budget = budget
        self.cycle = 0
        self.outputs: list[int] = []
        self.violations = 0


class _WorkerBase:
    """Shared worker-side protocol: capacity advertisement, task
    buffering, result emission, heartbeats, stats reports.

    Protocol (all over the shared result queue, tagged with this
    worker's id): ``("need", wid, k)`` advertises free capacity,
    ``("result", wid, gen, idx, payload)`` completes one task,
    ``("hb", wid)`` proves liveness mid-wave, ``("stats", wid, dict)``
    reports counters at wave boundaries, ``("error", wid, text)`` is a
    last gasp before a crash exit.
    """

    def __init__(self, wid, spec, task_q, result_q, stop_evt):
        self.wid = wid
        self.spec = spec
        self.task_q = task_q
        self.result_q = result_q
        self.stop_evt = stop_evt
        self.capacity: int = spec["capacity"]
        self.engine: str = spec["engine"]
        self.heartbeat_every: int = spec["heartbeat_every"]
        self.self_destruct: int | None = spec.get("self_destruct")
        self._sent = 0
        self._advertised = 0
        self._beat = 0
        # a fresh store-backed toolchain: under fork *and* spawn the
        # worker reads the parent-published artifacts through the store
        # (store_hit:compile), never through inherited memory caches
        self.tc = Toolchain(store=coerce_store(spec["store_root"]))
        self.counters = {
            "lane_cycles": 0,
            "steps": 0,
            "waves": 0,
            "completed": 0,
            "width_cycles": 0,
        }

    # -- protocol helpers ---------------------------------------------------

    def _send(self, msg: tuple) -> None:
        self.result_q.put(msg)

    def _advertise(self, capacity: int) -> None:
        """Tell the parent how many more tasks fit, but only when the
        number grew -- the parent tracks what it still owes us, so
        repeating an unchanged figure would double-assign nothing and
        spam the queue."""
        if capacity > self._advertised:
            self._send(("need", self.wid, capacity))
            self._advertised = capacity

    def _receive(self, batch: list, buffer: list) -> None:
        buffer.extend(batch)
        self._advertised = max(0, self._advertised - len(batch))

    def _drain(self, buffer: list) -> None:
        while True:
            try:
                batch = self.task_q.get_nowait()
            except queue.Empty:
                return
            self._receive(batch, buffer)

    def _gather(self, buffer: list) -> list | None:
        """Block until at least one task is buffered (or stop fires),
        then take up to one wave's worth."""
        while not buffer:
            if self.stop_evt.is_set():
                return None
            self._advertise(self.capacity)
            try:
                batch = self.task_q.get(timeout=0.2)
            except queue.Empty:
                continue
            self._receive(batch, buffer)
        self._drain(buffer)
        wave = buffer[: self.capacity]
        del buffer[: self.capacity]
        return wave

    def _tick(self) -> None:
        if self.stop_evt.is_set():
            raise _StopWorker
        self._beat += 1
        if self._beat >= self.heartbeat_every:
            self._beat = 0
            self._send(("hb", self.wid))

    def _emit_result(self, gen: int, idx: int, payload: dict) -> None:
        self._send(("result", self.wid, gen, idx, payload))
        self.counters["completed"] += 1
        self._sent += 1
        if self.self_destruct is not None and self._sent >= self.self_destruct:
            # fault-injection hook: die by real SIGKILL mid-suite (the
            # brief sleep lets the queue feeder flush the last result,
            # keeping the test deterministic either way)
            time.sleep(0.05)
            os.kill(os.getpid(), signal.SIGKILL)

    def _send_stats(self) -> None:
        snap: dict[str, Any] = dict(self.counters)
        snap["toolchain"] = self.tc.counter_snapshot()
        if self.tc.store is not None:
            snap["store"] = dict(self.tc.store.counters)
        self._send(("stats", self.wid, snap))

    # -- main loop ----------------------------------------------------------

    def serve(self) -> None:
        self.prepare()
        self._send_stats()  # post-warmup snapshot: store hits visible early
        buffer: list = []
        while True:
            wave = self._gather(buffer)
            if wave is None:
                break
            self.counters["waves"] += 1
            self.run_wave(wave, buffer)
            self._send_stats()

    def prepare(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError

    def run_wave(self, wave: list, buffer: list) -> None:  # pragma: no cover
        raise NotImplementedError


class _ProcWorker(_WorkerBase):
    """Secure-processor workloads with occupancy-aware lane refill."""

    HALT_REG = "halted_r"

    def prepare(self) -> None:
        self.lattice = self.spec["lattice"] or two_level()
        self.secure = self.spec["secure"]
        self.capture = self.spec["capture_state"]
        self.design = compile_processor(self.lattice, self.secure, toolchain=self.tc)
        self.module = self.tc.optimize(self.design)

    def run_wave(self, wave: list, buffer: list) -> None:
        slots: list[_Slot | None] = []
        loads: list[tuple] = []
        for task in wave:
            if self._finish_trivial(task):
                continue
            loads.append(task)
        if not loads:
            return
        sim = self.tc.batch_simulator(self.design, len(loads), engine=self.engine)
        for pos, (gen, idx, payload) in enumerate(loads):
            exe, budget = payload
            sim.load_array(pos, "memory", exe.as_memory())
            slots.append(_Slot(gen, idx, budget))
        live = len(slots)
        while live:
            self.counters["lane_cycles"] += live
            self.counters["width_cycles"] += sim.lanes
            self.counters["steps"] += 1
            self._tick()
            outs = sim.step()
            freed: list[int] = []
            for pos, slot in enumerate(slots):
                if slot is None:
                    continue
                out = outs[pos]
                slot.cycle += 1
                if out.get("out_valid"):
                    slot.outputs.append(out["out_port"])
                if out.get("violation"):
                    slot.violations += 1
                halted = bool(sim.get_reg(pos, self.HALT_REG))
                if halted or slot.cycle >= slot.budget:
                    self._emit_result(slot.gen, slot.idx, self._payload(sim, pos, slot, halted))
                    slots[pos] = None
                    freed.append(pos)
                    live -= 1
            if not freed:
                continue
            # occupancy-aware re-batching: freed lanes are reset in
            # place and reloaded from the global queue before we ever
            # consider shrinking the batch
            self._drain(buffer)
            if not buffer:
                self._advertise(len(freed))
                self._drain(buffer)
            for pos in list(freed):
                task = self._next_task(buffer)
                if task is None:
                    break
                gen, idx, (exe, budget) = task
                self._reset_lane(sim, pos)
                sim.load_array(pos, "memory", exe.as_memory())
                slots[pos] = _Slot(gen, idx, budget)
                freed.remove(pos)
                live += 1
            if freed and live:
                # queue ran dry: compact the starved lanes away
                gone = set(freed)
                sim.compact(sorted(gone))
                slots = [s for p, s in enumerate(slots) if p not in gone]

    def _next_task(self, buffer: list) -> tuple | None:
        while buffer:
            task = buffer.pop(0)
            if not self._finish_trivial(task):
                return task
        return None

    def _finish_trivial(self, task: tuple) -> bool:
        """Zero-budget workloads never occupy a lane: emit the
        0-cycle result (initial state) immediately."""
        gen, idx, (exe, budget) = task
        if budget > 0:
            return False
        raw: dict[str, Any] = {"outputs": [], "cycles": 0, "violations": 0, "halted": False}
        if self.capture:
            raw["regs"] = {
                name: reg.init & ((1 << reg.width) - 1)
                for name, reg in self.module.regs.items()
            }
            arrays: dict[str, dict[int, int]] = {name: {} for name in self.module.arrays}
            mem = self.module.arrays["memory"]
            mask = (1 << mem.width) - 1
            arrays["memory"] = {
                i: v & mask for i, v in exe.as_memory().items() if (v & mask) != mem.default
            }
            raw["arrays"] = arrays
        self._emit_result(gen, idx, raw)
        return True

    def _reset_lane(self, sim, pos: int) -> None:
        """Return lane *pos* to construction state: every register to
        its init value, every array cleared.  With the new program
        memory loaded on top this is exactly a freshly built lane."""
        for name, reg in self.module.regs.items():
            sim.set_reg(pos, name, reg.init)
        for name in self.module.arrays:
            sim.load_array(pos, name, {})

    def _payload(self, sim, pos: int, slot: _Slot, halted: bool) -> dict[str, Any]:
        raw: dict[str, Any] = {
            "outputs": slot.outputs,
            "cycles": slot.cycle,
            "violations": slot.violations,
            "halted": halted,
        }
        if self.capture:
            raw["regs"] = sim.lane_regs(pos)
            raw["arrays"] = {
                name: dict(sim.arrays[name][pos]) for name in self.module.arrays
            }
        return raw


class _DesignWorker(_WorkerBase):
    """Generic-design lane slices: one task is one independent batch."""

    def prepare(self) -> None:
        self.capacity = 1  # a slice is already a full batch
        self.design = self.tc.compile(
            self.spec["source"],
            self.spec["lattice"] or two_level(),
            secure=self.spec["secure"],
            name=self.spec["name"],
        )
        self.tc.optimize(self.design)

    def run_wave(self, wave: list, buffer: list) -> None:
        for gen, idx, payload in wave:
            raw = _run_design_slice(
                self.tc, self.design, payload,
                cycles=self.spec["cycles"], inputs=self.spec["inputs"],
                compact=self.spec["compact"], engine=self.engine,
                tick=self._tick,
            )
            self.counters["lane_cycles"] += raw["lane_cycles"]
            self.counters["steps"] += raw["steps"]
            self.counters["width_cycles"] += raw["steps"] * len(payload[0])
            self._emit_result(gen, idx, raw)


_WORKER_MODES = {"proc": _ProcWorker, "design": _DesignWorker}


def _worker_main(wid, spec, task_q, result_q, stop_evt):
    """Worker process entry point (top-level for spawn picklability)."""
    try:
        worker = _WORKER_MODES[spec["mode"]](wid, spec, task_q, result_q, stop_evt)
        worker.serve()
        worker._send_stats()
    except _StopWorker:
        pass
    except BaseException as exc:  # noqa: BLE001 - last-gasp crash report
        try:
            result_q.put(("error", wid, f"{type(exc).__name__}: {exc}"))
        except Exception:
            pass
        raise SystemExit(1)


# -------------------------------------------------------------- runner


class FleetRunner:
    """N persistent worker processes running workload suites over one
    shared artifact store.

    Context-managed::

        with FleetRunner(shards=4, store="/tmp/artifacts") as fleet:
            results = fleet.run(executables, max_cycles=budgets)
            again = fleet.run(more_executables)   # workers stay warm

    Workers persist across :meth:`run` calls, so the per-process
    warm-up (store read + batched codegen) is paid once.  *store*
    accepts an :class:`ArtifactStore`, a directory path, or ``None``
    (a private temporary store).  *lanes_per_worker* bounds each
    worker's wave width; *engine* is one of
    :data:`~repro.toolchain.BATCH_ENGINES` (``"auto"`` or None, the
    default, picks per wave width in each worker).
    ``capture_state=True`` returns :class:`FleetWorkloadResult` with
    final registers and arrays.

    ``_self_destruct={wid: n}`` is a fault-injection hook: that worker
    SIGKILLs itself after *n* results (tests use it for deterministic
    crash/requeue coverage).
    """

    def __init__(
        self,
        shards: int = 2,
        lattice: Lattice | None = None,
        secure: bool = True,
        lanes_per_worker: int = 128,
        store: ArtifactStore | str | None = None,
        engine: str | None = None,
        start_method: str | None = None,
        requeue_limit: int = 2,
        worker_timeout: float | None = 120.0,
        capture_state: bool = False,
        heartbeat_every: int = 200,
        _job=None,
        _self_destruct: dict[int, int] | None = None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if lanes_per_worker < 1:
            raise ValueError(f"lanes_per_worker must be >= 1, got {lanes_per_worker}")
        engine = engine or "auto"  # resolved per wave width in each worker
        if engine not in BATCH_ENGINES:
            raise ValueError(f"unknown batch engine {engine!r}")
        self.shards = shards
        self.lanes_per_worker = lanes_per_worker
        self.engine = engine
        self.start_method = start_method
        self.requeue_limit = requeue_limit
        self.worker_timeout = worker_timeout
        self.heartbeat_every = heartbeat_every
        self._tmp: tempfile.TemporaryDirectory | None = None
        self.store = coerce_store(store)
        if self.store is None:
            self._tmp = tempfile.TemporaryDirectory(prefix="repro-fleet-")
            self.store = ArtifactStore(self._tmp.name)
        self._job = _job if _job is not None else _ProcJob(lattice, secure, capture_state)
        self._self_destruct = dict(_self_destruct or {})
        self._started = False
        self._closed = False
        self._gen = 0
        self._workers: dict[int, Any] = {}
        self._task_qs: dict[int, Any] = {}
        self._dead: set[int] = set()
        self._want: dict[int, int] = {}
        self._last: dict[int, float] = {}
        self._result_q = None
        self._stop_evt = None
        self.errors: list[str] = []
        self.stats = FleetStats(shards=shards)

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> FleetRunner:
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self) -> None:
        """Publish shared artifacts and launch the workers.  Any
        multiprocessing failure degrades to in-process execution
        instead of raising."""
        if self._started:
            return
        if self._closed:
            raise FleetError("FleetRunner is closed")
        self._started = True
        self._job.prepare(Toolchain(store=self.store))
        ctx = None
        methods = (self.start_method,) if self.start_method else _START_METHODS
        for method in methods:
            try:
                ctx = mp.get_context(method)
                break
            except ValueError:
                continue
        if ctx is None:
            self._degrade("no usable multiprocessing start method")
            return
        try:
            self._result_q = ctx.Queue()
            self._stop_evt = ctx.Event()
            spec = {
                "store_root": str(self.store.root),
                "capacity": self.lanes_per_worker,
                "engine": self.engine,
                "heartbeat_every": self.heartbeat_every,
                **self._job.worker_spec(),
            }
            for wid in range(self.shards):
                task_q = ctx.Queue()
                wspec = dict(spec)
                wspec["self_destruct"] = self._self_destruct.get(wid)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(wid, wspec, task_q, self._result_q, self._stop_evt),
                    daemon=True,
                    name=f"repro-fleet-{wid}",
                )
                proc.start()
                self._workers[wid] = proc
                self._task_qs[wid] = task_q
            self.stats.start_method = ctx.get_start_method()
        except (OSError, ValueError, AttributeError) as exc:
            self._degrade(f"worker startup failed: {exc}")

    def _degrade(self, reason: str) -> None:
        self.errors.append(reason)
        self.stats.degraded = True
        self._teardown_workers()

    def worker_pids(self) -> dict[int, int | None]:
        """Live worker pids (fault-injection tests kill these)."""
        return {
            wid: proc.pid
            for wid, proc in self._workers.items()
            if wid not in self._dead and proc.is_alive()
        }

    def close(self) -> None:
        """Stop the workers and release the queues."""
        if self._closed:
            return
        self._closed = True
        if self._stop_evt is not None:
            try:
                self._stop_evt.set()
            except Exception:
                pass
        self._teardown_workers()
        for q in ([self._result_q] if self._result_q is not None else []) + list(
            self._task_qs.values()
        ):
            try:
                q.close()
                q.cancel_join_thread()
            except Exception:
                pass
        if self._tmp is not None:
            self._tmp.cleanup()
            self._tmp = None

    def _teardown_workers(self) -> None:
        for proc in self._workers.values():
            try:
                proc.join(timeout=1.0)
                if proc.is_alive():
                    proc.kill()
                    proc.join(timeout=1.0)
            except Exception:
                pass
        self._dead.update(self._workers)

    # -- running ------------------------------------------------------------

    def run(
        self,
        executables: Sequence[Executable],
        max_cycles: int | Sequence[int] = 2_000_000,
    ) -> list[RunResult]:
        """Run the suite; one result per executable, submission order."""
        budgets = check_budgets(max_cycles, len(executables))
        payloads = list(zip(executables, budgets))
        return [self._job.decode(raw) for raw in self._run_payloads(payloads)]

    def _alive_ids(self) -> list[int]:
        return [
            wid
            for wid, proc in self._workers.items()
            if wid not in self._dead and proc.is_alive()
        ]

    def _run_payloads(self, payloads: list) -> list:
        self.start()
        n = len(payloads)
        if n == 0:
            return []
        results: list = [None] * n
        if self.stats.degraded or not self._alive_ids():
            self.stats.fallback_tasks += n
            self._run_local(payloads, range(n), results)
            self.stats.completed += n
            return results
        gen = self._gen = self._gen + 1
        done = 0
        pending: deque[int] = deque(range(n))
        attempts = [0] * n
        lost: list[int] = []
        assigned: dict[int, set[int]] = {wid: set() for wid in self._workers}
        participants: set[int] = set()
        stale_stats: set[int] = set()
        now = time.monotonic()
        for wid in self._workers:
            self._last[wid] = now
        self._dispatch(pending, payloads, assigned, gen)
        while done + len(lost) < n:
            if not self._alive_ids():
                break
            try:
                msg = self._result_q.get(timeout=0.1)
            except queue.Empty:
                self._reap(pending, assigned, attempts, lost)
                self._check_stalls(assigned)
                self._dispatch(pending, payloads, assigned, gen)
                continue
            kind, wid = msg[0], msg[1]
            self._last[wid] = time.monotonic()
            if kind == "need":
                self._want[wid] = msg[2]
                self._dispatch(pending, payloads, assigned, gen)
            elif kind == "result":
                _, _, rgen, idx, payload = msg
                if rgen != gen:
                    continue  # stale duplicate from a previous suite
                participants.add(wid)
                stale_stats.add(wid)
                assigned.get(wid, set()).discard(idx)
                if results[idx] is None:
                    results[idx] = payload
                    done += 1
            elif kind == "stats":
                self.stats.shard[wid] = msg[2]
                stale_stats.discard(wid)
            elif kind == "error":
                self.errors.append(f"worker {wid}: {msg[2]}")
        # each participant reports its counters right after its wave
        # ends; a brief bounded drain keeps the merged snapshot current
        deadline = time.monotonic() + 0.5
        while stale_stats & set(self._alive_ids()) and time.monotonic() < deadline:
            try:
                msg = self._result_q.get(timeout=0.05)
            except queue.Empty:
                continue
            kind, wid = msg[0], msg[1]
            self._last[wid] = time.monotonic()
            if kind == "need":
                self._want[wid] = msg[2]
            elif kind == "stats":
                self.stats.shard[wid] = msg[2]
                stale_stats.discard(wid)
            elif kind == "error":
                self.errors.append(f"worker {wid}: {msg[2]}")
        missing = [i for i in range(n) if results[i] is None]
        if missing:
            # dead fleet, exhausted requeues, or lost tasks: finish
            # in-process so the suite always completes
            self.stats.fallback_tasks += len(missing)
            self._run_local(payloads, missing, results)
        self.stats.completed += n
        return results

    def _run_local(self, payloads: list, indices, results: list) -> None:
        for idx in indices:
            results[idx] = self._job.run_local(payloads[idx])

    def _dispatch(self, pending: deque, payloads: list, assigned: dict, gen: int) -> None:
        """Hand queued tasks to workers with advertised free capacity.
        The assignment is recorded parent-side *before* the tasks hit
        the worker's queue: a worker death can then never lose a task,
        only trigger its requeue."""
        if not pending:
            return
        for wid in list(self._want):
            if not pending:
                return
            if wid in self._dead:
                continue
            want = self._want[wid]
            if want <= 0:
                continue
            give = min(want, len(pending))
            batch = []
            for _ in range(give):
                idx = pending.popleft()
                assigned[wid].add(idx)
                batch.append((gen, idx, payloads[idx]))
            self._want[wid] = want - give
            try:
                self._task_qs[wid].put(batch)
            except (OSError, ValueError):
                for _, idx, _payload in batch:
                    assigned[wid].discard(idx)
                    pending.append(idx)

    def _reap(self, pending: deque, assigned: dict, attempts: list, lost: list) -> None:
        """Detect dead workers and requeue their assigned-but-undone
        tasks, bounded by ``requeue_limit`` attempts per task."""
        for wid, proc in self._workers.items():
            if wid in self._dead or proc.is_alive():
                continue
            self._dead.add(wid)
            self.stats.deaths += 1
            self._want.pop(wid, None)
            orphans = sorted(assigned[wid])
            assigned[wid] = set()
            for idx in orphans:
                attempts[idx] += 1
                if attempts[idx] > self.requeue_limit:
                    lost.append(idx)
                else:
                    pending.append(idx)
            self.stats.requeues += len(orphans)

    def _check_stalls(self, assigned: dict) -> None:
        """Kill workers that went silent past *worker_timeout* while
        holding tasks; the next reap pass requeues their work."""
        if not self.worker_timeout:
            return
        now = time.monotonic()
        for wid, proc in self._workers.items():
            if wid in self._dead or not assigned.get(wid):
                continue
            if now - self._last.get(wid, now) > self.worker_timeout:
                try:
                    proc.kill()
                except Exception:
                    pass


# ------------------------------------------------- generic design entry


def simulate_sharded(
    source: str,
    lattice: Lattice | None = None,
    *,
    cycles: int,
    lanes: int,
    shards: int = 2,
    name: str = "design",
    secure: bool = True,
    inputs: dict[str, int] | None = None,
    lane_stim: list[dict[str, int]] | None = None,
    engine: str | None = None,
    compact: bool = True,
    store: ArtifactStore | str | None = None,
    start_method: str | None = None,
    slice_lanes: int | None = None,
) -> dict[str, Any]:
    """Shard a generic design's lane batch across fleet workers.

    The stimulus lanes split into contiguous slices (about two per
    worker, override with *slice_lanes*); each worker compiles the
    design once from the shared store and runs its slices exactly as
    the CLI simulate loop would, so per-lane violations and final
    outputs are bit-identical to the single-process run.  Returns
    ``{"violations", "final", "lane_cycles", "steps", "stats"}`` with
    per-lane lists indexed by original lane id.
    """
    if lane_stim is not None and len(lane_stim) != lanes:
        raise ValueError(f"lane_stim has {len(lane_stim)} entries for {lanes} lanes")
    slice_lanes = slice_lanes or max(1, -(-lanes // max(1, shards * 2)))
    payloads = []
    for lo in range(0, lanes, slice_lanes):
        ids = list(range(lo, min(lo + slice_lanes, lanes)))
        stim = [lane_stim[i] for i in ids] if lane_stim is not None else None
        payloads.append((ids, stim))
    job = _DesignJob(source, lattice, secure, name, cycles, inputs, compact, engine)
    runner = FleetRunner(
        shards=shards,
        store=store,
        engine=engine,
        start_method=start_method,
        _job=job,
    )
    with runner:
        parts = runner._run_payloads(payloads)
    violations = [0] * lanes
    final: list[dict[str, int]] = [{} for _ in range(lanes)]
    lane_cycles = 0
    steps = 0
    for part in parts:
        for off, lane in enumerate(part["lanes"]):
            violations[lane] = part["violations"][off]
            final[lane] = part["final"][off]
        lane_cycles += part["lane_cycles"]
        steps = max(steps, part["steps"])
    return {
        "violations": violations,
        "final": final,
        "lane_cycles": lane_cycles,
        "steps": steps,
        "stats": runner.stats,
    }
