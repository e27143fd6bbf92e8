"""The multiprocess fleet scheduler, pinned by differential testing.

Three contracts are pinned here:

* **Differential equivalence** (Hypothesis) -- random program suites x
  random per-lane cycle budgets (the budgets force retirements at
  different cycles, so lanes are reset and refilled mid-wave) produce
  results bit-identical to single-process execution: outputs, cycle
  counts, violation counts, halt flags, *and* the final architectural
  state (every register including shadow tags, every array) of each
  lane.  Including the 1-workload and fewer-workloads-than-shards edge
  cases.
* **Fault injection** -- a worker SIGKILLed mid-suite (deterministic
  via the ``_self_destruct`` hook) triggers crash detection and bounded
  requeue, and the suite still completes with correct results; with
  requeues exhausted the lost tasks finish in-process; a corrupted
  artifact store under the fleet is quarantined and recomputed, never
  served; an unusable start method degrades to in-process execution.
  Every fault test runs under a hard alarm so a scheduling hang fails
  fast instead of wedging the suite.
* **Budget validation** -- a per-lane ``max_cycles`` sequence that is
  shorter or longer than the suite raises ``ValueError`` naming the
  mispaired lane indices, on every path (scalar, batched, fleet).

The fleets are module-scoped and persist across Hypothesis examples:
each worker pays its store warm-start and batched codegen once.
"""

import contextlib
import os
import signal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet import FleetRunner, FleetWorkloadResult
from repro.mips.assembler import assemble
from repro.proc.machine import (
    BatchedMachines,
    SapperMachine,
    check_budgets,
    compile_processor,
    run_workloads,
)
from repro.store import ArtifactStore
from repro.toolchain import get_toolchain


@contextlib.contextmanager
def deadline(seconds: int):
    """Hard wall-clock guard: a hang in the fleet driver loop fails the
    test instead of wedging the whole suite."""

    def fire(signum, frame):
        raise TimeoutError(f"fleet test exceeded {seconds}s deadline")

    old = signal.signal(signal.SIGALRM, fire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def program(k: int, n: int) -> str:
    """Spin *n* loop iterations, emit *k* on the output port, halt."""
    return f"""
.org 0x400
    li   $s0, {n}
loop:
    addiu $s0, $s0, -1
    bgt  $s0, $zero, loop
    li   $t9, 0x40000000
    li   $t1, {k}
    sw   $t1, 0($t9)
    li   $t9, 0x40000004
    sw   $zero, 0($t9)
"""


def executables(specs):
    return [assemble(program(k, n)) for k, n in specs]


# ------------------------------------------------------------ fixtures


@pytest.fixture(scope="module")
def module():
    """The optimized processor module (register widths, array defaults)
    used to normalize state snapshots for comparison."""
    tc = get_toolchain()
    return tc.optimize(compile_processor())


@pytest.fixture(scope="module")
def fleet_store(tmp_path_factory):
    return ArtifactStore(tmp_path_factory.mktemp("fleet-store"))


@pytest.fixture(scope="module")
def fleet2(fleet_store):
    """Persistent 2-shard fleet with deliberately narrow lanes (wave
    width 3) so suites larger than 6 exercise lane refill mid-wave."""
    with FleetRunner(
        shards=2, lanes_per_worker=3, store=fleet_store, capture_state=True
    ) as fleet:
        yield fleet


@pytest.fixture(scope="module")
def fleet3(fleet_store):
    with FleetRunner(
        shards=3, lanes_per_worker=2, store=fleet_store, capture_state=True
    ) as fleet:
        yield fleet


# ------------------------------------------------- state normalization


def norm_regs(regs, module):
    return {name: regs[name] & ((1 << reg.width) - 1) for name, reg in module.regs.items()}


def norm_arrays(arrays, module):
    """Sparse array snapshots with default-valued entries dropped --
    the canonical form both the scalar simulator state and the fleet's
    captured lane state reduce to."""
    out = {}
    for name, arr in module.arrays.items():
        mask = (1 << arr.width) - 1
        out[name] = {
            i: v & mask
            for i, v in arrays.get(name, {}).items()
            if (v & mask) != arr.default
        }
    return out


def scalar_reference(specs, budgets):
    """One scalar machine per workload: the golden single-process run,
    final state included."""
    ref = []
    for (k, n), budget in zip(specs, budgets):
        machine = SapperMachine()
        machine.load(assemble(program(k, n)))
        res = machine.run(budget)
        ref.append((res, dict(machine.sim.regs), {
            name: dict(vals) for name, vals in machine.sim.arrays.items()
        }))
    return ref


def assert_matches_reference(results, specs, budgets, module):
    ref = scalar_reference(specs, budgets)
    assert len(results) == len(ref)
    for lane, (got, (want, want_regs, want_arrays)) in enumerate(zip(results, ref)):
        assert isinstance(got, FleetWorkloadResult), lane
        assert got.outputs == want.outputs, f"lane {lane} outputs"
        assert got.cycles == want.cycles, f"lane {lane} cycles"
        assert got.violations == want.violations, f"lane {lane} violations"
        assert got.halted == want.halted, f"lane {lane} halted"
        assert norm_regs(got.regs, module) == norm_regs(want_regs, module), f"lane {lane} regs"
        assert norm_arrays(got.arrays, module) == norm_arrays(want_arrays, module), (
            f"lane {lane} arrays"
        )


# ------------------------------------------------------- differential


@st.composite
def suites(draw, max_programs=8):
    """(specs, budgets): random programs x a retirement schedule.

    The three budget bands pin the three lane lifecycles: 0 never
    occupies a lane, the middle band always exhausts before the halt
    store fires (the processor spends ~290 boot cycles before user
    code), and the top band comfortably halts -- mixing them inside one
    suite forces staggered retirement and lane refill.
    """
    specs = draw(
        st.lists(
            st.tuples(st.integers(0, 255), st.integers(0, 10)),
            min_size=1,
            max_size=max_programs,
        )
    )
    budget = st.one_of(st.just(0), st.integers(1, 250), st.integers(400, 700))
    budgets = [draw(budget) for _ in specs]
    return specs, budgets


class TestDifferential:
    @settings(
        max_examples=5, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(suite=suites())
    def test_fleet_matches_scalar_bit_for_bit(self, suite, fleet2, module):
        specs, budgets = suite
        results = fleet2.run(executables(specs), max_cycles=budgets)
        assert_matches_reference(results, specs, budgets, module)

    @settings(
        max_examples=3, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(suite=suites(max_programs=2))
    def test_fewer_workloads_than_shards(self, suite, fleet3, module):
        specs, budgets = suite
        results = fleet3.run(executables(specs), max_cycles=budgets)
        assert_matches_reference(results, specs, budgets, module)

    def test_single_workload(self, fleet3, module):
        specs, budgets = [(42, 3)], [600]
        results = fleet3.run(executables(specs), max_cycles=budgets)
        assert_matches_reference(results, specs, budgets, module)
        assert results[0].outputs == [42] and results[0].halted

    def test_empty_suite(self, fleet2):
        assert fleet2.run([], max_cycles=100) == []

    def test_zero_budget_is_initial_state(self, fleet2, module):
        specs, budgets = [(9, 2)], [0]
        results = fleet2.run(executables(specs), max_cycles=budgets)
        assert_matches_reference(results, specs, budgets, module)
        assert results[0].cycles == 0 and not results[0].halted

    def test_matches_batched_single_process(self, fleet2):
        """Against run_workloads' batched path (>= MIN_LANES lanes)."""
        specs = [(i, i % 7) for i in range(20)]
        exes = executables(specs)
        single = run_workloads(exes, max_cycles=600)
        results = fleet2.run(exes, max_cycles=600)
        assert [(r.outputs, r.cycles, r.violations, r.halted) for r in results] == [
            (r.outputs, r.cycles, r.violations, r.halted) for r in single
        ]

    def test_run_workloads_shards_entry_point(self, fleet_store):
        """run_workloads(shards=N) is the one-shot convenience wrapper
        around the fleet and matches the in-process run exactly."""
        specs = [(i * 3, i % 5) for i in range(8)]
        exes = executables(specs)
        single = run_workloads(exes, max_cycles=600)
        sharded = run_workloads(exes, max_cycles=600, shards=2, store=fleet_store)
        assert [(r.outputs, r.cycles, r.halted) for r in sharded] == [
            (r.outputs, r.cycles, r.halted) for r in single
        ]

    def test_auto_engine_shards_like_the_unsharded_run(self, fleet_store):
        """engine="auto" names the default on every path: the fleet
        resolves it per worker wave, exactly as it resolves None."""
        specs = [(i * 5, i % 4) for i in range(6)]
        exes = executables(specs)
        single = run_workloads(exes, max_cycles=600, engine="auto")
        sharded = run_workloads(
            exes, max_cycles=600, engine="auto", shards=2, store=fleet_store
        )
        assert [(r.outputs, r.cycles, r.violations, r.halted) for r in sharded] == [
            (r.outputs, r.cycles, r.violations, r.halted) for r in single
        ]


class TestSchedulingStats:
    def test_warm_start_and_occupancy_visible(self, fleet2):
        """After any suite, at least one shard proves it read the
        parent-published design through the store, and the merged
        rollup carries a sane occupancy."""
        specs = [(i, 2 + i % 4) for i in range(9)]
        fleet2.run(executables(specs), max_cycles=200)
        assert fleet2.stats.shard, "no shard ever reported stats"
        hits = sum(
            snap.get("toolchain", {}).get("store_hit:compile", 0)
            for snap in fleet2.stats.shard.values()
        )
        assert hits >= 1, fleet2.stats.shard
        merged = fleet2.stats.merged()
        assert merged["shards"] == 2
        assert 0.0 < merged["occupancy"] <= 1.0
        assert merged["lane_cycles"] > 0
        assert not merged["degraded"]
        assert fleet2.errors == []

    def test_results_arrive_in_submission_order(self, fleet2):
        """Skewed suite: the longest workload is submitted first and
        must come back first, regardless of finishing last."""
        specs = [(1, 10)] + [(i, 0) for i in range(2, 8)]
        results = fleet2.run(executables(specs), max_cycles=800)
        assert [r.outputs[0] for r in results] == [1, 2, 3, 4, 5, 6, 7]


# ---------------------------------------------------- fault injection


class TestFaultInjection:
    def test_sigkill_mid_suite_requeues_and_completes(self, fleet_store, module):
        """Worker 0 SIGKILLs itself after its first result while still
        holding assigned tasks; the parent detects the death, requeues
        the orphans, and the suite completes bit-identically."""
        specs = [(i, 3 + i % 5) for i in range(12)]
        budgets = [250] * len(specs)
        with deadline(120):
            with FleetRunner(
                shards=2,
                lanes_per_worker=2,
                store=fleet_store,
                capture_state=True,
                requeue_limit=3,
                _self_destruct={0: 1},
            ) as fleet:
                results = fleet.run(executables(specs), max_cycles=budgets)
                assert fleet.stats.deaths == 1
                assert fleet.stats.requeues >= 1
        assert_matches_reference(results, specs, budgets, module)

    def test_requeues_exhausted_falls_back_in_process(self, fleet_store, module):
        """With the only worker suiciding and zero requeue budget, the
        orphaned tasks finish in-process -- the suite never fails."""
        specs = [(i, 2) for i in range(6)]
        budgets = [200] * len(specs)
        with deadline(120):
            with FleetRunner(
                shards=1,
                lanes_per_worker=2,
                store=fleet_store,
                capture_state=True,
                requeue_limit=0,
                _self_destruct={0: 1},
            ) as fleet:
                results = fleet.run(executables(specs), max_cycles=budgets)
                assert fleet.stats.deaths == 1
                assert fleet.stats.fallback_tasks >= 1
        assert_matches_reference(results, specs, budgets, module)

    def test_all_workers_dead_suite_still_completes(self, fleet_store, module):
        """Every worker dies immediately after one result: everything
        left finishes in-process, in order, correct."""
        specs = [(i, 1) for i in range(8)]
        budgets = [200] * len(specs)
        with deadline(120):
            with FleetRunner(
                shards=2,
                lanes_per_worker=2,
                store=fleet_store,
                capture_state=True,
                requeue_limit=1,
                _self_destruct={0: 1, 1: 1},
            ) as fleet:
                results = fleet.run(executables(specs), max_cycles=budgets)
                assert fleet.stats.deaths == 2
        assert_matches_reference(results, specs, budgets, module)

    def test_corrupt_store_under_fleet_recomputes(self, tmp_path, module):
        """Every persisted artifact is bit-flipped between two fleet
        runs over the same store: the poison is quarantined and
        recomputed (never served), and the second fleet's results are
        still bit-identical."""
        store_dir = tmp_path / "store"
        specs = [(i, 2) for i in range(5)]
        budgets = [200] * len(specs)
        with deadline(180):
            with FleetRunner(shards=2, store=ArtifactStore(store_dir)) as fleet:
                fleet.run(executables(specs), max_cycles=budgets)
            entries = sorted(store_dir.glob("*/*/*.art"))
            assert entries, "fleet run persisted nothing"
            for path in entries:
                blob = bytearray(path.read_bytes())
                blob[len(blob) // 2] ^= 0x40
                path.write_bytes(bytes(blob))
            store = ArtifactStore(store_dir)
            with FleetRunner(
                shards=2, store=store, capture_state=True
            ) as fleet:
                results = fleet.run(executables(specs), max_cycles=budgets)
            assert store.counters["corrupt"] >= 1, store.counters
        assert_matches_reference(results, specs, budgets, module)

    def test_unusable_start_method_degrades_in_process(self, fleet_store, module):
        specs = [(7, 2), (8, 3)]
        budgets = [200, 200]
        with FleetRunner(
            shards=2,
            store=fleet_store,
            capture_state=True,
            start_method="not-a-start-method",
        ) as fleet:
            results = fleet.run(executables(specs), max_cycles=budgets)
            assert fleet.stats.degraded
            assert fleet.stats.fallback_tasks == len(specs)
            assert fleet.errors
        assert_matches_reference(results, specs, budgets, module)

    def test_closed_runner_refuses_restart(self, fleet_store):
        fleet = FleetRunner(shards=1, store=fleet_store)
        fleet.close()
        with pytest.raises(Exception, match="closed"):
            fleet.start()


# ------------------------------------------------- budget validation


class TestBudgetValidation:
    def test_short_sequence_names_orphan_lanes(self):
        with pytest.raises(ValueError, match=r"lanes 2\.\.4 have no budget"):
            check_budgets([10, 20], 5)

    def test_long_sequence_names_extra_indices(self):
        with pytest.raises(ValueError, match=r"budget indices 2\.\.3 name no lane"):
            check_budgets([10, 20, 30, 40], 2)

    def test_int_replicates_and_exact_sequence_passes(self):
        assert check_budgets(7, 3) == [7, 7, 7]
        assert check_budgets([1, 2, 3], 3) == [1, 2, 3]

    def test_run_workloads_scalar_path_validates(self):
        exes = executables([(1, 1), (2, 1), (3, 1)])
        with pytest.raises(ValueError, match="3 executable"):
            run_workloads(exes, max_cycles=[100])

    def test_batched_machines_validate(self):
        exes = executables([(1, 1), (2, 1)])
        with pytest.raises(ValueError, match="no budget"):
            BatchedMachines(exes).run([100])

    def test_fleet_path_validates_before_spawning(self, fleet_store):
        """The mismatch raises out of run_workloads before any worker
        process is ever created."""
        exes = executables([(1, 1), (2, 1)])
        with pytest.raises(ValueError, match="name no lane"):
            run_workloads(exes, max_cycles=[1, 2, 3], shards=2, store=fleet_store)

    def test_fleet_runner_validates(self, fleet2):
        exes = executables([(1, 1), (2, 1)])
        with pytest.raises(ValueError, match="no budget"):
            fleet2.run(exes, max_cycles=[5])


class TestConstruction:
    def test_bad_shards_rejected(self):
        with pytest.raises(ValueError, match="shards"):
            FleetRunner(shards=0)

    def test_bad_engine_rejected(self):
        for engine in ("quantum", "batch"):
            with pytest.raises(ValueError, match="engine"):
                FleetRunner(engine=engine)

    def test_private_store_is_cleaned_up(self):
        fleet = FleetRunner(shards=1)
        root = fleet.store.root
        fleet.close()
        assert not os.path.exists(root)


# ------------------------------------------------------------- CLI


class TestCli:
    HALTING = """
    reg[7:0] cnt; input[7:0] k; output halted : L; output[7:0] v : L;
    state s : L = { cnt := cnt + k; halted := cnt > 9; v := cnt; goto s; }
    """

    def test_simulate_shards_matches_in_process(self, tmp_path, capsys):
        """`simulate --shards 2` reports the same per-lane verdicts as
        the in-process run, plus the fleet scheduling summary."""
        from repro.cli import main

        path = tmp_path / "halting.sapper"
        path.write_text(self.HALTING)
        args = ["simulate", str(path), "-n", "50", "--lanes", "4",
                "-i", "k=1,2,5,20", "--quiet",
                "--store", str(tmp_path / "store")]
        assert main(args) == 0
        single = capsys.readouterr().out
        assert main([*args, "--shards", "2"]) == 0
        sharded = capsys.readouterr().out

        assert "# 10 cycles x 4 lanes" in sharded
        assert "18 active lane-cycles" in sharded
        assert "2 shard(s)" in sharded
        assert "# fleet: start_method=" in sharded

        lane_lines = [ln for ln in single.splitlines() if ln.startswith("# lane")]
        assert lane_lines == [
            ln for ln in sharded.splitlines() if ln.startswith("# lane")
        ]

    def test_shards_reject_scalar_engine_and_no_opt(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "halting.sapper"
        path.write_text(self.HALTING)
        with pytest.raises(SystemExit, match="batched engine"):
            main(["simulate", str(path), "-n", "5", "--shards", "2", "--quiet"])
        with pytest.raises(SystemExit, match="no-opt"):
            main(["simulate", str(path), "-n", "5", "--lanes", "4", "--no-opt",
                  "--shards", "2", "--quiet"])
