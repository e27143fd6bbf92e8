"""Tests for the Toolchain facade and the ``python -m repro`` CLI."""

import gc
import weakref
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.hdl.synth import CostReport
from repro.lattice import diamond, two_level
from repro.sapper import samples
from repro.toolchain import Toolchain, get_toolchain, lattice_key, set_toolchain


class TestToolchain:
    def test_compile_is_cached_by_key(self):
        tc = Toolchain()
        lat = two_level()
        d1 = tc.compile(samples.TDMA, lat, name="tdma")
        d2 = tc.compile(samples.TDMA, lat, name="tdma")
        assert d1 is d2

    def test_distinct_configs_do_not_collide(self):
        tc = Toolchain()
        lat = two_level()
        secure = tc.compile(samples.TDMA, lat, name="tdma")
        base = tc.compile(samples.TDMA, lat, secure=False, name="tdma")
        other = tc.compile(samples.TDMA, diamond(), name="tdma")
        assert secure is not base and secure is not other
        assert not base.reg_tag          # insecure: tags stripped
        assert secure.reg_tag

    def test_backends_share_one_optimized_module(self):
        tc = Toolchain()
        design = tc.compile(samples.TDMA, two_level(), name="tdma")
        opt = tc.optimize(design)
        sim = tc.simulator(design)
        assert sim.module is opt
        assert tc.optimize(design) is opt

    def test_simulators_get_fresh_state(self):
        tc = Toolchain()
        design = tc.compile(samples.TDMA, two_level(), name="tdma")
        s1 = tc.simulator(design)
        s1.run(10, {"hi_in": 3})
        s2 = tc.simulator(design)
        assert s2.cycles == 0
        assert s2.regs == {r.name: r.init for r in s2.module.regs.values()}

    def test_synth_and_verilog_artifacts_cached(self):
        tc = Toolchain()
        design = tc.compile(samples.TDMA, two_level(), name="tdma")
        rpt = tc.synthesize(design)
        assert isinstance(rpt, CostReport)
        assert tc.synthesize(design) is rpt
        text = tc.verilog(design)
        assert "module tdma(" in text
        assert tc.verilog(design) is text

    def test_cache_info_and_clear(self):
        tc = Toolchain()
        design = tc.compile(samples.TDMA, two_level(), name="tdma")
        tc.synthesize(design)
        info = tc.cache_info()
        assert info.get("compile") == 1 and info.get("synth") == 1
        tc.clear_cache()
        assert tc.cache_info() == {}

    def test_lattice_key_is_structural(self):
        assert lattice_key(two_level()) == lattice_key(two_level())
        assert lattice_key(two_level()) != lattice_key(diamond())

    def test_default_toolchain_is_shared_and_replaceable(self):
        first = get_toolchain()
        assert get_toolchain() is first
        fresh = Toolchain()
        set_toolchain(fresh)
        try:
            assert get_toolchain() is fresh
        finally:
            set_toolchain(first)

    def test_processor_build_path_reuses_design(self):
        from repro.proc.machine import SapperMachine, compile_processor

        design = compile_processor(two_level(), secure=True)
        assert compile_processor(two_level(), secure=True) is design
        machine = SapperMachine()
        assert machine.design is design


class TestCacheLRU:
    """The generic keyed cache behind every stage, pinned against an
    executable model: an OrderedDict with move-to-end on hit, append on
    miss, and front eviction past ``max_entries``."""

    @settings(max_examples=200, deadline=None)
    @given(
        max_entries=st.integers(min_value=1, max_value=6),
        accesses=st.lists(st.integers(min_value=0, max_value=9), max_size=60),
    )
    def test_cached_matches_lru_model(self, max_entries, accesses):
        tc = Toolchain(max_entries=max_entries)
        model: OrderedDict = OrderedDict()
        produced = 0
        model_produced = 0

        for n in accesses:
            key = ("stage", n)

            def produce(n=n):
                nonlocal produced
                produced += 1
                return ("artifact", n)

            value = tc.cached(key, produce)
            assert value == ("artifact", n)
            if key in model:
                model.move_to_end(key)
            else:
                model_produced += 1
                model[key] = ("artifact", n)
                while len(model) > max_entries:
                    model.popitem(last=False)

            # the real cache tracks the model exactly: same keys, same
            # recency order (eviction order), same bound
            assert list(tc._cache) == list(model)
            assert len(tc._cache) <= max_entries

        assert produced == model_produced
        counters = tc.counter_snapshot()
        assert counters.get("miss:stage", 0) == model_produced
        assert counters.get("hit:stage", 0) == len(accesses) - model_produced

    def test_hits_return_the_identical_object(self):
        tc = Toolchain(max_entries=4)
        first = tc.cached(("s", 1), lambda: object())
        again = tc.cached(("s", 1), lambda: object())
        assert again is first

    def test_reinsertion_after_eviction_reproduces(self):
        tc = Toolchain(max_entries=2)
        calls = []
        for n in (1, 2, 3, 1):  # 1 evicted by 3, then re-produced
            tc.cached(("s", n), lambda n=n: calls.append(n))
        assert calls == [1, 2, 3, 1]

    def test_pin_lives_with_the_entry_and_dies_on_eviction(self):
        class Pinned:
            pass

        tc = Toolchain(max_entries=2)
        pin = Pinned()
        ref = weakref.ref(pin)
        tc.cached(("s", 0), lambda: "v", pin=pin)
        del pin
        gc.collect()
        assert ref() is not None, "pin must stay alive while its entry is cached"

        tc.cached(("s", 1), lambda: "v")
        tc.cached(("s", 2), lambda: "v")  # evicts ("s", 0)
        gc.collect()
        assert ref() is None, "eviction must drop the pin"

    def test_clear_cache_drops_pins(self):
        class Pinned:
            pass

        tc = Toolchain(max_entries=4)
        pin = Pinned()
        ref = weakref.ref(pin)
        tc.cached(("s", 0), lambda: "v", pin=pin)
        del pin
        tc.clear_cache()
        gc.collect()
        assert ref() is None

    def test_max_entries_bounds_real_compiles(self):
        tc = Toolchain(max_entries=3)
        lat = two_level()
        designs = [
            tc.compile(f"// v{i}\n" + samples.TDMA, lat, name="tdma")
            for i in range(5)
        ]
        assert len(tc._cache) <= 3
        # the newest design is still cached (identical object on re-compile)
        assert tc.compile("// v4\n" + samples.TDMA, lat, name="tdma") is designs[4]

    def test_env_store_configures_default_toolchain(self, tmp_path, monkeypatch, capsys):
        previous = get_toolchain()
        try:
            monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
            set_toolchain(None)
            assert get_toolchain().store is not None
            # an unusable directory degrades with a warning, not a crash
            blocker = tmp_path / "file"
            blocker.write_text("in the way")
            monkeypatch.setenv("REPRO_STORE", str(blocker / "store"))
            set_toolchain(None)
            assert get_toolchain().store is None
            assert "REPRO_STORE disabled" in capsys.readouterr().err
        finally:
            set_toolchain(previous)


class TestCli:
    @pytest.fixture()
    def tdma_file(self, tmp_path):
        path = tmp_path / "tdma.sapper"
        path.write_text(samples.TDMA)
        return str(path)

    def test_compile_emits_verilog(self, tdma_file, capsys):
        assert main(["compile", tdma_file]) == 0
        out = capsys.readouterr().out
        assert "module tdma(" in out and out.strip().endswith("endmodule")

    def test_simulate_reports_summary(self, tdma_file, capsys):
        assert main(["simulate", tdma_file, "-n", "8", "-i", "hi_in=3", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "8 cycles" in out and "violation" in out

    HALTING = """
    reg[7:0] cnt; input[7:0] k; output halted : L; output[7:0] v : L;
    state s : L = { cnt := cnt + k; halted := cnt > 9; v := cnt; goto s; }
    """

    def test_simulate_compact_stops_when_all_lanes_halt(self, tmp_path, capsys):
        path = tmp_path / "halting.sapper"
        path.write_text(self.HALTING)
        args = ["simulate", str(path), "-n", "50", "--lanes", "4",
                "-i", "k=3", "--quiet"]
        assert main(args) == 0
        out = capsys.readouterr().out
        # every lane halts at cycle 4; --compact (default) stops there
        assert "# 4 cycles x 4 lanes" in out and "16 active lane-cycles" in out
        assert main([*args, "--no-compact"]) == 0
        out = capsys.readouterr().out
        assert "# 50 cycles x 4 lanes" in out and "200 active lane-cycles" in out

    def test_simulate_per_lane_inputs_compact_partial_retirement(
        self, tmp_path, capsys
    ):
        """Per-lane stimulus (PORT=V0,V1,...) skews the halt times, so
        lanes retire one by one: the partial-compaction branch runs and
        the summary still reports by original lane id."""
        path = tmp_path / "halting.sapper"
        path.write_text(self.HALTING)
        assert main(["simulate", str(path), "-n", "50", "--lanes", "4",
                     "-i", "k=1,2,5,20", "--quiet"]) == 0
        out = capsys.readouterr().out
        # halts at cycles 10/5/2/1: three partial compactions, then the
        # last lane stops the run at cycle 10
        assert "# 10 cycles x 4 lanes" in out
        assert "18 active lane-cycles" in out and "final occupancy 1/4" in out
        assert "# lane 3" in out and "'v': 20" in out  # original-lane mapping

    def test_simulate_per_lane_inputs_need_lanes(self, tmp_path):
        path = tmp_path / "halting.sapper"
        path.write_text(self.HALTING)
        with pytest.raises(SystemExit, match="batched engine"):
            main(["simulate", str(path), "-n", "5", "-i", "k=1,2", "--quiet"])
        with pytest.raises(SystemExit, match="drives 2 lanes"):
            main(["simulate", str(path), "-n", "5", "--lanes", "3",
                  "-i", "k=1,2", "--quiet"])

    def test_synth_reports_census(self, tdma_file, capsys):
        assert main(["synth", tdma_file]) == 0
        out = capsys.readouterr().out
        assert "gates" in out and "area_um2" in out

    def test_stats_reports_pass_effects(self, tdma_file, capsys):
        assert main(["stats", tdma_file]) == 0
        out = capsys.readouterr().out
        assert "rewrite" in out and "removed" in out

    def test_insecure_and_diamond_options(self, tdma_file, capsys):
        assert main(["compile", tdma_file, "--insecure", "--lattice", "diamond"]) == 0
        out = capsys.readouterr().out
        assert "violation" not in out  # Base design has no checks

    def test_missing_file_is_reported(self, capsys):
        assert main(["compile", "/nonexistent/x.sapper"]) == 2
        assert "error" in capsys.readouterr().err

    def test_syntax_error_is_reported_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.sapper"
        bad.write_text("reg[7:0 broken x;\nstate s : L = { goto s; }")
        assert main(["compile", str(bad)]) == 1
        err = capsys.readouterr().err
        assert "error" in err and "line 1" in err

    def test_module_entry_point(self, tdma_file):
        # `python -m repro` must resolve to the CLI
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "synth", tdma_file],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(__import__("pathlib").Path(__file__).resolve().parent.parent),
        )
        assert proc.returncode == 0, proc.stderr
        assert "gates" in proc.stdout

    def test_scalar_simulate_never_loads_numpy(self, tdma_file, tmp_path):
        """NumPy backs only the vector engine: importing the CLI and a
        scalar simulate (cold, and warm from a store) must not load it."""
        import pathlib
        import subprocess
        import sys

        script = (
            "import sys\n"
            "import repro.cli\n"
            "assert 'numpy' not in sys.modules, 'import repro.cli loaded numpy'\n"
            "for extra in ([], ['--store', sys.argv[2]], ['--store', sys.argv[2]]):\n"
            "    assert repro.cli.main(['simulate', sys.argv[1], '-n', '5', '--quiet',\n"
            "                           *extra]) == 0\n"
            "assert 'numpy' not in sys.modules, 'scalar simulate loaded numpy'\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, tdma_file, str(tmp_path / "store")],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd=str(pathlib.Path(__file__).resolve().parent.parent),
        )
        assert proc.returncode == 0, proc.stderr
