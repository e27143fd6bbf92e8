"""Unit and property tests for the HDL optimization pipeline.

Covers each pass in isolation (the one-sweep rewrite's constant
folding, mux/boolean simplification and CSE, width narrowing,
dead-signal elimination), the pipeline's
architectural-equivalence contract on sample designs, the memoization
of :func:`repro.hdl.passes.optimize`, and the GLIFT shadow-taint
invariance property: bit-blasting an optimized module must yield the
same value *and* taint behaviour as the raw module on the evaluation
designs.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.glift import GliftSimulator
from repro.hdl import HConst, HOp, HRef, Module, Simulator
from repro.hdl.netlist import bit_blast
from repro.hdl.passes import (
    DeadSignalElim,
    NarrowWidths,
    PassManager,
    Rewrite,
    default_passes,
    optimize,
    run_pipeline,
)
from repro.lattice import two_level
from repro.sapper import samples
from repro.sapper.compiler import compile_program

from tests import strategies


def find(module: Module, name: str):
    for sig, expr in module.comb:
        if sig == name:
            return expr
    raise KeyError(name)


class TestConstantFold:
    def test_folds_constant_arith(self):
        m = Module("t")
        m.assign("a", HOp("add", (HConst(3, 8), HConst(4, 8)), 8))
        m.set_output("y", HRef("a", 8))
        out, changed = Rewrite().run(m)
        assert changed and find(out, "a") == HConst(7, 8)

    def test_propagates_through_refs(self):
        m = Module("t")
        m.assign("a", HOp("add", (HConst(1, 8), HConst(1, 8)), 8))
        m.assign("b", HOp("mul", (HRef("a", 8), HConst(3, 8)), 8))
        m.set_output("y", HRef("b", 8))
        out, _ = Rewrite().run(m)
        assert find(out, "b") == HConst(6, 8)

    def test_division_by_zero_convention(self):
        m = Module("t")
        m.assign("q", HOp("div", (HConst(9, 8), HConst(0, 8)), 8))
        m.assign("r", HOp("mod", (HConst(9, 8), HConst(0, 8)), 8))
        m.set_output("q", HRef("q", 8))
        m.set_output("r", HRef("r", 8))
        out, _ = Rewrite().run(m)
        assert find(out, "q") == HConst(0xFF, 8)  # all-ones, like the sim
        assert find(out, "r") == HConst(9, 8)     # the dividend

    def test_constant_mux_guard(self):
        m = Module("t")
        x = m.add_input("x", 8)
        m.assign("a", HOp("mux", (HConst(1, 1), x, HConst(0, 8)), 8))
        m.set_output("y", HRef("a", 8))
        out, _ = Rewrite().run(m)
        assert find(out, "a") == x

    def test_never_folds_array_reads(self):
        m = Module("t")
        m.add_array("ram", 8, 16)
        m.assign("a", HOp("read", (HConst(3, 4),), 8, array="ram"))
        m.set_output("y", HRef("a", 8))
        out, _ = Rewrite().run(m)
        assert isinstance(find(out, "a"), HOp)


class TestSimplify:
    def simplify(self, m):
        out, _ = Rewrite().run(m)
        return out

    def test_mux_same_arms(self):
        m = Module("t")
        c = m.add_input("c", 1)
        x = m.add_input("x", 8)
        m.assign("a", HOp("mux", (c, x, x), 8))
        m.set_output("y", HRef("a", 8))
        assert find(self.simplify(m), "a") == x

    def test_mux_bool_identity(self):
        m = Module("t")
        c = m.add_input("c", 1)
        m.assign("a", HOp("mux", (c, HConst(1, 1), HConst(0, 1)), 1))
        m.set_output("y", HRef("a", 1))
        assert find(self.simplify(m), "a") == c

    def test_and_with_zero_and_ones(self):
        m = Module("t")
        x = m.add_input("x", 8)
        m.assign("a", HOp("and", (x, HConst(0, 8)), 8))
        m.assign("b", HOp("and", (x, HConst(0xFF, 8)), 8))
        m.assign("c", HOp("or", (x, HConst(0, 8)), 8))
        for sig in "abc":
            m.set_output(sig, HRef(sig, 8))
        out = self.simplify(m)
        assert find(out, "a") == HConst(0, 8)
        assert find(out, "b") == x
        assert find(out, "c") == x

    def test_self_comparison(self):
        m = Module("t")
        x = m.add_input("x", 8)
        m.assign("a", HOp("eq", (x, x), 1))
        m.assign("b", HOp("ne", (x, x), 1))
        m.set_output("a", HRef("a", 1))
        m.set_output("b", HRef("b", 1))
        out = self.simplify(m)
        assert find(out, "a") == HConst(1, 1)
        assert find(out, "b") == HConst(0, 1)

    def test_add_zero_and_shift_zero(self):
        m = Module("t")
        x = m.add_input("x", 8)
        m.assign("a", HOp("add", (x, HConst(0, 8)), 8))
        m.assign("b", HOp("shl", (x, HConst(0, 3)), 8))
        m.set_output("a", HRef("a", 8))
        m.set_output("b", HRef("b", 8))
        out = self.simplify(m)
        assert find(out, "a") == x
        assert find(out, "b") == x

    def test_redundant_zext_slice(self):
        m = Module("t")
        x = m.add_input("x", 8)
        m.assign("a", HOp("zext", (x,), 8))
        m.assign("b", HOp("slice", (x,), 8, hi=7, lo=0))
        m.set_output("a", HRef("a", 8))
        m.set_output("b", HRef("b", 8))
        out = self.simplify(m)
        assert find(out, "a") == x
        assert find(out, "b") == x

    def test_same_condition_mux_nesting(self):
        m = Module("t")
        c = m.add_input("c", 1)
        x = m.add_input("x", 8)
        y = m.add_input("y", 8)
        z = m.add_input("z", 8)
        m.assign("inner", HOp("mux", (c, y, z), 8))
        m.assign("a", HOp("mux", (c, x, HRef("inner", 8)), 8))
        m.set_output("a", HRef("a", 8))
        out = self.simplify(m)
        got = find(out, "a")
        assert got == HOp("mux", (c, x, z), 8)


class TestCse:
    def test_dedupes_whole_assignments(self):
        m = Module("t")
        x = m.add_input("x", 8)
        y = m.add_input("y", 8)
        m.assign("a", HOp("add", (x, y), 8))
        m.assign("b", HOp("add", (x, y), 8))
        m.assign("c", HOp("mul", (HRef("a", 8), HRef("b", 8)), 8))
        m.set_output("y0", HRef("c", 8))
        out, changed = Rewrite().run(m)
        assert changed
        assert find(out, "b") == HRef("a", 8)
        # uses of b are redirected to a
        assert find(out, "c") == HOp("mul", (HRef("a", 8), HRef("a", 8)), 8)

    def test_dedupes_nested_subtrees(self):
        m = Module("t")
        x = m.add_input("x", 8)
        y = m.add_input("y", 8)
        m.assign("a", HOp("add", (x, y), 8))
        m.assign("b", HOp("mul", (HOp("add", (x, y), 8), x), 8))
        m.set_output("y0", HRef("b", 8))
        m.set_output("y1", HRef("a", 8))
        out, _ = Rewrite().run(m)
        assert find(out, "b") == HOp("mul", (HRef("a", 8), x), 8)


    def test_rule_results_are_rebuilt_per_use(self):
        """A rewritten shape reused after a later signal came to hold one
        of its subtrees must read that signal, not embed the stale tree
        (else a second sweep would still find work)."""
        m = Module("t")
        c = m.add_input("c", 1)
        x, y, p, q, w, v = (m.add_input(n, 8) for n in "xypqwv")
        m.assign("f", HOp("mux", (c, y, HOp("add", (p, q), 8)), 8))
        nested = HOp("mux", (c, x, HRef("f", 8)), 8)  # collapses to mux(c, x, p+q)
        m.assign("s1", HOp("xor", (nested, w), 8))
        m.assign("t", HOp("add", (p, q), 8))
        m.assign("s2", HOp("and", (nested, v), 8))
        for sig in ("s1", "s2", "t"):
            m.set_output(sig, HRef(sig, 8))
        once, _ = Rewrite().run(m)
        assert find(once, "s2") == HOp("and", (HOp("mux", (c, x, HRef("t", 8)), 8), v), 8)
        assert not Rewrite().run(once)[1]


class TestNarrowWidths:
    """The SWAR-enabling narrowing pre-pass: oversized operators shrink
    to their significant-bit bound, shrinkable signals lose their zext
    padding outright, and everything stays bit-exact."""

    def padded_module(self):
        m = Module("t")
        x = m.add_input("x", 8)
        y = m.add_input("y", 8)
        m.assign("wx", HOp("zext", (x,), 64))
        m.assign("wy", HOp("zext", (y,), 64))
        m.assign("s", HOp("add", (HRef("wx", 64), HRef("wy", 64)), 64))
        m.assign("hit", HOp("eq", (HRef("s", 64), HConst(300, 64)), 1))
        m.set_output("hit", HRef("hit", 1))
        return m

    def test_narrows_padded_add_and_compare(self):
        out, changed = NarrowWidths().run(self.padded_module())
        assert changed
        widths = {n: e.width for n, e in out.comb}
        # the 64-bit add now computes at its 9-bit bound
        assert widths["s"] <= 33
        # idempotent: a second run is a no-op
        out2, changed2 = NarrowWidths().run(out)
        assert not changed2 and out2 is out

    def test_signal_shrinking_is_bit_exact(self):
        import random

        m = self.padded_module()
        opt = run_pipeline(m).module
        assert all(e.width <= 33 for _, e in opt.comb)
        raw, new = Simulator(m, optimize=False), Simulator(opt, optimize=False)
        rng = random.Random(5)
        for _ in range(256):
            inp = {"x": rng.randrange(256), "y": rng.randrange(256)}
            assert raw.step(inp) == new.step(inp)

    def test_protected_signals_keep_declared_widths(self):
        m = Module("t")
        x = m.add_input("x", 8)
        r = m.add_reg("r", 64)
        m.assign("wide", HOp("zext", (x,), 64))
        m.set_reg_next("r", HRef("wide", 64))
        m.set_output("o", HRef("wide", 64))
        out, _ = NarrowWidths().run(m)
        out.validate()
        assert dict(out.comb)["wide"].width == 64

    def test_leaves_genuinely_wide_values_alone(self):
        m = Module("t")
        x = m.add_input("x", 40)
        y = m.add_input("y", 40)
        m.assign("s", HOp("add", (x, y), 40))  # bound 41 > limit
        m.set_output("o", HRef("s", 40))
        out, changed = NarrowWidths().run(m)
        assert not changed and out is m

    def test_bounds_resolve_long_chains_on_demand(self):
        """A bound read at the end of a long chain of signals no wide
        operator read before resolves every link without recursing per
        signal, to the same bound the signals carry."""
        m = Module("t")
        x = m.add_input("x", 8)
        m.assign("c0", HOp("zext", (x,), 16))
        for i in range(1, 3000):
            m.assign(f"c{i}", HOp("or", (HRef(f"c{i - 1}", 16), HConst(0, 16)), 16))
        last = HOp("zext", (HRef("c2999", 16),), 64)
        m.assign("s", HOp("add", (last, last), 64))
        m.set_output("o", HRef("s", 64))
        out, changed = NarrowWidths().run(m)
        assert changed
        s = dict(out.comb)["s"]
        assert s.op == "zext" and s.args[0].op == "add" and s.args[0].width == 9

    def test_width_sensitive_consumers_get_rewrapped(self):
        import random

        m = Module("t")
        x = m.add_input("x", 8)
        m.assign("w", HOp("zext", (x,), 64))
        # sext reads the declared argument width: must stay wrapped
        m.assign("sx", HOp("sext", (HOp("slice", (HRef("w", 64),), 8, hi=7, lo=0),), 16))
        m.assign("out", HOp("add", (HRef("sx", 16), HConst(1, 16)), 16))
        m.set_output("o", HRef("out", 16))
        opt = run_pipeline(m).module
        raw, new = Simulator(m, optimize=False), Simulator(opt, optimize=False)
        rng = random.Random(9)
        for _ in range(256):
            inp = {"x": rng.randrange(256)}
            assert raw.step(inp) == new.step(inp)


class TestDce:
    def test_drops_dead_keeps_live(self):
        m = Module("t")
        x = m.add_input("x", 8)
        m.assign("live", HOp("add", (x, HConst(1, 8)), 8))
        m.assign("dead", HOp("mul", (x, HConst(7, 8)), 8))
        m.set_output("y", HRef("live", 8))
        out, changed = DeadSignalElim().run(m)
        assert changed
        names = [n for n, _ in out.comb]
        assert names == ["live"]

    def test_keeps_register_feeders_and_arch_state(self):
        m = Module("t")
        r = m.add_reg("r", 8)
        m.assign("nxt", HOp("add", (r, HConst(1, 8)), 8))
        m.set_reg_next("r", HRef("nxt", 8))
        m.add_array("ram", 8, 4)
        out, _ = DeadSignalElim().run(m)
        assert "r" in out.regs and "ram" in out.arrays
        assert [n for n, _ in out.comb] == ["nxt"]

    def test_drops_never_firing_write_port(self):
        m = Module("t")
        x = m.add_input("x", 8)
        m.add_array("ram", 8, 4)
        m.write_array("ram", HConst(0, 2), x, HConst(0, 1))
        m.write_array("ram", HConst(1, 2), x, HConst(1, 1))
        out, changed = DeadSignalElim().run(m)
        assert changed and len(out.array_writes) == 1
        assert out.array_writes[0].enable == HConst(1, 1)

    def test_retargets_alias_chains(self):
        m = Module("t")
        x = m.add_input("x", 8)
        m.assign("a", HOp("add", (x, HConst(2, 8)), 8))
        m.assign("b", HRef("a", 8))
        m.assign("c", HRef("b", 8))
        m.set_output("y", HRef("c", 8))
        out, _ = DeadSignalElim().run(m)
        assert out.outputs["y"] == "a"
        assert [n for n, _ in out.comb] == ["a"]


class TestPipeline:
    SAMPLE_SOURCES = [samples.ADDER_CHECK, samples.ADDER_TRACK, samples.TDMA]

    @pytest.mark.parametrize("secure", [True, False])
    @pytest.mark.parametrize("idx", range(len(SAMPLE_SOURCES)))
    def test_architectural_equivalence(self, idx, secure):
        lat = two_level()
        design = compile_program(self.SAMPLE_SOURCES[idx], lat, secure=secure, name="p")
        raw = Simulator(design.module, optimize=False)
        opt = Simulator(design.module)
        inputs = {name: 0 for name in design.module.inputs}
        for cycle in range(64):
            for i, name in enumerate(inputs):
                inputs[name] = (cycle * 37 + i * 11) & 0xFF
            assert raw.step(inputs) == opt.step(inputs), cycle
            assert raw.regs == opt.regs, cycle
            assert raw.arrays == opt.arrays, cycle

    def test_pipeline_shrinks_the_tdma_design(self):
        lat = two_level()
        design = compile_program(samples.TDMA, lat, name="tdma")
        result = run_pipeline(design.module)
        assert len(result.module.comb) < len(design.module.comb)
        assert result.signals_removed > 0
        assert {s.name for s in result.stats} == {"rewrite", "narrow", "dce"}

    def test_optimize_is_memoized_and_idempotent(self):
        lat = two_level()
        design = compile_program(samples.TDMA, lat, name="tdma")
        a = optimize(design.module)
        b = optimize(design.module)
        assert a is b
        assert optimize(a) is a  # already-optimized modules pass through

    def test_levels(self):
        assert default_passes(0) == []
        assert [p.name for p in default_passes(1)] == ["rewrite", "dce"]
        assert [p.name for p in default_passes(2)] == ["rewrite", "narrow", "dce"]

    def test_validates_output(self):
        lat = two_level()
        design = compile_program(samples.ADDER_CHECK, lat, name="a")
        out = PassManager(default_passes()).run(design.module).module
        out.validate()  # must not raise


def _assert_fixpoint(module: Module) -> Module:
    """Optimize *module*, then check that one more pipeline run over the
    output changes nothing (no pass reports a change)."""
    out = run_pipeline(module).module
    again = run_pipeline(out)
    assert [s.name for s in again.stats if s.changed] == []
    assert again.module is out
    return out


class TestFixpoint:
    """One pipeline run reaches the fold/simplify/CSE/narrow/DCE
    fixpoint the PassManager promises, on every sample design and on
    the processor."""

    SAMPLES = sorted(
        name for name in dir(samples)
        if name.isupper() and isinstance(getattr(samples, name), str)
    )

    @pytest.mark.parametrize("secure", [True, False])
    @pytest.mark.parametrize("sample", SAMPLES)
    def test_samples_reach_a_fixpoint(self, sample, secure):
        design = compile_program(
            getattr(samples, sample), two_level(), secure=secure, name="s"
        )
        _assert_fixpoint(design.module)

    @pytest.mark.parametrize("secure", [True, False])
    def test_processor_reaches_a_fixpoint(self, secure):
        from repro.proc.machine import compile_processor

        design = compile_processor(two_level(), secure=secure)
        out = _assert_fixpoint(design.module)
        if secure:
            assert len(out.comb) <= 7023

    def test_rewrite_output_is_its_own_fixpoint(self):
        design = compile_program(samples.TDMA, two_level(), name="tdma")
        once, changed = Rewrite().run(design.module)
        assert changed
        twice, changed = Rewrite().run(once)
        assert not changed and twice is once

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.one_of(strategies.programs(), strategies.wide_programs()), st.booleans())
    def test_rewrite_is_idempotent_on_random_designs(self, program, secure):
        """One rewrite sweep leaves nothing for a second one -- also once
        dead-signal elimination has dropped what the first made dead."""
        design = compile_program(program, two_level(), secure=secure, name="p")
        once, _ = Rewrite().run(design.module)
        assert not Rewrite().run(once)[1]
        pruned, _ = DeadSignalElim().run(once)
        assert not Rewrite().run(pruned)[1]


class TestGliftInvariance:
    """Shadow taint tracking must not be perturbed by optimization on
    the evaluation designs: bit-blasting the optimized module yields the
    same per-port values *and* taints as the raw module, cycle by cycle.
    """

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 255), st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)
            ),
            min_size=1,
            max_size=8,
        ),
        st.sampled_from(["ADDER_TRACK", "ADDER_CHECK"]),
    )
    def test_shadow_taint_unchanged_by_optimization(self, trace, sample_name):
        lat = two_level()
        src = getattr(samples, sample_name)
        design = compile_program(src, lat, secure=False, name="g")
        raw = GliftSimulator(bit_blast(design.module))
        opt = GliftSimulator(bit_blast(optimize(design.module)))
        ports = list(design.module.inputs)
        for vb, vc, tb, tc in trace:
            values = dict(zip(ports, (vb, vc)))
            taints = dict(zip(ports, (tb, tc)))
            v1, t1 = raw.step_tainted(values, taints)
            v2, t2 = opt.step_tainted(values, taints)
            assert v1 == v2
            assert t1 == t2
