"""Unit tests for the HDL substrate: IR, simulator, synthesis, Verilog, netlist."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hdl import HConst, HOp, HRef, Module, Simulator, emit_verilog, synthesize
from repro.hdl.netlist import NetlistError, NetlistSimulator, bit_blast
from repro.hdl.sim import nests_within, paren_depth
from repro.lattice import two_level
from repro.sapper.analysis import analyze
from repro.sapper.compiler import compile_program

from tests import strategies


def counter_module(width=8) -> Module:
    m = Module("counter")
    count = m.add_reg("count", width)
    one = HConst(1, width)
    nxt = m.fresh(HOp("add", (count, one), width), "nxt")
    m.set_reg_next("count", nxt)
    m.set_output("value", nxt)
    return m


def alu_module() -> Module:
    m = Module("alu")
    a = m.add_input("a", 8)
    b = m.add_input("b", 8)
    op = m.add_input("op", 2)
    r0 = m.fresh(HOp("add", (a, b), 8), "sum")
    r1 = m.fresh(HOp("sub", (a, b), 8), "diff")
    r2 = m.fresh(HOp("and", (a, b), 8), "conj")
    r3 = m.fresh(HOp("or", (a, b), 8), "disj")
    sel01 = m.fresh(HOp("mux", (HOp("eq", (op, HConst(0, 2)), 1), r0, r1), 8), "s01")
    sel23 = m.fresh(HOp("mux", (HOp("eq", (op, HConst(2, 2)), 1), r2, r3), 8), "s23")
    out = m.fresh(HOp("mux", (HOp("lt", (op, HConst(2, 2)), 1), sel01, sel23), 8), "out")
    m.add_reg("res", 8)
    m.set_reg_next("res", out)
    m.set_output("result", out)
    return m


class TestSimulator:
    def test_counter_counts(self):
        sim = Simulator(counter_module())
        for i in range(1, 6):
            out = sim.step()
            assert out["value"] == i

    def test_counter_wraps(self):
        sim = Simulator(counter_module(width=2))
        sim.run(4)
        assert sim.regs["count"] == 0

    def test_alu_ops(self):
        sim = Simulator(alu_module())
        assert sim.step({"a": 7, "b": 5, "op": 0})["result"] == 12
        assert sim.step({"a": 7, "b": 5, "op": 1})["result"] == 2
        assert sim.step({"a": 7, "b": 5, "op": 2})["result"] == 5
        assert sim.step({"a": 7, "b": 5, "op": 3})["result"] == 7

    def test_sub_wraps_unsigned(self):
        sim = Simulator(alu_module())
        assert sim.step({"a": 0, "b": 1, "op": 1})["result"] == 0xFF

    def test_array_read_write(self):
        m = Module("memtest")
        addr = m.add_input("addr", 4)
        data = m.add_input("data", 8)
        we = m.add_input("we", 1)
        m.add_array("ram", 8, 16)
        rd = m.fresh(HOp("read", (addr,), 8, array="ram"), "rd")
        m.write_array("ram", addr, data, we)
        m.set_output("q", rd)
        sim = Simulator(m)
        sim.step({"addr": 3, "data": 99, "we": 1})
        assert sim.step({"addr": 3, "we": 0})["q"] == 99
        assert sim.step({"addr": 4, "we": 0})["q"] == 0

    def test_array_default_value(self):
        m = Module("defaults")
        addr = m.add_input("addr", 2)
        m.add_array("tags", 2, 4, default=3)
        rd = m.fresh(HOp("read", (addr,), 2, array="tags"), "rd")
        m.set_output("q", rd)
        sim = Simulator(m)
        assert sim.step({"addr": 1})["q"] == 3

    def test_division_convention(self):
        m = Module("divtest")
        a = m.add_input("a", 8)
        b = m.add_input("b", 8)
        q = m.fresh(HOp("div", (a, b), 8), "q")
        r = m.fresh(HOp("mod", (a, b), 8), "r")
        m.set_output("q", q)
        m.set_output("r", r)
        sim = Simulator(m)
        out = sim.step({"a": 17, "b": 5})
        assert (out["q"], out["r"]) == (3, 2)
        out = sim.step({"a": 17, "b": 0})
        assert (out["q"], out["r"]) == (0xFF, 17)

    def test_validate_rejects_undefined_signal(self):
        m = Module("bad")
        m.add_reg("r", 4)
        m.set_reg_next("r", HRef("nope", 4))
        with pytest.raises(ValueError):
            m.validate()

    def test_validate_rejects_double_define(self):
        m = Module("bad2")
        m.assign("x", HConst(1, 1))
        with pytest.raises(ValueError):
            m.assign("x", HConst(0, 1))


class TestSynthesis:
    def test_counter_costs(self):
        rpt = synthesize(counter_module())
        assert rpt.counts.dff == 8
        assert rpt.counts.total_gates() > 8  # adder cells on top of the flops
        assert rpt.area_um2 > 0
        assert rpt.delay_ns > 0
        assert rpt.power_uw > 0

    def test_wider_is_bigger(self):
        small = synthesize(counter_module(8))
        big = synthesize(counter_module(32))
        assert big.area_um2 > small.area_um2
        assert big.counts.dff == 32

    def test_mul_dominates_add(self):
        def op_module(op):
            m = Module("op")
            a = m.add_input("a", 16)
            b = m.add_input("b", 16)
            m.set_output("y", m.fresh(HOp(op, (a, b), 16), "y"))
            return m

        assert synthesize(op_module("mul")).area_um2 > 5 * synthesize(op_module("add")).area_um2

    def test_sram_vs_flops(self):
        def mem_module(size):
            m = Module("mem")
            addr = m.add_input("addr", 16)
            m.add_array("ram", 32, size)
            m.set_output("q", m.fresh(HOp("read", (addr,), 32, array="ram"), "q"))
            return m

        small = synthesize(mem_module(64))
        big = synthesize(mem_module(65536))
        assert small.counts.sram_bits == 0 and small.counts.dff >= 64 * 32
        assert big.counts.sram_bits == 65536 * 32

    def test_critical_path_grows_with_chaining(self):
        def chain(n):
            m = Module("chain")
            x = m.add_input("x", 16)
            cur = x
            for i in range(n):
                cur = m.fresh(HOp("add", (cur, HConst(i + 1, 16)), 16), f"s{i}")
            m.set_output("y", cur)
            return m

        assert synthesize(chain(8)).levels > synthesize(chain(1)).levels


class TestVerilog:
    def test_counter_verilog(self):
        text = emit_verilog(counter_module())
        assert "module counter(clk, value);" in text
        assert "always @(posedge clk)" in text
        assert "count <= " in text
        assert text.strip().endswith("endmodule")

    def test_array_write_emitted(self):
        m = Module("memtest")
        addr = m.add_input("addr", 4)
        data = m.add_input("data", 8)
        we = m.add_input("we", 1)
        m.add_array("ram", 8, 16)
        m.write_array("ram", addr, data, we)
        m.set_output("q", m.fresh(HOp("read", (addr,), 8, array="ram"), "q"))
        text = emit_verilog(m)
        assert "reg [7:0] ram [0:15];" in text
        assert "if (we) ram[addr] <= data;" in text

    def test_guarded_division(self):
        m = Module("div")
        a = m.add_input("a", 8)
        b = m.add_input("b", 8)
        m.set_output("q", m.fresh(HOp("div", (a, b), 8), "q"))
        assert "== 0) ?" in emit_verilog(m)

    def test_zext_pads_explicitly_inside_concat(self):
        """Verilog concatenations are self-determined: a zext emitted
        as its bare operand would contribute only the narrow width and
        shift every more-significant part down (regression: narrowed
        signals under a cat silently mis-aligned the emitted RTL)."""
        m = Module("pad")
        x = m.add_input("x", 8)
        y = m.add_input("y", 8)
        m.assign("w", HOp("zext", (x,), 24))
        m.assign("c", HOp("cat", (y, HRef("w", 24)), 32))
        m.set_output("o", HRef("c", 32))
        text = emit_verilog(m, optimize=False)
        assert "{{16{1'b0}}, x}" in text
        # width-preserving zext stays a bare operand
        m2 = Module("nopad")
        a = m2.add_input("a", 8)
        m2.set_output("o", m2.fresh(HOp("zext", (a,), 8), "z"))
        assert "1'b0" not in emit_verilog(m2, optimize=False)


class TestNetlist:
    def test_counter_netlist_simulates(self):
        nl = bit_blast(counter_module(4))
        sim = NetlistSimulator(nl)
        for i in range(1, 6):
            out = sim.step({})
            assert out["value"] == i % 16

    def test_netlist_matches_simulator(self):
        m = alu_module()
        nl = bit_blast(m)
        gate_sim = NetlistSimulator(nl)
        word_sim = Simulator(m)
        for a, b, op in [(3, 9, 0), (200, 13, 1), (0xF0, 0x3C, 2), (5, 0x88, 3)]:
            ins = {"a": a, "b": b, "op": op}
            assert gate_sim.step(ins)["result"] == word_sim.step(ins)["result"]

    def test_gate_census(self):
        nl = bit_blast(counter_module(8))
        counts = nl.counts()
        assert counts.get("dff") == 8
        assert counts.get("xor", 0) > 0  # the ripple adder

    def test_arrays_rejected(self):
        m = Module("withmem")
        addr = m.add_input("addr", 2)
        m.add_array("ram", 4, 4)
        m.set_output("q", m.fresh(HOp("read", (addr,), 4, array="ram"), "q"))
        with pytest.raises(NetlistError):
            bit_blast(m)


def recursive_preorder(e):
    """The reference traversal: node, then each child's preorder."""
    out = [e]
    if isinstance(e, HOp):
        for arg in e.args:
            out.extend(recursive_preorder(arg))
    return out


class TestTraversal:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.programs())
    def test_walk_is_recursive_preorder(self, program):
        lat = two_level()
        module = compile_program(analyze(program, lat), lat, name="walk").module
        exprs = [e for _, e in module.comb]
        for wr in module.array_writes:
            exprs += [wr.addr, wr.data, wr.enable]
        assert any(isinstance(e, HOp) for e in exprs)
        for e in exprs:
            assert [id(n) for n in e.walk()] == [id(n) for n in recursive_preorder(e)]

    def test_walk_visits_shared_subtrees_per_occurrence(self):
        a = HRef("a", 8)
        s = HOp("add", (a, HConst(1, 8)), 8)
        e = HOp("mux", (HRef("c", 1), s, s), 8)
        assert [type(n).__name__ for n in e.walk()] == [
            "HOp", "HRef", "HOp", "HRef", "HConst", "HOp", "HRef", "HConst",
        ]

    def test_walk_handles_trees_deeper_than_the_recursion_limit(self):
        e = HRef("x", 8)
        for _ in range(5000):
            e = HOp("not", (e,), 8)
        nodes = list(e.walk())
        assert len(nodes) == 5001 and nodes[-1] == HRef("x", 8)


class TestNestingCheck:
    LIMIT = 3

    def test_count_above_limit_with_depth_within(self):
        code = "(a) + (b) + (c) + ((d))"
        assert code.count("(") > self.LIMIT and paren_depth(code) == 2
        assert nests_within(code, self.LIMIT)

    def test_depth_equal_to_limit(self):
        code = "(((x)) + (y))"
        assert paren_depth(code) == self.LIMIT
        assert nests_within(code, self.LIMIT)

    def test_depth_one_over_limit(self):
        code = "((((x))) + (y))"
        assert paren_depth(code) == self.LIMIT + 1
        assert not nests_within(code, self.LIMIT)

    @given(st.text(alphabet="()x", max_size=40), st.integers(0, 12))
    def test_agrees_with_the_depth_scan(self, code, limit):
        assert nests_within(code, limit) == (paren_depth(code) <= limit)
