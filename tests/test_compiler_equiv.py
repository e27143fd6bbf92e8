"""Integration tests: compiled hardware == formal semantics, cycle by cycle.

Every test drives the Sapper compiler's generated module and the Figure 6
interpreter with identical stimulus and compares the full architectural
state (registers, tags, fall maps, arrays, outputs, violation events) at
every cycle boundary.
"""

from repro.lattice import diamond, two_level
from repro.sapper import samples
from repro.sapper.crossval import assert_equivalent, assert_equivalent_suite


def rotate_inputs(specs):
    def stim(cycle):
        return specs[cycle % len(specs)]

    return stim


class TestFigureDesigns:
    def test_adder_check(self):
        assert_equivalent(
            samples.ADDER_CHECK,
            two_level(),
            cycles=12,
            stimulus=rotate_inputs(
                [
                    {"in_b": (0x0F, "L"), "in_c": (0x33, "L")},
                    {"in_b": (0xAA, "H"), "in_c": (0x55, "L")},
                    {"in_b": (0xFF, "L"), "in_c": (0x01, "H")},
                ]
            ),
        )

    def test_adder_track(self):
        assert_equivalent(
            samples.ADDER_TRACK,
            two_level(),
            cycles=12,
            stimulus=rotate_inputs(
                [
                    {"in_b": (1, "L"), "in_c": (2, "L")},
                    {"in_b": (3, "H"), "in_c": (4, "L")},
                ]
            ),
        )

    def test_tdma(self):
        assert_equivalent(
            samples.TDMA,
            two_level(),
            cycles=250,
            stimulus=rotate_inputs(
                [
                    {"hi_in": (5, "H"), "lo_in": (1, "L")},
                    {"hi_in": (7, "H"), "lo_in": (2, "L")},
                ]
            ),
        )


class TestLanguageFeatures:
    def test_nested_ifs_and_arith(self):
        src = """
        reg[15:0] a; reg[15:0] b; reg[15:0] c; input[7:0] x;
        state s : L = {
            a := a + x;
            if (a > 100) {
                if (a % 3 == 0) { b := a * 2; } else { b := a / 3; }
            } else {
                b := a - 1;
                c := b << 2;
            }
            c := c ^ b;
            goto s;
        }
        """
        assert_equivalent(src, two_level(), 40, rotate_inputs([{"x": 13}, {"x": 7}, {"x": 255}]))

    def test_slices_cat_ext(self):
        src = """
        reg[31:0] w; reg[7:0] lo; reg[7:0] hi; reg[31:0] r; input[15:0] x;
        state s : L = {
            w := cat(x, x);
            lo := w[7:0];
            hi := w[31:24];
            r := sext(lo, 32) + zext(hi, 32);
            goto s;
        }
        """
        assert_equivalent(src, two_level(), 20, rotate_inputs([{"x": 0x8001}, {"x": 0x7FFE}]))

    def test_signed_ops_and_shifts(self):
        src = """
        reg[15:0] a; reg flag; reg[15:0] sh; input[15:0] x;
        state s : L = {
            a := 0 - x;
            flag := lts(a, x) && ges(x, a);
            sh := asr(a, 3) | (a >> 2) | (a << 1);
            goto s;
        }
        """
        assert_equivalent(src, two_level(), 20, rotate_inputs([{"x": 5}, {"x": 40000}, {"x": 0}]))

    def test_division_ops(self):
        src = """
        reg[15:0] q; reg[15:0] r; input[15:0] x; input[15:0] y;
        state s : L = { q := x / y; r := x % y; goto s; }
        """
        assert_equivalent(
            src, two_level(), 12, rotate_inputs([{"x": 100, "y": 7}, {"x": 5, "y": 0}])
        )

    def test_array_read_write_forwarding(self):
        src = """
        mem[15:0] buf[16]; reg[15:0] a; reg[15:0] b; input[3:0] i; input[15:0] v;
        state s : L = {
            buf[i] := v;
            a := buf[i];        // forwarded within the cycle
            b := buf[0];
            goto s;
        }
        """
        assert_equivalent(
            src, two_level(), 20, rotate_inputs([{"i": 0, "v": 11}, {"i": 3, "v": 99}])
        )

    def test_non_power_of_two_array(self):
        src = """
        mem[7:0] buf[10]; reg[7:0] a; input[4:0] i;
        state s : L = {
            buf[i] := i + 1;
            a := buf[i];
            goto s;
        }
        """
        assert_equivalent(
            src, two_level(), 20, rotate_inputs([{"i": 9}, {"i": 12}, {"i": 31}])
        )

    def test_case_statement(self):
        src = """
        reg[7:0] out; input[1:0] sel;
        state s : L = {
            case (sel) {
                0: { out := 10; }
                1: { out := 20; }
                2: { out := 30; }
                default: { out := 40; }
            }
            goto s;
        }
        """
        assert_equivalent(
            src, two_level(), 8, rotate_inputs([{"sel": 0}, {"sel": 1}, {"sel": 2}, {"sel": 3}])
        )

    def test_tag_reads_in_expressions(self):
        src = """
        reg[7:0] d; reg[7:0] was_high; input[7:0] x;
        state s : L = {
            d := x;
            if (tag(d) == `H) { was_high := was_high + 1; }
            goto s;
        }
        """
        assert_equivalent(
            src, two_level(), 12, rotate_inputs([{"x": (1, "H")}, {"x": (2, "L")}])
        )


class TestEnforcementEquivalence:
    def test_checked_assign_and_violation_flag(self):
        src = """
        reg[7:0] lo : L; input[7:0] x;
        state s : L = { lo := x; goto s; }
        """
        assert_equivalent(
            src, two_level(), 10, rotate_inputs([{"x": (1, "L")}, {"x": (2, "H")}])
        )

    def test_otherwise_chain(self):
        src = """
        reg[7:0] a : L; reg[7:0] b : H; reg[7:0] c; input[7:0] x;
        state s : L = {
            a := x otherwise b := x otherwise c := 1;
            goto s;
        }
        """
        assert_equivalent(
            src, two_level(), 10, rotate_inputs([{"x": (3, "L")}, {"x": (4, "H")}])
        )

    def test_settag_roundtrip(self):
        src = """
        reg[7:0] r : L; reg[2:0] phase; input[7:0] x;
        state s : L = {
            if (phase == 0) { r := x; }
            if (phase == 1) { setTag(r, H); }
            if (phase == 2) { setTag(r, L); }
            phase := phase + 1;
            goto s;
        }
        """
        assert_equivalent(src, two_level(), 16, rotate_inputs([{"x": (9, "L")}]))

    def test_settag_array(self):
        src = """
        mem[7:0] buf[8] : L; reg[2:0] phase; input[7:0] x;
        state s : L = {
            if (phase == 0) { buf[2] := x; }
            if (phase == 1) { setTag(buf[2], H); }
            if (phase == 2) { setTag(buf[2], L); }
            phase := phase + 1;
            goto s;
        }
        """
        assert_equivalent(src, two_level(), 16, rotate_inputs([{"x": (5, "L")}]))

    def test_enforced_array_checks(self):
        src = """
        mem[7:0] buf[8] : L; reg[7:0] a; input[7:0] x; input[2:0] i;
        state s : L = {
            buf[i] := x;
            a := buf[i];
            goto s;
        }
        """
        assert_equivalent(
            src,
            two_level(),
            16,
            rotate_inputs([{"x": (5, "L"), "i": 1}, {"x": (6, "H"), "i": 2}]),
        )

    def test_goto_enforcement(self):
        src = """
        input h;
        reg[7:0] c1; reg[7:0] c2;
        state a : L = {
            c1 := c1 + 1;
            if (h) { goto b; } else { goto a; }
        }
        state b : L = { c2 := c2 + 1; goto a; }
        """
        assert_equivalent(
            src, two_level(), 16, rotate_inputs([{"h": (1, "L")}, {"h": (1, "H")}, {"h": (0, "L")}])
        )

    def test_dynamic_state_divergence(self):
        src = """
        input[7:0] h;
        reg[7:0] c1; reg[7:0] c2;
        state top : L = {
            let state p = {
                if (h > 10) { goto q; } else { goto p; }
            } in
            let state q = { c2 := c2 + 1; goto p; } in
            c1 := c1 + 1;
            fall;
        }
        """
        assert_equivalent(
            src,
            two_level(),
            24,
            rotate_inputs([{"h": (20, "H")}, {"h": (3, "H")}, {"h": (15, "L")}]),
        )


class TestDiamondEquivalence:
    def test_diamond_flows(self):
        src = """
        reg[7:0] m1 : M1; reg[7:0] m2 : M2; reg[7:0] joined; reg[7:0] lo : L;
        input[7:0] x1; input[7:0] x2;
        state s : L = {
            m1 := x1;
            m2 := x2;
            joined := m1 + m2;
            lo := joined;
            goto s;
        }
        """
        assert_equivalent(
            src,
            diamond(),
            16,
            rotate_inputs(
                [
                    {"x1": (1, "M1"), "x2": (2, "M2")},
                    {"x1": (3, "L"), "x2": (4, "L")},
                    {"x1": (5, "H"), "x2": (6, "M2")},
                ]
            ),
        )


class TestBatchedSuites:
    """Suites of stimulus traces run as lanes of one batched machine,
    each lane held to its own Figure 6 interpreter -- the batched engine
    is the device under test."""

    def test_tdma_stimulus_suite(self):
        stimuli = [
            rotate_inputs([{"hi_in": (5, "H"), "lo_in": (1, "L")}]),
            rotate_inputs(
                [{"hi_in": (7, "H"), "lo_in": (2, "L")},
                 {"hi_in": (9, "H"), "lo_in": (3, "L")}]
            ),
            rotate_inputs([{"hi_in": (1, "H"), "lo_in": (8, "L")}]),
            rotate_inputs([{"hi_in": (250, "H"), "lo_in": (0, "L")}]),
        ]
        assert_equivalent_suite(samples.TDMA, two_level(), 150, stimuli, name="tdma")

    def test_adder_check_suite(self):
        stimuli = [
            rotate_inputs([{"in_b": (0x0F, "L"), "in_c": (0x33, "L")}]),
            rotate_inputs([{"in_b": (0xAA, "H"), "in_c": (0x55, "L")}]),
            rotate_inputs(
                [{"in_b": (0xFF, "L"), "in_c": (0x01, "H")},
                 {"in_b": (0x00, "L"), "in_c": (0x00, "L")}]
            ),
        ]
        assert_equivalent_suite(samples.ADDER_CHECK, two_level(), 16, stimuli)

    def test_suite_under_eager_cohort_dispatch(self):
        """The batched conformance oracle over lanes split across FSM
        states: the divergent lanes run through the generic step and
        must still match their interpreters entity for entity, cycle
        for cycle."""
        src = """
        reg[7:0] acc; reg[7:0] aux; input[7:0] x;
        state top : L = {
            let state p = {
                acc := acc + x;
                if (acc > 200) { goto q; } else { goto p; }
            } in
            let state q = { aux := aux + 1; acc := 0; goto p; } in
            fall;
        }
        state other : L = { acc := acc - 1; goto other; }
        """
        stimuli = [
            rotate_inputs([{"x": (3, "L")}]),
            rotate_inputs([{"x": (3, "L")}]),
            rotate_inputs([{"x": (3, "L")}]),
            rotate_inputs([{"x": (103, "L")}]),
        ]
        bcv = assert_equivalent_suite(src, two_level(), 120, stimuli, name="fsm_suite")
        assert bcv.batch.generic_steps > 0, "divergent lanes never took the generic step"

    def test_enforcement_suite_with_divergent_violations(self):
        # lanes violate (or not) independently; per-lane violation events
        # must match each lane's interpreter exactly
        src = """
        reg[7:0] lo : L; input[7:0] x;
        state s : L = { lo := x; goto s; }
        """
        stimuli = [
            rotate_inputs([{"x": (1, "L")}]),
            rotate_inputs([{"x": (2, "H")}]),
            rotate_inputs([{"x": (3, "L")}, {"x": (4, "H")}]),
        ]
        assert_equivalent_suite(src, two_level(), 12, stimuli)


class TestInsecureCompile:
    def test_base_design_has_no_tag_state(self):
        from repro.sapper.compiler import compile_program

        design = compile_program(samples.TDMA, two_level(), secure=False, name="tdma_base")
        assert not design.reg_tag and not design.state_tag
        assert "violation" not in design.module.outputs
        # tags gone, but the machine still works
        from repro.hdl import Simulator

        sim = Simulator(design.module)
        sim.step({"hi_in": 1})
        for _ in range(101):
            sim.step({"hi_in": 1})
        assert sim.regs["acc"] == 100


class TestTagBits:
    def test_tagbits_settag_roundtrip(self):
        # hardware reacting to software-supplied labels (the set-tag
        # instruction's mechanism): bits -> clamped label
        src = """
        mem[7:0] buf[8] : L; reg[1:0] phase; input[7:0] bits;
        state s : L = {
            if (phase == 0) { setTag(buf[1], tagbits(bits)); }
            phase := phase + 1;
            goto s;
        }
        """
        assert_equivalent(
            src, two_level(), 8,
            rotate_inputs([{"bits": (1, "L")}, {"bits": (0, "L")}]),
        )

    def test_tagbits_diamond_clamping(self):
        src = """
        mem[7:0] buf[8] : L; reg[1:0] phase; input[7:0] bits;
        state s : L = {
            if (phase == 0) { setTag(buf[2], tagbits(bits)); }
            phase := phase + 1;
            goto s;
        }
        """
        assert_equivalent(
            src, diamond(), 8,
            rotate_inputs([{"bits": (2, "L")}, {"bits": (3, "L")}, {"bits": (1, "L")}]),
        )
