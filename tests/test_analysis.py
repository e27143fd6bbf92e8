"""Unit tests for the static analysis (state tree, Fcd, Appendix A.1)."""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.lattice import two_level
from repro.proc.design import generate_design
from repro.sapper import ast
from repro.sapper.analysis import analyze
from repro.sapper.errors import SapperTypeError
from repro.sapper.parser import parse_program
from repro.sapper import samples

from tests import strategies


def info_of(src: str):
    return analyze(parse_program(src))


def reference_fcd(info):
    """Fcd computed the straightforward way: every ``if`` re-walks its
    branch, and every goto/fall branch re-walks the bodies of its whole
    scope.  Returns ``(fcd_regs, fcd_arrays, fcd_states)`` with the keys
    in the analyzer's order (states in tree order, ifs in preorder)."""
    fcd_regs, fcd_arrays, fcd_states = {}, {}, {}

    def assigned(c, kind, decls):
        return {
            x.target for x in c.walk()
            if isinstance(x, kind) and decls[x.target].label is None
        }

    def scope_sets(root_name):
        regs, arrays, states = set(), set(), set()
        for member in info.descendants(root_name):
            body = info.states[member].body
            regs |= assigned(body, ast.AssignReg, info.regs)
            arrays |= assigned(body, ast.AssignArr, info.arrays)
            if not info.is_enforced_state(member):
                states.add(member)
        return regs, arrays, states

    def visit(c, state):
        if isinstance(c, ast.If):
            branch = ast.seq(c.then, c.els)
            regs = assigned(branch, ast.AssignReg, info.regs)
            arrays = assigned(branch, ast.AssignArr, info.arrays)
            states = set()
            if any(isinstance(sub, ast.Goto) for sub in branch.walk()):
                s_regs, s_arrays, states = scope_sets(info.parent[state])
                regs |= s_regs
                arrays |= s_arrays
            elif any(isinstance(sub, ast.Fall) for sub in branch.walk()):
                s_regs, s_arrays, states = scope_sets(state)
                regs |= s_regs
                arrays |= s_arrays
            fcd_regs[c.label] = frozenset(regs)
            fcd_arrays[c.label] = frozenset(arrays)
            fcd_states[c.label] = frozenset(states)
            visit(c.then, state)
            visit(c.els, state)
        elif isinstance(c, ast.Seq):
            for sub in c.commands:
                visit(sub, state)
        elif isinstance(c, ast.Otherwise):
            visit(c.primary, state)
            visit(c.handler, state)

    for name, state in info.states.items():
        if name != ast.ROOT:
            visit(state.body, name)
    return fcd_regs, fcd_arrays, fcd_states


def assert_fcd_matches_reference(info):
    for got, want in zip(
        (info.fcd_regs, info.fcd_arrays, info.fcd_states), reference_fcd(info)
    ):
        assert got == want
        assert list(got) == list(want)


class TestStateTree:
    def test_tdma_tree(self):
        info = analyze(parse_program(samples.TDMA))
        assert info.parent["Master"] == ast.ROOT
        assert info.parent["Slave"] == ast.ROOT
        assert info.parent["Pipeline"] == "Slave"
        assert info.children[ast.ROOT] == ("Master", "Slave")
        assert info.default_child[ast.ROOT] == "Master"
        assert info.default_child["Slave"] == "Pipeline"
        assert info.depth["Pipeline"] == 2

    def test_descendants(self):
        info = analyze(parse_program(samples.TDMA))
        assert set(info.descendants(ast.ROOT)) == {"Master", "Slave", "Pipeline"}
        assert info.descendants("Slave") == ("Pipeline",)

    def test_initial_tags(self):
        info = analyze(parse_program(samples.TDMA))
        lat = two_level()
        assert info.initial_state_tag("Master", lat) == "L"
        assert info.initial_state_tag("Pipeline", lat) == "L"  # dynamic -> bottom
        assert info.initial_state_tag(ast.ROOT, lat) == "L"
        assert info.is_enforced_state("Master")
        assert not info.is_enforced_state("Pipeline")


class TestWellFormedness:
    def test_leaf_cannot_fall(self):
        with pytest.raises(SapperTypeError, match="fall"):
            info_of("state s : L = { fall; }")

    def test_goto_must_stay_in_group(self):
        src = """
        state a : L = {
            let state inner = { goto a; } in
            fall;
        }
        """
        with pytest.raises(SapperTypeError, match="sibling group"):
            info_of(src)

    def test_path_must_terminate(self):
        with pytest.raises(SapperTypeError, match="neither goto nor fall"):
            info_of("reg x;\nstate s : L = { x := 1; }")

    def test_branches_must_agree_on_terminators(self):
        src = """
        reg x;
        state s : L = {
            if (x) { goto s; } else { x := 1; }
            goto s;
        }
        """
        with pytest.raises(SapperTypeError, match="both branches"):
            info_of(src)

    def test_code_after_goto_rejected(self):
        src = """
        reg x;
        state s : L = { goto s; x := 1; }
        """
        with pytest.raises(SapperTypeError, match="unreachable"):
            info_of(src)

    def test_both_branches_terminating_is_fine(self):
        src = """
        reg x;
        state a : L = { if (x) { goto a; } else { goto b; } }
        state b : L = { goto a; }
        """
        info = info_of(src)
        assert set(info.children[ast.ROOT]) == {"a", "b"}

    def test_undeclared_variable(self):
        with pytest.raises(SapperTypeError, match="undeclared"):
            info_of("state s : L = { nope := 1; goto s; }")

    def test_assign_to_input_rejected(self):
        with pytest.raises(SapperTypeError, match="input"):
            info_of("input[7:0] x;\nstate s : L = { x := 1; goto s; }")

    def test_goto_unknown_state(self):
        with pytest.raises(SapperTypeError):
            info_of("state s : L = { goto nowhere; }")

    def test_duplicate_state_names(self):
        with pytest.raises(SapperTypeError, match="duplicate"):
            info_of("state s : L = { goto s; }\nstate s : L = { goto s; }")

    def test_settag_on_dynamic_array_rejected(self):
        src = """
        mem[7:0] arr[8];
        state s : L = { setTag(arr[0], H); goto s; }
        """
        with pytest.raises(SapperTypeError, match="dynamic array"):
            info_of(src)

    def test_otherwise_needs_enforceable_primary(self):
        # the concrete grammar cannot even produce this shape, so build it
        prog = ast.Program(
            (ast.RegDecl("x", 1),),
            (
                ast.StateDef(
                    "s",
                    ast.seq(
                        ast.Otherwise(ast.Skip(), ast.AssignReg("x", ast.Const(1))),
                        ast.Goto("s"),
                    ),
                    label="L",
                ),
            ),
        )
        with pytest.raises(SapperTypeError, match="enforceable"):
            analyze(prog)


class TestResolution:
    def test_scalar_index_becomes_bit_select(self):
        info = info_of(
            """
            reg[7:0] x; reg[2:0] i; reg b;
            state s : L = { b := x[i]; goto s; }
            """
        )
        assigns = [
            c
            for st in info.states.values()
            for c in st.body.walk()
            if isinstance(c, ast.AssignReg) and c.target == "b"
        ]
        assert isinstance(assigns[0].value, ast.BinOp)  # (x >> i) & 1

    def test_array_index_stays(self):
        info = info_of(
            """
            mem[7:0] arr[16]; reg[7:0] v;
            state s : L = { v := arr[3]; goto s; }
            """
        )
        assigns = [
            c
            for st in info.states.values()
            for c in st.body.walk()
            if isinstance(c, ast.AssignReg)
        ]
        assert isinstance(assigns[0].value, ast.ArrIndex)

    def test_entity_name_resolves_to_state(self):
        info = info_of(
            """
            reg[7:0] v;
            state s : L = { v := tag(s); goto s; }
            """
        )
        tag_reads = [
            e
            for st in info.states.values()
            for c in st.body.walk()
            for exp in c.expressions()
            for e in exp.walk()
            if isinstance(e, ast.TagOf)
        ]
        assert isinstance(tag_reads[0].entity, ast.EntState)


class TestFcd:
    def test_fcd_collects_dynamic_regs(self):
        info = info_of(
            """
            reg[7:0] d; reg[7:0] e : L; reg c;
            state s : L = {
                if (c) { d := 1; e := 2; }
                goto s;
            }
            """
        )
        label = next(iter(info.fcd_regs))
        assert info.fcd_regs[label] == {"d"}  # enforced e is checked, not tracked

    def test_fcd_collects_goto_targets_and_source(self):
        info = info_of(
            """
            reg c;
            state top : L = {
                let state p = {
                    if (c) { goto q; } else { goto p; }
                } in
                let state q = { goto p; } in
                fall;
            }
            """
        )
        (label,) = info.fcd_states.keys()
        # both dynamic targets and the enclosing dynamic state p
        assert info.fcd_states[label] == {"p", "q"}

    def test_fcd_includes_fall_children(self):
        info = analyze(parse_program(samples.TDMA))
        (label,) = [lbl for lbl in info.fcd_states]
        assert "Pipeline" in info.fcd_states[label]

    def test_fcd_dynamic_array(self):
        info = info_of(
            """
            mem[7:0] arr[8]; reg c;
            state s : L = {
                if (c) { arr[0] := 1; }
                goto s;
            }
            """
        )
        label = next(iter(info.fcd_arrays))
        assert info.fcd_arrays[label] == {"arr"}

    #: a fall-only branch (scoped to its own state's subtree) beside a
    #: goto branch (scoped to its parent's); neither the samples, the
    #: processor nor ``strategies.programs()`` has a fall-only branch
    FALL_AND_GOTO = """
    reg c; reg[7:0] d; reg[7:0] e; reg[7:0] f; mem[7:0] m[4];
    state top : L = {
        let state p = { d := d + 1; goto q; } in
        let state q = { m[0] := d; goto p; } in
        if (c) { e := 1; fall; } else { fall; }
    }
    state other : L = { if (c) { f := 2; goto other; } else { goto top; } }
    """

    def test_fcd_fall_branch_scopes_its_own_subtree(self):
        info = info_of(self.FALL_AND_GOTO)
        fall_if, goto_if = info.fcd_regs
        assert info.fcd_regs[fall_if] == {"d", "e"}
        assert info.fcd_arrays[fall_if] == {"m"}
        assert info.fcd_states[fall_if] == {"p", "q"}
        assert info.fcd_regs[goto_if] == {"d", "e", "f"}
        assert info.fcd_states[goto_if] == {"p", "q"}
        assert_fcd_matches_reference(info)

    @pytest.mark.parametrize("name", ["ADDER_CHECK", "ADDER_TRACK", "TDMA"])
    def test_fcd_matches_reference_on_samples(self, name):
        assert_fcd_matches_reference(analyze(parse_program(getattr(samples, name))))

    def test_fcd_matches_reference_on_processor(self):
        info = analyze(parse_program(generate_design(two_level())))
        assert len(info.fcd_regs) > 100
        assert any(info.fcd_states.values()), "no goto/fall branch exercised"
        assert_fcd_matches_reference(info)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(strategies.programs())
    def test_fcd_matches_reference_on_random_programs(self, program):
        assert_fcd_matches_reference(analyze(program, two_level()))


class TestWidths:
    def test_width_inference(self):
        info = info_of(
            """
            reg[7:0] a; reg[3:0] b; reg c;
            state s : L = { c := a == b; goto s; }
            """
        )
        assert info.width_of(ast.RegRef("a")) == 8
        assert info.width_of(ast.BinOp("+", ast.RegRef("a"), ast.RegRef("b"))) == 9
        assert info.width_of(ast.BinOp("==", ast.RegRef("a"), ast.RegRef("b"))) == 1
        assert info.width_of(ast.BinOp("*", ast.RegRef("a"), ast.RegRef("b"))) == 12
        assert info.width_of(ast.Cat((ast.RegRef("a"), ast.RegRef("b")))) == 12
        assert info.width_of(ast.Slice(ast.RegRef("a"), 6, 2)) == 5

    def test_labels_used(self):
        info = analyze(parse_program(samples.TDMA))
        assert info.labels_used() == {"L", "H"}
