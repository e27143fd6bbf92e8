"""Conformance testing: compiled hardware vs. the formal semantics.

The Sapper compiler's output must be *cycle-by-cycle equivalent* to the
reference interpreter of Figure 6 -- same register values, same tags,
same fall maps, same outputs, same violation events.  This module runs
both on the same input trace and compares the complete architectural
state at every cycle boundary.  The test-suite uses it on hand-written
programs and on randomized programs; a mismatch pinpoints the first
divergent entity.

Validation is *three-way* by default: the interpreter, the raw
(unoptimized) hardware simulation, and the simulation of the module
after the :mod:`repro.hdl.passes` pipeline all run in lockstep.  The
optimized engine must match the interpreter on every architectural
entity and every violation event -- this is the optimizer's
correctness oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

from repro.hdl import Simulator
from repro.lattice import Lattice
from repro.sapper.analysis import ProgramInfo, analyze
from repro.sapper.compiler import CompiledDesign, compile_program
from repro.sapper.parser import parse_program
from repro.sapper.semantics import Interpreter

InputSpec = dict[str, int | tuple[int, str]]


def encode_inputs(design: CompiledDesign, inputs: InputSpec) -> dict[str, int]:
    """Translate ``port: value`` / ``port: (value, label)`` stimulus into
    the compiled module's value and ``__tag`` input ports."""
    enc = design.encoding
    out: dict[str, int] = {}
    for port, spec in inputs.items():
        if isinstance(spec, tuple):
            value, label = spec
            out[port] = value
            out[f"{port}__tag"] = enc.encode(label)
        else:
            out[port] = spec
    return out


@dataclass
class Mismatch:
    cycle: int
    entity: str
    interp_value: object
    hdl_value: object

    def __str__(self) -> str:
        return (
            f"cycle {self.cycle}: {self.entity}: interpreter={self.interp_value!r} "
            f"hdl={self.hdl_value!r}"
        )


@dataclass
class CrossValidation:
    """Lockstep execution of the interpreter and the hardware engines.

    ``sim`` runs the raw compiler output; ``opt_sim`` (unless disabled)
    runs the same module after the optimization pipeline.  Both are
    held to the interpreter's architectural state each cycle.
    """

    interp: Interpreter
    design: CompiledDesign
    sim: Simulator
    opt_sim: Simulator | None = None
    mismatches: list[Mismatch] = field(default_factory=list)

    @classmethod
    def build(
        cls,
        source: str | ProgramInfo,
        lattice: Lattice,
        name: str = "design",
        optimized: bool = True,
    ) -> CrossValidation:
        info = (
            source
            if isinstance(source, ProgramInfo)
            else analyze(parse_program(source, name), lattice)
        )
        design = compile_program(info, lattice, secure=True, name=name)
        opt_sim = Simulator(design.module) if optimized else None
        return cls(
            Interpreter(info, lattice), design, Simulator(design.module, optimize=False), opt_sim
        )

    @property
    def engines(self) -> list[tuple[str, Simulator]]:
        out: list[tuple[str, Simulator]] = [("", self.sim)]
        if self.opt_sim is not None:
            out.append(("opt:", self.opt_sim))
        return out

    # -- input translation ------------------------------------------------------

    def _sim_inputs(self, inputs: InputSpec) -> dict[str, int]:
        return encode_inputs(self.design, inputs)

    # -- state comparison ----------------------------------------------------------

    def compare_state(self, cycle: int, sim: Simulator | None = None, tag: str = "") -> None:
        it, design = self.interp, self.design
        sim = sim if sim is not None else self.sim
        enc = design.encoding
        for name, decl in it.info.regs.items():
            if decl.kind != "reg":
                continue
            if sim.regs[name] != it.sigma[name]:
                self.mismatches.append(
                    Mismatch(cycle, f"{tag}reg {name}", it.sigma[name], sim.regs[name])
                )
        for name, tag_reg in design.reg_tag.items():
            want = enc.encode(it.theta_reg[name])
            if sim.regs[tag_reg] != want:
                self.mismatches.append(
                    Mismatch(
                        cycle,
                        f"{tag}tag({name})",
                        it.theta_reg[name],
                        enc.decode(sim.regs[tag_reg]),
                    )
                )
        for sname, tag_reg in design.state_tag.items():
            want = enc.encode(it.theta_state[sname])
            if sim.regs[tag_reg] != want:
                self.mismatches.append(
                    Mismatch(
                        cycle,
                        f"{tag}tag(state {sname})",
                        it.theta_state[sname],
                        enc.decode(sim.regs[tag_reg]),
                    )
                )
        for sname, fall_reg in design.fall_reg.items():
            child = it.rho[sname]
            want = design.state_code[child] if child is not None else 0
            if sim.regs[fall_reg] != want:
                self.mismatches.append(
                    Mismatch(cycle, f"{tag}rho({sname})", child, sim.regs[fall_reg])
                )
        for name, decl in it.info.arrays.items():
            sim_arr = sim.arrays[name]
            for idx in set(it.arrays[name]) | set(sim_arr):
                want = it.arrays[name].get(idx, 0)
                got = sim_arr.get(idx, 0)
                if want != got:
                    self.mismatches.append(Mismatch(cycle, f"{tag}{name}[{idx}]", want, got))
            if decl.enforced:
                tag_arr = design.arr_tag[name]
                sim_tags = sim.arrays[tag_arr]
                default = it.theta_arr_default[name]
                for idx in set(it.theta_arr[name]) | set(sim_tags):
                    want_t = it.arr_tag(name, idx)
                    got_t = enc.decode(sim_tags.get(idx, enc.encode(default)))
                    if want_t != got_t:
                        self.mismatches.append(
                            Mismatch(cycle, f"{tag}tag({name}[{idx}])", want_t, got_t)
                        )
            else:
                tag_reg = design.arr_tag[name]
                want_t = it.theta_arr_single[name]
                got_bits = sim.regs[tag_reg]
                if enc.encode(want_t) != got_bits:
                    self.mismatches.append(
                        Mismatch(cycle, f"{tag}tag({name})", want_t, enc.decode(got_bits))
                    )

    def run_cycle(self, inputs: InputSpec | None = None) -> None:
        inputs = inputs or {}
        viol_before = len(self.interp.violations)
        it_out = self.interp.run_cycle(inputs)
        sim_inputs = self._sim_inputs(inputs)
        cycle = self.interp.delta
        violated = len(self.interp.violations) > viol_before
        for tag, sim in self.engines:
            sim_out = sim.step(sim_inputs)
            for port, (value, label) in it_out.items():
                if sim_out.get(port) != value:
                    self.mismatches.append(
                        Mismatch(cycle, f"{tag}output {port}", value, sim_out.get(port))
                    )
                tag_port = f"{port}__tag"
                if tag_port in sim_out and sim_out[tag_port] != self.design.encoding.encode(label):
                    self.mismatches.append(
                        Mismatch(cycle, f"{tag}output tag {port}", label, sim_out[tag_port])
                    )
            got_violation = bool(sim_out.get("violation", 0))
            if got_violation != violated:
                self.mismatches.append(
                    Mismatch(cycle, f"{tag}violation flag", violated, got_violation)
                )
            self.compare_state(cycle, sim, tag)

    def run(
        self,
        cycles: int,
        stimulus: Callable[[int], InputSpec] | None = None,
        stop_on_mismatch: bool = True,
    ) -> list[Mismatch]:
        for cycle in range(cycles):
            self.run_cycle(stimulus(cycle) if stimulus else None)
            if stop_on_mismatch and self.mismatches:
                break
        return self.mismatches


def assert_equivalent(
    source: str,
    lattice: Lattice,
    cycles: int,
    stimulus: Callable[[int], InputSpec] | None = None,
) -> CrossValidation:
    """Run all three engines (interpreter, raw hardware, optimized
    hardware) and raise ``AssertionError`` on the first divergence."""
    cv = CrossValidation.build(source, lattice)
    mismatches = cv.run(cycles, stimulus)
    if mismatches:
        detail = "\n".join(str(m) for m in mismatches[:12])
        raise AssertionError(f"compiler/semantics divergence:\n{detail}")
    return cv


class BatchCrossValidation:
    """Many stimulus traces of one program as lanes of a batched machine.

    Each lane is held to its own reference interpreter every cycle --
    the full architectural state (registers, tags, fall maps, arrays,
    outputs, violation events), exactly as :class:`CrossValidation` does
    for a single trace.  One :class:`~repro.hdl.batch.BatchSimulator`
    over the optimized module advances every trace together, so the
    batched engine itself is the device under test.
    """

    def __init__(
        self,
        source: str | ProgramInfo,
        lattice: Lattice,
        lanes: int,
        name: str = "design",
        engine: str = "swar",
    ):
        """*engine* picks the batched generation under test (``"swar"``
        or ``"vector"``)."""
        from repro.hdl import BatchSimulator

        info = (
            source if isinstance(source, ProgramInfo)
            else analyze(parse_program(source, name), lattice)
        )
        self.design = compile_program(info, lattice, secure=True, name=name)
        self.lanes = lanes
        if engine == "vector":
            from repro.hdl import VectorSimulator

            self.batch = VectorSimulator(self.design.module, lanes)
        else:
            self.batch = BatchSimulator(self.design.module, lanes)
        self.interps = [Interpreter(info, lattice) for _ in range(lanes)]
        self.mismatches: list[Mismatch] = []
        # per-lane comparison harness: the lane views are live, so one
        # CrossValidation holder per lane serves every cycle
        self._lane_cv = [
            CrossValidation(
                self.interps[lane], self.design, self.batch.lane_view(lane),
                mismatches=self.mismatches,
            )
            for lane in range(lanes)
        ]

    def run_cycle(self, lane_inputs: Sequence[InputSpec | None]) -> None:
        """One cycle of every lane against its interpreter."""
        before = [len(it.violations) for it in self.interps]
        outs = self.batch.step(
            [encode_inputs(self.design, inputs or {}) for inputs in lane_inputs]
        )
        for lane in range(self.lanes):
            it = self.interps[lane]
            it_out = it.run_cycle(lane_inputs[lane] or {})
            cycle = it.delta
            violated = len(it.violations) > before[lane]
            cv = self._lane_cv[lane]
            view = cv.sim
            sim_out = outs[lane]
            tag = f"lane{lane}:"
            for port, (value, label) in it_out.items():
                if sim_out.get(port) != value:
                    self.mismatches.append(
                        Mismatch(cycle, f"{tag}output {port}", value, sim_out.get(port))
                    )
                tag_port = f"{port}__tag"
                if tag_port in sim_out and sim_out[tag_port] != self.design.encoding.encode(label):
                    self.mismatches.append(
                        Mismatch(cycle, f"{tag}output tag {port}", label, sim_out[tag_port])
                    )
            if bool(sim_out.get("violation", 0)) != violated:
                self.mismatches.append(
                    Mismatch(cycle, f"{tag}violation flag", violated,
                             bool(sim_out.get("violation", 0)))
                )
            cv.compare_state(cycle, view, tag)

    def run(
        self,
        cycles: int,
        stimulus: Callable[[int, int], InputSpec] | None = None,
        stop_on_mismatch: bool = True,
    ) -> list[Mismatch]:
        """*stimulus* maps ``(lane, cycle)`` to that lane's inputs."""
        for cycle in range(cycles):
            self.run_cycle(
                [stimulus(lane, cycle) if stimulus else None for lane in range(self.lanes)]
            )
            if stop_on_mismatch and self.mismatches:
                break
        return self.mismatches


def assert_equivalent_suite(
    source: str,
    lattice: Lattice,
    cycles: int,
    stimuli: Sequence[Callable[[int], InputSpec]],
    name: str = "design",
    engine: str = "swar",
) -> BatchCrossValidation:
    """Run a suite of stimulus traces as lanes of one batched machine,
    each held to its own interpreter, and raise on any divergence."""
    bcv = BatchCrossValidation(source, lattice, len(stimuli), name, engine=engine)
    mismatches = bcv.run(cycles, lambda lane, cycle: stimuli[lane](cycle))
    if mismatches:
        detail = "\n".join(str(m) for m in mismatches[:12])
        raise AssertionError(f"batched compiler/semantics divergence:\n{detail}")
    return bcv
