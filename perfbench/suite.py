"""Seeded MIPS program suites and their independent references.

A suite is drawn entirely from the workload seed:

* run length -- loop trip counts follow a geometric distribution,
  sampled by stratified quantiles so every seed gets the same skew
  (many short programs, a long tail) while the programs differ;
* instruction mix -- each loop body holds ALU operations, a
  load/store pair, a multiply and a data-dependent forward branch, in
  a seeded order with seeded operators and operands;
* tagged share -- a seeded share of programs ``setrtag`` a data word
  to H, load it and try to emit it on the L output port, so the
  processor's checks fire and ``violations`` is nonzero.

References never touch the optimizer or the batched engines: untagged
programs are checked against the golden ISS (outputs and halt), tagged
programs against an unoptimized scalar :class:`Simulator` over the raw
compiled processor (outputs, cycles and violations).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

OUT = "    li   $t8, 0x40000000\n    sw   $v0, 0($t8)"
HALT = "    li   $t9, 0x40000004\n    sw   $zero, 0($t9)"

#: per-program cycle budget; every generated program halts well inside it
BUDGET = 20_000


@dataclass(frozen=True)
class Program:
    source: str
    tagged: bool


#: every loop body holds these blocks, in a seeded order: the mix is
#: fixed, so a program's run length follows its trip count
BLOCKS = ("alu", "alu", "alu", "mem", "mul", "branch")


def _body(rng: random.Random) -> list[str]:
    lines = []
    kinds = list(BLOCKS)
    rng.shuffle(kinds)
    for k, kind in enumerate(kinds):
        if kind == "alu":
            op = rng.choice(("addu", "xor", "or", "and", "subu", "slt", "sllv", "srlv"))
            lines.append(f"    {op} $s0, $s0, $s2")
            lines.append(f"    addiu $s2, $s2, {rng.randrange(1, 200)}")
        elif kind == "mem":
            off = 4 * rng.randrange(16)
            lines.append(f"    sw   $s0, {off}($s7)")
            lines.append(f"    lw   $t0, {off}($s7)")
            lines.append("    addu $s2, $s2, $t0")
        elif kind == "mul":
            lines.append("    mult $s0, $s2")
            lines.append("    mflo $t1")
            lines.append("    xor  $s0, $s0, $t1")
        else:
            lines.append(f"    andi $t2, $s0, {rng.choice((1, 2, 4, 8))}")
            lines.append(f"    beq  $t2, $zero, skip{k}")
            lines.append(f"    addiu $s0, $s0, {rng.randrange(1, 50)}")
            lines.append(f"skip{k}:")
    return lines


def program(rng: random.Random, iters: int, tagged: bool) -> Program:
    lines = [
        ".org 0x400",
        f"    li   $s0, {rng.randrange(1, 1 << 15)}",
        f"    li   $s1, {iters}",
        "    li   $s7, 0x10000",
        f"    li   $s2, {rng.randrange(1, 1 << 15)}",
        "loop:",
        *_body(rng),
        "    addiu $s1, $s1, -1",
        "    bgt  $s1, $zero, loop",
        "    move $v0, $s0",
        OUT,
        "    move $v0, $s2",
        OUT,
    ]
    if tagged:
        # label a data word H, load it, and try to leak it through the
        # L output port: the processor must suppress the write and flag
        # a violation, then carry on with L work and halt
        lines += [
            f"    li   $t3, {0x20000 + 4 * rng.randrange(64)}",
            "    li   $t4, 1",
            "    setrtag $t3, $t4",
            "    sw   $s0, 0($t3)",
            "    lw   $v0, 0($t3)",
            OUT,
            "    addiu $v0, $s2, 1",
            OUT,
        ]
    lines.append(HALT)
    return Program("\n".join(lines) + "\n", tagged)


def make_suite(seed: int, count: int, mean_iters: float = 10.0) -> list[Program]:
    """*count* programs drawn from *seed*.  Trip counts are the midpoints
    of *count* equal-probability strata of a geometric distribution
    (mean *mean_iters*), so every seed has the same skew and the same
    longest program; the seed picks each program's instructions and
    operands, which programs are tagged, and the order."""
    rng = random.Random(seed)
    trips = [1 + int(-mean_iters * math.log(1.0 - (i + 0.5) / count)) for i in range(count)]
    # tagged programs come from the short strata, which keeps the
    # scalar reference cheap and leaves the long tail alone
    short = [i for i, n in enumerate(trips) if n <= 8]
    tagged = set(rng.sample(short, max(1, round(rng.uniform(0.10, 0.15) * count))))
    progs = [program(rng, n, i in tagged) for i, n in enumerate(trips)]
    rng.shuffle(progs)
    return progs


# -- references -----------------------------------------------------------


@dataclass(frozen=True)
class Expected:
    outputs: tuple[int, ...]
    halted: bool
    #: None when the reference does not model it (ISS: no cycles/tags)
    cycles: int | None
    violations: int


def raw_machine_run(sim, exe, budget: int = BUDGET) -> Expected:
    """Run *exe* on a fresh-state scalar simulator of the raw processor,
    collecting results the way :class:`~repro.proc.machine.SapperMachine`
    does (MMIO output trace, violation cycles, halt register)."""
    sim.arrays["memory"] = dict(exe.as_memory())
    outputs: list[int] = []
    violations = 0
    cycles = 0
    halted = False
    for cycles in range(1, budget + 1):
        out = sim.step({})
        if out.get("out_valid"):
            outputs.append(out["out_port"])
        if out.get("violation"):
            violations += 1
        if sim.regs["halted_r"]:
            halted = True
            break
    return Expected(tuple(outputs), halted, cycles, violations)


def references(programs, executables, raw_module) -> list[Expected]:
    """One reference per program: the ISS for untagged programs, an
    unoptimized scalar simulator for tagged ones."""
    from repro.hdl.sim import Simulator
    from repro.proc.machine import run_on_iss

    out = []
    for prog, exe in zip(programs, executables):
        if prog.tagged:
            out.append(raw_machine_run(Simulator(raw_module, optimize=False), exe))
        else:
            iss = run_on_iss(exe)
            out.append(Expected(tuple(iss.outputs), iss.halted, None, 0))
    return out


def matches(result, expected: Expected) -> bool:
    """Whether one processor :class:`RunResult` agrees with its reference."""
    if tuple(result.outputs) != expected.outputs or result.halted != expected.halted:
        return False
    if result.violations != expected.violations:
        return False
    return expected.cycles is None or result.cycles == expected.cycles
