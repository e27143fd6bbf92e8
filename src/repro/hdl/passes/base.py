"""Pass framework for the HDL optimization pipeline.

A :class:`Pass` rewrites one :class:`~repro.hdl.ir.Module` into an
equivalent one.  Passes never touch architectural state -- inputs,
registers, arrays, output ports, and the register/array write semantics
are all preserved bit-for-bit -- so a pass is free to rewrite only the
SSA combinational block (and to drop sequential write ports it can prove
never fire).  The :class:`PassManager` runs a pipeline to a fixpoint and
records per-pass statistics.

Equivalence contract (relied on by ``repro.sapper.crossval`` and the
GLIFT shadow property tests): for every input trace, an optimized module
produces the same register contents, array contents, and output-port
values at every cycle boundary as the original.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.hdl.ir import ArrayWrite, HExpr, Module


class WeakIdMemo:
    """A memo keyed by object identity.

    Mutable IR objects are unhashable, so caches key on ``id()``; a
    weakref per entry guards against a recycled id aliasing a dead key,
    and the reaper binds its dict/key as defaults so it stays safe when
    module globals are cleared at interpreter shutdown.
    """

    def __init__(self) -> None:
        self._store: dict = {}

    def get(self, obj: object):
        entry = self._store.get(id(obj))
        if entry is not None and entry[0]() is obj:
            return entry[1]
        return None

    def set(self, obj: object, value) -> None:
        key = id(obj)
        reaper = lambda _, d=self._store, k=key: d.pop(k, None)  # noqa: E731
        self._store[key] = (weakref.ref(obj, reaper), value)


class Pass:
    """Base class: a semantics-preserving module rewrite."""

    name = "pass"

    def run(self, module: Module) -> tuple[Module, bool]:
        """Return ``(new_module, changed)``.

        When ``changed`` is False the returned module may be the input
        object itself.
        """
        raise NotImplementedError


def rebuild(
    module: Module,
    comb: list[tuple[str, HExpr]],
    outputs: dict[str, str] | None = None,
    reg_next: dict[str, str] | None = None,
    array_writes: list[ArrayWrite] | None = None,
) -> Module:
    """Construct a new module sharing *module*'s architectural shell.

    Inputs, registers, and arrays are copied verbatim; the combinational
    block (and optionally outputs / reg-next wiring / write ports) is
    replaced.  Signal widths are recomputed from the new block.
    """
    out = Module(module.name)
    out.inputs = dict(module.inputs)
    out.regs = dict(module.regs)
    out.arrays = dict(module.arrays)
    out.comb = comb
    out.reg_next = dict(reg_next if reg_next is not None else module.reg_next)
    out.outputs = dict(outputs if outputs is not None else module.outputs)
    out.array_writes = list(
        array_writes if array_writes is not None else module.array_writes
    )
    out._counter = module._counter
    widths = {name: w for name, w in module.inputs.items()}
    widths.update({name: r.width for name, r in module.regs.items()})
    for name, expr in comb:
        widths[name] = expr.width
    out._widths = widths
    return out


@dataclass
class PassStat:
    """One pipeline step's effect, for reporting and benchmarks."""

    name: str
    signals_before: int
    signals_after: int
    seconds: float
    changed: bool


@dataclass
class OptResult:
    """An optimized module plus the pipeline trace that produced it."""

    module: Module
    stats: list[PassStat] = field(default_factory=list)

    @property
    def signals_removed(self) -> int:
        if not self.stats:
            return 0
        return self.stats[0].signals_before - self.stats[-1].signals_after


class PassManager:
    """Runs an ordered pass pipeline, iterating until nothing changes.

    Each iteration applies every pass once, in order; iteration stops as
    soon as a full sweep makes no change, so the result is a fixpoint of
    every pass.  The standard pipeline gets there in two sweeps: the
    one-sweep rewrite is its own fixpoint, so the second sweep only
    confirms it.  *max_iters* is a guard against a pass pair that undo
    each other, far above what any design needs.
    """

    def __init__(self, passes: Sequence[Pass], max_iters: int = 16):
        self.passes = list(passes)
        self.max_iters = max_iters

    def run(self, module: Module) -> OptResult:
        result = OptResult(module)
        for _ in range(self.max_iters):
            sweep_changed = False
            for p in self.passes:
                before = len(module.comb)
                t0 = time.perf_counter()
                module, changed = p.run(module)
                result.stats.append(
                    PassStat(
                        name=p.name,
                        signals_before=before,
                        signals_after=len(module.comb),
                        seconds=time.perf_counter() - t0,
                        changed=changed,
                    )
                )
                sweep_changed = sweep_changed or changed
            if not sweep_changed:
                break
        module.validate()
        result.module = module
        return result
