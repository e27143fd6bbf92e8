"""Mid-level optimization passes over the HDL IR.

One optimized module feeds all three backends -- the cycle-accurate
simulator, the gate-count synthesizer, and the Verilog emitter -- so
the redundant tag-join and mux logic the Sapper compiler emits is paid
for once, here, instead of three times downstream.

* :class:`Rewrite` -- one forward sweep over the combinational block in
  topological order that builds every node through a single interning
  constructor: constant folding (bit-exact with the simulator via
  :func:`eval_op`), the mux/boolean/algebraic identities (``mux(c, x,
  x)``, ``x & 0``, constant guards, ...), and value numbering of
  duplicated tag joins, Fcd upgrades, and forwarding comparisons, all
  at once;
* :class:`NarrowWidths` -- shrink provably narrow wide operators under
  the SWAR width boundary;
* :class:`DeadSignalElim` -- drop signals that feed no register
  next-value, array port, or output; prune never-firing write ports.

**Interning key and scope.**  The rewrite keys nodes on ``(op, width,
hi, lo, array, id(child)...)`` of already-interned children: a lookup
is O(1) and structurally equal nodes are one object.  The table lives
for one :meth:`Rewrite.run` only -- the IR classes, pickled store
artifacts, and long-lived servers never hold it.

**Fixpoint.**  Because every node is folded, simplified and deduped as
it is built, from children that already were, the rewrite's output is
its own fixpoint; :class:`PassManager` repeats the pipeline until a
sweep changes nothing, which for the standard pipeline means one
working sweep and one that confirms it.

:func:`optimize` runs the standard pipeline with a per-module memo so
every backend sees the same optimized object without re-running passes.
"""

from __future__ import annotations

from repro.hdl.ir import Module
from repro.hdl.passes.base import (
    OptResult,
    Pass,
    PassManager,
    PassStat,
    WeakIdMemo,
    rebuild,
)
from repro.hdl.passes.dce import DeadSignalElim
from repro.hdl.passes.narrow import NarrowWidths
from repro.hdl.passes.rewrite import Rewrite, eval_op

#: Highest supported optimization level.
MAX_OPT_LEVEL = 2

#: Version of what the pipeline produces, part of every persisted key
#: derived from an optimized module: bump it whenever a change to the
#: passes changes their output, so stores filled by an older pipeline
#: miss instead of serving its modules.
OPT_VERSION = 2


def default_passes(level: int = MAX_OPT_LEVEL) -> list[Pass]:
    """The standard pipeline for *level* (0 = none, 1 = rewrite+dce,
    2 = full, adding width narrowing)."""
    if level <= 0:
        return []
    if level == 1:
        return [Rewrite(), DeadSignalElim()]
    return [Rewrite(), NarrowWidths(), DeadSignalElim()]


# raw module -> {level: optimized module}
_MEMO = WeakIdMemo()


def optimize(module: Module, level: int = MAX_OPT_LEVEL) -> Module:
    """Run the standard pass pipeline on *module* (memoized).

    Already-optimized modules pass through untouched; the same raw
    module object always yields the same optimized object, so the
    simulator, synthesizer, and Verilog emitter all agree on what they
    consume.
    """
    if level <= 0 or getattr(module, "_opt_level", None) is not None:
        return module
    levels = _MEMO.get(module)
    if levels is None:
        levels = {}
        _MEMO.set(module, levels)
    cached = levels.get(level)
    if cached is not None:
        return cached

    result = PassManager(default_passes(level)).run(module)
    optimized = result.module
    optimized._opt_level = level  # type: ignore[attr-defined]
    optimized._opt_stats = result.stats  # type: ignore[attr-defined]
    levels[level] = optimized
    return optimized


def run_pipeline(module: Module, level: int = MAX_OPT_LEVEL) -> OptResult:
    """Run the pipeline without memoization, returning per-pass stats."""
    return PassManager(default_passes(level)).run(module)


__all__ = [
    "DeadSignalElim",
    "MAX_OPT_LEVEL",
    "NarrowWidths",
    "OPT_VERSION",
    "OptResult",
    "Pass",
    "PassManager",
    "PassStat",
    "Rewrite",
    "default_passes",
    "eval_op",
    "optimize",
    "rebuild",
    "run_pipeline",
]
