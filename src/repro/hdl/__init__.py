"""Hardware substrate: a synthesizable-Verilog-subset IR plus tooling.

The Sapper compiler targets this IR; the baselines (GLIFT, Caisson)
transform it.  Tooling:

* :mod:`repro.hdl.ir` -- the dataflow IR (SSA combinational assigns,
  synchronous register update, sequential array write ports).
* :mod:`repro.hdl.sim` -- cycle-accurate simulator; generates a
  specialized Python step function per module (our ModelSim substitute).
* :mod:`repro.hdl.batch` -- lane-batched simulation: one vectorized step
  function advances N independent machine states bit-identically.
* :mod:`repro.hdl.vector` -- the NumPy uint64 native tier over the
  batched engine (lanes as the vector axis; optional dependency,
  imported on first use of ``VectorSimulator``/``HAVE_NUMPY`` so
  scalar runs never load NumPy).
* :mod:`repro.hdl.verilog` -- synthesizable Verilog text emission.
* :mod:`repro.hdl.synth` / :mod:`repro.hdl.techlib` -- structural
  lowering to gate counts with a 90 nm-style cell library; area, critical
  path and power reports (our Design Compiler substitute).
* :mod:`repro.hdl.passes` -- the shared mid-level optimization pipeline
  (one-sweep folding/simplification/CSE rewrite, width narrowing,
  dead-signal elimination).  All three backends consume its output by
  default.
* :mod:`repro.hdl.netlist` -- an exact gate-level netlist + simulator for
  small designs (used to demonstrate GLIFT executably).
"""

from repro.hdl.batch import BatchSimulator
from repro.hdl.ir import ArrayDef, ArrayWrite, HConst, HExpr, HOp, HRef, Module, RegDef
from repro.hdl.passes import PassManager, optimize
from repro.hdl.sim import Simulator
from repro.hdl.synth import CostReport, synthesize
from repro.hdl.verilog import emit_verilog


def __getattr__(name: str):
    # the vector tier pulls in NumPy: load it only when asked for
    if name in ("HAVE_NUMPY", "VectorSimulator"):
        from repro.hdl import vector

        return getattr(vector, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Module",
    "RegDef",
    "ArrayDef",
    "ArrayWrite",
    "HExpr",
    "HConst",
    "HRef",
    "HOp",
    "Simulator",
    "BatchSimulator",
    "VectorSimulator",
    "HAVE_NUMPY",
    "synthesize",
    "CostReport",
    "emit_verilog",
    "optimize",
    "PassManager",
]
