"""Width narrowing: shrink oversized operators into SWAR-eligible widths.

The Sapper compiler pads intermediate widths generously (concatenated
address arithmetic, multiply chains, merged tag words), which leaves
operators computing at 48, 64, or 128 bits whose *values* provably fit
far fewer.  Anything wider than :data:`~repro.hdl.swar.SWAR_MAX_WIDTH`
falls off the batched simulator's SWAR tier into per-lane loops, and
wide adders cost gates in synthesis.

This pass computes sound significant-bit bounds
(:func:`repro.hdl.ir.significant_bits`), on demand for the signals a
wide operator reads, and rewrites the width-monotone operators --
``add``, ``mul``, ``and``, ``or``, ``xor``, ``mux``, ``zext``, and
constant ``shl`` -- to compute at the bounded width,
zero-extending the result back to the declared width::

    t := add[w=64](a, b)        -->   t := zext(add[w=20](a', b'), 64)

Because the bound guarantees no wraparound occurs at either width, the
rewritten expression is bit-identical (the equivalence contract of
:mod:`repro.hdl.passes.base`); operands wider than the new width are
wrapped in a ``slice`` that is value-preserving by the same bound (for
``and``, by absorption against the narrower operand).  Unsigned
comparison operands get the same treatment, which is what unblocks the
compare-heavy forwarding logic for the SWAR tier.
"""

from __future__ import annotations

from repro.hdl.ir import (
    BOOL_OUT,
    ArrayWrite,
    HConst,
    HExpr,
    HOp,
    HRef,
    Module,
    significant_bits,
)
from repro.hdl.passes.base import Pass, rebuild
from repro.hdl.swar import SWAR_MAX_WIDTH

#: Operators whose value is preserved when computed at any width that
#: their significant-bit bound fits (no wraparound at either width).
_NARROWABLE = frozenset(["add", "mul", "and", "or", "xor", "mux", "shl", "zext"])

_UNSIGNED_CMPS = frozenset(["eq", "ne", "lt", "le", "gt", "ge"])

#: Operators whose scalar semantics read the *declared* width of an
#: argument (sign position, shift bounds, concatenation offsets, field
#: bounds) -- a shrunk signal stays wrapped in ``zext`` under these.
_WIDTH_SENSITIVE = frozenset(
    ["sext", "asr", "shr", "shl", "cat", "lts", "les", "gts", "ges"]
)


class _Bounds:
    """Significant-bit bounds of the rewritten combinational signals,
    each computed the first time a rewrite reads it.

    The *env* that :func:`~repro.hdl.ir.significant_bits` takes: only
    wide narrowable operators and wide unsigned compares ask for bounds,
    so most signals never need one.  A read first resolves the signal's
    unresolved dependencies off an explicit stack, so a long chain of
    signals never recurses through the bound computation.
    """

    def __init__(self, memo: dict[int, int]):
        #: signal -> its rewritten definition, filled in block order
        self.defs: dict[str, HExpr] = {}
        self.known: dict[str, int] = {}
        self.memo = memo

    def get(self, name: str, default: int) -> int:
        got = self.known.get(name)
        if got is not None:
            return got
        if name not in self.defs:
            return default  # inputs and registers: the declared width
        stack = [name]
        while stack:
            top = stack[-1]
            if top in self.known:
                stack.pop()
                continue
            missing = self._missing(self.defs[top])
            if missing:
                stack += missing
                continue
            self.known[top] = significant_bits(self.defs[top], self, self.memo)
            stack.pop()
        return self.known[name]

    def _missing(self, e: HExpr) -> list[str]:
        """Defined signals without a bound that ``significant_bits(e)``
        would read (it stops at boolean operators and memoized nodes)."""
        out = []
        stack = [e]
        while stack:
            node = stack.pop()
            if isinstance(node, HOp):
                if node.op not in BOOL_OUT and id(node) not in self.memo:
                    stack += node.args
            elif (isinstance(node, HRef) and node.name in self.defs
                    and node.name not in self.known):
                out.append(node.name)
        return out


class NarrowWidths(Pass):
    """Shrink provably-narrow operators below the SWAR width boundary."""

    name = "narrow"

    def __init__(self, limit: int = SWAR_MAX_WIDTH):
        self.limit = limit

    def run(self, module: Module) -> tuple[Module, bool]:
        self._changed = False
        self._memo: dict[int, HExpr] = {}
        # bound memo keyed by node id: every rewritten node is pinned by
        # self._memo for the whole run, so ids cannot be recycled
        self._bounds: dict[int, int] = {}
        env = _Bounds(self._bounds)
        comb: list[tuple[str, HExpr]] = []
        for name, expr in module.comb:
            new = self._rewrite(expr, env)
            env.defs[name] = new
            comb.append((name, new))

        # Phase 2: signals now defined as ``zext(inner, W)`` with a
        # narrow inner value shed the wrapper and become narrow signals
        # outright; every consumer is adapted (bare reference where the
        # operator is value-based, re-wrapped in zext where its
        # semantics read the declared argument width).  Register
        # next-values and output ports keep their declared widths.
        protected = set(module.outputs.values()) | set(module.reg_next.values())
        shrunk: dict[str, int] = {}
        for name, e in comb:
            if (name not in protected and isinstance(e, HOp) and e.op == "zext"
                    and e.width > self.limit and e.args[0].width <= self.limit):
                shrunk[name] = e.args[0].width
        array_writes = None
        if shrunk:
            self._changed = True

            def adapt(e: HExpr, parent: str = "") -> HExpr:
                if isinstance(e, HRef) and e.name in shrunk:
                    ref = HRef(e.name, shrunk[e.name])
                    if not parent or parent in _WIDTH_SENSITIVE:
                        return HOp("zext", (ref,), e.width)
                    return ref
                if isinstance(e, HOp):
                    args = tuple(adapt(a, e.op) for a in e.args)
                    if any(a is not b for a, b in zip(args, e.args)):
                        return HOp(e.op, args, e.width, e.hi, e.lo, e.array)
                return e

            comb = [
                (name,
                 adapt(e.args[0]) if name in shrunk else adapt(e))
                for name, e in comb
            ]
            array_writes = [
                ArrayWrite(wr.array, adapt(wr.addr), adapt(wr.data), adapt(wr.enable))
                for wr in module.array_writes
            ]

        if not self._changed:
            return module, False
        return rebuild(module, comb, array_writes=array_writes), True

    # -- rewriting ---------------------------------------------------------

    def _fit(self, e: HExpr, width: int) -> HExpr:
        """*e* presented at *width* bits (a value-preserving slice when
        the operand is declared wider; identity otherwise)."""
        if e.width <= width:
            return e
        if isinstance(e, HConst):
            return HConst(e.value, width)
        if isinstance(e, HOp) and e.op == "zext" and e.args[0].width <= width:
            inner = e.args[0]  # refit the padding instead of slicing it
            return inner if inner.width == width else HOp("zext", (inner,), width)
        return HOp("slice", (e,), width, hi=width - 1, lo=0)

    def _rewrite(self, e: HExpr, env: _Bounds) -> HExpr:
        got = self._memo.get(id(e))
        if got is not None:
            return got
        out = self._rewrite_inner(e, env)
        self._memo[id(e)] = out
        return out

    def _rewrite_inner(self, e: HExpr, env: _Bounds) -> HExpr:
        if not isinstance(e, HOp):
            return e
        args = []
        same = True
        for a in e.args:
            got = self._rewrite(a, env)
            if got is not a:
                same = False
            args.append(got)
        if not same:
            self._changed = True
            e = HOp(e.op, tuple(args), e.width, e.hi, e.lo, e.array)

        limit = self.limit
        if (e.op in _UNSIGNED_CMPS
                and any(a.width > limit for a in e.args)):
            bounds = [significant_bits(a, env, self._bounds) for a in e.args]
            n = max(bounds)
            if n <= limit:
                self._changed = True
                return HOp(
                    e.op,
                    tuple(self._fit(a, n) for a in e.args),
                    1,
                )
        if e.op not in _NARROWABLE or e.width <= limit:
            return e
        if e.op == "zext" and e.args[0].width <= limit:
            return e  # already feeds a narrow value; nothing to shrink
        if e.op == "shl" and not isinstance(e.args[1], HConst):
            return e
        n = significant_bits(e, env, self._bounds)
        if n > limit:
            return e
        self._changed = True
        if e.op == "zext":
            narrow: HExpr = self._fit(e.args[0], n)
        elif e.op == "mux":
            narrow = HOp(
                "mux",
                (e.args[0],
                 self._fit(e.args[1], n),
                 self._fit(e.args[2], n)),
                n,
            )
        elif e.op == "shl":
            narrow = HOp("shl", (self._fit(e.args[0], n),
                                 e.args[1]), n)
        else:
            narrow = HOp(
                e.op, tuple(self._fit(a, n) for a in e.args), n
            )
        return HOp("zext", (narrow,), e.width)
