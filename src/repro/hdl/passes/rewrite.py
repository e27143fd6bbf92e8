"""One-sweep rewrite: constant folding, simplification and CSE at once.

The Sapper compiler re-emits structurally identical trees for every tag
join, Fcd upgrade, and forwarding comparison, guarded by constants
wherever ``secure=False`` stripping or a statically decided check left
one.  :class:`Rewrite` rebuilds the combinational block in topological
order through one interning constructor, :meth:`_Sweep.make`, which
folds constants (:func:`eval_op`), applies the local identities, and
returns the existing node -- or a reference to the earlier signal
defined as it -- when a structurally equal one was built before.
Signals that become a constant or a reference are forwarded into every
later use.  Each node is built from children that are already final,
so the output is a fixpoint of the pass (see :mod:`repro.hdl.passes`
for the interning key and table scope).

Only plain nodes (no rule fired) are memoized: whether a rule fires
depends only on the interned children, but a rule's result may embed a
node that a later signal has since come to hold.  Unchanged input nodes
are adopted as the interned node, so a rerun over the output returns
every definition by identity.  Every rewrite preserves the node's
declared width; rules that would change out-of-width behaviour (the
simulator does not mask ``and``/``or``/``xor``) fire only when argument
widths already match.
"""

from __future__ import annotations

from repro.hdl.ir import ArrayWrite, HConst, HExpr, HOp, HRef, Module
from repro.hdl.passes.base import Pass, rebuild


def _s(v: int, w: int) -> int:
    """Signed reinterpretation of a *w*-bit value (sim's helper)."""
    return v - (1 << w) if (v >> (w - 1)) & 1 else v


def eval_op(e: HOp, vals: list[int]) -> int | None:
    """Evaluate one operator on constant inputs, or None if not foldable.

    Mirrors the expressions emitted by :class:`repro.hdl.sim._CodeGen`
    one for one -- including the division-by-zero convention, the shift
    out-of-range behaviour, and signed reinterpretation -- so folding
    can never diverge from what the simulator would have computed.
    Returns None for ``read`` (array contents unknown) and for any
    result that does not fit ``e.width`` (the simulator would carry the
    oversized value; a constant cannot).
    """
    m = (1 << e.width) - 1
    aw = [a.width for a in e.args]
    op = e.op
    a = vals
    if op == "add":
        r = (a[0] + a[1]) & m
    elif op == "sub":
        r = (a[0] - a[1]) & m
    elif op == "mul":
        r = (a[0] * a[1]) & m
    elif op == "div":
        r = (a[0] // a[1]) & m if a[1] else m
    elif op == "mod":
        r = (a[0] % a[1]) if a[1] else a[0]
    elif op == "and":
        r = a[0] & a[1]
    elif op == "or":
        r = a[0] | a[1]
    elif op == "xor":
        r = a[0] ^ a[1]
    elif op == "shl":
        r = (a[0] << a[1]) & m if a[1] < e.width else 0
    elif op == "shr":
        r = a[0] >> a[1] if a[1] < aw[0] else 0
    elif op == "asr":
        r = (_s(a[0], aw[0]) >> (a[1] if a[1] < aw[0] else aw[0] - 1)) & m
    elif op == "eq":
        r = 1 if a[0] == a[1] else 0
    elif op == "ne":
        r = 1 if a[0] != a[1] else 0
    elif op == "lt":
        r = 1 if a[0] < a[1] else 0
    elif op == "le":
        r = 1 if a[0] <= a[1] else 0
    elif op == "gt":
        r = 1 if a[0] > a[1] else 0
    elif op == "ge":
        r = 1 if a[0] >= a[1] else 0
    elif op == "lts":
        r = 1 if _s(a[0], aw[0]) < _s(a[1], aw[1]) else 0
    elif op == "les":
        r = 1 if _s(a[0], aw[0]) <= _s(a[1], aw[1]) else 0
    elif op == "gts":
        r = 1 if _s(a[0], aw[0]) > _s(a[1], aw[1]) else 0
    elif op == "ges":
        r = 1 if _s(a[0], aw[0]) >= _s(a[1], aw[1]) else 0
    elif op == "land":
        r = 1 if a[0] and a[1] else 0
    elif op == "lor":
        r = 1 if a[0] or a[1] else 0
    elif op == "lnot":
        r = 0 if a[0] else 1
    elif op == "not":
        r = (~a[0]) & m
    elif op == "neg":
        r = (-a[0]) & m
    elif op == "mux":
        r = a[1] if a[0] else a[2]
    elif op == "cat":
        r = 0
        shift = 0
        for child, v in zip(reversed(e.args), reversed(a)):
            r |= v << shift
            shift += child.width
    elif op == "slice":
        r = (a[0] >> e.lo) & m
    elif op == "zext":
        r = a[0]
    elif op == "sext":
        r = _s(a[0], aw[0]) & m
    else:
        return None  # read, or future ops: never folded
    if r != r & m:
        return None  # would not fit the declared width; sim would carry it
    return r


#: comparisons of a value with itself, decided
_ALWAYS_EQ = {"eq": 1, "ne": 0, "lt": 0, "le": 1, "gt": 0, "ge": 1,
              "lts": 0, "les": 1, "gts": 0, "ges": 1}


class _Sweep:
    """The interning state of one :class:`Rewrite` run."""

    def __init__(self) -> None:
        self.plain: dict[tuple, HOp] = {}   # key -> interned node no rule fired on
        self.held: dict[int, str] = {}      # id(node) -> first signal defined as it
        self.consts: dict[tuple[int, int], HConst] = {}
        self.refs: dict[tuple[str, int], HRef] = {}
        self.env: dict[str, HExpr] = {}     # folded/alias signal -> forwarded value
        self.defs: dict[str, HOp] = {}      # signal -> its rewritten definition

    # -- interning ----------------------------------------------------------

    def const(self, value: int, width: int) -> HConst:
        got = self.consts.get((value, width))
        if got is None:
            got = self.consts[value, width] = HConst(value, width)
        return got

    def ref(self, name: str, width: int) -> HRef:
        got = self.refs.get((name, width))
        if got is None:
            got = self.refs[name, width] = HRef(name, width)
        return got

    def canon(self, e: HExpr) -> HExpr:
        """*e* as seen now: a reference when a signal has come to hold it.

        References are interned lazily, so a fixpoint input (where no
        held tree is rebuilt) keeps its own reference objects."""
        name = self.held.get(id(e))
        return e if name is None else self.ref(name, e.width)

    def peek(self, e: HExpr) -> HExpr:
        """Look through a wire reference at its definition (for pattern
        matching only, never substituted wholesale)."""
        return self.defs.get(e.name, e) if type(e) is HRef else e

    # -- rewriting ----------------------------------------------------------

    def rewrite(self, e: HExpr) -> HExpr:
        """The interned, fully rewritten form of input expression *e*."""
        t = type(e)
        if t is HRef:
            got = self.env.get(e.name)
            if got is not None:
                return got
            return self.refs.setdefault((e.name, e.width), e)
        if t is HConst:
            return self.consts.setdefault((e.value, e.width), e)
        args = []
        same = True
        for a in e.args:
            got = self.rewrite(a)
            if got is not a:
                same = False
            args.append(got)
        return self.make(e.op, tuple(args), e.width, e.hi, e.lo, e.array, e if same else None)

    def make(self, op: str, args: tuple, width: int, hi: int = 0, lo: int = 0,
             array: str = "", orig: HOp | None = None) -> HExpr:
        """The one constructor: fold, simplify, or intern ``op(args)``.

        *args* must already be interned; *orig*, when given, is an input
        node with exactly these children, adopted as the interned node.
        """
        key = (op, width, hi, lo, array, *map(id, args))
        node = self.plain.get(key)
        if node is None:
            got = self._fold(op, args, width, hi, lo, array)
            if got is not None:
                return self.canon(got)
            node = orig if orig is not None else HOp(op, args, width, hi, lo, array)
            self.plain[key] = node
        return self.canon(node)

    def _fold(self, op: str, args: tuple, w: int, hi: int, lo: int,
              array: str) -> HExpr | None:
        """Constant folding then the identities; None when nothing fires."""
        if op == "read":
            return None
        if op == "mux" and type(args[0]) is HConst:
            pick = args[1] if args[0].value else args[2]
            if pick.width == w:
                return pick
        for a in args:
            if type(a) is not HConst:
                return self._simplify(op, args, w, lo)
        val = eval_op(HOp(op, args, w, hi, lo, array), [a.value for a in args])
        if val is None:
            return self._simplify(op, args, w, lo)
        return self.const(val, w)

    def _simplify(self, op: str, args: tuple, w: int, lo: int) -> HExpr | None:
        aw = [a.width for a in args]

        if op == "mux":
            c, t, f = args
            if t is f and t.width == w:
                return t
            # c ? 1 : 0  ->  c   and   c ? 0 : 1  ->  !c   (1-bit)
            if w == 1 and c.width == 1 and type(t) is HConst and type(f) is HConst:
                if (t.value, f.value) == (1, 0):
                    return c
                if (t.value, f.value) == (0, 1):
                    return self.make("lnot", (c,), 1)
            # same-condition nesting: collapse the redundant arm
            pt, pf = self.peek(t), self.peek(f)
            if type(pf) is HOp and pf.op == "mux" and pf.args[0] is c and pf.args[2].width == w:
                return self.make("mux", (c, t, self.canon(pf.args[2])), w)
            if type(pt) is HOp and pt.op == "mux" and pt.args[0] is c and pt.args[1].width == w:
                return self.make("mux", (c, self.canon(pt.args[1]), f), w)
            pc = self.peek(c)
            if type(pc) is HOp and pc.op == "lnot" and pc.args[0].width == 1:
                return self.make("mux", (self.canon(pc.args[0]), f, t), w)
            return None

        if op in ("and", "or", "xor") and aw[0] == w and aw[1] == w:
            a, b = args
            if a is b:
                return a if op in ("and", "or") else self.const(0, w)
            for x, y in ((a, b), (b, a)):
                if type(y) is HConst:
                    if y.value == 0:
                        return self.const(0, w) if op == "and" else x
                    if y.value == (1 << w) - 1:
                        if op == "and":
                            return x
                        return y if op == "or" else self.make("not", (x,), w)
            return None

        if op in ("add", "sub") and aw[0] == w and aw[1] == w:
            if type(args[1]) is HConst and args[1].value == 0:
                return args[0]
            if op == "add" and type(args[0]) is HConst and args[0].value == 0:
                return args[1]
            return None

        if op == "mul" and aw[0] == w and aw[1] == w:
            for x, y in ((args[0], args[1]), (args[1], args[0])):
                if type(y) is HConst:
                    if y.value == 1:
                        return x
                    if y.value == 0:
                        return self.const(0, w)
            return None

        if op in ("shl", "shr", "asr") and aw[0] == w:
            if type(args[1]) is HConst and args[1].value == 0:
                return args[0]
            return None

        if op in _ALWAYS_EQ and args[0] is args[1] and w == 1:
            return self.const(_ALWAYS_EQ[op], 1)

        if op in ("eq", "ne") and aw[0] == 1 and aw[1] == 1:
            # 1-bit equality is the wire itself or its negation
            for x, y in ((args[0], args[1]), (args[1], args[0])):
                if type(y) is HConst:
                    want = y.value if op == "eq" else 1 - y.value
                    return x if want == 1 else self.make("lnot", (x,), 1)
            return None

        if op in ("land", "lor") and aw[0] == 1 and aw[1] == 1:
            a, b = args
            if a is b:
                return a
            for x, y in ((a, b), (b, a)):
                if type(y) is HConst:
                    if op == "land":
                        return x if y.value else self.const(0, 1)
                    return self.const(1, 1) if y.value else x
            return None

        if op == "lnot" and aw[0] == 1:
            inner = self.peek(args[0])
            if type(inner) is HOp and inner.op == "lnot" and inner.args[0].width == 1:
                return self.canon(inner.args[0])
            return None

        if op == "not":
            inner = self.peek(args[0])
            if type(inner) is HOp and inner.op == "not" and inner.args[0].width == w:
                return self.canon(inner.args[0])
            return None

        if op == "zext" and aw[0] == w:
            return args[0]

        if op == "slice":
            if lo == 0 and aw[0] == w:
                return args[0]
            inner = args[0]
            # slicing a zext back down to the payload width
            if type(inner) is HOp and inner.op == "zext" and lo == 0 and inner.args[0].width == w:
                return self.canon(inner.args[0])
            return None

        if op == "cat" and len(args) == 1 and aw[0] == w:
            return args[0]

        return None


class Rewrite(Pass):
    """Fold, simplify and value-number the combinational block in one
    forward sweep of interned construction."""

    name = "rewrite"

    def run(self, module: Module) -> tuple[Module, bool]:
        sweep = _Sweep()
        changed = False
        comb: list[tuple[str, HExpr]] = []
        for name, expr in module.comb:
            new = sweep.rewrite(expr)
            if new is not expr:
                changed = True
            comb.append((name, new))
            if type(new) is HOp:
                # first definer wins: later equal trees read this signal
                sweep.defs[name] = new
                sweep.held[id(new)] = name
            else:
                sweep.env[name] = new

        writes = []
        for wr in module.array_writes:
            addr, data, enable = (
                sweep.rewrite(wr.addr), sweep.rewrite(wr.data), sweep.rewrite(wr.enable)
            )
            if addr is not wr.addr or data is not wr.data or enable is not wr.enable:
                changed = True
                wr = ArrayWrite(wr.array, addr, data, enable)
            writes.append(wr)

        if not changed:
            return module, False
        return rebuild(module, comb, array_writes=writes), True
