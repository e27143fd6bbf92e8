"""Dataflow hardware IR (a synthesizable Verilog subset).

A :class:`Module` consists of:

* input and output ports;
* registers (D flip-flops with an init value), each updated *every*
  clock edge from a designated combinational signal (hold behaviour is
  expressed with an explicit mux, which is what synthesis produces
  anyway);
* register arrays (memories) with combinational read (expression op
  ``read``) and any number of guarded sequential write ports applied in
  order at the clock edge;
* an ordered list of SSA combinational assignments ``name := expr``.

Expressions are trees of :class:`HConst`, :class:`HRef` (a named signal:
a previous assignment, a register's current value, or an input) and
:class:`HOp`.  Every node carries its result width; values are unsigned
bit vectors and operators with signed semantics are explicit (``lts``,
``asr``, ...).  Division by zero yields all-ones and remainder by zero
the dividend, mirroring the Sapper semantics so that compiled designs
are bit-exact with the interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterator

#: Operator -> arity (None = variadic).
OPS: dict[str, int | None] = {
    "add": 2, "sub": 2, "mul": 2, "div": 2, "mod": 2,
    "and": 2, "or": 2, "xor": 2,
    "shl": 2, "shr": 2, "asr": 2,
    "eq": 2, "ne": 2, "lt": 2, "le": 2, "gt": 2, "ge": 2,
    "lts": 2, "les": 2, "gts": 2, "ges": 2,
    "land": 2, "lor": 2,
    "not": 1, "lnot": 1, "neg": 1,
    "mux": 3,           # mux(sel, if_true, if_false)
    "cat": None,        # parts, most significant first
    "slice": 1,         # attrs hi, lo
    "zext": 1, "sext": 1,
    "read": 1,          # attrs array;  child = address
}

BOOL_OUT = frozenset(
    ["eq", "ne", "lt", "le", "gt", "ge", "lts", "les", "gts", "ges", "land", "lor", "lnot"]
)


def op_width_issue(node: HOp, arrays: dict[str, ArrayDef] | None = None) -> str | None:
    """Width-discipline violation of a single operator node, or ``None``.

    The backends trust declared widths wherever they skip masking, so
    every shape whose scalar semantics could produce a value outside
    ``node.width`` bits -- or whose attributes are inconsistent with the
    declared width -- is rejected:

    * ``and``/``or``/``xor`` results and ``mux`` arms are unmasked:
      operands must not be wider than the node;
    * ``shr`` and ``mod`` results are unmasked (a remainder by zero
      yields the dividend): the dividend/shifted operand must fit;
    * ``zext`` passes its operand through unmasked and ``sext`` reads
      the operand's declared sign position: neither may narrow;
    * ``cat`` ORs parts at their declared offsets unmasked: the parts
      must fit the node;
    * ``slice`` bounds must describe exactly the declared width;
    * comparison/logical operators produce a single bit;
    * ``read`` returns stored words verbatim: its width must match the
      array's declared word width (pass *arrays* to enable this check).
    """
    op = node.op
    if op in ("and", "or", "xor"):
        wide = [a.width for a in node.args if a.width > node.width]
        if wide:
            return f"{op!r} of width {node.width} with wider operand(s) {wide}"
    elif op == "mux":
        wide = [a.width for a in node.args[1:] if a.width > node.width]
        if wide:
            return f"'mux' of width {node.width} with wider operand(s) {wide} in its arms"
    elif op in ("shr", "mod"):
        if node.args[0].width > node.width:
            return (
                f"{op!r} of width {node.width} with a wider (unmasked) "
                f"operand of width {node.args[0].width}"
            )
    elif op in ("zext", "sext"):
        if node.args[0].width > node.width:
            return (
                f"{op!r} narrowing from {node.args[0].width} to "
                f"{node.width} bits (extensions must widen)"
            )
    elif op == "cat":
        total = sum(a.width for a in node.args)
        if total > node.width:
            return f"'cat' of width {node.width} with {total} bits of parts"
    elif op == "slice":
        if not 0 <= node.lo <= node.hi or node.hi - node.lo + 1 != node.width:
            return (
                f"'slice' [{node.hi}:{node.lo}] inconsistent with "
                f"declared width {node.width}"
            )
    elif op == "read" and arrays is not None:
        arr = arrays.get(node.array)
        if arr is not None and node.width != arr.width:
            return (
                f"'read' of width {node.width} from array {node.array!r} "
                f"of word width {arr.width}"
            )
    if op in BOOL_OUT and node.width != 1:
        return f"boolean operator {op!r} declared at width {node.width}"
    return None


def significant_bits(
    e: HExpr,
    env: dict[str, int] | None = None,
    memo: dict[int, int] | None = None,
) -> int:
    """A sound upper bound on the number of significant (possibly
    non-zero) low bits of *e*'s value, at most ``e.width``.

    *env* maps signal names to already-computed bounds through its
    ``get(name, default)`` (a dict, or the narrowing pass's on-demand
    bounds; defaults to each reference's declared width); *memo* (keyed
    by node identity) makes repeated queries over shared subtrees linear
    instead of per-path.
    Used by the width-narrowing pass and the SWAR eligibility analysis:
    a value whose bound fits a narrower width can be computed at that
    width with identical results for the width-monotone operators (no
    wraparound can occur at either width).
    """
    if isinstance(e, HConst):
        return max(e.value.bit_length(), 1)
    if isinstance(e, HRef):
        bound = env.get(e.name, e.width) if env else e.width
        return min(bound, e.width)
    assert isinstance(e, HOp)
    if memo is not None:
        got = memo.get(id(e))
        if got is not None:
            return got
    w = e.width
    op = e.op
    if op in BOOL_OUT:
        if memo is not None:
            memo[id(e)] = 1
        return 1
    a = [significant_bits(c, env, memo) for c in e.args]
    if op == "add":
        out = min(max(a[0], a[1]) + 1, w)
    elif op == "mul":
        out = min(a[0] + a[1], w)
    elif op == "and":
        out = min(a[0], a[1], w)
    elif op in ("or", "xor"):
        out = min(max(a[0], a[1]), w)
    elif op == "mux":
        out = min(max(a[1], a[2]), w)
    elif op == "zext":
        out = min(a[0], w)
    elif op == "shl":
        out = min(a[0] + e.args[1].value, w) if isinstance(e.args[1], HConst) else w
    elif op == "shr":
        if isinstance(e.args[1], HConst):
            out = min(max(a[0] - e.args[1].value, 1), w)
        else:
            out = min(a[0], w)
    elif op == "slice":
        out = min(e.hi - e.lo + 1, max(a[0] - e.lo, 1), w)
    elif op == "mod":
        # x % 0 yields x, so the dividend's bound is the only safe one
        out = min(a[0], w)
    elif op == "cat":
        lower = sum(c.width for c in e.args[1:])
        out = min(lower + a[0], w)
    else:
        # read/sub/neg/not/sext/div/asr can populate every result bit
        out = w
    if memo is not None:
        memo[id(e)] = out
    return out


@dataclass(frozen=True)
class HExpr:
    """Base class for IR expressions."""

    def walk(self) -> Iterator["HExpr"]:
        """Every node of the tree in preorder (shared subtrees once per
        occurrence).  An explicit stack keeps each yield O(1) however
        deep the tree is."""
        stack = [self]
        pop, push = stack.pop, stack.extend
        while stack:
            node = pop()
            yield node
            if type(node) is HOp:
                push(node.args[::-1])


@dataclass(frozen=True)
class HConst(HExpr):
    value: int
    width: int

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("constant width must be positive")
        object.__setattr__(self, "value", self.value & ((1 << self.width) - 1))


@dataclass(frozen=True)
class HRef(HExpr):
    """Reference to a named signal (wire, register, or input)."""

    name: str
    width: int


@dataclass(frozen=True)
class HOp(HExpr):
    op: str
    args: tuple[HExpr, ...]
    width: int
    hi: int = 0          # slice upper bound
    lo: int = 0          # slice lower bound
    array: str = ""      # array name for 'read'

    def __post_init__(self) -> None:
        arity = OPS.get(self.op)
        if self.op not in OPS:
            raise ValueError(f"unknown IR op {self.op!r}")
        if arity is not None and len(self.args) != arity:
            raise ValueError(f"op {self.op!r} expects {arity} args, got {len(self.args)}")
        if self.width <= 0:
            raise ValueError(f"op {self.op!r} has bad width {self.width}")


@dataclass
class RegDef:
    name: str
    width: int
    init: int = 0


@dataclass
class ArrayDef:
    name: str
    width: int
    size: int
    #: Value returned for never-written elements (used for tag stores
    #: whose declared label does not encode to zero).
    default: int = 0
    #: Arrays at least this large synthesize as SRAM macros (excluded
    #: from gate-level area, like the paper's memory; see techlib).
    SRAM_THRESHOLD = 2048

    @property
    def is_sram(self) -> bool:
        return self.size >= self.SRAM_THRESHOLD


@dataclass
class ArrayWrite:
    """Guarded sequential write port, applied at the clock edge."""

    array: str
    addr: HExpr
    data: HExpr
    enable: HExpr


@dataclass
class Module:
    """A complete synchronous hardware module."""

    name: str
    inputs: dict[str, int] = field(default_factory=dict)     # name -> width
    outputs: dict[str, str] = field(default_factory=dict)    # port -> driving signal
    regs: dict[str, RegDef] = field(default_factory=dict)
    arrays: dict[str, ArrayDef] = field(default_factory=dict)
    comb: list[tuple[str, HExpr]] = field(default_factory=list)
    reg_next: dict[str, str] = field(default_factory=dict)   # reg -> signal loaded each edge
    array_writes: list[ArrayWrite] = field(default_factory=list)

    _widths: dict[str, int] = field(default_factory=dict, repr=False)
    _counter: int = field(default=0, repr=False)

    # -- construction helpers ---------------------------------------------------

    def add_input(self, name: str, width: int) -> HRef:
        self.inputs[name] = width
        self._widths[name] = width
        return HRef(name, width)

    def add_reg(self, name: str, width: int, init: int = 0) -> HRef:
        self.regs[name] = RegDef(name, width, init & ((1 << width) - 1))
        self._widths[name] = width
        return HRef(name, width)

    def add_array(self, name: str, width: int, size: int, default: int = 0) -> ArrayDef:
        self.arrays[name] = ArrayDef(name, width, size, default)
        return self.arrays[name]

    def assign(self, name: str, expr: HExpr) -> HRef:
        """Define the SSA wire *name* := *expr*; returns a reference."""
        if name in self._widths:
            raise ValueError(f"signal {name!r} defined twice")
        self.comb.append((name, expr))
        self._widths[name] = expr.width
        return HRef(name, expr.width)

    def fresh(self, expr: HExpr, hint: str = "t") -> HRef:
        """Assign *expr* to a fresh wire and return the reference."""
        self._counter += 1
        return self.assign(f"{hint}_{self._counter}", expr)

    def set_output(self, port: str, signal: HRef) -> None:
        self.outputs[port] = signal.name
        self._widths.setdefault(signal.name, signal.width)

    def set_reg_next(self, reg: str, signal: HRef) -> None:
        if reg not in self.regs:
            raise ValueError(f"unknown register {reg!r}")
        self.reg_next[reg] = signal.name

    def write_array(self, array: str, addr: HExpr, data: HExpr, enable: HExpr) -> None:
        if array not in self.arrays:
            raise ValueError(f"unknown array {array!r}")
        self.array_writes.append(ArrayWrite(array, addr, data, enable))

    def width_of(self, signal: str) -> int:
        return self._widths[signal]

    # -- validation ----------------------------------------------------------------

    def validate(self) -> None:
        """Check SSA discipline, reference order and widths.

        Width discipline (:func:`op_width_issue`): every operator whose
        scalar semantics skip masking -- ``and``/``or``/``xor``/``mux``
        operands, ``shr``/``mod`` dividends, extensions, ``cat`` parts,
        ``slice`` bounds, boolean outputs, array reads -- is checked so
        out-of-range "w-bit" values cannot appear downstream.
        """
        defined = set(self.inputs) | set(self.regs)
        for name, expr in self.comb:
            for node in expr.walk():
                if isinstance(node, HRef) and node.name not in defined:
                    raise ValueError(f"{self.name}: signal {name!r} reads undefined {node.name!r}")
                if isinstance(node, HOp):
                    if node.op == "read" and node.array not in self.arrays:
                        raise ValueError(f"{self.name}: read of unknown array {node.array!r}")
                    issue = op_width_issue(node, self.arrays)
                    if issue:
                        raise ValueError(f"{self.name}: signal {name!r} has a {issue}")
            defined.add(name)
        for wr in self.array_writes:
            if wr.array not in self.arrays:
                raise ValueError(f"{self.name}: write to unknown array {wr.array!r}")
            for expr in (wr.addr, wr.data, wr.enable):
                for node in expr.walk():
                    if isinstance(node, HRef) and node.name not in defined:
                        raise ValueError(
                            f"{self.name}: write port of {wr.array!r} reads "
                            f"undefined {node.name!r}"
                        )
                    if isinstance(node, HOp):
                        issue = op_width_issue(node, self.arrays)
                        if issue:
                            raise ValueError(
                                f"{self.name}: write port of {wr.array!r} has a {issue}"
                            )
            if wr.data.width > self.arrays[wr.array].width:
                raise ValueError(
                    f"{self.name}: write port of {wr.array!r} stores "
                    f"{wr.data.width}-bit data into {self.arrays[wr.array].width}-bit words"
                )
        for reg, sig in self.reg_next.items():
            if sig not in defined:
                raise ValueError(f"{self.name}: reg {reg!r} loads undefined signal {sig!r}")
        for port, sig in self.outputs.items():
            if sig not in defined:
                raise ValueError(f"{self.name}: output {port!r} driven by undefined {sig!r}")
        for reg in self.regs:
            if reg not in self.reg_next:
                raise ValueError(f"{self.name}: register {reg!r} has no next-value signal")
