"""The unified Sapper toolchain facade.

One object owns the whole flow::

    parse -> analyze -> compile -> optimize -> { simulate | synthesize | emit }

with keyed artifact caching at every stage, replacing the ad-hoc
``lru_cache`` wrappers that used to live in ``repro.proc.design`` and
``repro.proc.machine``.  Cache keys are explicit and structural (source
digest, lattice order, compile flags), so distinct configurations never
collide and the cache can be inspected or cleared as a unit.

Typical use::

    from repro.toolchain import get_toolchain

    tc = get_toolchain()
    design = tc.compile(source, two_level(), name="tdma")
    sim = tc.simulator(design)       # optimized module, fresh state
    report = tc.synthesize(design)   # cached cost report
    text = tc.verilog(design)        # cached Verilog text

Every backend consumes the *same* optimized module object (the pass
pipeline is memoized per module), so simulation, synthesis, and Verilog
agree exactly on what hardware they describe.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
from collections import OrderedDict
from collections.abc import Callable
from typing import TypeVar

from repro.analyze import (
    ANALYSIS_VERSION,
    AnalysisReport,
    analyze_design,
    analyze_module,
)
from repro.hdl import (
    BatchSimulator,
    Simulator,
    emit_verilog as _emit_verilog,
    synthesize as _synthesize,
)
from repro.hdl.ir import Module
from repro.hdl.passes import MAX_OPT_LEVEL, OPT_VERSION, optimize as _optimize
from repro.hdl.synth import CostReport
from repro.lattice import Lattice
from repro.sapper import ast
from repro.sapper.analysis import ProgramInfo, analyze
from repro.sapper.compiler import CompiledDesign, compile_program
from repro.sapper.parser import parse_program
from repro.store import MISS, ArtifactStore, StoreError, UnstableKey, persistable_key

T = TypeVar("T")

Source = str | ast.Program | ProgramInfo
Design = CompiledDesign | Module

#: Lane count from which automatic engine selection prefers the NumPy
#: vector tier: measured on the secure processor, the ufunc-amortized
#: engine overtakes SWAR lane packing between 32 and 128 lanes.
VECTOR_AUTO_LANES = 64

#: The batched engine names every layer accepts (Toolchain, fleet,
#: CLI): ``auto`` resolves per lane count through :func:`auto_engine`.
BATCH_ENGINES = ("auto", "swar", "vector")


def auto_engine(lanes: int) -> str:
    """The batched engine automatic selection picks for *lanes* lanes:
    ``"vector"`` from :data:`VECTOR_AUTO_LANES` up when NumPy is
    importable, ``"swar"`` otherwise.  Every engine is bit-identical
    per lane, so this is purely a throughput choice."""
    if lanes >= VECTOR_AUTO_LANES:
        from repro.hdl.vector import HAVE_NUMPY

        if HAVE_NUMPY:
            return "vector"
    return "swar"


def lattice_key(lattice: Lattice) -> tuple:
    """A hashable, order-independent identity for a lattice."""
    pairs = tuple(
        sorted(
            (a, b)
            for a in lattice.elements
            for b in lattice.elements
            if lattice.leq(a, b) and a != b
        )
    )
    return (tuple(lattice.elements), pairs)


def source_key(source: Source) -> tuple:
    """A hashable identity for program source in any of its forms.

    Text and AST sources key structurally (a digest of the text, or of
    the AST's canonical dataclass repr), so they are stable across
    processes and eligible for the persistent store tier.  Analyzed
    ``ProgramInfo`` objects carry open-ended derived state and are
    identity-keyed via :class:`~repro.store.UnstableKey`; the object is
    pinned by the cache entry so the id cannot be reused while the
    entry lives, and the store tier refuses the key.
    """
    if isinstance(source, str):
        return ("text", hashlib.sha256(source.encode()).hexdigest())
    if isinstance(source, ast.Program):
        return ("ast", hashlib.sha256(repr(source).encode()).hexdigest())
    return ("object", UnstableKey(source))


class Toolchain:
    """Facade over the full Sapper flow with keyed artifact caching.

    The cache is LRU-bounded (*max_entries*, default 128 -- generous
    next to the ``lru_cache(maxsize=8)`` wrappers it replaced) so a
    process sweeping many configurations cannot grow without bound;
    evicting an entry also drops its pin, letting the artifact be
    collected.

    With *store* (an :class:`~repro.store.ArtifactStore`), stages whose
    keys are stable across processes (text/AST sources) gain a
    write-through / read-through persistent tier under the in-memory
    LRU: a fresh process warm-starts from disk instead of recompiling,
    and corrupt or stale entries fall back to recompute.  ``counters``
    tracks per-stage memory hits/misses, store hits/misses, and
    request coalescing (bumped by the server's single-flight layer).
    """

    def __init__(
        self,
        opt_level: int = MAX_OPT_LEVEL,
        max_entries: int = 128,
        store: ArtifactStore | None = None,
    ):
        self.opt_level = opt_level
        self.max_entries = max_entries
        self.store = store
        self._cache: OrderedDict = OrderedDict()
        self._lock = threading.RLock()
        self.counters: dict[str, int] = {}

    # -- generic keyed cache ------------------------------------------------

    @staticmethod
    def _stage(key: tuple) -> str:
        return key[0] if isinstance(key, tuple) and key else str(key)

    def bump(self, counter: str, by: int = 1) -> None:
        """Increment a named counter (thread-safe)."""
        with self._lock:
            self.counters[counter] = self.counters.get(counter, 0) + by

    def counter_snapshot(self) -> dict[str, int]:
        """A consistent copy of the hit/miss/coalesce counters."""
        with self._lock:
            return dict(self.counters)

    def cached(
        self,
        key: tuple,
        producer: Callable[[], T],
        pin: object = None,
        persist: bool = False,
    ) -> T:
        """Return the artifact for *key*, producing it on first use.

        *pin* keeps an auxiliary object alive alongside the artifact
        (used when the key embeds an identity).  *persist* additionally
        routes misses through the on-disk store tier (when a store is
        configured and the key is stable): read-through on miss,
        write-through after produce.

        Thread-safe: the memory cache is consulted and updated under a
        lock, but producers run outside it so distinct keys compile
        concurrently under the server's worker pool.  If two threads
        race on one key, the first published value wins -- identity of
        cached artifacts stays stable.
        """
        stage = self._stage(key)
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                self._cache.move_to_end(key)
                self.counters[f"hit:{stage}"] = self.counters.get(f"hit:{stage}", 0) + 1
                return entry[1]
            self.counters[f"miss:{stage}"] = self.counters.get(f"miss:{stage}", 0) + 1

        value = MISS
        use_store = persist and self.store is not None and persistable_key(key)
        if use_store:
            value = self.store.get(key, default=MISS)
            self.bump(f"store_hit:{stage}" if value is not MISS else f"store_miss:{stage}")
        if value is MISS:
            value = producer()
            if use_store:
                self.store.put(key, value)

        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:  # another thread won the race: keep first
                self._cache.move_to_end(key)
                return entry[1]
            self._cache[key] = (pin, value)
            while len(self._cache) > self.max_entries:
                self._cache.popitem(last=False)
        return value

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()

    def cache_info(self) -> dict[str, int]:
        """Entry counts per stage (the first key component)."""
        info: dict[str, int] = {}
        for key in self._cache:
            stage = key[0] if isinstance(key, tuple) else str(key)
            info[stage] = info.get(stage, 0) + 1
        return info

    # -- front-end stages ----------------------------------------------------

    def parse(self, source: str, name: str = "design") -> ast.Program:
        return self.cached(
            ("parse", source_key(source), name),
            lambda: parse_program(source, name),
        )

    def analyze(
        self,
        source: Source | Design,
        lattice: Lattice | None = None,
        name: str = "design",
    ) -> ProgramInfo | AnalysisReport:
        """Two analysis stages share this entry point.

        Given program source (text/AST) and a lattice: the front-end
        name/state-tree analysis, returning a
        :class:`~repro.sapper.analysis.ProgramInfo` (as before).

        Given a compiled design or raw module: the static back-end
        analysis of :mod:`repro.analyze` -- lint rules plus the taint
        certificate -- returning an
        :class:`~repro.analyze.AnalysisReport`.  Cached like every
        other stage and persisted in the artifact store under the
        design's structural key (``analyze`` counters beside
        compile/optimize).
        """
        if isinstance(source, (CompiledDesign, Module)):
            return self._analyze_design(source)
        if lattice is None:
            raise TypeError("analyze() of program source requires a lattice")
        if isinstance(source, ProgramInfo):
            return source
        key = ("analyze", source_key(source), lattice_key(lattice), name)
        if isinstance(source, str):
            return self.cached(key, lambda: analyze(self.parse(source, name), lattice))
        return self.cached(key, lambda: analyze(source, lattice), pin=source)

    def _analyze_design(self, design: Design) -> AnalysisReport:
        module = self._module(design)
        if isinstance(design, CompiledDesign):
            producer = lambda: analyze_design(design)
        else:
            producer = lambda: analyze_module(module)
        tail = self._structural_tail(design)
        if tail is None:
            key = ("check", UnstableKey(module), ANALYSIS_VERSION)
        else:
            key = ("check", *tail, ANALYSIS_VERSION)
        return self.cached(key, producer, pin=module, persist=True)

    def compile(
        self,
        source: Source,
        lattice: Lattice,
        secure: bool = True,
        name: str = "design",
    ) -> CompiledDesign:
        tail = (source_key(source), lattice_key(lattice), secure, name)
        design = self.cached(
            ("compile", *tail),
            lambda: compile_program(
                self.analyze(source, lattice, name), lattice, secure=secure, name=name
            ),
            pin=source if not isinstance(source, str) else None,
            persist=True,
        )
        # remember the structural identity so downstream artifacts
        # (optimized module, synthesis report, Verilog) can join the
        # persistent tier under the same key family
        design._structural_key = tail  # type: ignore[attr-defined]
        return design

    # -- mid-end -------------------------------------------------------------

    @staticmethod
    def _module(design: Design) -> Module:
        return design.module if isinstance(design, CompiledDesign) else design

    @staticmethod
    def _structural_tail(design: Design) -> tuple | None:
        """The persistable key tail of a toolchain-compiled design."""
        tail = getattr(design, "_structural_key", None)
        if tail is not None and persistable_key(tail):
            return tail
        return None

    def optimize(self, design: Design) -> Module:
        """The optimized module for *design* (memoized per module object,
        persisted under the design's structural key when a store is
        configured -- a warm start skips the whole pass pipeline)."""
        module = self._module(design)
        tail = self._structural_tail(design)
        if tail is None or self.store is None:
            return _optimize(module, self.opt_level)
        return self.cached(
            ("optimize", *tail, self.opt_level, OPT_VERSION),
            lambda: _optimize(module, self.opt_level),
            pin=module,
            persist=True,
        )

    # -- backends ------------------------------------------------------------

    def simulator(self, design: Design) -> Simulator:
        """A fresh-state simulator over the (shared) optimized module."""
        return Simulator(self.optimize(design), optimize=False)

    def batch_simulator(
        self,
        design: Design,
        lanes: int,
        retire_when: Callable[[BatchSimulator, int], bool] | None = None,
        engine: str = "swar",
    ) -> BatchSimulator:
        """A fresh-state *lane-batched* simulator over the (shared)
        optimized module: one vectorized step advances *lanes* independent
        machine states, each bit-identical to :meth:`simulator`.

        *engine* is one of :data:`BATCH_ENGINES`: ``"swar"``
        (guard-banded wide-word lane packing), ``"vector"`` (NumPy
        uint64 lane arrays; needs NumPy), or ``"auto"``
        (:func:`auto_engine`: vector from :data:`VECTOR_AUTO_LANES`
        lanes when NumPy is importable, swar below).  *retire_when*
        installs a lane-retirement predicate (``(sim, lane) -> bool``)
        driving automatic lane compaction in :meth:`BatchSimulator.run`.
        The batched step function, its per-lane-count factories, and any
        state-specialized fast-path bodies are cached per (module
        object, engine) pair -- the same structural key every other
        artifact here hangs off -- so repeated calls (randomized suites,
        the eval driver) compile once per engine, and compacted widths
        re-enter the same per-lane-count cache.
        """
        if engine not in BATCH_ENGINES:
            raise ValueError(f"unknown batch engine {engine!r}")
        if engine == "auto":
            engine = auto_engine(lanes)
        module = self.optimize(design)
        if engine == "vector":
            from repro.hdl.vector import VectorSimulator

            return VectorSimulator(module, lanes, optimize=False, retire_when=retire_when)
        return BatchSimulator(module, lanes, optimize=False, retire_when=retire_when)

    def _backend_key(self, stage: str, design: Design) -> tuple:
        """Structural backend key when the design carries one, else the
        legacy identity key (raw modules handed in directly)."""
        tail = self._structural_tail(design)
        if tail is not None:
            return (stage, *tail, self.opt_level, OPT_VERSION)
        # identity-keyed fallback for raw modules: UnstableKey keeps the
        # store tier out (an id() must never cross a process boundary)
        return (stage, UnstableKey(self._module(design)), self.opt_level)

    def synthesize(self, design: Design) -> CostReport:
        """Gate census / area / delay / power of the optimized module (cached)."""
        return self.cached(
            self._backend_key("synth", design),
            lambda: _synthesize(self.optimize(design), optimize=False),
            pin=self._module(design),
            persist=True,
        )

    def verilog(self, design: Design) -> str:
        """Synthesizable Verilog text of the optimized module (cached)."""
        return self.cached(
            self._backend_key("verilog", design),
            lambda: _emit_verilog(self.optimize(design), optimize=False),
            pin=self._module(design),
            persist=True,
        )


#: Process-wide default toolchain instance.
_DEFAULT: Toolchain | None = None


def get_toolchain() -> Toolchain:
    """The shared default :class:`Toolchain` (created on first use).

    If ``REPRO_STORE`` names a directory, the default instance gains a
    persistent artifact-store tier rooted there -- the zero-code way to
    warm-start scripts and notebooks.  An unusable directory degrades
    to the in-memory tier with a warning rather than failing the run.
    """
    global _DEFAULT
    if _DEFAULT is None:
        store = None
        store_dir = os.environ.get("REPRO_STORE")
        if store_dir:
            try:
                store = ArtifactStore(store_dir)
            except StoreError as exc:
                print(f"warning: REPRO_STORE disabled: {exc}", file=sys.stderr)
        _DEFAULT = Toolchain(store=store)
    return _DEFAULT


def set_toolchain(toolchain: Toolchain | None) -> None:
    """Replace the process-wide default (``None`` resets to a fresh one)."""
    global _DEFAULT
    _DEFAULT = toolchain
