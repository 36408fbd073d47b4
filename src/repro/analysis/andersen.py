"""Offset-based field-sensitive Andersen's pointer analysis.

This is the "pointer analysis" box of Figure 3, configured exactly as
Section 4.1 describes the evaluated implementation:

- inclusion-based (Andersen-style) constraint solving,
- field-sensitive with constant offsets, arrays collapsed to a whole,
- on-the-fly call graph for calls through function pointers,
- 1-callsite-sensitive heap cloning for allocation wrapper functions.

Heap cloning works by *constraint instantiation*: for every direct call
site of an allocation wrapper (a non-recursive function returning a heap
object it allocated), the wrapper's constraints are re-generated in a
call-site-specific namespace and its heap objects are cloned with that
call site as context.  After solving, clone points-to sets are merged
back into the wrapper's base variables so downstream phases (memory SSA,
VFG) see the union while still distinguishing per-call-site objects.

Two constraint solvers share the constraint generator:

- :class:`DeltaSolver` (the default) is the scalable engine: points-to
  sets are integer bitsets over interned locations, each worklist pop
  propagates only the node's *delta* (facts added since it was last
  processed), and the fixpoint runs in *waves*: each wave pops the
  dirty frontier in the Pearce–Kelly topological order of the
  copy-edge graph, so a delta crosses the whole DAG in one sweep and
  every node is offered its merged delta once per wave.  Copy cycles
  are collapsed onto a union-find representative, once offline before
  the first wave and eagerly at edge insertion afterwards.
- :class:`ReferenceSolver` (``use_reference=True``) is the original
  naive worklist that re-propagates full points-to sets; it is kept as
  the differential-testing oracle.

Both produce bit-for-bit identical :class:`PointerResult` contents (SCC
representatives are expanded back to their members before results are
built) and report their work through
:class:`~repro.analysis.solverstats.SolverStats`.
"""

from __future__ import annotations

import heapq
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.ir import instructions as ins
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.values import Value, Var
from repro.analysis.memobjects import (
    HEAP,
    MemLoc,
    MemObject,
    PVar,
    function_object,
    global_object,
)
from repro.analysis.solverstats import SolverStats
from repro.obs.registry import REGISTRY
from repro.obs.trace import TRACE

Node = Union[PVar, MemLoc]

#: Op-tape tags of the per-function constraint tapes (see
#: :mod:`repro.analysis.shardgen`); kept here so both the tape
#: collector and the replaying solver agree on the encoding.
OP_PTS = 0
OP_COPY = 1
OP_LOAD = 2
OP_STORE = 3
OP_GEP = 4
OP_ICALL = 5

try:  # int.bit_count is 3.10+; the fallback keeps 3.9 working.
    _popcount = int.bit_count
except AttributeError:  # pragma: no cover

    def _popcount(bits: int) -> int:
        return bin(bits).count("1")


class PointerResult:
    """Result of the pointer analysis.

    Attributes:
        pts: Points-to sets for top-level variables and memory locations.
        alloc_objects: Abstract objects created by each allocation
            instruction (more than one when heap-cloned).
        global_objects / function_objects: By name.
        call_targets: Resolved callee function names per call uid.
        wrappers: Names of the detected allocation wrapper functions.
        solver_stats: Work counters and phase timings of the solver
            run(s) that produced this result.
    """

    def __init__(self) -> None:
        self.pts: Dict[Node, Set[MemLoc]] = {}
        self.alloc_objects: Dict[int, List[MemObject]] = {}
        self.global_objects: Dict[str, MemObject] = {}
        self.function_objects: Dict[str, MemObject] = {}
        self.call_targets: Dict[int, Set[str]] = {}
        self.wrappers: Set[str] = set()
        #: clone namespace -> base function name (heap cloning)
        self.clone_base: Dict[str, str] = {}
        self.solver_stats: Optional[SolverStats] = None

    def pts_of(self, node: Node) -> FrozenSet[MemLoc]:
        return frozenset(self.pts.get(node, ()))

    def pts_var(self, func: str, var: Var) -> FrozenSet[MemLoc]:
        """Points-to set of top-level variable ``var`` in ``func``.

        SSA versions are ignored: the pointer analysis is performed on
        the pre-SSA program (Figure 3) and is flow-insensitive.
        """
        return self.pts_of(PVar(func, var.name))

    def data_pts_var(self, func: str, var: Var) -> FrozenSet[MemLoc]:
        """Like :meth:`pts_var` but with function targets filtered out."""
        return frozenset(
            loc for loc in self.pts_var(func, var) if not loc.obj.is_function
        )

    def callees_of(self, call: ins.Call) -> FrozenSet[str]:
        return frozenset(self.call_targets.get(call.uid, ()))

    def all_objects(self) -> List[MemObject]:
        objs: Dict[str, MemObject] = {}
        for obj in self.global_objects.values():
            objs[obj.name] = obj
        for obj_list in self.alloc_objects.values():
            for obj in obj_list:
                objs[obj.name] = obj
        return list(objs.values())


def analyze_pointers(
    module: Module,
    heap_cloning: bool = True,
    use_reference: bool = False,
) -> PointerResult:
    """Run Andersen's analysis on ``module``.

    With ``heap_cloning`` enabled (the paper's configuration), allocation
    wrappers are detected with a context-insensitive pre-pass and the
    analysis is re-run with their heap objects cloned per call site.

    ``use_reference=True`` selects the original naive worklist solver
    (:class:`ReferenceSolver`) instead of the scalable
    :class:`DeltaSolver`; the results are identical — the flag exists
    for differential testing and benchmarking.
    """
    solver_class = ReferenceSolver if use_reference else DeltaSolver
    stats = SolverStats(solver=solver_class.kind)

    def finish(solver: "_SolverBase") -> PointerResult:
        result = solver.result()
        REGISTRY.record_solver(stats)
        return result

    with TRACE.span("pointer_analysis", solver=stats.solver):
        base = solver_class(module, wrappers=frozenset(), stats=stats)
        base.solve()
        if not heap_cloning:
            return finish(base)
        with stats.phase("wrappers"):
            wrappers = base.detect_wrappers()
        if not wrappers:
            return finish(base)
        refined = solver_class(
            module, wrappers=frozenset(wrappers), stats=stats
        )
        refined.solve()
        result = finish(refined)
        result.wrappers = set(wrappers)
        return result


class _SolverBase:
    """Constraint generation, call binding and result construction.

    Subclasses supply the constraint store and the fixpoint loop via the
    primitive hooks ``_add_pts`` / ``_add_copy`` / ``_add_load`` /
    ``_add_store`` / ``_add_gep`` / ``_add_icall`` / ``solve`` plus the
    result accessors ``_node_pts`` / ``_final_pts``.
    """

    kind = "abstract"

    def __init__(
        self,
        module: Module,
        wrappers: FrozenSet[str],
        stats: Optional[SolverStats] = None,
        recursive: Optional[Set[str]] = None,
    ) -> None:
        self.module = module
        self.wrappers = wrappers
        self.stats = stats if stats is not None else SolverStats(solver=self.kind)

        self.global_objects: Dict[str, MemObject] = {}
        self.function_objects: Dict[str, MemObject] = {}
        self.alloc_objects: Dict[int, List[MemObject]] = {}
        self.call_targets: Dict[int, Set[str]] = {}
        #: (call uid, callee) pairs already bound through a function
        #: pointer — the guard that keeps recursive function-pointer
        #: cycles from re-binding (and hence re-touching) forever.
        self.bound_icalls: Set[Tuple[int, str]] = set()
        #: clone namespace -> base function name
        self.clone_base: Dict[str, str] = {}
        #: (wrapper, callsite uid) namespaces already instantiated
        self._instantiated: Set[Tuple[str, int]] = set()
        self._recursive = (
            recursive if recursive is not None else _recursive_functions(module)
        )

        with self.stats.phase("constraints"):
            self._seed()

    # ------------------------------------------------------------------
    # Primitive hooks (constraint store)
    # ------------------------------------------------------------------
    def _add_pts(self, node: Node, loc: MemLoc) -> None:
        raise NotImplementedError

    def _add_copy(self, src: Node, dst: Node) -> None:
        raise NotImplementedError

    def _add_load(self, ptr: Node, dst: Node) -> None:
        raise NotImplementedError

    def _add_store(self, ptr: Node, src: Node) -> None:
        raise NotImplementedError

    def _add_gep(self, base: Node, dst: Node, offset: Optional[int]) -> None:
        raise NotImplementedError

    def _add_icall(
        self,
        callee_node: Node,
        call_uid: int,
        arg_nodes: List[Optional[Node]],
        dst_node: Optional[Node],
    ) -> None:
        raise NotImplementedError

    def solve(self) -> None:
        raise NotImplementedError

    def _node_pts(self, node: Node) -> Set[MemLoc]:
        """Current points-to set of ``node`` (post-solve)."""
        raise NotImplementedError

    def _final_pts(self) -> Dict[Node, Set[MemLoc]]:
        """Per-node points-to sets with any internal sharing expanded
        back to the original nodes."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Constraint generation
    # ------------------------------------------------------------------
    def _seed(self) -> None:
        for glob in self.module.globals.values():
            self.global_objects[glob.name] = global_object(
                glob.name, glob.initialized, glob.size, glob.is_array
            )
        for name in self.module.functions:
            self.function_objects[name] = function_object(name)
        for function in self.module.functions.values():
            self._gen_function(function, ns=function.name, clone_ctx=None)

    def _ret_node(self, ns: str) -> PVar:
        return PVar(ns, "<ret>")

    def _alloc_object(
        self, instr: ins.Alloc, func: str, ctx: Optional[int]
    ) -> MemObject:
        suffix = f"@cs{ctx}" if ctx is not None else ""
        obj = MemObject(
            name=f"{instr.obj_name}{suffix}",
            kind=instr.kind,
            initialized=instr.initialized,
            is_array=instr.is_array,
            size=instr.size,
            func=func,
            alloc_uid=instr.uid,
            context=ctx,
        )
        self.alloc_objects.setdefault(instr.uid, [])
        if obj not in self.alloc_objects[instr.uid]:
            self.alloc_objects[instr.uid].append(obj)
        return obj

    def _gen_function(
        self, function: Function, ns: str, clone_ctx: Optional[int]
    ) -> None:
        """Generate constraints for ``function`` under namespace ``ns``."""
        for instr in function.instructions():
            self._gen_instr(function, instr, ns, clone_ctx)

    def _gen_instr(
        self,
        function: Function,
        instr: ins.Instr,
        ns: str,
        clone_ctx: Optional[int],
    ) -> None:
        def node(value: Value) -> Optional[Node]:
            if isinstance(value, Var):
                return PVar(ns, value.name)
            return None

        if isinstance(instr, ins.Alloc):
            obj = self._alloc_object(instr, function.name, clone_ctx)
            self._add_pts(PVar(ns, instr.dst.name), MemLoc(obj, 0))
        elif isinstance(instr, ins.GlobalAddr):
            obj = self.global_objects[instr.global_name]
            self._add_pts(PVar(ns, instr.dst.name), MemLoc(obj, 0))
        elif isinstance(instr, ins.FuncAddr):
            obj = self.function_objects[instr.func_name]
            self._add_pts(PVar(ns, instr.dst.name), MemLoc(obj, 0))
        elif isinstance(instr, ins.Copy):
            src = node(instr.src)
            if src is not None:
                self._add_copy(src, PVar(ns, instr.dst.name))
        elif isinstance(instr, ins.Phi):
            for value in instr.incomings.values():
                src = node(value)
                if src is not None:
                    self._add_copy(src, PVar(ns, instr.dst.name))
        elif isinstance(instr, ins.Gep):
            base = node(instr.base)
            if base is not None:
                self._add_gep(base, PVar(ns, instr.dst.name), instr.static_offset)
        elif isinstance(instr, ins.Load):
            ptr = node(instr.ptr)
            if ptr is not None:
                self._add_load(ptr, PVar(ns, instr.dst.name))
        elif isinstance(instr, ins.Store):
            ptr = node(instr.ptr)
            src = node(instr.value)
            if ptr is not None and src is not None:
                self._add_store(ptr, src)
        elif isinstance(instr, ins.Ret):
            value = node(instr.value) if instr.value is not None else None
            if value is not None:
                self._add_copy(value, self._ret_node(ns))
        elif isinstance(instr, ins.Call):
            self._gen_call(instr, ns)

    def _gen_call(self, call: ins.Call, ns: str) -> None:
        arg_nodes: List[Optional[Node]] = [
            PVar(ns, a.name) if isinstance(a, Var) else None for a in call.args
        ]
        dst_node = PVar(ns, call.dst.name) if call.dst is not None else None
        if not call.is_indirect:
            self._bind_direct(call.callee, call.uid, arg_nodes, dst_node)
        else:
            callee_node = PVar(ns, call.callee.name)
            self._add_icall(callee_node, call.uid, arg_nodes, dst_node)

    def _bind_direct(
        self,
        callee: str,
        call_uid: int,
        arg_nodes: List[Optional[Node]],
        dst_node: Optional[Node],
    ) -> None:
        self.call_targets.setdefault(call_uid, set()).add(callee)
        target = self.module.functions[callee]
        if callee in self.wrappers and callee not in self._recursive:
            ns = self._instantiate_wrapper(callee, call_uid)
        else:
            ns = callee
        for formal, actual in zip(target.params, arg_nodes):
            if actual is not None:
                self._add_copy(actual, PVar(ns, formal))
        if dst_node is not None:
            self._add_copy(self._ret_node(ns), dst_node)

    def _instantiate_wrapper(self, callee: str, call_uid: int) -> str:
        """Clone ``callee``'s constraints for this call site; return the
        clone namespace."""
        ns = f"{callee}@cs{call_uid}"
        key = (callee, call_uid)
        if key not in self._instantiated:
            self._instantiated.add(key)
            self.clone_base[ns] = callee
            self._gen_function(self.module.functions[callee], ns, call_uid)
        return ns

    def _bind_indirect(
        self,
        callee: str,
        call_uid: int,
        arg_nodes: Iterable[Optional[Node]],
        dst_node: Optional[Node],
    ) -> None:
        """Bind a function-pointer target (no heap cloning through
        indirect calls)."""
        key = (call_uid, callee)
        if key in self.bound_icalls:
            return
        self.bound_icalls.add(key)
        self.stats.icall_bindings += 1
        self.call_targets.setdefault(call_uid, set()).add(callee)
        target = self.module.functions[callee]
        for formal, actual in zip(target.params, arg_nodes):
            if actual is not None:
                self._add_copy(actual, PVar(callee, formal))
        if dst_node is not None:
            self._add_copy(self._ret_node(callee), dst_node)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def detect_wrappers(self) -> Set[str]:
        """Allocation wrappers: non-recursive functions whose return
        value may point to a heap object they allocated."""
        wrappers: Set[str] = set()
        for name, function in self.module.functions.items():
            if name in self._recursive or name == "main":
                continue
            for loc in self._node_pts(self._ret_node(name)):
                if loc.obj.kind == HEAP and loc.obj.func == name:
                    wrappers.add(name)
                    break
        return wrappers

    def _record_memory_stats(self) -> None:
        """Fold this solver pass's memory profile into the stats:
        process peak RSS here, representation bytes in the
        :class:`DeltaSolver` override."""
        try:
            import resource
            import sys

            ru_maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            # ru_maxrss is KB on Linux, bytes on macOS.
            scale = 1 if sys.platform == "darwin" else 1024
            self.stats.peak_rss = max(self.stats.peak_rss, ru_maxrss * scale)
        except Exception:  # pragma: no cover - resource always on POSIX
            pass

    def result(self) -> PointerResult:
        with self.stats.phase("finalize"):
            self._record_memory_stats()
            result = PointerResult()
            result.global_objects = dict(self.global_objects)
            result.function_objects = dict(self.function_objects)
            stale = self._stale_base_objects()
            result.alloc_objects = {
                uid: [o for o in objs if o not in stale]
                for uid, objs in self.alloc_objects.items()
            }
            result.call_targets = {
                uid: set(t) for uid, t in self.call_targets.items()
            }
            result.clone_base = dict(self.clone_base)
            merged: Dict[Node, Set[MemLoc]] = {}
            final = self._final_pts()
            # Nodes of one collapsed SCC share a single set object;
            # filter each distinct object once.  The ids are stable
            # because ``final`` keeps every set alive for the loop.
            filtered: Dict[int, Set[MemLoc]] = {}
            for node, raw in final.items():
                locs = filtered.get(id(raw))
                if locs is None:
                    locs = {loc for loc in raw if loc.obj not in stale}
                    filtered[id(raw)] = locs
                if not locs:
                    continue
                target = node
                if isinstance(node, PVar) and node.func in self.clone_base:
                    target = PVar(self.clone_base[node.func], node.name)
                merged.setdefault(target, set()).update(locs)
                if target != node:
                    merged.setdefault(node, set()).update(locs)
            result.pts = merged
            result.solver_stats = self.stats
        return result

    def _stale_base_objects(self) -> Set[MemObject]:
        """Base (context-free) objects of wrappers all of whose call
        sites were cloned.  Nothing can concretely refer to them: every
        actual allocation is represented by a per-call-site clone."""
        stale: Set[MemObject] = set()
        for wrapper in self.wrappers:
            if wrapper in self._recursive:
                continue
            call_uids = {
                uid
                for uid, targets in self.call_targets.items()
                if wrapper in targets
            }
            if not call_uids:
                continue
            cloned_uids = {
                uid for (name, uid) in self._instantiated if name == wrapper
            }
            if not call_uids <= cloned_uids:
                continue
            for objs in self.alloc_objects.values():
                for obj in objs:
                    if obj.func == wrapper and obj.context is None:
                        stale.add(obj)
        return stale


class ReferenceSolver(_SolverBase):
    """The original naive worklist solver (the differential oracle).

    Every pop re-propagates the node's *entire* points-to set across all
    of its copy / gep / load / store / icall edges; copy cycles are
    re-iterated until fixpoint instead of being collapsed.  Kept
    intentionally simple — its whole value is being obviously correct.
    """

    kind = "reference"

    def __init__(
        self,
        module: Module,
        wrappers: FrozenSet[str],
        stats: Optional[SolverStats] = None,
        recursive: Optional[Set[str]] = None,
    ) -> None:
        self.pts: Dict[Node, Set[MemLoc]] = {}
        self.copy_edges: Dict[Node, Set[Node]] = {}
        self.loads: Dict[Node, List[Node]] = {}
        self.stores: Dict[Node, List[Node]] = {}
        self.geps: Dict[Node, List[Tuple[Node, Optional[int]]]] = {}
        self.icalls: Dict[
            Node, List[Tuple[int, List[Optional[Node]], Optional[Node]]]
        ] = {}
        self.worklist: List[Node] = []
        self.dirty: Set[Node] = set()
        super().__init__(module, wrappers, stats, recursive=recursive)

    # -- constraint store ----------------------------------------------
    def _points(self, node: Node) -> Set[MemLoc]:
        return self.pts.setdefault(node, set())

    def _touch(self, node: Node) -> None:
        if node not in self.dirty:
            self.dirty.add(node)
            self.worklist.append(node)
            self.stats.note_worklist(len(self.worklist))

    def _add_pts(self, node: Node, loc: MemLoc) -> None:
        if loc not in self._points(node):
            self.pts[node].add(loc)
            self._touch(node)

    def _add_copy(self, src: Node, dst: Node) -> None:
        edges = self.copy_edges.setdefault(src, set())
        if dst not in edges:
            edges.add(dst)
            self.stats.copy_edges += 1
            if self.pts.get(src):
                self._touch(src)

    def _add_load(self, ptr: Node, dst: Node) -> None:
        self.loads.setdefault(ptr, []).append(dst)
        self._touch(ptr)

    def _add_store(self, ptr: Node, src: Node) -> None:
        self.stores.setdefault(ptr, []).append(src)
        self._touch(ptr)

    def _add_gep(self, base: Node, dst: Node, offset: Optional[int]) -> None:
        self.geps.setdefault(base, []).append((dst, offset))
        self._touch(base)

    def _add_icall(
        self,
        callee_node: Node,
        call_uid: int,
        arg_nodes: List[Optional[Node]],
        dst_node: Optional[Node],
    ) -> None:
        self.icalls.setdefault(callee_node, []).append(
            (call_uid, arg_nodes, dst_node)
        )
        self._touch(callee_node)

    # -- fixpoint ------------------------------------------------------
    def solve(self) -> None:
        self.stats.solve_passes += 1
        with self.stats.phase("solve"):
            self._run()
        self.stats.live_copy_edges = sum(
            len(dsts) for dsts in self.copy_edges.values()
        )

    def _run(self) -> None:
        while self.worklist:
            node = self.worklist.pop()
            self.dirty.discard(node)
            current = frozenset(self._points(node))
            if not current:
                continue
            self.stats.pops += 1
            # Copy edges: pts(node) ⊆ pts(dst).
            for dst in list(self.copy_edges.get(node, ())):
                self._merge_into(dst, current)
            # Gep: shifted targets.
            for dst, offset in self.geps.get(node, ()):
                shifted = {
                    target
                    for loc in current
                    if not loc.obj.is_function
                    for target in loc.shifted(offset)
                }
                self._merge_into(dst, shifted)
            # Loads: *node -> dst.
            for dst in self.loads.get(node, ()):
                for loc in current:
                    if loc.obj.is_function:
                        continue
                    self._add_copy(loc, dst)
            # Stores: src -> *node.
            for src in self.stores.get(node, ()):
                for loc in current:
                    if loc.obj.is_function:
                        continue
                    self._add_copy(src, loc)
            # Indirect calls through node.
            for call_uid, args, dst in self.icalls.get(node, ()):
                for loc in current:
                    if (
                        loc.obj.is_function
                        and loc.obj.func in self.module.functions
                        and (call_uid, loc.obj.func) not in self.bound_icalls
                    ):
                        self._bind_indirect(loc.obj.func, call_uid, args, dst)

    def _merge_into(
        self, dst: Node, locs: "frozenset[MemLoc] | set[MemLoc]"
    ) -> None:
        if not locs:
            return
        self.stats.facts_propagated += len(locs)
        target = self._points(dst)
        if not locs <= target:
            added = len(locs - target)
            target.update(locs)
            self.stats.facts_added += added
            self._touch(dst)

    # -- results -------------------------------------------------------
    def _node_pts(self, node: Node) -> Set[MemLoc]:
        return self.pts.get(node, set())

    def _final_pts(self) -> Dict[Node, Set[MemLoc]]:
        return self.pts


class DeltaSolver(_SolverBase):
    """Scalable solver: difference propagation over interned bitsets,
    wave-scheduled, with copy-cycle collapsing.

    Representation
        Every :class:`MemLoc` is interned to an integer bit index, so a
        points-to set is a Python-int bitset over those ids and set
        algebra (union, difference, subset) is machine-word arithmetic;
        iteration runs low bit first.  Every graph node (PVar or
        MemLoc) is likewise interned to a dense integer id; all
        solver-core state (bitsets, deltas, union-find parents, edge
        tables) lives in lists indexed by node id, so the hot loops
        never hash a dataclass.

    Difference propagation
        ``_bits[n]`` is the full set, ``_delta[n]`` the subset not yet
        pushed along ``n``'s outgoing edges.  A pop propagates only the
        delta; a *new* edge immediately receives the source's full set
        once, preserving the invariant that processed facts have crossed
        every edge that existed when they were processed.

    Cycle elimination
        The first solve collapses every SCC of the copy graph built so
        far in one offline Tarjan sweep and numbers the condensation in
        topological order.  From then on the order is maintained per
        inserted copy edge (Pearce & Kelly), and an edge that closes a
        cycle collapses it at insertion onto a union-find
        representative, redirecting the copy / load / store / gep /
        icall edge tables through ``_find``.

    Wave scheduling
        The fixpoint loop runs in *waves*: each wave heapifies the
        dirty frontier by topological position and pops in that order.
        A delta entering the top of a copy chain reaches the bottom
        within the same wave, and because every downstream node is
        popped after all its in-wave predecessors, it is offered the
        *merged* delta exactly once — a FIFO loop would re-pop it per
        predecessor.
    """

    kind = "delta"

    def __init__(
        self,
        module: Module,
        wrappers: FrozenSet[str],
        stats: Optional[SolverStats] = None,
        recursive: Optional[Set[str]] = None,
    ) -> None:
        #: wave bookkeeping: the ord-keyed heap of reps scheduled in the
        #: wave currently being processed (None outside a wave), the set
        #: of reps it holds, and the ord of the rep being popped right
        #: now.
        self._wave_heap: Optional[List[Tuple[int, int]]] = None
        self._wave_members: Set[int] = set()
        self._wave_cursor_ord = -1
        #: Pearce–Kelly incremental topological order: ``_ord[rep]`` is
        #: the rep's position.  Until :meth:`_init_pk_order` runs (at the
        #: first solve) ords are creation indices and ``_pk_live`` is
        #: False; afterwards the order is maintained online per inserted
        #: copy edge and cycles are collapsed eagerly at insertion.
        self._ord: List[int] = []
        self._next_ord = 0
        self._pk_live = False
        #: interning: MemLoc <-> bit index
        self._locs: List[MemLoc] = []
        self._loc_ids: Dict[MemLoc, int] = {}
        self._loc_nids: List[int] = []  #: bit index -> node id (lazy)
        self._func_mask = 0
        #: interning: graph node <-> dense node id.  Everything below is
        #: a list indexed by node id.
        self._nodes: List[Node] = []
        self._node_ids: Dict[Node, int] = {}
        self._parent: List[int] = []  #: union-find forest
        self._bits: List[int] = []  #: full points-to bitset
        self._delta: List[int] = []  #: unpropagated subset of _bits
        self._copy_out: List[Optional[Set[int]]] = []
        #: reverse copy adjacency (raw source ids per rep) — drives the
        #: Pearce–Kelly backward pass
        self._copy_in: List[Optional[Set[int]]] = []
        self._loads: List[Optional[Set[int]]] = []
        self._stores: List[Optional[Set[int]]] = []
        self._geps: List[Optional[Set[Tuple[int, Optional[int]]]]] = []
        #: entries are (call uid, arg node ids with -1 for None, dst
        #: node id or -1)
        self._icalls: List[Optional[Set[Tuple[int, Tuple[int, ...], int]]]] = []
        self.worklist: List[int] = []
        self.dirty: Set[int] = set()
        super().__init__(module, wrappers, stats, recursive=recursive)

    # -- interning -----------------------------------------------------
    def _nid(self, node: Node) -> int:
        nid = self._node_ids.get(node)
        if nid is None:
            nid = len(self._nodes)
            self._node_ids[node] = nid
            self._nodes.append(node)
            self._parent.append(nid)
            self._bits.append(0)
            self._delta.append(0)
            self._copy_out.append(None)
            self._copy_in.append(None)
            self._loads.append(None)
            self._stores.append(None)
            self._geps.append(None)
            self._icalls.append(None)
            self._ord.append(self._next_ord)
            self._next_ord += 1
        return nid

    def _lid(self, loc: MemLoc) -> int:
        lid = self._loc_ids.get(loc)
        if lid is None:
            lid = len(self._locs)
            self._loc_ids[loc] = lid
            self._locs.append(loc)
            self._loc_nids.append(-1)
            if loc.obj.is_function:
                self._func_mask |= 1 << lid
        return lid

    def _loc_node(self, lid: int) -> int:
        """Node id of the MemLoc with bit index ``lid``."""
        nid = self._loc_nids[lid]
        if nid < 0:
            nid = self._nid(self._locs[lid])
            self._loc_nids[lid] = nid
        return nid

    @staticmethod
    def _iter_lids(bits: int) -> Iterator[int]:
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def _iter_locs(self, bits: int) -> Iterator[MemLoc]:
        locs = self._locs
        while bits:
            low = bits & -bits
            yield locs[low.bit_length() - 1]
            bits ^= low

    def _shift_bits(self, bits: int, offset: Optional[int]) -> int:
        shifted = 0
        for loc in self._iter_locs(bits):
            for target in loc.shifted(offset):
                shifted |= 1 << self._lid(target)
        return shifted

    # -- union-find ----------------------------------------------------
    def _find(self, nid: int) -> int:
        parent = self._parent
        root = parent[nid]
        if root == nid:
            return nid
        while parent[root] != root:
            root = parent[root]
        while parent[nid] != root:
            parent[nid], nid = root, parent[nid]
        return root

    # -- constraint store ----------------------------------------------
    def _touch(self, rep: int) -> None:
        if rep in self.dirty:
            return
        self.dirty.add(rep)
        heap = self._wave_heap
        if heap is not None and self._ord[rep] > self._wave_cursor_ord:
            # Dirtied mid-wave at a downstream position: schedule it
            # into the current wave instead of deferring to the next.
            if rep not in self._wave_members:
                self._wave_members.add(rep)
                heapq.heappush(heap, (self._ord[rep], rep))
            return
        self.worklist.append(rep)
        self.stats.note_worklist(len(self.worklist))

    def _processed(self, rep: int) -> int:
        """Facts of ``rep`` already pushed along its existing edges —
        what a newly added edge must catch up on."""
        return self._bits[rep] & ~self._delta[rep]

    def _pts_ids(self, nid: int, lid: int) -> None:
        rep = self._find(nid)
        bit = 1 << lid
        if not self._bits[rep] & bit:
            self._bits[rep] |= bit
            self._delta[rep] |= bit
            self.stats.facts_added += 1
            self._touch(rep)

    def _add_pts(self, node: Node, loc: MemLoc) -> None:
        self._pts_ids(self._nid(node), self._lid(loc))

    def _offer(self, dst: int, bits: int) -> bool:
        """Push ``bits`` into ``dst``'s set; True if anything was new."""
        if not bits:
            return False
        rep = self._find(dst)
        self.stats.facts_propagated += _popcount(bits)
        cur = self._bits[rep]
        new = bits & ~cur
        if not new:
            return False
        self._bits[rep] = cur | new
        self._delta[rep] |= new
        self.stats.facts_added += _popcount(new)
        if rep in self.dirty:
            # Already scheduled.  If the recipient sits later in the
            # current wave's topological order, these bits ride along
            # with its single in-wave pop — a FIFO loop would have
            # queued a separate re-pop for them.
            if (
                self._wave_heap is not None
                and rep in self._wave_members
                and self._ord[rep] > self._wave_cursor_ord
            ):
                self.stats.wave_reoffers_avoided += 1
        else:
            self._touch(rep)
        return True

    def _copy_ids(self, src: int, dst: int) -> None:
        s, d = self._find(src), self._find(dst)
        if s == d:
            return
        out = self._copy_out[s]
        if out is None:
            out = self._copy_out[s] = set()
        elif d in out:
            return
        out.add(d)
        ins_ = self._copy_in[d]
        if ins_ is None:
            ins_ = self._copy_in[d] = set()
        ins_.add(s)
        self.stats.copy_edges += 1
        if self._pk_live and self._ord[d] < self._ord[s]:
            self._pk_insert(s, d)
            s = self._find(s)
            d = self._find(d)
            if s == d:
                return
        # A new edge must catch up on the facts the source has already
        # propagated; the unprocessed delta crosses it at the next pop.
        bits = self._bits[s] & ~self._delta[s]
        if bits:
            self._offer(d, bits)

    def _add_copy(self, src: Node, dst: Node) -> None:
        self._copy_ids(self._nid(src), self._nid(dst))

    def _load_ids(self, ptr_id: int, dst_id: int) -> None:
        rep = self._find(ptr_id)
        dsts = self._loads[rep]
        if dsts is None:
            dsts = self._loads[rep] = set()
        elif dst_id in dsts:
            return
        dsts.add(dst_id)
        for lid in self._iter_lids(self._processed(rep) & ~self._func_mask):
            self._copy_ids(self._loc_node(lid), dst_id)

    def _add_load(self, ptr: Node, dst: Node) -> None:
        self._load_ids(self._nid(ptr), self._nid(dst))

    def _store_ids(self, ptr_id: int, src_id: int) -> None:
        rep = self._find(ptr_id)
        srcs = self._stores[rep]
        if srcs is None:
            srcs = self._stores[rep] = set()
        elif src_id in srcs:
            return
        srcs.add(src_id)
        for lid in self._iter_lids(self._processed(rep) & ~self._func_mask):
            self._copy_ids(src_id, self._loc_node(lid))

    def _add_store(self, ptr: Node, src: Node) -> None:
        self._store_ids(self._nid(ptr), self._nid(src))

    def _gep_ids(self, base_id: int, dst_id: int, offset: Optional[int]) -> None:
        rep = self._find(base_id)
        entry = (dst_id, offset)
        entries = self._geps[rep]
        if entries is None:
            entries = self._geps[rep] = set()
        elif entry in entries:
            return
        entries.add(entry)
        bits = self._processed(rep) & ~self._func_mask
        if bits:
            self._offer(dst_id, self._shift_bits(bits, offset))

    def _add_gep(self, base: Node, dst: Node, offset: Optional[int]) -> None:
        self._gep_ids(self._nid(base), self._nid(dst), offset)

    def _add_icall(
        self,
        callee_node: Node,
        call_uid: int,
        arg_nodes: List[Optional[Node]],
        dst_node: Optional[Node],
    ) -> None:
        args = tuple(-1 if a is None else self._nid(a) for a in arg_nodes)
        dst_id = -1 if dst_node is None else self._nid(dst_node)
        self._icall_ids(self._nid(callee_node), call_uid, args, dst_id)

    def _icall_ids(
        self,
        callee_id: int,
        call_uid: int,
        args: Tuple[int, ...],
        dst_id: int,
    ) -> None:
        rep = self._find(callee_id)
        entry = (call_uid, args, dst_id)
        entries = self._icalls[rep]
        if entries is None:
            entries = self._icalls[rep] = set()
        elif entry in entries:
            return
        entries.add(entry)
        locs = self._locs
        for lid in self._iter_lids(self._processed(rep) & self._func_mask):
            name = locs[lid].obj.func
            if (
                name in self.module.functions
                and (call_uid, name) not in self.bound_icalls
            ):
                self._bind_icall_ids(name, call_uid, args, dst_id)

    def _bind_icall_ids(
        self, name: str, call_uid: int, args: Tuple[int, ...], dst_id: int
    ) -> None:
        nodes = self._nodes
        self._bind_indirect(
            name,
            call_uid,
            [nodes[a] if a >= 0 else None for a in args],
            nodes[dst_id] if dst_id >= 0 else None,
        )

    # -- tape replay ---------------------------------------------------
    def _replay_shard(self, shard) -> None:
        """Id-level replay of a constraint tape straight off its flat
        word arena: remap each tape-local symbol to a dense node id
        once, then drive the id-level constraint store with index
        arithmetic over the ``int64`` buffer — the hot path
        materializes no op tuples and never hashes a dataclass more
        than once per distinct symbol."""
        from repro.analysis.shardgen import GEP_NONE

        syms = shard.syms
        words = shard.words
        node_ids: List[int] = [-1] * len(syms)

        def nid(local: int) -> int:
            mapped = node_ids[local]
            if mapped < 0:
                mapped = node_ids[local] = self._nid(syms[local])
            return mapped

        i = 0
        n = len(words)
        while i < n:
            tag = words[i]
            if tag == OP_COPY:
                self._copy_ids(nid(words[i + 1]), nid(words[i + 2]))
                i += 3
            elif tag == OP_PTS:
                self._pts_ids(nid(words[i + 1]), self._lid(syms[words[i + 2]]))
                i += 3
            elif tag == OP_LOAD:
                self._load_ids(nid(words[i + 1]), nid(words[i + 2]))
                i += 3
            elif tag == OP_STORE:
                self._store_ids(nid(words[i + 1]), nid(words[i + 2]))
                i += 3
            elif tag == OP_GEP:
                offset = words[i + 3]
                self._gep_ids(
                    nid(words[i + 1]),
                    nid(words[i + 2]),
                    None if offset == GEP_NONE else offset,
                )
                i += 4
            else:  # OP_ICALL
                nargs = words[i + 3]
                args = tuple(
                    nid(a) if a >= 0 else -1
                    for a in words[i + 4 : i + 4 + nargs]
                )
                dst_sid = words[i + 4 + nargs]
                dst = nid(dst_sid) if dst_sid >= 0 else -1
                self._icall_ids(nid(words[i + 1]), words[i + 2], args, dst)
                i += 5 + nargs

    # -- fixpoint ------------------------------------------------------
    def solve(self) -> None:
        self.stats.solve_passes += 1
        with self.stats.phase("solve"):
            self._run_wave()
        self.stats.live_copy_edges = self._count_live_copy_edges()

    def _count_live_copy_edges(self) -> int:
        """Distinct rep-level copy edges surviving all collapsing —
        the graph the solver actually propagated over, as opposed to
        ``stats.copy_edges`` which counts edges at insertion time."""
        find = self._find
        parent = self._parent
        total = 0
        for nid, out in enumerate(self._copy_out):
            if not out or parent[nid] != nid:
                continue
            dsts = {find(raw) for raw in out}
            dsts.discard(nid)
            total += len(dsts)
        return total

    def _run_wave(self) -> None:
        """Wave/deep propagation: drain the worklist in topological
        sweeps of the copy-edge DAG instead of one pop at a time.

        Each wave heapifies the dirty frontier keyed by the
        Pearce–Kelly order (:meth:`_init_pk_order` /
        :meth:`_pk_insert`) and pops in ascending order.  Because the
        order is maintained online as copy edges are inserted, no
        per-wave reverse-postorder recomputation is needed; nodes
        dirtied *mid-wave* downstream of the cursor are pushed into the
        same wave's heap, so their merged delta is popped once in this
        wave rather than once per incoming edge.  Mid-wave SCC
        collapses are handled by re-resolving each popped entry through
        ``_find``; stale heap entries are skipped via the dirty check.
        """
        if not self._pk_live:
            self._init_pk_order()
        worklist = self.worklist
        dirty = self.dirty
        delta_of = self._delta
        find = self._find
        ord_ = self._ord
        stats = self.stats
        heappop = heapq.heappop
        while worklist:
            entries: List[Tuple[int, int]] = []
            members: Set[int] = set()
            for nid in worklist:
                rep = find(nid)
                if rep in dirty and rep not in members:
                    members.add(rep)
                    entries.append((ord_[rep], rep))
            worklist.clear()
            if not entries:
                continue
            heapq.heapify(entries)
            stats.waves += 1
            # Per-wave span — guarded so the hot loop pays only one
            # attribute check per wave when tracing is off.
            wave_span = (
                TRACE.span("wave", index=stats.waves)
                if TRACE.enabled
                else None
            )
            if wave_span is not None:
                wave_span.__enter__()
            self._wave_heap = entries
            self._wave_members = members
            width = 0
            try:
                while entries:
                    key, scheduled = heappop(entries)
                    members.discard(scheduled)
                    self._wave_cursor_ord = key
                    rep = find(scheduled)
                    if rep not in dirty:
                        continue
                    dirty.discard(rep)
                    delta = delta_of[rep]
                    if not delta:
                        continue
                    delta_of[rep] = 0
                    width += 1
                    stats.pops += 1
                    self._propagate(rep, delta)
            finally:
                self._wave_heap = None
                self._wave_members = set()
                self._wave_cursor_ord = -1
                if wave_span is not None:
                    wave_span.tag(width=width)
                    wave_span.__exit__(None, None, None)
            if width > stats.peak_wave_width:
                stats.peak_wave_width = width

    # -- Pearce–Kelly incremental topological order --------------------
    def _init_pk_order(self) -> None:
        """Batch-initialize the incremental order: collapse every SCC
        of the copy graph built so far (one offline Tarjan sweep), then
        number the condensation in reverse postorder.  From here on the
        order is maintained per inserted edge by :meth:`_pk_insert` and
        cycles are collapsed eagerly at insertion."""
        self._offline_collapse()
        find = self._find
        copy_out = self._copy_out
        parent = self._parent
        ord_ = self._ord
        total = len(self._nodes)
        visited = bytearray(total)
        post: List[int] = []
        for root in range(total):
            if parent[root] != root or visited[root]:
                continue
            visited[root] = 1
            frames: List[Tuple[int, Iterator[int]]] = [
                (root, iter(copy_out[root] or ()))
            ]
            while frames:
                node, succs = frames[-1]
                advanced = False
                for raw in succs:
                    succ = find(raw)
                    if not visited[succ]:
                        visited[succ] = 1
                        frames.append((succ, iter(copy_out[succ] or ())))
                        advanced = True
                        break
                if not advanced:
                    frames.pop()
                    post.append(node)
        # Reverse postorder over all roots is a topological order of
        # the (now acyclic) condensation.
        for position, node in enumerate(reversed(post)):
            ord_[node] = position
        # Nodes created later slot in above everything numbered so far
        # (they are edge-free at creation, so appending is valid).
        self._next_ord = total
        self._pk_live = True

    def _pk_insert(self, s: int, d: int) -> None:
        """Restore the order's invariant after inserting copy edge
        ``s -> d`` with ``ord[d] < ord[s]`` (Pearce & Kelly 2006).

        Forward DFS from ``d`` bounded by ``ord < ord[s]``: every
        existing edge respects the order, so any path from ``d`` back
        to ``s`` stays inside the bound — reaching ``s`` exactly
        detects that the new edge closed a cycle, which is collapsed
        eagerly.  Otherwise the affected region (backward set of ``s``
        above ``ord[d]``, forward set of ``d`` below ``ord[s]``) is
        permuted within its own slots, keeping the order valid.
        """
        ord_ = self._ord
        find = self._find
        ub = ord_[s]
        lb = ord_[d]
        seen_f: Set[int] = {d}
        rf: List[int] = [d]
        stack: List[int] = [d]
        cycle = False
        while stack:
            node = stack.pop()
            out = self._copy_out[node]
            if not out:
                continue
            for raw in out:
                m = find(raw)
                if m == s:
                    cycle = True
                elif m not in seen_f and ord_[m] < ub:
                    seen_f.add(m)
                    rf.append(m)
                    stack.append(m)
        if cycle:
            self._pk_collapse_cycle(s, seen_f)
            return
        seen_b: Set[int] = {s}
        rb: List[int] = [s]
        stack = [s]
        while stack:
            node = stack.pop()
            ins_ = self._copy_in[node]
            if not ins_:
                continue
            for raw in ins_:
                m = find(raw)
                if m not in seen_b and ord_[m] > lb:
                    seen_b.add(m)
                    rb.append(m)
                    stack.append(m)
        self.stats.pk_reorders += 1
        rb.sort(key=ord_.__getitem__)
        rf.sort(key=ord_.__getitem__)
        region = rb + rf
        slots = sorted(ord_[node] for node in region)
        for slot, node in zip(slots, region):
            ord_[node] = slot

    def _pk_collapse_cycle(self, s: int, forward: Set[int]) -> None:
        """The new edge ``s -> d`` closed a cycle: its members are the
        nodes of the bounded forward set that reach ``s`` backward.
        Collapse them eagerly, then repair any in-edges of the merged
        representative the collapse left violated (the graph is acyclic
        again, so each repair is a plain reorder)."""
        find = self._find
        members: List[int] = [s]
        mseen: Set[int] = {s}
        stack: List[int] = [s]
        while stack:
            node = stack.pop()
            ins_ = self._copy_in[node]
            if not ins_:
                continue
            for raw in ins_:
                m = find(raw)
                if m in forward and m not in mseen:
                    mseen.add(m)
                    members.append(m)
                    stack.append(m)
        ord_ = self._ord
        floor = min(ord_[member] for member in members)
        self._collapse(members)
        rep = find(s)
        # The window floor keeps every out-edge of the merged rep valid
        # (all members' successors sat above their member's slot).
        ord_[rep] = floor
        ins_ = self._copy_in[rep]
        if ins_:
            pending = sorted(
                {find(raw) for raw in ins_} - {rep}, key=ord_.__getitem__
            )
            for u in pending:
                u = find(u)
                if u != rep and ord_[u] > ord_[rep]:
                    self._pk_insert(u, rep)

    def _propagate(self, rep: int, delta: int) -> None:
        # Copy edges: pts(rep) ⊆ pts(dst), pushing only the delta.
        out = self._copy_out[rep]
        if out:
            find = self._find
            seen: Set[int] = set()
            for raw in list(out):
                dst = find(raw)
                if dst == rep or dst in seen:
                    continue
                seen.add(dst)
                self._offer(dst, delta)
        data = delta & ~self._func_mask
        if data:
            geps = self._geps[rep]
            if geps:
                for dst, offset in list(geps):
                    self._offer(dst, self._shift_bits(data, offset))
            lds = self._loads[rep]
            if lds:
                for lid in self._iter_lids(data):
                    loc_id = self._loc_node(lid)
                    for dst in list(lds):
                        self._copy_ids(loc_id, dst)
            sts = self._stores[rep]
            if sts:
                for lid in self._iter_lids(data):
                    loc_id = self._loc_node(lid)
                    for src in list(sts):
                        self._copy_ids(src, loc_id)
        fbits = delta & self._func_mask
        if fbits:
            ics = self._icalls[rep]
            if ics:
                locs = self._locs
                for lid in self._iter_lids(fbits):
                    name = locs[lid].obj.func
                    if name not in self.module.functions:
                        continue
                    for call_uid, args, dst_id in list(ics):
                        if (call_uid, name) not in self.bound_icalls:
                            self._bind_icall_ids(name, call_uid, args, dst_id)

    # -- cycle elimination ---------------------------------------------
    def _offline_collapse(self) -> None:
        """Collapse every multi-node SCC of the whole copy graph in one
        Tarjan sweep (used by :meth:`_init_pk_order`).  Exact: cycle
        members provably share their fixpoint points-to set."""
        roots = [
            nid
            for nid in range(len(self._nodes))
            if self._parent[nid] == nid and self._copy_out[nid]
        ]
        for component in self._tarjan_components(roots):
            self._collapse(component)

    def _tarjan_components(
        self, roots: Iterable[int]
    ) -> List[List[int]]:
        """Multi-node SCCs of the rep-level copy graph reachable from
        ``roots`` (iterative Tarjan)."""
        find = self._find
        copy_out = self._copy_out
        total = len(self._nodes)
        index = [-1] * total
        low = [0] * total
        on_stack = bytearray(total)
        scc_stack: List[int] = []
        components: List[List[int]] = []
        counter = 0

        def successors(node: int) -> List[int]:
            out = copy_out[node]
            if not out:
                return []
            reps = {find(raw) for raw in out}
            reps.discard(node)
            return list(reps)

        for start in roots:
            start = find(start)
            if index[start] >= 0:
                continue
            index[start] = low[start] = counter
            counter += 1
            scc_stack.append(start)
            on_stack[start] = 1
            frames: List[Tuple[int, Iterator[int]]] = [
                (start, iter(successors(start)))
            ]
            while frames:
                node, succ = frames[-1]
                advanced = False
                for nxt in succ:
                    if index[nxt] < 0:
                        index[nxt] = low[nxt] = counter
                        counter += 1
                        scc_stack.append(nxt)
                        on_stack[nxt] = 1
                        frames.append((nxt, iter(successors(nxt))))
                        advanced = True
                        break
                    if on_stack[nxt] and index[nxt] < low[node]:
                        low[node] = index[nxt]
                if advanced:
                    continue
                frames.pop()
                if frames:
                    parent = frames[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    component: List[int] = []
                    while True:
                        member = scc_stack.pop()
                        on_stack[member] = 0
                        component.append(member)
                        if member == node:
                            break
                    if len(component) > 1:
                        components.append(component)
        return components

    def _collapse(self, members: List[int]) -> None:
        """Merge an SCC onto one representative — the first member."""
        reps: List[int] = []
        seen: Set[int] = set()
        for member in members:
            rep = self._find(member)
            if rep not in seen:
                seen.add(rep)
                reps.append(rep)
        if len(reps) < 2:
            return
        rep = reps[0]
        union_bits = 0
        processed_all = -1  # intersection of each member's processed set
        for member in reps:
            bits = self._bits[member]
            union_bits |= bits
            processed_all &= bits & ~self._delta[member]
        tables = (
            self._copy_out,
            self._copy_in,
            self._loads,
            self._stores,
            self._geps,
            self._icalls,
        )
        for member in reps[1:]:
            self._parent[member] = rep
            for table in tables:
                moved = table[member]
                if moved:
                    target = table[rep]
                    if target is None:
                        table[rep] = moved
                    else:
                        target.update(moved)
                table[member] = None
            self._bits[member] = 0
            self._delta[member] = 0
            self.dirty.discard(member)
        self._bits[rep] = union_bits
        # A fact needs (re-)propagation from the representative unless
        # every member had already pushed it along its own edges.
        pending = union_bits & ~processed_all
        self._delta[rep] = pending
        if pending:
            self._touch(rep)
        self.stats.sccs_collapsed += 1
        self.stats.scc_nodes_merged += len(reps) - 1

    # -- results -------------------------------------------------------
    def _record_memory_stats(self) -> None:
        """Points-to representation bytes of this solve — the dense limb
        footprint (``ceil(bit_length / 8)``) summed over live union-find
        representatives; ``bytes_pts`` keeps the max across the base
        and heap-cloning-refined passes."""
        super()._record_memory_stats()
        parent = self._parent
        total = 0
        for nid, bits in enumerate(self._bits):
            if parent[nid] == nid and bits:
                total += (bits.bit_length() + 7) // 8
        self.stats.bytes_pts = max(self.stats.bytes_pts, total)

    def _node_pts(self, node: Node) -> Set[MemLoc]:
        nid = self._node_ids.get(node)
        if nid is None:
            return set()
        return set(self._iter_locs(self._bits[self._find(nid)]))

    def _final_pts(self) -> Dict[Node, Set[MemLoc]]:
        expanded: Dict[Node, Set[MemLoc]] = {}
        cache: Dict[int, Set[MemLoc]] = {}
        nodes = self._nodes
        for nid, node in enumerate(nodes):
            rep = self._find(nid)
            locs = cache.get(rep)
            if locs is None:
                locs = set(self._iter_locs(self._bits[rep]))
                cache[rep] = locs
            if locs:
                expanded[node] = locs
        return expanded


def _recursive_functions(module: Module) -> Set[str]:
    """Functions participating in call-graph cycles (direct calls only;
    indirect recursion is handled conservatively by the caller of this
    helper treating unresolved targets as non-cloneable)."""
    graph: Dict[str, Set[str]] = {name: set() for name in module.functions}
    for function in module.functions.values():
        for instr in function.instructions():
            if isinstance(instr, ins.Call) and not instr.is_indirect:
                if instr.callee in graph:
                    graph[function.name].add(instr.callee)
            elif isinstance(instr, ins.Call):
                # An indirect call may reach anything that has its address
                # taken; conservatively mark all address-taken functions.
                pass
    # Tarjan-free approach: iterative DFS cycle detection per node.
    recursive: Set[str] = set()
    for start in graph:
        stack = [start]
        seen: Set[str] = set()
        while stack:
            node = stack.pop()
            for succ in graph[node]:
                if succ == start:
                    recursive.add(start)
                    stack = []
                    break
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
    return recursive
