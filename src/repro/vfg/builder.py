"""Value-flow graph construction (the "Building VFG" phase, §3.2).

Builds the interprocedural VFG from a module in memory-SSA form.  The
distinguishing feature (and the paper's novelty in this phase) is the
treatment of stores, with three update flavors:

- **strong**: the pointer uniquely targets one concrete location — the
  old value flow is killed;
- **semi-strong**: the pointer provably derives from a dominating
  allocation site of the target object — the old flow is redirected to
  the allocation's *incoming* version, bypassing the
  undefined-at-allocation state (Figure 6);
- **weak**: everything else — old and new flows merge.

The semi-strong rule here carries one extra soundness guard on top of the
paper's description: the store's χ must consume exactly the version the
allocation's χ produced (no intervening indirect writes to the object
between allocation and store), which is the situation of Figure 6.

With ``address_taken=False`` the builder produces the Usher_TL graph:
address-taken memory collapses into a single summary node that every
store writes and every load reads, modelling "top-level variables only".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.ir import instructions as ins
from repro.ir.dominance import DominatorTree, loop_blocks
from repro.ir.function import Function
from repro.ir.module import Module
from repro.ir.values import Const, Value, Var
from repro.analysis.andersen import PointerResult
from repro.analysis.callgraph import CallGraph
from repro.analysis.memobjects import GLOBAL, HEAP, STACK, MemLoc
from repro.analysis.modref import ModRefResult
from repro.vfg.graph import (
    BOT,
    CALL,
    MEM_SUMMARY,
    RET,
    TOP,
    CheckSite,
    MemNode,
    Node,
    TopNode,
    VFG,
)


def is_concrete_loc(
    loc: MemLoc,
    module: Module,
    recursive_functions: "Set[str]",
    loops_by_function: Optional[Dict[str, Set[str]]] = None,
) -> bool:
    """Whether ``loc`` denotes exactly one concrete memory cell.

    Globals do; stack objects do unless their function is recursive or
    the allocation sits in a loop; heap objects never do (older
    instances of the abstract object may still be alive).
    """
    obj = loc.obj
    if obj.is_array:
        return False
    if obj.kind == GLOBAL:
        return True
    if obj.kind != STACK:
        return False
    if obj.func in recursive_functions:
        return False
    if obj.alloc_uid is None:
        return False
    instr = module.instr_by_uid().get(obj.alloc_uid)
    if instr is None or instr.block is None:
        return False
    owner = instr.block.function.name
    if loops_by_function is not None:
        loops = loops_by_function.get(owner, set())
    else:
        loops = loop_blocks(module.functions[owner])
    return instr.block.label not in loops


def build_vfg(
    module: Module,
    pointers: PointerResult,
    callgraph: CallGraph,
    modref: ModRefResult,
    address_taken: bool = True,
    semi_strong: bool = True,
    array_init: bool = False,
) -> VFG:
    """Build the VFG of ``module`` (which must be in memory-SSA form).

    ``array_init`` additionally enables the initialization-loop analysis
    for collapsed arrays (:mod:`repro.vfg.arrayinit` — an extension
    beyond the paper, from its stated future work)."""
    return _Builder(
        module, pointers, callgraph, modref, address_taken, semi_strong,
        array_init,
    ).build()


class _Builder:
    def __init__(
        self,
        module: Module,
        pointers: PointerResult,
        callgraph: CallGraph,
        modref: ModRefResult,
        address_taken: bool,
        semi_strong: bool,
        array_init: bool = False,
    ) -> None:
        self.module = module
        self.pointers = pointers
        self.callgraph = callgraph
        self.modref = modref
        self.address_taken = address_taken
        self.semi_strong = semi_strong
        self.array_init = array_init
        self.vfg = VFG(address_taken)
        #: version-0 nodes, in first-use order: ``build()`` roots them
        #: at F in this order, so F's out-edges (and the explanation
        #: chains that follow them) do not move with the hash seed
        self._undef_nodes: Dict[Node, None] = {}
        #: one node object per definition, so graph lookups hit by
        #: identity
        self._nodes: Dict[tuple, Node] = {}
        #: (func, var name, version) -> defining instruction
        self._top_defs: Dict[Tuple[str, str, int], ins.Instr] = {}
        self._dom: Dict[str, DominatorTree] = {}
        self._loops: Dict[str, Set[str]] = {}
        self._rets: Dict[str, List[Tuple[ins.Ret, Dict[MemLoc, ins.Mu]]]] = {}

    # ------------------------------------------------------------------
    def build(self) -> VFG:
        # Only the store rules (strong and semi-strong updates) read
        # dominators, loops and top-level definitions.
        for function in self.module.functions.values() if self.address_taken else ():
            self._dom[function.name] = DominatorTree(function)
            self._loops[function.name] = loop_blocks(function)
            for instr in function.instructions():
                for var in instr.defs():
                    self._top_defs[(function.name, var.name, var.version)] = instr
        for function in self.module.functions.values():
            self._build_function(function)
        self._seed_main_entry()
        for node in self._undef_nodes:
            self.vfg.add_edge(BOT, node)
            self.vfg.record_def(node, None, "undef")
        if self.array_init and self.address_taken:
            self._apply_array_init()
        self.vfg.seal()
        return self.vfg

    def _apply_array_init(self) -> None:
        """Cut the preheader flow into proven initialization loops'
        memory φs (see :mod:`repro.vfg.arrayinit`)."""
        from repro.vfg.arrayinit import find_array_init_loops

        loops = find_array_init_loops(
            self.module, self.pointers, self.modref.escaping
        )
        for loop in loops:
            phi_node = MemNode(loop.function, loop.loc, loop.phi_version)
            pre_node = MemNode(loop.function, loop.loc, loop.pre_version)
            self.vfg.stats.array_init_cuts += self.vfg.remove_edges_between(
                pre_node, phi_node
            )

    # ------------------------------------------------------------------
    # Node helpers
    # ------------------------------------------------------------------
    def _top(self, func: str, var: Var) -> TopNode:
        key = (func, var.name, var.version or 0)
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = TopNode(*key)
            if node.version == 0:
                self._undef_nodes[node] = None
        return node

    def _mem(self, func: str, loc: MemLoc, version: Optional[int]) -> Node:
        if not self.address_taken:
            return MEM_SUMMARY
        key = (func, loc, version or 0)
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = MemNode(*key)
            if node.version == 0:
                self._undef_nodes[node] = None
        return node

    def _val(self, func: str, value: Value) -> Node:
        if isinstance(value, Const):
            return TOP
        return self._top(func, value)

    # ------------------------------------------------------------------
    def _seed_main_entry(self) -> None:
        """Root the program-entry state.

        ``main``'s formals and virtual input parameters have no caller:
        globals start in their C-initialized state; non-global locations
        (not yet allocated when ``main`` starts) are unreadable, hence ⊤.
        """
        if "main" not in self.module.functions:
            return
        main = self.module.functions["main"]
        for param in main.params:
            node = TopNode("main", param, 1)
            self.vfg.add_edge(TOP, node)
            self.vfg.record_def(node, None, "param")
        if not self.address_taken:
            # The summary memory absorbs the globals' initial states.
            for glob in self.module.globals.values():
                root = TOP if glob.initialized else BOT
                self.vfg.add_edge(root, MEM_SUMMARY)
            return
        for loc, version in main.entry_versions.items():
            node = self._mem("main", loc, version)
            if loc.obj.kind == GLOBAL and not loc.obj.initialized:
                self.vfg.add_edge(BOT, node)
            else:
                self.vfg.add_edge(TOP, node)
            self.vfg.record_def(node, None, "entry")

    # ------------------------------------------------------------------
    def _build_function(self, function: Function) -> None:
        func = function.name
        for block in function.blocks:
            if self.address_taken:
                for mphi in block.mem_phis:
                    new = self._mem(func, mphi.loc, mphi.new_version)
                    self.vfg.record_def(new, None, "memphi")
                    for version in mphi.incomings.values():
                        self.vfg.add_edge(self._mem(func, mphi.loc, version), new)
            for instr in block.instrs:
                self._build_instr(func, instr)

    def _build_instr(self, func: str, instr: ins.Instr) -> None:
        vfg = self.vfg
        if isinstance(instr, ins.ConstCopy):
            dst = self._top(func, instr.dst)
            vfg.add_edge(TOP, dst)
            vfg.record_def(dst, instr.uid, "const")
        elif isinstance(instr, ins.Copy):
            dst = self._top(func, instr.dst)
            vfg.add_edge(self._val(func, instr.src), dst)
            vfg.record_def(dst, instr.uid, "copy")
        elif isinstance(instr, ins.UnOp):
            dst = self._top(func, instr.dst)
            vfg.add_edge(self._val(func, instr.operand), dst)
            vfg.record_def(dst, instr.uid, "unop")
        elif isinstance(instr, ins.BinOp):
            dst = self._top(func, instr.dst)
            vfg.add_edge(self._val(func, instr.lhs), dst)
            vfg.add_edge(self._val(func, instr.rhs), dst)
            vfg.record_def(dst, instr.uid, "binop")
        elif isinstance(instr, ins.Gep):
            dst = self._top(func, instr.dst)
            vfg.add_edge(self._val(func, instr.base), dst)
            vfg.add_edge(self._val(func, instr.offset), dst)
            vfg.record_def(dst, instr.uid, "gep")
        elif isinstance(instr, (ins.GlobalAddr, ins.FuncAddr)):
            dst = self._top(func, instr.dst)
            vfg.add_edge(TOP, dst)
            vfg.record_def(dst, instr.uid, "addr")
        elif isinstance(instr, ins.Alloc):
            self._build_alloc(func, instr)
        elif isinstance(instr, ins.Load):
            self._build_load(func, instr)
        elif isinstance(instr, ins.Store):
            self._build_store(func, instr)
        elif isinstance(instr, ins.Call):
            self._build_call(func, instr)
        elif isinstance(instr, ins.Phi):
            dst = self._top(func, instr.dst)
            for value in instr.incomings.values():
                vfg.add_edge(self._val(func, value), dst)
            vfg.record_def(dst, instr.uid, "phi")
        # Branch / Jump / Ret / Output define nothing.
        self._collect_checks(func, instr)

    def _collect_checks(self, func: str, instr: ins.Instr) -> None:
        critical = getattr(instr, "critical_uses", None)
        if critical is None:
            return
        for operand in critical():
            if isinstance(operand, Var):
                node: Optional[Node] = self._top(func, operand)
            else:
                node = None  # constants are always defined
            self.vfg.check_sites.append(
                CheckSite(instr.uid, func, node, str(operand))
            )

    # ------------------------------------------------------------------
    def _build_alloc(self, func: str, instr: ins.Alloc) -> None:
        vfg = self.vfg
        dst = self._top(func, instr.dst)
        vfg.add_edge(TOP, dst)  # the pointer itself is defined
        vfg.record_def(dst, instr.uid, "alloc")
        init_root = TOP if instr.initialized else BOT
        if not self.address_taken:
            vfg.add_edge(init_root, MEM_SUMMARY)
            return
        for chi in instr.chis:
            new = self._mem(func, chi.loc, chi.new_version)
            old = self._mem(func, chi.loc, chi.old_version)
            vfg.add_edge(init_root, new)
            vfg.add_edge(old, new)
            vfg.record_def(new, instr.uid, "chi_alloc")
        if instr.kind == HEAP and not instr.is_array:
            vfg.stats.heap_alloc_sites += 1

    def _build_load(self, func: str, instr: ins.Load) -> None:
        vfg = self.vfg
        dst = self._top(func, instr.dst)
        vfg.record_def(dst, instr.uid, "load")
        if not self.address_taken:
            vfg.add_edge(MEM_SUMMARY, dst)
            return
        for mu in instr.mus:
            vfg.add_edge(self._mem(func, mu.loc, mu.version), dst)

    def _build_store(self, func: str, instr: ins.Store) -> None:
        vfg = self.vfg
        vfg.stats.stores_total += 1
        value_node = self._val(func, instr.value)
        if not self.address_taken:
            vfg.add_edge(value_node, MEM_SUMMARY)
            return
        singleton = len(instr.chis) == 1
        strong_done = False
        singleton_weak = False
        for chi in instr.chis:
            new = self._mem(func, chi.loc, chi.new_version)
            old = self._mem(func, chi.loc, chi.old_version)
            vfg.add_edge(value_node, new)
            if singleton and self._strong_ok(func, chi.loc):
                # Strong update: the old flow is killed.
                vfg.record_def(new, instr.uid, "chi_store_strong")
                strong_done = True
                continue
            bypass = self._semi_strong_target(func, instr, chi)
            if bypass is not None:
                # Semi-strong update: bypass the allocation's fresh state.
                vfg.add_edge(self._mem(func, chi.loc, bypass), new)
                vfg.record_def(new, instr.uid, "chi_store_semi")
                vfg.stats.semi_strong_applied += 1
            else:
                vfg.add_edge(old, new)
                vfg.record_def(new, instr.uid, "chi_store_weak")
                if singleton:
                    singleton_weak = True
        if strong_done:
            vfg.stats.stores_strong += 1
        elif singleton_weak or (singleton and not strong_done):
            vfg.stats.stores_singleton_weak += 1

    def _strong_ok(self, func: str, loc: MemLoc) -> bool:
        """Whether the location is a unique concrete cell (strong update).

        Globals are; stack objects are unless their function is recursive
        (several frames alive) or the allocation sits in a loop; heap
        objects never are (old instances stay alive).
        """
        return is_concrete_loc(
            loc,
            self.module,
            self.callgraph.recursive,
            self._loops,
        )

    def _alloc_instr(self, uid: Optional[int]) -> Optional[ins.Alloc]:
        if uid is None:
            return None
        if not hasattr(self, "_by_uid"):
            self._by_uid = self.module.instr_by_uid()
        instr = self._by_uid.get(uid)
        return instr if isinstance(instr, ins.Alloc) else None

    def _semi_strong_target(
        self, func: str, store: ins.Store, chi: ins.Chi
    ) -> Optional[int]:
        """The version to redirect the old flow to, or ``None``.

        Applicable when (a) the target object is allocated in this very
        function, (b) the store's pointer provably derives from the
        allocation's result (the paper's "ẑ dominates x̂ in the VFG"),
        and (c) the store consumes exactly the version the allocation
        defined — so the only state bypassed is the allocation's fresh
        (possibly undefined) contents, which the store overwrites.
        """
        if not self.semi_strong:
            return None
        obj = chi.loc.obj
        if obj.is_array:
            # A collapsed array location stands for many cells; the
            # store overwrites only one, so the allocation's undefined
            # state cannot be bypassed for the others.
            return None
        if obj.func != func or obj.alloc_uid is None:
            return None
        alloc = self._alloc_instr(obj.alloc_uid)
        if alloc is None or alloc.block is None:
            return None
        if alloc.block.function.name != func:
            return None
        alloc_chi = next((c for c in alloc.chis if c.loc == chi.loc), None)
        if alloc_chi is None:
            return None
        if alloc_chi.new_version != chi.old_version:
            return None
        if not isinstance(store.ptr, Var):
            return None
        if not self._derives_only_from(func, store.ptr, alloc.dst, {}):
            return None
        if not self._dom[func].instr_dominates(alloc, store):
            return None
        return alloc_chi.old_version

    def _derives_only_from(
        self,
        func: str,
        v: Var,
        source: Var,
        state: Dict[Tuple[str, int], bool],
    ) -> bool:
        """Whether every value of ``v`` flows through top-level variable
        ``source`` (the VFG-dominance condition of §3.2), following only
        top-level copies, geps and φs.

        Cycles (φ loops) are resolved optimistically — a cycle introduces
        no value source of its own.  ``state`` memoizes the verdict per
        variable; callers pass a fresh ``{}`` (a closure over it would
        be a reference cycle holding the builder).
        """
        if v.name == source.name and v.version == source.version:
            return True
        key = (v.name, v.version or 0)
        if key in state:
            return state[key]
        state[key] = True  # optimistic for cycles
        instr = self._top_defs.get((func, v.name, v.version or 0))
        if isinstance(instr, ins.Copy) and isinstance(instr.src, Var):
            result = self._derives_only_from(func, instr.src, source, state)
        elif isinstance(instr, ins.Gep) and isinstance(instr.base, Var):
            result = self._derives_only_from(func, instr.base, source, state)
        elif isinstance(instr, ins.Phi):
            result = all(
                isinstance(value, Var)
                and self._derives_only_from(func, value, source, state)
                for value in instr.incomings.values()
            )
        else:
            result = False
        state[key] = result
        return result

    def _returns(self, callee: str) -> List[Tuple[ins.Ret, Dict[MemLoc, ins.Mu]]]:
        """``callee``'s returns, each with its μs indexed by location
        (the first μ of a location wins)."""
        rets = self._rets.get(callee)
        if rets is None:
            rets = []
            for instr in self.module.functions[callee].instructions():
                if isinstance(instr, ins.Ret):
                    mus: Dict[MemLoc, ins.Mu] = {}
                    for mu in instr.mus:
                        mus.setdefault(mu.loc, mu)
                    rets.append((instr, mus))
            self._rets[callee] = rets
        return rets

    # ------------------------------------------------------------------
    def _build_call(self, func: str, instr: ins.Call) -> None:
        vfg = self.vfg
        callees = sorted(self.callgraph.callees.get(instr.uid, ()))
        cs = instr.uid

        if instr.dst is not None:
            dst = self._top(func, instr.dst)
            vfg.record_def(dst, instr.uid, "call")
            if not callees:
                vfg.add_edge(TOP, dst)

        #: caller-side current version per location at this call site
        caller_version: Dict[MemLoc, int] = {}
        for mu in instr.mus:
            caller_version[mu.loc] = mu.version or 0
        for chi in instr.chis:
            caller_version[chi.loc] = chi.old_version or 0

        # Each callee's mod set, lifted to this call site once.
        callee_mods = (
            {
                name: self.modref._lift(self.modref.mod[name], name, cs)
                for name in callees
            }
            if self.address_taken
            else {}
        )
        for callee_name in callees:
            callee = self.module.functions[callee_name]
            # Actual arguments -> formal parameters.
            for formal, actual in zip(callee.params, instr.args):
                formal_node = TopNode(callee_name, formal, 1)
                vfg.add_edge(self._val(func, actual), formal_node, CALL, cs)
                vfg.record_def(formal_node, None, "param")
            rets = self._returns(callee_name)
            # Return value -> call result.
            if instr.dst is not None:
                dst = self._top(func, instr.dst)
                for ret, _ in rets:
                    if ret.value is not None:
                        vfg.add_edge(
                            self._val(callee_name, ret.value), dst, RET, cs
                        )
            if not self.address_taken:
                continue
            # Virtual input parameters.
            for loc, version in callee.entry_versions.items():
                if loc in caller_version:
                    entry_node = self._mem(callee_name, loc, version)
                    vfg.add_edge(
                        self._mem(func, loc, caller_version[loc]),
                        entry_node,
                        CALL,
                        cs,
                    )
                    if entry_node not in vfg.def_site:
                        vfg.record_def(entry_node, None, "entry")
            # Virtual output parameters.
            callee_mod = callee_mods[callee_name]
            for chi in instr.chis:
                if chi.loc not in callee_mod:
                    continue
                new = self._mem(func, chi.loc, chi.new_version)
                vfg.record_def(new, instr.uid, "chi_call")
                for _, mus in rets:
                    mu = mus.get(chi.loc)
                    if mu is not None:
                        vfg.add_edge(
                            self._mem(callee_name, chi.loc, mu.version),
                            new,
                            RET,
                            cs,
                        )

        if self.address_taken:
            # A χ'd location not modified by every callee (or with no
            # resolved callee) keeps its incoming value on those paths.
            for chi in instr.chis:
                new = self._mem(func, chi.loc, chi.new_version)
                if (instr.uid, "chi_call") != self.vfg.def_site.get(new, (None, None)):
                    vfg.record_def(new, instr.uid, "chi_call")
                needs_passthrough = not callees or any(
                    chi.loc not in mod for mod in callee_mods.values()
                )
                if needs_passthrough:
                    vfg.add_edge(
                        self._mem(func, chi.loc, chi.old_version), new
                    )
