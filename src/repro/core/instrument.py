"""Guided instrumentation (Figure 7) — the paper's key contribution.

Given the VFG and the resolved definedness Γ, this generator computes
the minimal sound instrumentation-item sets Σ.  The deduction rules of
Figure 7 are realised as a demand-driven backward walk:

- a runtime check is emitted at each critical use of a ⊥ value
  ([⊥-Check]); ⊤ uses need no check ([⊤-Check]);
- every ⊥ node whose value can reach such a check must have its shadow
  materialised: its shadow statement is emitted and its predecessors are
  demanded in turn (the ⊥-rules);
- a ⊤ node demanded as a predecessor is handled with a *strong update*
  of its shadow wherever the rules permit — ``σ(x) := T`` for top-level
  definitions ([⊤-Assign]/[⊤-Para]), ``σ(*x) := T`` at allocation sites
  ([⊤-Alloc]) and strongly-updated stores ([⊤-Store_SU]); at weak or
  semi-strong stores the demand is forwarded to the incoming memory
  state instead ([⊤-Store_WU/SemiSU]), never reading the (untracked)
  stored value;
- virtual nodes (φ, virtual parameters/returns) emit no code of their
  own — shadow values flow through shadow memory — and simply forward
  the demand ([Phi]/[VPara]/[VRet]).

With ``opt1=True`` the generator applies Opt I (value-flow
simplification, §3.5.1): a ⊥ top-level node defined by copies and
non-bitwise operations receives its shadow directly as the conjunction
of its Must-Flow-from-Closure's ⊥ sources, eliding every interior
propagation of the closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.ir import instructions as ins
from repro.ir.module import Module
from repro.ir.values import Value, Var
from repro.analysis.callgraph import CallGraph
from repro.core.plan import (
    AndShadowVar,
    BinOpShadow,
    Check,
    CopyShadowVar,
    InstrumentationPlan,
    LoadShadow,
    PhiShadow,
    RelayIn,
    RelayOut,
    SetShadowMem,
    SetShadowVar,
    StoreShadow,
    UnOpShadow,
    VarSlot,
    var_slot,
)
from repro.vfg.definedness import Definedness
from repro.vfg.graph import (
    MemNode,
    Node,
    Root,
    SummaryNode,
    TopNode,
    VFG,
)
from repro.obs.trace import TRACE
from repro.vfg.mfc import compute_mfc

_EXPANDABLE = frozenset({"copy", "unop", "binop", "gep"})


@dataclass
class GuidedStats:
    """Metrics of one guided-instrumentation run."""

    demanded_nodes: int = 0
    checks_emitted: int = 0
    checks_eliminated: int = 0
    mfcs_simplified: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


def build_guided_plan(
    module: Module,
    vfg: VFG,
    gamma: Definedness,
    callgraph: CallGraph,
    opt1: bool = False,
    name: str = "usher",
) -> Tuple[InstrumentationPlan, GuidedStats]:
    """Run the Figure 7 rules; return the plan and statistics."""
    generator = _Generator(module, vfg, gamma, callgraph, opt1, name)
    if opt1:
        # Opt I (value-flow simplification) is applied node-by-node
        # during emission, so the whole guided pass is its span.
        with TRACE.span("opt1", config=name):
            return generator.run()
    return generator.run()


class _Generator:
    def __init__(
        self,
        module: Module,
        vfg: VFG,
        gamma: Definedness,
        callgraph: CallGraph,
        opt1: bool,
        name: str,
    ) -> None:
        self.module = module
        self.vfg = vfg
        self.gamma = gamma
        self.callgraph = callgraph
        self.opt1 = opt1
        self.plan = InstrumentationPlan(name)
        self.stats = GuidedStats()
        self.by_uid = module.instr_by_uid()
        self._node_table = vfg.node_table()
        self._words = vfg.columns()
        self._demanded: Set[Node] = set()
        self._work: List[Node] = []

    # ------------------------------------------------------------------
    def run(self) -> Tuple[InstrumentationPlan, GuidedStats]:
        for site in self.vfg.check_sites:
            if site.node is None:
                continue
            if self.gamma.is_defined(site.node):
                self.stats.checks_eliminated += 1  # [⊤-Check]
                continue
            assert isinstance(site.node, TopNode)
            slot = (site.node.name, site.node.version)
            self.plan.add_pre(site.instr_uid, Check(slot, site.instr_uid))
            self.stats.checks_emitted += 1  # [⊥-Check]
            self.demand(site.node)
        while self._work:
            node = self._work.pop()
            self._emit(node)
        self.stats.demanded_nodes = len(self._demanded)
        return self.plan, self.stats

    def demand(self, node: Node) -> None:
        if isinstance(node, Root) or node in self._demanded:
            return
        self._demanded.add(node)
        self._work.append(node)

    def _demand_deps(self, node: Node, mem_only: bool = False) -> None:
        """Demand ``node``'s VFG predecessors (only the memory ones with
        ``mem_only``), in ``deps_of`` order: :meth:`demand`, inlined,
        over the id-level rows."""
        nid = self.vfg.node_id(node)
        if nid is None:
            return
        table = self._node_table
        demanded = self._demanded
        work = self._work
        words = self._words
        for row in self.vfg.row_ids_into(nid):
            src = table[words[row]]
            if mem_only and isinstance(src, TopNode):
                continue
            if isinstance(src, Root) or src in demanded:
                continue
            demanded.add(src)
            work.append(src)

    # ------------------------------------------------------------------
    def _emit(self, node: Node) -> None:
        if isinstance(node, SummaryNode):
            self._emit_summary(node)
        elif self.gamma.is_defined(node):
            self._emit_top(node)
        else:
            self._emit_bot(node)

    # -------------------------- ⊤-rules -------------------------------
    def _emit_top(self, node: Node) -> None:
        uid, kind = self.vfg.def_site.get(node, (None, "unknown"))
        if isinstance(node, TopNode):
            slot = (node.name, node.version)
            if kind == "param" or uid is None:
                # [⊤-Para] (and entry-defined values in general).
                self.plan.add_entry(node.func, SetShadowVar(slot, True))
            else:
                # [⊤-Assign]: strong update at the defining statement.
                self.plan.add_post(uid, SetShadowVar(slot, True))
            return
        assert isinstance(node, MemNode)
        if kind == "chi_alloc":
            alloc = self.by_uid[uid]
            assert isinstance(alloc, ins.Alloc)
            # [⊤-Alloc]: σ(*x) := T for the whole fresh object.
            self.plan.add_post(
                uid, SetShadowMem(var_slot(alloc.dst), True, whole_object=True)
            )
        elif kind == "chi_store_strong":
            store = self.by_uid[uid]
            assert isinstance(store, ins.Store)
            # [⊤-Store_SU]: σ(*x) := T.
            self.plan.add_post(
                uid, SetShadowMem(var_slot(store.ptr), True, whole_object=False)
            )
        elif kind in ("chi_store_weak", "chi_store_semi"):
            # [⊤-Store_WU/SemiSU]: no strong update is safe; the demand
            # moves to the incoming memory state (Σρm = Σρn).
            self._demand_deps(node, mem_only=True)
        else:
            # [VPara]/[VRet]/[Phi]/entry: virtual — forward the demand.
            self._demand_deps(node, mem_only=True)

    # -------------------------- ⊥-rules -------------------------------
    def _emit_bot(self, node: Node) -> None:
        uid, kind = self.vfg.def_site.get(node, (None, "unknown"))
        if isinstance(node, TopNode):
            self._emit_bot_top(node, uid, kind)
            return
        assert isinstance(node, MemNode)
        if kind == "chi_alloc":
            alloc = self.by_uid[uid]
            assert isinstance(alloc, ins.Alloc)
            # [⊥-Alloc]: poison/bless the fresh object, track the old
            # version as well.
            self.plan.add_post(
                uid,
                SetShadowMem(
                    var_slot(alloc.dst), alloc.initialized, whole_object=True
                ),
            )
            self._demand_deps(node)
        elif kind in ("chi_store_strong", "chi_store_weak", "chi_store_semi"):
            store = self.by_uid[uid]
            assert isinstance(store, ins.Store)
            # [⊥-Store_*]: σ(*x) := σ(y), plus the old flow when present.
            if isinstance(store.ptr, Var):
                self.plan.add_post(
                    uid,
                    StoreShadow(var_slot(store.ptr), _slot(store.value)),
                )
            self._demand_deps(node)
        else:
            # [VPara]/[VRet]/[Phi]/entry/undef mem nodes: virtual.
            self._demand_deps(node)

    def _emit_bot_top(self, node: TopNode, uid: Optional[int], kind: str) -> None:
        slot = (node.name, node.version)
        func = node.func
        if kind == "undef":
            # A read-before-write variable: poisoned from function entry.
            self.plan.add_entry(func, SetShadowVar(slot, False))
            return
        if kind == "param":
            # [⊥-Para]: relay the actual's shadow through σ_g at every
            # call site.
            function = self.module.functions[func]
            index = function.params.index(node.name)
            self.plan.add_entry(func, RelayIn(index, slot))
            for call_uid, targets in self.callgraph.callees.items():
                if func in targets:
                    call = self.by_uid[call_uid]
                    assert isinstance(call, ins.Call)
                    if index < len(call.args):
                        self.plan.add_pre(
                            call_uid, RelayOut(index, _slot(call.args[index]))
                        )
            self._demand_deps(node)
            return
        if kind in _EXPANDABLE and self.opt1 and self._emit_simplified(node, uid):
            return
        instr = self.by_uid.get(uid) if uid is not None else None
        if kind == "copy" and isinstance(instr, ins.Copy):
            self._unary(uid, instr.dst, instr.src)
            self._demand_deps(node)
        elif kind == "unop" and isinstance(instr, ins.UnOp):
            if isinstance(instr.operand, Var):
                self.plan.add_post(
                    uid, UnOpShadow(slot, instr.op, instr.operand)
                )
            else:
                self.plan.add_post(uid, SetShadowVar(slot, True))
            self._demand_deps(node)
        elif kind == "binop" and isinstance(instr, ins.BinOp):
            if instr.uses():
                self.plan.add_post(
                    uid, BinOpShadow(slot, instr.op, instr.lhs, instr.rhs)
                )
            else:
                self.plan.add_post(uid, SetShadowVar(slot, True))
            self._demand_deps(node)
        elif kind == "gep" and isinstance(instr, ins.Gep):
            self._nary(uid, instr.dst, (instr.base, instr.offset))
            self._demand_deps(node)
        elif kind == "load" and isinstance(instr, ins.Load):
            # [⊥-Load]: σ(x) := σ(*y); all indirect uses tracked.
            ptr_slot = _slot(instr.ptr)
            if ptr_slot is not None:
                self.plan.add_post(uid, LoadShadow(slot, ptr_slot))
            else:
                self.plan.add_post(uid, SetShadowVar(slot, True))
            self._demand_deps(node)
        elif kind == "call" and isinstance(instr, ins.Call):
            # [⊥-Ret]: relay the returned shadow through σ_g.
            self.plan.add_post(uid, RelayIn("ret", slot))
            for callee_name in self.callgraph.callees.get(uid, ()):
                callee = self.module.functions[callee_name]
                for ret in callee.instructions():
                    if isinstance(ret, ins.Ret):
                        self.plan.add_pre(
                            ret.uid, RelayOut("ret", _slot(ret.value))
                        )
            self._demand_deps(node)
        elif kind == "phi" and isinstance(instr, ins.Phi):
            incomings = tuple(
                (label, _slot(value))
                for label, value in sorted(instr.incomings.items())
            )
            self.plan.add_post(uid, PhiShadow(slot, incomings))
            self._demand_deps(node)
        else:
            # const/addr/alloc results are structurally ⊤; reaching here
            # means Γ was degraded (e.g. Opt II's rewired Γ) — a
            # strong update is always sound for them.
            self.plan.add_post(uid, SetShadowVar(slot, True))

    def _emit_simplified(self, node: TopNode, uid: Optional[int]) -> bool:
        """Opt I: σ(sink) := ∧ σ(⊥-sources of its MFC).

        Returns ``False`` (caller falls back to the plain Figure 7 rule)
        when the closure degenerates to the sink itself: a bitwise
        operation, where bypassing operand shadows would be unsound at
        bit-level precision (§4.1), or a mask-preserving definition
        (copy, ``~``), where the conjunction's spread would
        over-approximate the exact mask (the grouping rule,
        :func:`repro.vfg.mfc.compute_mfc`).
        """
        mfc = compute_mfc(self.vfg, self.module, node, grouping=True)
        if node in mfc.sources:
            return False
        bot_sources = [
            s
            for s in sorted(mfc.sources, key=str)
            if isinstance(s, TopNode) and not self.gamma.is_defined(s)
        ]
        slot = (node.name, node.version)
        op = AndShadowVar(slot, tuple((s.name, s.version) for s in bot_sources))
        if uid is not None:
            self.plan.add_post(uid, op)
        else:
            self.plan.add_entry(node.func, op)
        if mfc.interior:
            self.stats.mfcs_simplified += 1
        for source in bot_sources:
            self.demand(source)
        return True

    # -------------------------- TL summary ----------------------------
    def _emit_summary(self, node: SummaryNode) -> None:
        """Usher_TL: address-taken memory is not analysed — once any
        load's value is demanded, every store and allocation in the
        program must propagate shadow memory, as in full
        instrumentation."""
        for instr in self.module.instructions():
            if isinstance(instr, ins.Store):
                ptr_slot = _slot(instr.ptr)
                if ptr_slot is None:
                    continue
                self.plan.add_post(
                    instr.uid,
                    StoreShadow(ptr_slot, _slot(instr.value)),
                )
                if isinstance(instr.value, Var):
                    self.demand(
                        TopNode(
                            instr.block.function.name,
                            instr.value.name,
                            instr.value.version or 0,
                        )
                    )
            elif isinstance(instr, ins.Alloc):
                self.plan.add_post(
                    instr.uid,
                    SetShadowMem(
                        var_slot(instr.dst), instr.initialized, whole_object=True
                    ),
                )

    # ------------------------------------------------------------------
    def _unary(self, uid: int, dst: Var, src: Value) -> None:
        slot = _slot(src)
        if slot is None:
            self.plan.add_post(uid, SetShadowVar(var_slot(dst), True))
        else:
            self.plan.add_post(uid, CopyShadowVar(var_slot(dst), slot))

    def _nary(self, uid: int, dst: Var, values) -> None:
        slots = tuple(s for s in (_slot(v) for v in values) if s is not None)
        if not slots:
            self.plan.add_post(uid, SetShadowVar(var_slot(dst), True))
        else:
            self.plan.add_post(uid, AndShadowVar(var_slot(dst), slots))


def _slot(value: Optional[Value]) -> Optional[VarSlot]:
    if isinstance(value, Var):
        return var_slot(value)
    return None
