"""Opt II: redundant check elimination (Algorithm 1, §3.5.2).

If an undefined value flowing into a critical statement ``s`` via a
top-level variable ``x`` would be detected there, its rippling effect on
*later* (dominated) statements is redundant: any node ``r`` outside
``x``'s must-flow-from closure that consumes a closure value, and whose
defining statement is dominated by ``s``, can have those incoming edges
redirected to ⊤.  The rewiring lives in a :class:`VFGOverlay` over the
shared VFG, which is never written.  Re-resolving Γ on the rewired view
eliminates the dominated checks; guided instrumentation is then
performed on the *original* VFG with the new Γ so that every shadow
value remains correctly initialized (Algorithm 1, line 9 note).

Bit-level adjustment (§4.1 applied to Algorithm 1): a consumer from
which a bitwise operation is still flow-reachable is never redirected
— see :func:`_feeds_bitwise`.  Bitwise operators launder undefined
bits, so a check behind one reports a genuinely new definedness fact
rather than a ripple of the dominating check; redirecting its inputs
to ⊤ would silently drop that exact report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.ir import instructions as ins
from repro.ir.dominance import DominatorTree, loop_blocks
from repro.ir.module import Module
from repro.analysis.callgraph import CallGraph
from repro.vfg.builder import is_concrete_loc
from repro.vfg.definedness import Definedness
from repro.vfg.graph import (
    BOT, TOP, GraphView, MemNode, Root, TopNode, VFG, VFGOverlay,
)
from repro.vfg.mfc import _BITWISE_OPS, closure_ids
from repro.vfg.tabulation import resolve_gamma


@dataclass
class Opt2Stats:
    redirected_nodes: int = 0
    sites_processed: int = 0
    interprocedural_redirects: int = 0

    def as_dict(self) -> dict:
        """JSON-ready snapshot of the counters."""
        return {
            "redirected_nodes": self.redirected_nodes,
            "sites_processed": self.sites_processed,
            "interprocedural_redirects": self.interprocedural_redirects,
        }


def redundant_check_elimination(
    module: Module,
    vfg: VFG,
    callgraph: CallGraph,
    context_depth: int = 1,
    resolver: str = "callstring",
    interprocedural: bool = False,
) -> "tuple[Definedness, Opt2Stats]":
    """Run Algorithm 1; return the refined Γ and statistics.

    With ``interprocedural=True`` (an extension beyond the paper, in the
    spirit of its "new VFG-based optimizations" future work), dominance
    of the check over a consumer in *another* function is established
    when that function is reachable only through call sites dominated by
    the check (transitively)."""
    rewired = VFGOverlay(vfg)
    by_uid = module.instr_by_uid()
    dts: Dict[str, DominatorTree] = {
        name: DominatorTree(f) for name, f in module.functions.items()
    }
    loops = {name: loop_blocks(f) for name, f in module.functions.items()}
    stats = Opt2Stats()
    # Lines 3-8 run on node ids: the closure, consumer and redirect
    # sets are int sets, def sites are read from id-indexed columns.
    table = rewired.node_table()
    uids, kinds = rewired.def_columns()
    words = rewired.columns()
    top = rewired.node_id(TOP)
    roots = {nid for nid in (top, rewired.node_id(BOT)) if nid is not None}
    redirected: Set[int] = set()
    barred = _feeds_bitwise(rewired, by_uid)
    # ⊤ joins every closure fed by a constant, and its out-edges span
    # the whole program.  Intraprocedurally only a consumer in the
    # check's own function can be redirected, so ⊤'s consumers are
    # indexed once by that function and Line 5 reads one bucket.
    top_consumers = (
        None if interprocedural else _top_consumers_by_function(rewired, by_uid)
    )
    #: load id -> ids of its μ'd concrete locations' versions (Line 4)
    load_mems: Dict[int, List[int]] = {}

    for site in vfg.check_sites:
        if not isinstance(site.node, TopNode):
            continue
        check_instr = by_uid.get(site.instr_uid)
        check_block = check_instr.block if check_instr is not None else None
        if check_block is None:
            continue
        stats.sites_processed += 1
        check_func = check_block.function.name
        sink = rewired.node_id(site.node)
        if sink is None:
            continue  # no edge touches it: no consumers

        # Line 3: the must-flow-from closure of x.
        closure, _ = closure_ids(rewired, by_uid, sink)

        # Line 4: add μ'd concrete locations of loads in the closure.
        for nid in list(closure):
            if kinds[nid] != "load":
                continue
            mems = load_mems.get(nid)
            if mems is None:
                mems = load_mems[nid] = _load_mems(
                    rewired, by_uid.get(uids[nid]), table[nid].func, module,
                    callgraph, loops,
                )
            closure.update(mems)

        # Line 5: consumers of closure values outside the closure.
        consumers: Set[int] = set()
        for nid in closure:
            if top_consumers is not None and nid == top:
                consumers.update(top_consumers.get(check_func, set()) - closure)
                continue
            for row in rewired.row_ids_out_of(nid):
                dst = words[row + 1]
                if dst not in closure and dst not in roots:
                    consumers.add(dst)

        # Lines 6-8: redirect dominated consumers to ⊤.
        for r in consumers:
            if r in barred:
                continue  # still feeds a bitwise op (§4.1 adjustment)
            r_uid = uids[r]
            cross_function = False
            if r_uid is None:
                # Entry-defined consumers (formals, virtual inputs): the
                # interprocedural extension may establish that their
                # whole function executes only after the check.
                if not interprocedural or kinds[r] not in ("param", "entry"):
                    continue
                r_func = getattr(table[r], "func", None)
                if r_func is None or r_func == check_func:
                    continue
                if not _dominates_function(
                    r_func, check_func, check_instr, callgraph, by_uid, dts, {}
                ):
                    continue
                cross_function = True
            else:
                r_instr = by_uid.get(r_uid)
                r_block = r_instr.block if r_instr is not None else None
                if r_block is None:
                    continue
                r_func = r_block.function.name
                cross_function = r_func != check_func
                if not cross_function:
                    dt = dts[check_func]
                    if not dt.instr_dominates(check_instr, r_instr):
                        continue
                else:
                    if not interprocedural:
                        continue  # the paper's conservative choice
                    if not _dominates_function(
                        r_func, check_func, check_instr, callgraph, by_uid, dts, {}
                    ):
                        continue
            if rewired.remove_rows_into(r, closure):
                rewired.redirect_to_top(r)
                if top is None:
                    # The first edge out of ⊤ interned it.
                    top = rewired.node_id(TOP)
                    table = rewired.node_table()
                    roots.add(top)
                    uids, kinds = rewired.def_columns()
                if top_consumers is not None:
                    top_consumers.setdefault(r_func, set()).add(r)
                redirected.add(r)
                if cross_function:
                    stats.interprocedural_redirects += 1

    stats.redirected_nodes = len(redirected)
    return resolve_gamma(rewired, resolver, context_depth), stats


def _load_mems(
    vfg: GraphView, load, func: str, module: Module, callgraph, loops
) -> List[int]:
    """Line 4's additions for one load in the closure: the ids of the
    versions of its μ'd locations that are concrete cells.  ``func`` is
    the load's function, whose memory SSA names those versions."""
    if not isinstance(load, ins.Load):
        return []
    mems = []
    for mu in load.mus:
        if is_concrete_loc(mu.loc, module, callgraph.recursive, loops):
            nid = vfg.node_id(MemNode(func, mu.loc, mu.version or 0))
            if nid is not None:  # without edges it has no consumers
                mems.append(nid)
    return mems


def _top_consumers_by_function(vfg: GraphView, by_uid) -> Dict[str, Set[int]]:
    """The ids of ⊤'s non-root consumers, bucketed by the function of
    their defining instruction (how Lines 6-8 resolve a consumer's
    function).

    Consumers without a defining instruction are left out: Lines 6-8
    never redirect them intraprocedurally."""
    buckets: Dict[str, Set[int]] = {}
    top = vfg.node_id(TOP)
    if top is None:
        return buckets
    table = vfg.node_table()
    uids, _ = vfg.def_columns()
    words = vfg.columns()
    for row in vfg.row_ids_out_of(top):
        dst = words[row + 1]
        instr = by_uid.get(uids[dst]) if uids[dst] is not None else None
        block = instr.block if instr is not None else None
        if block is not None and not isinstance(table[dst], Root):
            buckets.setdefault(block.function.name, set()).add(dst)
    return buckets


def _feeds_bitwise(vfg: GraphView, by_uid) -> Set[int]:
    """Ids of the nodes from which a bitwise binary operation is
    flow-reachable.

    §4.1's bit-level adjustment for Algorithm 1: ``&``, ``|``, ``^``
    and shifts *launder* undefined bits — their result's mask is not a
    function of the operands' masks alone, so a report downstream of a
    bitwise operation is a genuinely new definedness fact, not a
    rippled copy of the dominating check's.  Redirecting a value that
    still feeds a bitwise operation to ⊤ would let the re-resolved Γ
    discharge such downstream checks, trading an exact report away;
    those consumers are left untouched.  The set is computed once,
    before any redirect — redirects only remove edges into consumers, so
    it stays a (conservative) superset throughout.
    """
    table = vfg.node_table()
    uids, kinds = vfg.def_columns()
    barred: Set[int] = set()
    for nid, kind in enumerate(kinds):
        if kind != "binop" or uids[nid] is None:
            continue
        instr = by_uid.get(uids[nid])
        if isinstance(instr, ins.BinOp) and instr.op in _BITWISE_OPS:
            barred.add(nid)
    words = vfg.columns()
    work = list(barred)
    while work:
        for row in vfg.row_ids_into(work.pop()):
            src = words[row]
            if src not in barred and not isinstance(table[src], Root):
                barred.add(src)
                work.append(src)
    return barred


def _dominates_function(
    func: str,
    check_func: str,
    check_instr,
    callgraph: CallGraph,
    by_uid,
    dts: "Dict[str, DominatorTree]",
    state: "Dict[str, bool]",
) -> bool:
    """Whether every execution of ``func`` passes ``check_instr`` (in
    ``check_func``) first: each call site reaching it is either
    dominated by the check (in the check's function) or sits in a
    function with the same property.  Cycles resolve optimistically
    (greatest fixpoint): the only entries into a call cycle are still
    verified.  ``state`` memoizes the verdict per function; callers
    pass a fresh ``{}`` (a closure over it would be a reference cycle).
    """
    if func == "main":
        return False
    if func in state:
        return state[func]
    state[func] = True  # optimistic for cycles
    call_uids = callgraph.callers.get(func, set())
    if not call_uids:
        state[func] = False  # dead or external entry: be conservative
        return False
    for uid in call_uids:
        call = by_uid.get(uid)
        if call is None or call.block is None:
            state[func] = False
            return False
        caller = call.block.function.name
        if caller == check_func:
            if not dts[caller].instr_dominates(check_instr, call):
                state[func] = False
                return False
        elif not _dominates_function(
            caller, check_func, check_instr, callgraph, by_uid, dts, state
        ):
            state[func] = False
            return False
    return state[func]
