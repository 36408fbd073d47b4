"""Opt II: redundant check elimination (Algorithm 1, §3.5.2).

If an undefined value flowing into a critical statement ``s`` via a
top-level variable ``x`` would be detected there, its rippling effect on
*later* (dominated) statements is redundant: any node ``r`` outside
``x``'s must-flow-from closure that consumes a closure value, and whose
defining statement is dominated by ``s``, can have those incoming edges
redirected to ⊤ on a scratch copy of the VFG.  Re-resolving Γ on the
modified graph eliminates the dominated checks; guided instrumentation
is then performed on the *original* VFG with the new Γ so that every
shadow value remains correctly initialized (Algorithm 1, line 9 note).

Bit-level adjustment (§4.1 applied to Algorithm 1): a consumer from
which a bitwise operation is still flow-reachable is never redirected
— see :func:`_feeds_bitwise`.  Bitwise operators launder undefined
bits, so a check behind one reports a genuinely new definedness fact
rather than a ripple of the dominating check; redirecting its inputs
to ⊤ would silently drop that exact report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from repro.ir import instructions as ins
from repro.ir.dominance import DominatorTree, loop_blocks
from repro.ir.module import Module
from repro.analysis.callgraph import CallGraph
from repro.vfg.builder import is_concrete_loc
from repro.vfg.definedness import Definedness, resolve_definedness
from repro.vfg.graph import TOP, MemNode, Node, Root, TopNode, VFG
from repro.vfg.mfc import _BITWISE_OPS, compute_mfc


@dataclass
class Opt2Stats:
    redirected_nodes: int = 0
    sites_processed: int = 0
    interprocedural_redirects: int = 0

    def as_dict(self) -> dict:
        """JSON-ready snapshot (the unified stats-registry schema)."""
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
    demand: bool = False,
    jobs: "Optional[int]" = None,
    engine_factory=None,
) -> "tuple[Definedness, Opt2Stats]":
    """Run Algorithm 1; return the refined Γ and statistics.

    With ``interprocedural=True`` (an extension beyond the paper, in the
    spirit of its "new VFG-based optimizations" future work), dominance
    of the check over a consumer in *another* function is established
    when that function is reachable only through call sites dominated by
    the check (transitively).

    With ``demand=True`` the re-resolution of Γ on the rewired scratch
    graph is answered by batched demand queries over the check sites
    (:func:`repro.vfg.demand.resolve_definedness_demand`) instead of
    whole-program reachability — bit-identical verdicts, but only the
    check sites' backward slices are visited.  ``jobs`` fans that batch
    across worker processes (``None`` defers to the session default /
    ``REPRO_JOBS``).

    ``engine_factory``, when given, builds the demand engine for the
    rewired scratch graph — ``engine_factory(scratch) -> DemandEngine``
    — letting a resident :class:`repro.service.session.AnalysisSession`
    prime it with memos carried across edits.  Only consulted on the
    ``demand=True`` path."""
    scratch = vfg.copy()
    by_uid = module.instr_by_uid()
    dts: Dict[str, DominatorTree] = {
        name: DominatorTree(f) for name, f in module.functions.items()
    }
    loops = {name: loop_blocks(f) for name, f in module.functions.items()}
    stats = Opt2Stats()
    redirected: Set[Node] = set()
    barred = _feeds_bitwise(scratch, by_uid)
    # ⊤ joins every closure fed by a constant, and its out-edges span
    # the whole program.  Intraprocedurally only a consumer in the
    # check's own function can be redirected, so ⊤'s consumers are
    # indexed once by that function and Line 5 reads one bucket.
    top_consumers = (
        None if interprocedural else _top_consumers_by_function(scratch, by_uid)
    )

    for site in vfg.check_sites:
        if not isinstance(site.node, TopNode):
            continue
        check_instr = by_uid.get(site.instr_uid)
        if check_instr is None or check_instr.block is None:
            continue
        stats.sites_processed += 1
        check_func = check_instr.block.function.name

        # Line 3: the must-flow-from closure of x.
        mfc = compute_mfc(scratch, module, site.node)
        closure: Set[Node] = set(mfc.nodes)

        # Line 4: add μ'd concrete locations of loads in the closure.
        for node in list(closure):
            uid, kind = scratch.def_site.get(node, (None, ""))
            if kind != "load" or uid is None:
                continue
            load = by_uid.get(uid)
            if not isinstance(load, ins.Load):
                continue
            for mu in load.mus:
                if is_concrete_loc(
                    mu.loc, module, callgraph.recursive, loops
                ):
                    closure.add(MemNode(site.func, mu.loc, mu.version or 0))

        # Line 5: consumers of closure values outside the closure.
        consumers: Set[Node] = set()
        for node in closure:
            if top_consumers is not None and node == TOP:
                for r in top_consumers.get(check_func, ()):
                    if r not in closure:
                        consumers.add(r)
                continue
            for edge in scratch.flows_of(node):
                if edge.dst not in closure and not isinstance(edge.dst, Root):
                    consumers.add(edge.dst)

        # Lines 6-8: redirect dominated consumers to ⊤.
        for r in consumers:
            if r in barred:
                continue  # still feeds a bitwise op (§4.1 adjustment)
            r_uid, r_kind = scratch.def_site.get(r, (None, ""))
            cross_function = False
            if r_uid is None:
                # Entry-defined consumers (formals, virtual inputs): the
                # interprocedural extension may establish that their
                # whole function executes only after the check.
                if not interprocedural or r_kind not in ("param", "entry"):
                    continue
                r_func = getattr(r, "func", None)
                if r_func is None or r_func == check_func:
                    continue
                if not _dominates_function(
                    r_func, check_instr, callgraph, by_uid, dts
                ):
                    continue
                cross_function = True
            else:
                r_instr = by_uid.get(r_uid)
                if r_instr is None or r_instr.block is None:
                    continue
                r_func = r_instr.block.function.name
                cross_function = r_func != check_func
                if not cross_function:
                    dt = dts[check_func]
                    if not dt.instr_dominates(check_instr, r_instr):
                        continue
                else:
                    if not interprocedural:
                        continue  # the paper's conservative choice
                    if not _dominates_function(
                        r_func, check_instr, callgraph, by_uid, dts
                    ):
                        continue
            changed = False
            for edge in list(scratch.deps_of(r)):
                if edge.src in closure:
                    scratch.remove_edge(edge)
                    changed = True
            if changed:
                scratch.add_edge(TOP, r)
                if top_consumers is not None:
                    top_consumers.setdefault(r_func, set()).add(r)
                redirected.add(r)
                if cross_function:
                    stats.interprocedural_redirects += 1

    stats.redirected_nodes = len(redirected)
    if demand:
        from repro.vfg.demand import resolve_definedness_demand

        # A fresh engine by default: the scratch graph's edge set
        # differs from the original VFG's, so no memo may be shared
        # with it.  A session-supplied factory may prime the engine
        # with memos proven valid for *this* scratch graph.
        if engine_factory is not None:
            engine = engine_factory(scratch)
            engine.query_sites(scratch.check_sites, jobs=jobs)
            gamma = engine.gamma()
        else:
            gamma = resolve_definedness_demand(
                scratch, context_depth, resolver=resolver, jobs=jobs
            )
    elif resolver == "summary":
        from repro.vfg.tabulation import resolve_definedness_summary

        gamma = resolve_definedness_summary(scratch)
    else:
        gamma = resolve_definedness(scratch, context_depth)
    return gamma, stats


def _def_function(vfg: VFG, node: Node, by_uid) -> Optional[str]:
    """The function of ``node``'s defining instruction — how Lines 6-8
    resolve a consumer's function — or ``None`` when it has none."""
    uid, _ = vfg.def_site.get(node, (None, ""))
    if uid is None:
        return None
    instr = by_uid.get(uid)
    if instr is None or instr.block is None:
        return None
    return instr.block.function.name


def _top_consumers_by_function(vfg: VFG, by_uid) -> Dict[str, Set[Node]]:
    """⊤'s non-root consumers, bucketed by :func:`_def_function`.

    Consumers without a defining instruction are left out: Lines 6-8
    never redirect them intraprocedurally."""
    buckets: Dict[str, Set[Node]] = {}
    for edge in vfg.flows_of(TOP):
        func = _def_function(vfg, edge.dst, by_uid)
        if func is not None and not isinstance(edge.dst, Root):
            buckets.setdefault(func, set()).add(edge.dst)
    return buckets


def _feeds_bitwise(vfg: VFG, by_uid) -> Set[Node]:
    """Nodes from which a bitwise binary operation is flow-reachable.

    §4.1's bit-level adjustment for Algorithm 1: ``&``, ``|``, ``^``
    and shifts *launder* undefined bits — their result's mask is not a
    function of the operands' masks alone, so a report downstream of a
    bitwise operation is a genuinely new definedness fact, not a
    rippled copy of the dominating check's.  Redirecting a value that
    still feeds a bitwise operation to ⊤ would let the re-resolved Γ
    discharge such downstream checks, trading an exact report away;
    those consumers are left untouched.  The set is computed once on
    the unmodified scratch graph — redirects only remove edges, so it
    stays a (conservative) superset throughout.
    """
    from collections import deque

    barred: Set[Node] = set()
    work: "deque[Node]" = deque()
    for node, (uid, kind) in vfg.def_site.items():
        if kind != "binop" or uid is None:
            continue
        instr = by_uid.get(uid)
        if isinstance(instr, ins.BinOp) and instr.op in _BITWISE_OPS:
            barred.add(node)
            work.append(node)
    while work:
        n = work.popleft()
        for edge in vfg.deps_of(n):
            src = edge.src
            if src not in barred and not isinstance(src, Root):
                barred.add(src)
                work.append(src)
    return barred


def _dominates_function(
    target_func: str,
    check_instr,
    callgraph: CallGraph,
    by_uid,
    dts: "Dict[str, DominatorTree]",
) -> bool:
    """Whether every execution of ``target_func`` passes ``check_instr``
    first: each call site reaching it is either dominated by the check
    (in the check's function) or sits in a function with the same
    property.  Cycles resolve optimistically (greatest fixpoint): the
    only entries into a call cycle are still verified.
    """
    check_func = check_instr.block.function.name
    if target_func == "main":
        return False
    state: "Dict[str, bool]" = {}

    def covered(func: str) -> bool:
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
            elif not covered(caller):
                state[func] = False
                return False
        return state[func]

    return covered(target_func)
