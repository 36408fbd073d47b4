"""Summary-based definedness resolution (tabulation, after [23]).

The paper resolves definedness "context-sensitively by matching call and
return edges to rule out unrealizable interprocedural flows of values in
the standard manner [18, 23, 25, 29, 33]" and configures 1-callsite call
strings (§4.1).  This module provides the *fully* context-sensitive
alternative those citations describe: single-source Dyck-CFL
reachability with procedure summaries, equivalent to call strings of
unbounded depth.

A realizable value-flow path from F first ascends (unmatched returns —
the value escaping to callers), then descends (unmatched calls — the
value flowing into callees), with arbitrarily nested *matched*
call/return pairs throughout.  The classic two-phase algorithm:

1. **Summaries** (the tabulation): for every callee-side entry node
   (a node targeted by a call edge), compute the set of nodes reachable
   from it along *same-level* (balanced) paths; whenever such a path
   reaches a return edge whose call site matches a call edge into the
   entry, a summary edge caller-source → caller-target is recorded and
   replayed transitively.
2. **Reachability**: from F, propagate through intra and summary edges;
   phase one may also take raw return edges (unmatched closes), phase
   two may also take raw call edges (unmatched opens).  A node is ⊥ iff
   reached in either phase.

The result is never less precise than any k-limited call-string
resolution (property-tested), at the cost of the summary computation.
Both phases run on node ids and rows through the id-level graph reads
(:meth:`repro.vfg.graph.VFG.row_ids_out_of`), so Opt II's rewired view
(:class:`repro.vfg.graph.VFGOverlay`) resolves the same way as a built
graph.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Set, Tuple

from repro.vfg.definedness import Definedness, resolve_definedness
from repro.vfg.graph import BOT, CALL_CODE, INTRA_CODE, RET_CODE, GraphView


def resolve_gamma(
    vfg: GraphView, resolver: str = "callstring", context_depth: int = 1
) -> Definedness:
    """Γ of ``vfg`` under ``resolver``: the one dispatch between the
    k-limited call-string resolution and the summary-based one
    (``context_depth`` is ignored by the latter)."""
    if resolver == "summary":
        return resolve_definedness_summary(vfg)
    if resolver == "callstring":
        return resolve_definedness(vfg, context_depth)
    raise ValueError(f"unknown resolver {resolver!r}")


def resolve_definedness_summary(vfg: GraphView) -> Definedness:
    """Compute Γ by summary-based (unbounded-context) reachability."""
    start = vfg.node_id(BOT)
    if start is None:
        return Definedness(set(), context_depth=-1)
    summaries = compute_summaries(vfg)
    reached = _two_phase_reachability(vfg, summaries, start)
    reached.discard(start)
    table = vfg.node_table()
    # context_depth = -1 marks the unbounded (summary) resolution.
    return Definedness({table[nid] for nid in reached}, context_depth=-1)


def compute_summaries(vfg: GraphView) -> Dict[int, Set[int]]:
    """Summary edges by node id: caller node → caller node, skipping a
    balanced call-through (the tabulation of [23] with a single data
    fact)."""
    words = vfg.columns()
    row_ids_out_of = vfg.row_ids_out_of
    #: callee entry id -> (caller source id, call site word) of each
    #: call edge targeting it
    entry_calls: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for nid in range(vfg.num_nodes):
        for row in row_ids_out_of(nid):
            if words[row + 2] == CALL_CODE:
                entry_calls[words[row + 1]].append((nid, words[row + 3]))

    #: path edges: entry -> same-level-reachable nodes
    path: Dict[int, Set[int]] = {e: {e} for e in entry_calls}
    #: summary edges discovered so far: src -> targets
    summaries: Dict[int, Set[int]] = defaultdict(set)
    work: List[Tuple[int, int]] = [(e, e) for e in entry_calls]

    def add_path(entry: int, node: int) -> None:
        if node not in path[entry]:
            path[entry].add(node)
            work.append((entry, node))

    def add_summary(src: int, dst: int) -> None:
        if dst in summaries[src]:
            return
        summaries[src].add(dst)
        # Replay in every context where src is already same-level
        # reachable.
        for entry, nodes in path.items():
            if src in nodes:
                add_path(entry, dst)

    while work:
        entry, node = work.pop()
        for row in row_ids_out_of(node):
            code = words[row + 2]
            if code == INTRA_CODE:
                add_path(entry, words[row + 1])
            elif code == RET_CODE:
                # A same-level path of `entry` ended at a return to
                # call site `callsite`: every matching call edge into
                # `entry` yields a summary in the caller.  (A call edge
                # descends: the callee's entry has its own tabulation,
                # whose summaries lift the flow back here.)
                callsite = words[row + 3]
                for caller, call_site in entry_calls.get(entry, ()):
                    if call_site == callsite:
                        add_summary(caller, words[row + 1])
        # Summary edges already known from `node` extend this context.
        for target in summaries.get(node, ()):
            add_path(entry, target)

    return summaries


def _two_phase_reachability(
    vfg: GraphView, summaries: Dict[int, Set[int]], start: int
) -> Set[int]:
    #: (node id, phase): phase 0 = unmatched closes allowed,
    #: phase 1 = unmatched opens allowed.
    seen: Set[Tuple[int, int]] = {(start, 0)}
    work: List[Tuple[int, int]] = [(start, 0)]
    reached: Set[int] = set()

    def push(nid: int, phase: int) -> None:
        state = (nid, phase)
        if state not in seen:
            seen.add(state)
            work.append(state)

    words = vfg.columns()
    row_ids_out_of = vfg.row_ids_out_of
    while work:
        nid, phase = work.pop()
        reached.add(nid)
        for target in summaries.get(nid, ()):
            push(target, phase)
        for row in row_ids_out_of(nid):
            code = words[row + 2]
            if code == INTRA_CODE:
                push(words[row + 1], phase)
            elif code == RET_CODE:
                if phase == 0:
                    push(words[row + 1], 0)
                # In phase 1 a raw return would close a call it did not
                # open: unrealizable.
            elif code == CALL_CODE:
                push(words[row + 1], 1)
    return reached
