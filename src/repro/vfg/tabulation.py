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
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Set, Tuple

from repro.vfg.definedness import Definedness, resolve_definedness
from repro.vfg.graph import BOT, CALL, INTRA, RET, Edge, Node, VFG


def resolve_gamma(
    vfg: VFG, resolver: str = "callstring", context_depth: int = 1
) -> Definedness:
    """Γ of ``vfg`` under ``resolver``: the one dispatch between the
    k-limited call-string resolution and the summary-based one
    (``context_depth`` is ignored by the latter)."""
    if resolver == "summary":
        return resolve_definedness_summary(vfg)
    if resolver == "callstring":
        return resolve_definedness(vfg, context_depth)
    raise ValueError(f"unknown resolver {resolver!r}")


def resolve_definedness_summary(vfg: VFG) -> Definedness:
    """Compute Γ by summary-based (unbounded-context) reachability."""
    summaries = compute_summaries(vfg)
    bottom = _two_phase_reachability(vfg, summaries)
    bottom.discard(BOT)
    # context_depth = -1 marks the unbounded (summary) resolution.
    return Definedness(bottom, context_depth=-1)


def compute_summaries(vfg: VFG) -> Dict[Node, Set[Node]]:
    """Summary edges: caller node → caller node, skipping a balanced
    call-through (the tabulation of [23] with a single data fact)."""
    #: callee entry node -> call edges targeting it
    entry_calls: Dict[Node, List[Edge]] = defaultdict(list)
    for edge in vfg.edges():
        if edge.kind == CALL:
            entry_calls[edge.dst].append(edge)

    #: path edges: entry -> same-level-reachable nodes
    path: Dict[Node, Set[Node]] = {e: {e} for e in entry_calls}
    #: summary edges discovered so far: src -> targets
    summaries: Dict[Node, Set[Node]] = defaultdict(set)
    work: List[Tuple[Node, Node]] = [(e, e) for e in entry_calls]

    def add_path(entry: Node, node: Node) -> None:
        if node not in path[entry]:
            path[entry].add(node)
            work.append((entry, node))

    def add_summary(src: Node, dst: Node) -> None:
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
        for edge in vfg.flows_of(node):
            if edge.kind == INTRA:
                add_path(entry, edge.dst)
            elif edge.kind == CALL:
                # Descend: the callee's entry gets its own tabulation;
                # its summaries will lift the flow back here.
                if edge.dst in path:
                    pass  # seeded at initialization
            elif edge.kind == RET:
                # A same-level path of `entry` ended at a return to call
                # site edge.callsite: every matching call edge into
                # `entry` yields a summary in the caller.
                for call_edge in entry_calls.get(entry, ()):
                    if call_edge.callsite == edge.callsite:
                        add_summary(call_edge.src, edge.dst)
        # Summary edges already known from `node` extend this context.
        for target in summaries.get(node, ()):
            add_path(entry, target)

    return summaries


def _two_phase_reachability(
    vfg: VFG, summaries: Dict[Node, Set[Node]]
) -> Set[Node]:
    #: (node, phase): phase 0 = unmatched closes allowed,
    #: phase 1 = unmatched opens allowed.
    seen: Set[Tuple[Node, int]] = {(BOT, 0)}
    work: List[Tuple[Node, int]] = [(BOT, 0)]
    bottom: Set[Node] = set()

    def push(node: Node, phase: int) -> None:
        state = (node, phase)
        if state not in seen:
            seen.add(state)
            work.append(state)

    while work:
        node, phase = work.pop()
        bottom.add(node)
        for target in summaries.get(node, ()):
            push(target, phase)
        for edge in vfg.flows_of(node):
            if edge.kind == INTRA:
                push(edge.dst, phase)
            elif edge.kind == RET:
                if phase == 0:
                    push(edge.dst, 0)
                # In phase 1 a raw return would close a call it did not
                # open: unrealizable.
            elif edge.kind == CALL:
                push(edge.dst, 1)
    return bottom
