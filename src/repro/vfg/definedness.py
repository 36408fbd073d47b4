"""Definedness resolution (§3.3).

The definedness Γ of every VFG node is resolved by graph reachability
from the F root: Γ(v) = ⊥ if undefinedness can flow into v, and ⊤
otherwise.  Interprocedural flows are matched context-sensitively in the
standard call-string manner: entering a callee pushes the call site,
leaving pops it, and only matching call/return pairs are traversed.
Call strings are truncated at ``context_depth`` (the paper configures
1-callsite sensitivity); a truncated (empty) string may return to any
call site, which is sound.
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

from repro.vfg.graph import (
    BOT, CALL, KIND_OF_CODE, NO_CALLSITE, RET, GraphView, Node,
)

Context = Tuple[int, ...]


class Definedness:
    """The Γ function: maps VFG nodes to ⊥ (maybe-undefined) or ⊤."""

    def __init__(self, bottom: Set[Node], context_depth: int) -> None:
        self._bottom = bottom
        self.context_depth = context_depth

    def is_defined(self, node: Optional[Node]) -> bool:
        """Γ(node) = ⊤?  Constants (``None``) are always defined."""
        if node is None:
            return True
        return node not in self._bottom

    def gamma(self, node: Optional[Node]) -> str:
        return "⊤" if self.is_defined(node) else "⊥"

    @property
    def bottom_nodes(self) -> Set[Node]:
        return set(self._bottom)

    def count_bottom(self) -> int:
        return len(self._bottom)


def resolve_definedness(vfg: GraphView, context_depth: int = 1) -> Definedness:
    """Compute Γ by context-sensitive forward reachability from F.

    The walk runs on node ids and rows (:meth:`VFG.row_ids_out_of`),
    on a built graph or Opt II's rewired view; only the reached nodes
    are materialized, into the returned Γ."""
    if context_depth < 0:
        raise ValueError("context_depth must be >= 0")
    start = vfg.node_id(BOT)
    if start is None:
        return Definedness(set(), context_depth)
    empty: Context = ()
    reached: Set[int] = set()
    seen: Set[Tuple[int, Context]] = {(start, empty)}
    work: List[Tuple[int, Context]] = [(start, empty)]
    words = vfg.columns()
    row_ids_out_of = vfg.row_ids_out_of
    while work:
        nid, ctx = work.pop()
        reached.add(nid)
        for row in row_ids_out_of(nid):
            code = words[row + 2]
            if code:
                callsite = words[row + 3]
                next_ctx = step_context(
                    ctx,
                    KIND_OF_CODE[code],
                    None if callsite == NO_CALLSITE else callsite,
                    context_depth,
                )
                if next_ctx is None:
                    continue  # mismatched return: unrealizable path
                state = (words[row + 1], next_ctx)
            else:
                state = (words[row + 1], ctx)  # intraprocedural: no-op
            if state not in seen:
                seen.add(state)
                work.append(state)
    reached.discard(start)
    table = vfg.node_table()
    return Definedness({table[nid] for nid in reached}, context_depth)


def step_context(
    ctx: Context, kind: str, callsite: Optional[int], depth: int
) -> Optional[Context]:
    """Advance a k-limited call string across one value-flow edge.

    The single transition function of the whole-program resolution and
    of the explanation search (:class:`repro.vfg.explain.FlowTree`):
    ``CALL`` pushes the call site (truncating at ``depth``), ``RET`` pops a
    matching site (``None`` = unrealizable), everything else is a
    no-op.  A truncated (empty) string may return to any call site.
    """
    if kind == CALL:
        if depth == 0:
            return ctx
        return ((callsite,) + ctx)[:depth]
    if kind == RET:
        if depth == 0:
            return ctx
        if not ctx:
            return ctx  # truncated/unknown caller: any return is allowed
        if ctx[0] == callsite:
            return ctx[1:]
        return None
    return ctx
