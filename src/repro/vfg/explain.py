"""Explain why a value may be undefined: shortest realizable F-paths.

Given a ⊥ node (typically a critical use the analysis kept a check
for), finds a shortest *realizable* value-flow path from the F root —
the same call/return-matched traversal definedness resolution performs,
breadth-first and with parent links — and renders it step by step with
source lines.  This is the diagnostic companion to a warning: not just
*where* an undefined value was used, but *how* it got there.

One :class:`FlowTree` (one BFS over the whole reachable state space)
answers every explanation of a VFG at one call-string depth; after it
is built each chain is a walk up its parent links.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.ir.module import Module
from repro.obs.trace import TRACE
from repro.vfg.definedness import step_context
from repro.vfg.graph import BOT, CALL, RET, Edge, Node, Root, VFG

Context = Tuple[int, ...]
#: A BFS state: (node id, k-limited call string).
State = Tuple[int, Context]
#: How a state was first reached: (parent state, edge kind, callsite).
Link = Tuple[State, str, Optional[int]]
#: A forward F → node path as (node, edge taken into it) pairs.
Chain = List[Tuple[Node, Optional[Edge]]]


@dataclass
class FlowStep:
    """One hop of the explanation."""

    node: Node
    kind: str  # def-site kind tag
    line: Optional[int]
    description: str
    edge_kind: str = "intra"

    def render(self) -> str:
        where = f"line {self.line}" if self.line is not None else "        "
        arrow = {
            CALL: "  ↳ into call",
            RET: "  ↰ back out",
        }.get(self.edge_kind, "")
        return f"  {where:>9} | {self.description}{arrow}"


def explain_depth(resolver: str, context_depth: int) -> int:
    """The call-string depth whose chains explain every ⊥ verdict of
    ``resolver`` at ``context_depth``: that depth for ``callstring``,
    at least 1 for ``summary`` (whose ⊥ set lies inside every
    k-limited one)."""
    return context_depth if resolver == "callstring" else max(context_depth, 1)


class FlowTree:
    """Shortest realizable F → node chains for every ⊥ node of ``vfg``.

    A forward BFS from (F, ``()``) over (node, ``context_depth``-limited
    call string) states, stepping contexts with
    :func:`~repro.vfg.definedness.step_context` and recording each
    state's parent edge.  A node's chain ends at the first state that
    reached it.  The graph must not change while the tree is in use.
    """

    def __init__(self, vfg: VFG, context_depth: int = 1) -> None:
        self.vfg = vfg
        self.context_depth = context_depth
        #: state -> how it was first reached; F's state maps to None
        self._parents: Dict[State, Optional[Link]] = {}
        #: node id -> the first state that reached it
        self._first: Dict[int, State] = {}
        start = vfg.node_id(BOT)
        with TRACE.span("explain", depth=context_depth) as span:
            if start is not None:
                self._search((start, ()))
            span.tag(states=len(self._parents))

    def _search(self, start: State) -> None:
        parents = self._parents
        first = self._first
        rows_out_of = self.vfg.rows_out_of
        depth = self.context_depth
        parents[start] = None
        first[start[0]] = start
        queue = deque([start])
        while queue:
            state = queue.popleft()
            for _, dst, kind, callsite in rows_out_of(state[0]):
                ctx = step_context(state[1], kind, callsite, depth)
                if ctx is None:
                    continue  # mismatched return: unrealizable path
                nxt = (dst, ctx)
                if nxt not in parents:
                    parents[nxt] = (state, kind, callsite)
                    first.setdefault(dst, nxt)
                    queue.append(nxt)

    def chain(self, node: Optional[Node]) -> Optional[Chain]:
        """The shortest realizable F → ``node`` path, F first; ``None``
        when ``node`` is a constant, a root or unreachable from F
        (defined)."""
        if node is None or isinstance(node, Root):
            return None
        state = self._first.get(self.vfg.node_id(node))
        if state is None:
            return None
        table = self.vfg.node_table()
        chain: Chain = []
        link = self._parents[state]
        while link is not None:
            parent, kind, callsite = link
            dst = table[state[0]]
            chain.append((dst, Edge(table[parent[0]], dst, kind, callsite)))
            state, link = parent, self._parents[parent]
        chain.append((table[state[0]], None))
        chain.reverse()
        return chain

    def explain(
        self, module: Module, node: Optional[Node], max_steps: int = 50
    ) -> Optional[List[FlowStep]]:
        """:meth:`chain` rendered as flow steps."""
        chain = self.chain(node)
        if chain is None:
            return None
        return steps_from_chain(chain, self.vfg, module, max_steps=max_steps)

    def explain_site(
        self, module: Module, instr_uid: int, max_steps: int = 50
    ) -> Optional[List[FlowStep]]:
        """Explain the first ⊥ critical use at instruction ``instr_uid``."""
        for site in self.vfg.check_sites:
            if site.instr_uid == instr_uid:
                steps = self.explain(module, site.node, max_steps)
                if steps is not None:
                    return steps
        return None


def explain_undefined(
    vfg: VFG,
    module: Module,
    target: Node,
    context_depth: int = 1,
    max_steps: int = 50,
) -> Optional[List[FlowStep]]:
    """The shortest realizable F → ``target`` path, or ``None`` if the
    node is not reachable from F (i.e. it is defined).  Builds a
    one-off :class:`FlowTree`; keep one to explain many nodes."""
    return FlowTree(vfg, context_depth).explain(module, target, max_steps)


def steps_from_chain(
    chain: Chain,
    vfg: VFG,
    module: Module,
    max_steps: int = 50,
) -> List[FlowStep]:
    """Render a forward F → target chain of ``(node, incoming edge)``
    pairs (:meth:`FlowTree.chain`) as flow steps."""
    by_uid = module.instr_by_uid()
    steps: List[FlowStep] = []
    for node, edge in chain[: max_steps + 1]:
        uid, kind = vfg.def_site.get(node, (None, "unknown"))
        instr = by_uid.get(uid) if uid is not None else None
        steps.append(
            FlowStep(
                node=node,
                kind=kind,
                line=getattr(instr, "line", None),
                description=_describe(node, kind, instr),
                edge_kind=edge.kind if edge is not None else "intra",
            )
        )
    return steps


def _describe(node: Node, kind: str, instr) -> str:
    if isinstance(node, Root):
        return "undefined value originates (F root)"
    if kind == "undef":
        return f"{_name(node)} is read before any assignment"
    if kind == "param":
        return f"enters {getattr(node, 'func', '?')}() as parameter {_name(node)}"
    if kind == "entry":
        return f"memory state enters {getattr(node, 'func', '?')}()"
    if kind == "chi_alloc" and instr is not None:
        return f"allocated uninitialized at `{instr}`"
    if kind and kind.startswith("chi_store") and instr is not None:
        return f"stored into memory at `{instr}`"
    if kind == "chi_call" and instr is not None:
        return f"memory state returns from `{instr}`"
    if kind == "memphi":
        return f"memory states merge ({_name(node)})"
    if kind == "phi" and instr is not None:
        return f"control-flow paths merge at `{instr}`"
    if instr is not None:
        return f"flows through `{instr}`"
    return f"flows through {_name(node)}"


def _name(node: Node) -> str:
    return str(node)
