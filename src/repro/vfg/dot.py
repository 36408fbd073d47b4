"""GraphViz (DOT) export of value-flow graphs.

Renders the VFG with definedness coloring — the fastest way to see why
a particular value resolved ⊥: follow the red flow from F.

    dot = vfg_to_dot(vfg, gamma)
    Path("flow.dot").write_text(dot)   # then: dot -Tsvg flow.dot

Nodes: box = top-level definition, ellipse = address-taken location
version, diamond = the ⊤/F roots, octagon = the Usher_TL memory
summary.  Red fill marks Γ(v) = ⊥; double borders mark nodes used at a
critical operation.  Call/return edges are dashed/dotted and labelled
with their call site.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.vfg.definedness import Definedness
from repro.vfg.graph import (
    CALL,
    RET,
    MemNode,
    Node,
    Root,
    SummaryNode,
    VFG,
)


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _node_id(node: Node, ids: Dict[Node, str]) -> str:
    if node not in ids:
        ids[node] = f"n{len(ids)}"
    return ids[node]


def _shape(node: Node) -> str:
    if isinstance(node, Root):
        return "diamond"
    if isinstance(node, MemNode):
        return "ellipse"
    if isinstance(node, SummaryNode):
        return "octagon"
    return "box"


def vfg_to_dot(
    vfg: VFG,
    gamma: Optional[Definedness] = None,
    only_function: Optional[str] = None,
    max_nodes: int = 400,
    highlight: Optional[Set[Node]] = None,
) -> str:
    """Render ``vfg`` as DOT text.

    ``only_function`` restricts to one function's nodes (plus roots and
    direct interprocedural neighbours); ``max_nodes`` guards against
    unreadable outputs (raises ValueError when exceeded).

    ``gamma`` may be any object with ``is_defined`` — in particular a
    :class:`~repro.vfg.demand.DemandEngine`, in which case only the
    *rendered* nodes are ever resolved (on-demand coloring: with
    ``only_function`` the rest of the graph is never visited).
    ``highlight`` draws the given nodes (e.g. a demand query's
    backward slice) with a bold blue border.
    """
    checked: Set[Node] = {
        site.node for site in vfg.check_sites if site.node is not None
    }

    def keep(node: Node) -> bool:
        if only_function is None or isinstance(node, (Root, SummaryNode)):
            return True
        return getattr(node, "func", None) == only_function

    nodes = [n for n in vfg.nodes() if keep(n)]
    if len(nodes) > max_nodes:
        raise ValueError(
            f"{len(nodes)} nodes exceed max_nodes={max_nodes}; restrict "
            f"with only_function or raise the limit"
        )

    ids: Dict[Node, str] = {}
    lines = [
        "digraph vfg {",
        "  rankdir=BT;",
        '  node [fontname="monospace", fontsize=10];',
    ]
    kept = set(nodes)
    for node in sorted(kept, key=str):
        attrs = [f'label="{_escape(str(node))}"', f"shape={_shape(node)}"]
        if gamma is not None and not gamma.is_defined(node):
            attrs.append('style=filled, fillcolor="#f4cccc"')
        elif isinstance(node, Root):
            attrs.append('style=filled, fillcolor="#d9ead3"')
        if node in checked:
            attrs.append("peripheries=2")
        if highlight and node in highlight:
            attrs.append('color="#3c78d8", penwidth=2')
        lines.append(f"  {_node_id(node, ids)} [{', '.join(attrs)}];")

    for edge in sorted(vfg.edges(), key=str):
        if edge.src not in kept or edge.dst not in kept:
            continue
        attrs = []
        if edge.kind == CALL:
            attrs.append(f'style=dashed, label="call@{edge.callsite}"')
        elif edge.kind == RET:
            attrs.append(f'style=dotted, label="ret@{edge.callsite}"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(
            f"  {_node_id(edge.src, ids)} -> {_node_id(edge.dst, ids)}{suffix};"
        )
    lines.append("}")
    return "\n".join(lines)
