"""Must Flow-from Closure (Definition 2).

The MFC of a top-level variable x is the DAG of top-level definitions
whose values *must* flow into x through copies and (non-bitwise) binary
operations; constants and allocation results contribute the ⊤ root.
Loads, calls, φs and parameters stop the expansion: their values cannot
be bypassed during shadow propagation.

Mirroring §4.1's bit-level-precision adjustment, binary operations
expand only when the operator is not bitwise: for ``&``, ``|``, ``^``
and shifts, a single undefined *bit* does not make the whole result
undefined, so the conjunction-of-sources shortcut of Opt I would be
unsound and the expansion stops instead.

The *grouping rule* (``grouping=True``, Opt I's flavor): a closure may
anchor Opt I's conjunction only when the sink's own defining operation
**spreads** — a non-bitwise binary operation, a ``-``/``!`` unary or a
``gep``, whose result mask is all-or-nothing.  The conjunction Opt I
emits is ``σ(sink) := spread(∨ σ(sources))``; that is exact precisely
when the sink's true mask is spread-shaped.  A sink defined by a
mask-*preserving* operation (a copy, or bitwise-not ``~``) carries its
operand's possibly-partial mask through unchanged, and spreading it
would over-approximate: a later bitwise operation (which stops
expansion and is instrumented bit-precisely) can launder the exact
partial mask to fully-defined while the spread mask still taints the
word — a spurious warning.  Under ``grouping=True`` such sinks
degenerate to their own source, making Opt I fall back to the plain
Figure 7 rule.  Mask-preserving nodes remain fine as closure
*interiors*: the induction behind the conjunction only needs every
interior mask to be zero iff its sources' masks are (copies and ``~``
preserve exactly that — only the bitwise laundering operators break
it, and those always stop the expansion).

Opt II (``grouping=False``, the default) reasons at the boolean
"would the check fire?" level — detection at the check site implies
every dominated consumer's report is redundant — for which the
zero-iff induction alone suffices, so mask-preserving sinks keep their
full closure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from repro.ir import instructions as ins
from repro.ir.module import Module
from repro.vfg.graph import TOP, Node, Root, TopNode, VFG

#: Definition kinds that the closure expands through.
_EXPAND_KINDS = frozenset({"copy", "unop", "binop", "gep"})
#: Definition kinds contributing the ⊤ root as a source.
_CONST_KINDS = frozenset({"const", "alloc", "addr"})
#: Definition kinds the closure does not stop at.
_CLOSURE_KINDS = _EXPAND_KINDS | _CONST_KINDS

_BITWISE_OPS = frozenset({"&", "|", "^", "<<", ">>"})

#: Unary operators whose result mask is the operand mask, bit for bit.
_MASK_PRESERVING_UNOPS = frozenset({"~"})


@dataclass
class MFC:
    """The must-flow-from closure of a sink node.

    Attributes:
        sink: The top-level variable the closure was computed for.
        nodes: All nodes in the closure (including the sink and ⊤ when
            constants feed it).
        sources: The closure's source nodes — the nodes whose shadows
            the sink's shadow is a conjunction of.
        interior: Nodes strictly between sources and sink, whose shadow
            propagations Opt I can elide.
    """

    sink: TopNode
    nodes: Set[Node] = field(default_factory=set)
    sources: Set[Node] = field(default_factory=set)

    @property
    def interior(self) -> Set[Node]:
        return self.nodes - self.sources - {self.sink}

    @property
    def simplifiable(self) -> bool:
        """Opt I is profitable when the closure has interior nodes."""
        return bool(self.interior)


def _preserves_mask(by_uid, uid, kind: str) -> bool:
    """Whether a definition carries its operand's mask through bit for
    bit (copies, ``~``) instead of spreading it."""
    if kind == "copy":
        return True
    if kind == "unop" and uid is not None:
        instr = by_uid.get(uid)
        return (
            isinstance(instr, ins.UnOp)
            and instr.op in _MASK_PRESERVING_UNOPS
        )
    return False


def compute_mfc(
    vfg: VFG, module: Module, sink: TopNode, grouping: bool = False
) -> MFC:
    """Compute the MFC of ``sink`` (Definition 2).

    With ``grouping=True`` (Opt I) the grouping rule applies: a
    mask-preserving sink cannot anchor the spread conjunction and
    degenerates to its own source, so Opt I falls back to the exact
    per-statement rule.
    """
    sink_id = vfg.node_id(sink)
    if sink_id is None:
        # No edge touches the sink: nothing flows into it.
        return MFC(sink, {sink}, {sink})
    nodes, sources = closure_ids(vfg, module.instr_by_uid(), sink_id, grouping)
    table = vfg.node_table()
    return MFC(sink, {table[i] for i in nodes}, {table[i] for i in sources})


def closure_ids(
    vfg: VFG, by_uid, sink: int, grouping: bool = False
) -> Tuple[Set[int], Set[int]]:
    """:func:`compute_mfc` on node ids: the closure's ``(nodes,
    sources)`` id sets for the sink with id ``sink``."""
    uids, kinds = vfg.def_columns()
    if grouping and _preserves_mask(by_uid, uids[sink], kinds[sink]):
        return {sink}, {sink}
    table = vfg.node_table()
    top = vfg.node_id(TOP)
    nodes: Set[int] = set()
    sources: Set[int] = set()
    work: List[int] = [sink]
    while work:
        nid = work.pop()
        if nid in nodes:
            continue
        nodes.add(nid)
        node = table[nid]
        if isinstance(node, Root):
            sources.add(nid)
            continue
        kind = kinds[nid]
        if not isinstance(node, TopNode) or kind not in _CLOSURE_KINDS:
            sources.add(nid)
            continue
        if kind in _CONST_KINDS:
            sources.add(top)
            nodes.add(top)
            continue
        if kind == "binop" and uids[nid] is not None:
            instr = by_uid.get(uids[nid])
            if isinstance(instr, ins.BinOp) and instr.op in _BITWISE_OPS:
                sources.add(nid)
                continue
        preds = vfg.rows_into(nid)
        if not preds:
            sources.add(nid)
            continue
        for row in preds:
            work.append(row[0])
    return nodes, sources
