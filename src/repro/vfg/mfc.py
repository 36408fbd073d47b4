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
from typing import List, Set

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
    by_uid = module.instr_by_uid()
    mfc = MFC(sink)
    if grouping:
        sink_uid, sink_kind = vfg.def_site.get(sink, (None, "unknown"))
        if _preserves_mask(by_uid, sink_uid, sink_kind):
            mfc.nodes.add(sink)
            mfc.sources.add(sink)
            return mfc
    work: List[Node] = [sink]
    while work:
        node = work.pop()
        if node in mfc.nodes:
            continue
        mfc.nodes.add(node)
        if isinstance(node, Root):
            mfc.sources.add(node)
            continue
        uid, kind = vfg.def_site.get(node, (None, "unknown"))
        if not isinstance(node, TopNode) or kind not in _CLOSURE_KINDS:
            mfc.sources.add(node)
            continue
        if kind in _CONST_KINDS:
            mfc.sources.add(TOP)
            mfc.nodes.add(TOP)
            continue
        if kind == "binop" and uid is not None:
            instr = by_uid.get(uid)
            if isinstance(instr, ins.BinOp) and instr.op in _BITWISE_OPS:
                mfc.sources.add(node)
                continue
        preds = vfg.deps_of(node)
        if not preds:
            mfc.sources.add(node)
            continue
        for edge in preds:
            work.append(edge.src)
    return mfc
