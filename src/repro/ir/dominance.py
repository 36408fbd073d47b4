"""Dominator trees and dominance frontiers.

Implements the Cooper-Harvey-Kennedy iterative dominance algorithm, which
is simple and fast in practice, plus the standard dominance-frontier
computation used for SSA φ placement (Cytron et al.).

The paper relies on CFG dominance twice: semi-strong updates require the
allocation site to dominate the store (Section 3.2), and redundant check
elimination requires one critical statement to dominate another
(Algorithm 1, line 7).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.ir.cfg import CFG
from repro.ir.function import Function
from repro.ir.instructions import Instr


class DominatorTree:
    """Immediate dominators, dominance queries and dominance frontiers."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self.cfg = CFG(function)
        self.idom: Dict[str, Optional[str]] = {}
        self._rpo_index: Dict[str, int] = {}
        self._compute_idoms()
        self.frontier: Dict[str, Set[str]] = self._compute_frontiers()
        self.children: Dict[str, List[str]] = {label: [] for label in self.idom}
        for label, parent in self.idom.items():
            if parent is not None and parent != label:
                self.children[parent].append(label)
        self._depth: Dict[str, int] = {}
        self._compute_depths()

    def _compute_idoms(self) -> None:
        rpo = self.cfg.reverse_postorder()
        self._rpo_index = {label: i for i, label in enumerate(rpo)}
        entry = self.cfg.entry
        idom: Dict[str, Optional[str]] = {label: None for label in rpo}
        idom[entry] = entry
        changed = True
        while changed:
            changed = False
            for label in rpo:
                if label == entry:
                    continue
                new_idom: Optional[str] = None
                for pred in self.cfg.preds[label]:
                    if pred not in self._rpo_index or idom.get(pred) is None:
                        continue
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = self._intersect(new_idom, pred, idom)
                if new_idom is not None and idom[label] != new_idom:
                    idom[label] = new_idom
                    changed = True
        self.idom = idom

    def _intersect(
        self, a: str, b: str, idom: Dict[str, Optional[str]]
    ) -> str:
        index = self._rpo_index
        while a != b:
            while index[a] > index[b]:
                a = idom[a]  # type: ignore[assignment]
            while index[b] > index[a]:
                b = idom[b]  # type: ignore[assignment]
        return a

    def _compute_frontiers(self) -> Dict[str, Set[str]]:
        frontier: Dict[str, Set[str]] = {label: set() for label in self.idom}
        for label in self.idom:
            preds = [p for p in self.cfg.preds[label] if p in self._rpo_index]
            if len(preds) < 2:
                continue
            for pred in preds:
                runner = pred
                while runner != self.idom[label] and runner is not None:
                    frontier[runner].add(label)
                    runner = self.idom[runner]
        return frontier

    def _compute_depths(self) -> None:
        entry = self.cfg.entry
        self._depth[entry] = 0
        stack = [entry]
        while stack:
            label = stack.pop()
            for child in self.children.get(label, []):
                self._depth[child] = self._depth[label] + 1
                stack.append(child)

    def dominates(self, a: str, b: str) -> bool:
        """Whether block ``a`` dominates block ``b`` (reflexively)."""
        if a not in self._depth or b not in self._depth:
            return False
        while self._depth.get(b, -1) > self._depth[a]:
            b = self.idom[b]  # type: ignore[assignment]
        return a == b

    def strictly_dominates(self, a: str, b: str) -> bool:
        return a != b and self.dominates(a, b)

    def instr_dominates(self, a: Instr, b: Instr) -> bool:
        """Whether instruction ``a`` dominates instruction ``b``.

        Both must belong to this function.  Within a block, earlier
        instructions dominate later ones.
        """
        block_a = a.block
        label_a, label_b = block_a.label, b.block.label
        if label_a == label_b:
            instrs = block_a.instrs
            return instrs.index(a) <= instrs.index(b)
        return self.dominates(label_a, label_b)

    def iterated_frontier(self, blocks: Set[str]) -> Set[str]:
        """The iterated dominance frontier of a set of blocks (for φs)."""
        result: Set[str] = set()
        work = [b for b in blocks if b in self.frontier]
        seen: Set[str] = set(work)
        while work:
            block = work.pop()
            for f in self.frontier.get(block, ()):
                if f not in result:
                    result.add(f)
                    if f not in seen:
                        seen.add(f)
                        work.append(f)
        return result


def loop_blocks(function: Function) -> Set[str]:
    """Labels of blocks that are part of some natural loop.

    A block is "in a loop" if it can reach itself through the CFG.  The
    semi-strong update rule is most profitable for stores in loops
    (Section 3.2); the statistics of Table 1 also report per-loop figures.
    Computed via Tarjan SCCs: a block is loop-resident iff its SCC has more
    than one node or it has a self-edge.
    """
    cfg = CFG(function)
    index: Dict[str, int] = {}
    lowlink: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    result: Set[str] = set()
    counter = [0]

    labels = [b.label for b in function.blocks]

    def strongconnect(root: str) -> None:
        work = [(root, iter(cfg.succs[root]))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, children = work[-1]
            advanced = False
            for child in children:
                if child not in index:
                    index[child] = lowlink[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(cfg.succs[child])))
                    advanced = True
                    break
                if child in on_stack:
                    lowlink[node] = min(lowlink[node], index[child])
            if not advanced:
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    scc: List[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        scc.append(member)
                        if member == node:
                            break
                    if len(scc) > 1 or node in cfg.succs[node]:
                        result.update(scc)

    for label in labels:
        if label not in index:
            strongconnect(label)
    return result
