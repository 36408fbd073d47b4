"""Basic blocks and functions of the TinyC IR."""

from __future__ import annotations

import weakref
from typing import Dict, Iterator, List, Optional

from repro.ir.instructions import Instr, MemPhi, Phi, _no_parent
from repro.ir.values import Var


class Block:
    """A basic block: a label, a straight-line body, and a terminator.

    The terminator (branch/jump/ret) is the last instruction of ``instrs``.
    ``mem_phis`` holds the memory-SSA φ nodes for address-taken variables
    joined at this block (filled by :mod:`repro.memssa`).  ``function``
    is a weak back-reference, like :attr:`Instr.block`.
    """

    def __init__(self, label: str) -> None:
        self.label = label
        self.instrs: List[Instr] = []
        self.mem_phis: List[MemPhi] = []
        self._function = _no_parent

    @property
    def function(self) -> Optional["Function"]:
        return self._function()

    @function.setter
    def function(self, function: Optional["Function"]) -> None:
        self._function = _no_parent if function is None else weakref.ref(function)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_function"] = _no_parent
        return state

    def __setstate__(self, state) -> None:
        # Copies and unpickled blocks own their instructions' links.
        self.__dict__.update(state)
        for instr in self.instrs:
            instr.block = self

    def append(self, instr: Instr) -> Instr:
        """Append ``instr`` to the block body and return it."""
        if self.terminated:
            raise ValueError(f"block {self.label} already has a terminator")
        instr.block = self
        self.instrs.append(instr)
        return instr

    @property
    def terminated(self) -> bool:
        return bool(self.instrs) and self.instrs[-1].is_terminator()

    @property
    def terminator(self) -> Instr:
        if not self.terminated:
            raise ValueError(f"block {self.label} has no terminator")
        return self.instrs[-1]

    def phis(self) -> List[Phi]:
        """The top-level φ instructions at the head of this block."""
        out: List[Phi] = []
        for instr in self.instrs:
            if isinstance(instr, Phi):
                out.append(instr)
            else:
                break
        return out

    def non_phi_instrs(self) -> List[Instr]:
        return [i for i in self.instrs if not isinstance(i, Phi)]

    def successors(self) -> List[str]:
        return list(self.terminator.successors())

    def __str__(self) -> str:
        return self.label

    def __repr__(self) -> str:
        return f"<Block {self.label}, {len(self.instrs)} instrs>"


class Function:
    """A TinyC IR function: parameters plus an ordered list of blocks.

    The first block is the entry block.  After memory-SSA construction,
    ``virtual_params`` lists the address-taken locations flowing across
    this function's boundary (the ``[ρ]`` lists of Figure 4), and
    ``entry_versions`` their versions at function entry.
    """

    def __init__(self, name: str, params: Optional[List[str]] = None) -> None:
        self.name = name
        self.params: List[str] = list(params or [])
        self.blocks: List[Block] = []
        self._by_label: Dict[str, Block] = {}
        # Filled by memory-SSA construction.
        self.virtual_params: List[object] = []
        self.entry_versions: Dict[object, int] = {}

    @property
    def entry(self) -> Block:
        if not self.blocks:
            raise ValueError(f"function {self.name} has no blocks")
        return self.blocks[0]

    def add_block(self, label: str) -> Block:
        """Create, register and return a new block labelled ``label``."""
        if label in self._by_label:
            raise ValueError(f"duplicate block label: {label}")
        block = Block(label)
        block.function = self
        self.blocks.append(block)
        self._by_label[label] = block
        return block

    def block(self, label: str) -> Block:
        return self._by_label[label]

    def has_block(self, label: str) -> bool:
        return label in self._by_label

    def remove_block(self, label: str) -> None:
        block = self._by_label.pop(label)
        self.blocks.remove(block)

    def instructions(self) -> Iterator[Instr]:
        """Iterate over all instructions in block order."""
        for block in self.blocks:
            yield from block.instrs

    def param_vars(self) -> List[Var]:
        return [Var(p) for p in self.params]

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        for block in self.blocks:
            block.function = self

    def __repr__(self) -> str:
        return f"<Function {self.name}({', '.join(self.params)})>"
