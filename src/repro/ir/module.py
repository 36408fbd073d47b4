"""Modules: whole TinyC programs in IR form."""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.ir.function import Function
from repro.ir.instructions import Instr


class GlobalVariable:
    """A global variable declaration.

    In LLVM (and in this IR, mirroring Section 4.1 of the paper) globals
    are address-taken variables accessed only via loads and stores.  C
    default-initializes globals, so their contents are defined unless
    ``initialized=False`` is forced (useful for testing).
    """

    def __init__(
        self,
        name: str,
        initialized: bool = True,
        size: int = 1,
        is_array: bool = False,
    ) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        self.name = name
        self.initialized = initialized
        self.size = size
        self.is_array = is_array

    @property
    def num_fields(self) -> int:
        """Static field count: arrays are collapsed to a single field."""
        return 1 if self.is_array else self.size

    def __repr__(self) -> str:
        return f"<Global {self.name}>"


class Module:
    """A whole program: globals plus functions, with ``main`` as entry."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.globals: Dict[str, GlobalVariable] = {}
        self._uid_cache: Optional[Dict[int, Instr]] = None

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise ValueError(f"duplicate function: {function.name}")
        self.functions[function.name] = function
        return function

    def add_global(self, glob: GlobalVariable) -> GlobalVariable:
        if glob.name in self.globals:
            raise ValueError(f"duplicate global: {glob.name}")
        self.globals[glob.name] = glob
        return glob

    def function(self, name: str) -> Function:
        return self.functions[name]

    @property
    def main(self) -> Function:
        return self.functions["main"]

    def instructions(self) -> Iterator[Instr]:
        for function in self.functions.values():
            yield from function.instructions()

    def assign_uids(self) -> None:
        """Assign module-unique ids to instructions that lack one.

        Ids are *stable*: an instruction keeps its uid for its lifetime,
        so analysis results keyed by uid (pointer analysis, call graph,
        instrumentation plans) survive passes that insert or remove
        instructions (e.g. SSA φ insertion).  Call this after any pass
        that creates instructions.
        """
        seen = set()
        max_uid = -1
        fresh = []  # instructions without a uid or with a duplicate one
        for function in self.functions.values():
            for block in function.blocks:
                for instr in block.instrs:
                    uid = instr.uid
                    if uid >= 0 and uid not in seen:
                        seen.add(uid)
                        if uid > max_uid:
                            max_uid = uid
                    else:
                        fresh.append(instr)
        for next_uid, instr in enumerate(fresh, start=max_uid + 1):
            instr.uid = next_uid
        self._uid_cache = None

    def instr_by_uid(self) -> Dict[int, Instr]:
        """The uid → instruction map, as of the last :meth:`assign_uids`.

        Cached (the analyses query it in hot loops); passes that create
        instructions must call :meth:`assign_uids`, which invalidates it.
        """
        if self._uid_cache is None:
            self._uid_cache = {
                instr.uid: instr for instr in self.instructions()
            }
        return self._uid_cache

    def __repr__(self) -> str:
        return (
            f"<Module {self.name}: {len(self.functions)} functions, "
            f"{len(self.globals)} globals>"
        )
