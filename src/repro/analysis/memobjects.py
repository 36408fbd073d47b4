"""Abstract memory objects and locations.

The pointer analysis abstracts runtime memory into *abstract objects*:
one per allocation site (possibly cloned per call site for allocation
wrappers — the paper's "1-callsite-sensitive heap cloning"), one per
global variable, and one per function (for function pointers).

Field sensitivity is offset-based: an object with ``n`` fields yields the
locations ``(obj, 0) .. (obj, n-1)``.  Arrays are collapsed to a single
field ("arrays are treated as a whole", Section 4.1).  A
:class:`MemLoc` — an ``(object, field)`` pair — is the paper's
"address-taken variable" ρ: the unit of μ/χ annotation, memory SSA and
VFG construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

STACK = "stack"
HEAP = "heap"
GLOBAL = "global"
FUNC = "func"


@dataclass(frozen=True)
class MemObject:
    """An abstract memory object.

    Attributes:
        name: Unique identifier (allocation-site name, global name or
            function name; heap clones append their call-site id).
        kind: ``"stack"``, ``"heap"``, ``"global"`` or ``"func"``.
        initialized: Whether the object's storage starts defined
            (``alloc_T``: calloc-style allocation or a C global).
        is_array: Collapses all accesses to field 0.
        size: Number of runtime cells (= fields unless an array).
        func: Owning function for stack/heap objects, target function
            name for function objects, ``None`` for globals.
        alloc_uid: uid of the allocating instruction (``None`` for
            globals and functions).
        context: Call-site uid for heap-cloned objects, else ``None``.
    """

    name: str
    kind: str
    initialized: bool = False
    is_array: bool = False
    size: int = 1
    func: Optional[str] = None
    alloc_uid: Optional[int] = None
    context: Optional[int] = None

    def __post_init__(self) -> None:
        # Hash once: the value the generated ``__hash__`` would return.
        object.__setattr__(self, "_hash", hash(self._fields()))

    def _fields(self) -> tuple:
        return (
            self.name,
            self.kind,
            self.initialized,
            self.is_array,
            self.size,
            self.func,
            self.alloc_uid,
            self.context,
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor, so the hash is recomputed
        # under the unpickling process's hash seed.
        return (MemObject, self._fields())

    @property
    def num_fields(self) -> int:
        return 1 if self.is_array else self.size

    @property
    def is_function(self) -> bool:
        return self.kind == FUNC

    def locs(self) -> List["MemLoc"]:
        """All locations of this object."""
        return [MemLoc(self, f) for f in range(self.num_fields)]

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class MemLoc:
    """An address-taken variable ρ: an ``(object, field)`` pair."""

    obj: MemObject
    field: int = 0

    def __post_init__(self) -> None:
        # Hash once (see MemObject).
        object.__setattr__(self, "_hash", hash((self.obj, self.field)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (MemLoc, (self.obj, self.field))

    def shifted(self, offset: Optional[int]) -> Tuple["MemLoc", ...]:
        """The locations ``offset`` fields further into the object.

        Arrays are collapsed to their single field.  A constant offset
        is clamped to the object's field count (mirroring the
        offset-based model of [10]); a non-constant offset (``None``)
        may land on *any* field, so all of them are returned.
        """
        if self.obj.is_array:
            return (MemLoc(self.obj, 0),)
        if offset is None:
            return tuple(MemLoc(self.obj, f) for f in range(self.obj.num_fields))
        target = min(self.field + offset, self.obj.num_fields - 1)
        return (MemLoc(self.obj, target),)

    def __str__(self) -> str:
        if self.obj.num_fields > 1:
            return f"{self.obj.name}#{self.field}"
        return self.obj.name


@dataclass(frozen=True)
class PVar:
    """A top-level pointer-analysis variable, qualified by function.

    ``func`` is ``None`` for synthetic whole-program variables.
    """

    func: Optional[str]
    name: str

    def __str__(self) -> str:
        return f"{self.func or '<global>'}::{self.name}"


def global_object(name: str, initialized: bool, size: int, is_array: bool) -> MemObject:
    return MemObject(
        name=f"g:{name}",
        kind=GLOBAL,
        initialized=initialized,
        is_array=is_array,
        size=size,
    )


def function_object(name: str) -> MemObject:
    return MemObject(name=f"fn:{name}", kind=FUNC, initialized=True, func=name)
