"""Instruction set of the TinyC intermediate representation.

The instruction set corresponds one-to-one with the statement forms of the
paper's TinyC language (Figure 1), extended the same way Figure 4 extends it
for SSA form:

======================  =======================================
Paper form              IR instruction
======================  =======================================
``x := n``              :class:`ConstCopy`
``x := y``              :class:`Copy`
``x := y ⊕ z``          :class:`BinOp` (plus unary :class:`UnOp`)
``x := alloc_T ρ``      :class:`Alloc` (``initialized=True``)
``x := alloc_F ρ``      :class:`Alloc` (``initialized=False``)
``x := *y``             :class:`Load`
``*x := y``             :class:`Store`
``x := f(y)``           :class:`Call`
``if x goto l``         :class:`Branch`
``ret r``               :class:`Ret`
``v := φ(v, v)``        :class:`Phi`
======================  =======================================

Beyond the paper's minimal subset the IR adds what the evaluated
implementation needed: field addressing (:class:`Gep`, for the offset-based
field-sensitive pointer analysis), global/function address constants
(:class:`GlobalAddr`, :class:`FuncAddr`), unconditional jumps, and an
:class:`Output` instruction standing in for externally-visible writes, which
MSan also treats as a check point.

Memory-SSA annotations (``mus``/``chis`` — the μ and χ functions of
Figure 4) and call-boundary virtual parameters are attached to instructions
by :mod:`repro.memssa` after pointer analysis.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.ir.values import Const, Value, Var

#: Binary operators supported by :class:`BinOp`.
BINARY_OPS = (
    "+", "-", "*", "/", "%",
    "<", "<=", ">", ">=", "==", "!=",
    "&", "|", "^", "<<", ">>",
)

#: Unary operators supported by :class:`UnOp`.
UNARY_OPS = ("-", "!", "~")


@dataclass
class Mu:
    """A μ(ρ) annotation: a potential indirect use of a memory location.

    ``loc`` identifies the address-taken variable (an ``(object, field)``
    pair, see :mod:`repro.analysis.memobjects`); ``version`` is filled in by
    SSA renaming.
    """

    loc: object
    version: Optional[int] = None

    def __str__(self) -> str:
        v = "?" if self.version is None else str(self.version)
        return f"mu({self.loc}.{v})"


@dataclass
class Chi:
    """A ``ρ_m := χ(ρ_n)`` annotation: a potential indirect def (and use).

    ``new_version`` is the freshly defined SSA version ``m`` and
    ``old_version`` the incoming version ``n``.
    """

    loc: object
    new_version: Optional[int] = None
    old_version: Optional[int] = None

    def __str__(self) -> str:
        m = "?" if self.new_version is None else str(self.new_version)
        n = "?" if self.old_version is None else str(self.old_version)
        return f"{self.loc}.{m} := chi({self.loc}.{n})"


def _no_parent() -> None:
    """The parent link of an IR node that has no parent."""
    return None


class Instr:
    """Base class of all IR instructions.

    Attributes:
        uid: A module-unique integer id, assigned by
            :meth:`repro.ir.module.Module.assign_uids`.  Instrumentation
            plans are keyed by it.
        block: Back-reference to the containing block (set on insertion).
            It is weak, so the IR holds no reference cycle: it reads
            ``None`` once nothing else holds the block.
        mus: μ annotations (loads and calls).
        chis: χ annotations (allocs, stores and calls).
    """

    uid: int = -1

    def __init__(self) -> None:
        self.uid = -1
        self._block = _no_parent
        self.mus: List[Mu] = []
        self.chis: List[Chi] = []
        #: Source line this instruction was lowered from (None if
        #: synthetic); used for diagnostics.
        self.line: Optional[int] = None

    @property
    def block(self):
        return self._block()

    @block.setter
    def block(self, block) -> None:
        self._block = _no_parent if block is None else weakref.ref(block)

    def __getstate__(self):
        # A weak reference neither pickles nor copies; the containing
        # block relinks its instructions (``Block.__setstate__``).
        state = self.__dict__.copy()
        state["_block"] = _no_parent
        return state

    def defs(self) -> Tuple[Var, ...]:
        """Top-level variables defined by this instruction."""
        return ()

    def uses(self) -> Tuple[Var, ...]:
        """Top-level variables used by this instruction."""
        return ()

    def replace_uses(self, mapping: Dict[Var, Value]) -> None:
        """Rewrite operand variables according to ``mapping``.

        Used by SSA renaming and the optimization passes.  Unmapped
        operands are left untouched.
        """

    def is_terminator(self) -> bool:
        return False

    def _annot(self) -> str:
        parts = [str(m) for m in self.mus] + [str(c) for c in self.chis]
        return f"  [{', '.join(parts)}]" if parts else ""


def _subst(value: Value, mapping: Dict[Var, Value]) -> Value:
    if isinstance(value, Var) and value in mapping:
        return mapping[value]
    return value


class ConstCopy(Instr):
    """``x := n`` — copy a constant into a top-level variable."""

    def __init__(self, dst: Var, value: int) -> None:
        super().__init__()
        self.dst = dst
        self.value = value

    def defs(self) -> Tuple[Var, ...]:
        return (self.dst,)

    def __str__(self) -> str:
        return f"{self.dst} := {self.value}{self._annot()}"


class Copy(Instr):
    """``x := y`` — copy one top-level variable into another."""

    def __init__(self, dst: Var, src: Value) -> None:
        super().__init__()
        self.dst = dst
        self.src = src

    def defs(self) -> Tuple[Var, ...]:
        return (self.dst,)

    def uses(self) -> Tuple[Var, ...]:
        return tuple(v for v in (self.src,) if isinstance(v, Var))

    def replace_uses(self, mapping: Dict[Var, Value]) -> None:
        self.src = _subst(self.src, mapping)

    def __str__(self) -> str:
        return f"{self.dst} := {self.src}{self._annot()}"


class BinOp(Instr):
    """``x := y ⊕ z`` — binary operation on top-level values."""

    def __init__(self, dst: Var, op: str, lhs: Value, rhs: Value) -> None:
        super().__init__()
        if op not in BINARY_OPS:
            raise ValueError(f"unknown binary operator: {op!r}")
        self.dst = dst
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def defs(self) -> Tuple[Var, ...]:
        return (self.dst,)

    def uses(self) -> Tuple[Var, ...]:
        return tuple(v for v in (self.lhs, self.rhs) if isinstance(v, Var))

    def replace_uses(self, mapping: Dict[Var, Value]) -> None:
        self.lhs = _subst(self.lhs, mapping)
        self.rhs = _subst(self.rhs, mapping)

    def __str__(self) -> str:
        return f"{self.dst} := {self.lhs} {self.op} {self.rhs}{self._annot()}"


class UnOp(Instr):
    """``x := ⊖y`` — unary operation on a top-level value."""

    def __init__(self, dst: Var, op: str, operand: Value) -> None:
        super().__init__()
        if op not in UNARY_OPS:
            raise ValueError(f"unknown unary operator: {op!r}")
        self.dst = dst
        self.op = op
        self.operand = operand

    def defs(self) -> Tuple[Var, ...]:
        return (self.dst,)

    def uses(self) -> Tuple[Var, ...]:
        return tuple(v for v in (self.operand,) if isinstance(v, Var))

    def replace_uses(self, mapping: Dict[Var, Value]) -> None:
        self.operand = _subst(self.operand, mapping)

    def __str__(self) -> str:
        return f"{self.dst} := {self.op}{self.operand}{self._annot()}"


class Alloc(Instr):
    """``x := alloc_T ρ`` / ``x := alloc_F ρ`` — memory allocation.

    ``obj_name`` names the abstract object ρ.  ``initialized`` selects
    between ``alloc_T`` (contents defined, e.g. ``calloc`` or a C global)
    and ``alloc_F`` (contents undefined, e.g. ``malloc`` or a C stack
    local).  ``kind`` is ``"stack"`` or ``"heap"``; ``num_fields`` and
    ``is_array`` drive the field-sensitive memory model (arrays are
    collapsed to a single field, as in the paper).
    """

    def __init__(
        self,
        dst: Var,
        obj_name: str,
        initialized: bool,
        kind: str = "stack",
        size: int = 1,
        is_array: bool = False,
    ) -> None:
        super().__init__()
        if kind not in ("stack", "heap"):
            raise ValueError(f"bad alloc kind: {kind!r}")
        if size < 1:
            raise ValueError("size must be >= 1")
        self.dst = dst
        self.obj_name = obj_name
        self.initialized = initialized
        self.kind = kind
        self.size = size
        self.is_array = is_array

    @property
    def num_fields(self) -> int:
        """Static field count: arrays are collapsed to a single field."""
        return 1 if self.is_array else self.size

    def defs(self) -> Tuple[Var, ...]:
        return (self.dst,)

    def __str__(self) -> str:
        flavor = "T" if self.initialized else "F"
        extra = f", fields={self.size}" if self.size > 1 else ""
        if self.is_array:
            extra = f", array[{self.size}]"
        return (
            f"{self.dst} := alloc_{flavor} {self.obj_name}"
            f" ({self.kind}{extra}){self._annot()}"
        )


class Gep(Instr):
    """``x := &y[offset]`` — element/field address computation.

    ``offset`` is a runtime value.  The offset-based field-sensitive
    pointer analysis uses the *static* offset — the constant value when
    ``offset`` is a :class:`Const`, otherwise the access is collapsed to
    the whole object (exactly the paper's "arrays are treated as a whole").
    """

    def __init__(self, dst: Var, base: Value, offset: Value) -> None:
        super().__init__()
        if isinstance(offset, Const) and offset.value < 0:
            raise ValueError("constant field offsets must be non-negative")
        self.dst = dst
        self.base = base
        self.offset = offset

    @property
    def static_offset(self) -> Optional[int]:
        """The constant offset, or ``None`` when it is only known at run
        time (which collapses the access to the whole object)."""
        if isinstance(self.offset, Const):
            return self.offset.value
        return None

    def defs(self) -> Tuple[Var, ...]:
        return (self.dst,)

    def uses(self) -> Tuple[Var, ...]:
        return tuple(
            v for v in (self.base, self.offset) if isinstance(v, Var)
        )

    def replace_uses(self, mapping: Dict[Var, Value]) -> None:
        self.base = _subst(self.base, mapping)
        self.offset = _subst(self.offset, mapping)

    def __str__(self) -> str:
        return f"{self.dst} := gep {self.base}, {self.offset}{self._annot()}"


class GlobalAddr(Instr):
    """``x := &g`` — take the address of a global variable.

    Globals are address-taken variables in LLVM and in this IR; they are
    only ever accessed through loads and stores on such addresses.
    """

    def __init__(self, dst: Var, global_name: str) -> None:
        super().__init__()
        self.dst = dst
        self.global_name = global_name

    def defs(self) -> Tuple[Var, ...]:
        return (self.dst,)

    def __str__(self) -> str:
        return f"{self.dst} := &{self.global_name}{self._annot()}"


class FuncAddr(Instr):
    """``x := &f`` — take the address of a function (function pointer)."""

    def __init__(self, dst: Var, func_name: str) -> None:
        super().__init__()
        self.dst = dst
        self.func_name = func_name

    def defs(self) -> Tuple[Var, ...]:
        return (self.dst,)

    def __str__(self) -> str:
        return f"{self.dst} := &{self.func_name}(){self._annot()}"


class Load(Instr):
    """``x := *y`` — load through a top-level pointer.

    The pointer use is a critical operation (Definition 1): dereferencing
    an undefined pointer must be flagged at run time.
    """

    def __init__(self, dst: Var, ptr: Value) -> None:
        super().__init__()
        self.dst = dst
        self.ptr = ptr

    def defs(self) -> Tuple[Var, ...]:
        return (self.dst,)

    def uses(self) -> Tuple[Var, ...]:
        return tuple(v for v in (self.ptr,) if isinstance(v, Var))

    def replace_uses(self, mapping: Dict[Var, Value]) -> None:
        self.ptr = _subst(self.ptr, mapping)

    def critical_uses(self) -> Tuple[Value, ...]:
        return (self.ptr,)

    def __str__(self) -> str:
        return f"{self.dst} := *{self.ptr}{self._annot()}"


class Store(Instr):
    """``*x := y`` — store through a top-level pointer.

    The pointer use is a critical operation.
    """

    def __init__(self, ptr: Value, value: Value) -> None:
        super().__init__()
        self.ptr = ptr
        self.value = value

    def uses(self) -> Tuple[Var, ...]:
        return tuple(v for v in (self.ptr, self.value) if isinstance(v, Var))

    def replace_uses(self, mapping: Dict[Var, Value]) -> None:
        self.ptr = _subst(self.ptr, mapping)
        self.value = _subst(self.value, mapping)

    def critical_uses(self) -> Tuple[Value, ...]:
        return (self.ptr,)

    def __str__(self) -> str:
        return f"*{self.ptr} := {self.value}{self._annot()}"


class Call(Instr):
    """``x := f(y, ...)`` — direct or indirect function call.

    ``callee`` is a function name for direct calls or a :class:`Var` whose
    points-to set (of function objects) resolves the targets of an indirect
    call.  ``dst`` may be ``None`` for calls whose result is ignored.

    After memory-SSA construction, ``mus``/``chis`` carry the virtual
    argument and output-parameter bindings at this call site (Figure 4).
    """

    def __init__(
        self,
        dst: Optional[Var],
        callee: Union[str, Var],
        args: Optional[List[Value]] = None,
    ) -> None:
        super().__init__()
        self.dst = dst
        self.callee = callee
        self.args: List[Value] = list(args or [])

    @property
    def is_indirect(self) -> bool:
        return isinstance(self.callee, Var)

    def defs(self) -> Tuple[Var, ...]:
        return (self.dst,) if self.dst is not None else ()

    def uses(self) -> Tuple[Var, ...]:
        used = [v for v in self.args if isinstance(v, Var)]
        if isinstance(self.callee, Var):
            used.append(self.callee)
        return tuple(used)

    def replace_uses(self, mapping: Dict[Var, Value]) -> None:
        self.args = [_subst(a, mapping) for a in self.args]
        if isinstance(self.callee, Var):
            new = _subst(self.callee, mapping)
            if isinstance(new, Var):
                self.callee = new

    def __str__(self) -> str:
        callee = f"*{self.callee}" if self.is_indirect else str(self.callee)
        args = ", ".join(str(a) for a in self.args)
        head = f"{self.dst} := " if self.dst is not None else ""
        return f"{head}{callee}({args}){self._annot()}"


class Branch(Instr):
    """``if x goto l_then else l_else`` — conditional branch.

    The condition use is a critical operation.
    """

    def __init__(self, cond: Value, then_label: str, else_label: str) -> None:
        super().__init__()
        self.cond = cond
        self.then_label = then_label
        self.else_label = else_label

    def uses(self) -> Tuple[Var, ...]:
        return tuple(v for v in (self.cond,) if isinstance(v, Var))

    def replace_uses(self, mapping: Dict[Var, Value]) -> None:
        self.cond = _subst(self.cond, mapping)

    def critical_uses(self) -> Tuple[Value, ...]:
        return (self.cond,)

    def is_terminator(self) -> bool:
        return True

    def successors(self) -> Tuple[str, ...]:
        return (self.then_label, self.else_label)

    def __str__(self) -> str:
        return f"if {self.cond} goto {self.then_label} else {self.else_label}"


class Jump(Instr):
    """``goto l`` — unconditional branch."""

    def __init__(self, target: str) -> None:
        super().__init__()
        self.target = target

    def is_terminator(self) -> bool:
        return True

    def successors(self) -> Tuple[str, ...]:
        return (self.target,)

    def __str__(self) -> str:
        return f"goto {self.target}"


class Ret(Instr):
    """``ret r`` — function return.

    After memory-SSA construction, ``mus`` carry the virtual output
    parameters (the live-out versions of the function's modified
    address-taken variables, Figure 4).
    """

    def __init__(self, value: Optional[Value] = None) -> None:
        super().__init__()
        self.value = value

    def uses(self) -> Tuple[Var, ...]:
        return tuple(v for v in (self.value,) if isinstance(v, Var))

    def replace_uses(self, mapping: Dict[Var, Value]) -> None:
        if self.value is not None:
            self.value = _subst(self.value, mapping)

    def is_terminator(self) -> bool:
        return True

    def successors(self) -> Tuple[str, ...]:
        return ()

    def __str__(self) -> str:
        suffix = f" {self.value}" if self.value is not None else ""
        return f"ret{suffix}{self._annot()}"


class Output(Instr):
    """``output x`` — externally observable write (a check point).

    Stands in for values escaping to the OS (``write``/``printf``), which
    MSan's runtime also checks for definedness.
    """

    def __init__(self, value: Value) -> None:
        super().__init__()
        self.value = value

    def uses(self) -> Tuple[Var, ...]:
        return tuple(v for v in (self.value,) if isinstance(v, Var))

    def replace_uses(self, mapping: Dict[Var, Value]) -> None:
        self.value = _subst(self.value, mapping)

    def critical_uses(self) -> Tuple[Value, ...]:
        return (self.value,)

    def __str__(self) -> str:
        return f"output {self.value}{self._annot()}"


class Phi(Instr):
    """``v := φ(v, v)`` — SSA join for a top-level variable.

    ``incomings`` maps predecessor block labels to the incoming value.
    """

    def __init__(self, dst: Var, incomings: Optional[Dict[str, Value]] = None) -> None:
        super().__init__()
        self.dst = dst
        self.incomings: Dict[str, Value] = dict(incomings or {})

    def defs(self) -> Tuple[Var, ...]:
        return (self.dst,)

    def uses(self) -> Tuple[Var, ...]:
        return tuple(v for v in self.incomings.values() if isinstance(v, Var))

    def replace_uses(self, mapping: Dict[Var, Value]) -> None:
        self.incomings = {
            label: _subst(value, mapping) for label, value in self.incomings.items()
        }

    def __str__(self) -> str:
        args = ", ".join(
            f"{label}: {value}" for label, value in sorted(self.incomings.items())
        )
        return f"{self.dst} := phi({args}){self._annot()}"


@dataclass
class MemPhi:
    """``ρ_l := φ(ρ_m, ρ_n)`` — SSA join for an address-taken variable.

    Memory φs live on blocks (not in the instruction stream); they are
    created by memory-SSA construction and consumed by the VFG builder and
    by guided instrumentation ([Phi] rule).
    """

    loc: object
    new_version: Optional[int] = None
    incomings: Dict[str, Optional[int]] = field(default_factory=dict)

    def __str__(self) -> str:
        args = ", ".join(
            f"{label}: {self.loc}.{v}" for label, v in sorted(self.incomings.items())
        )
        return f"{self.loc}.{self.new_version} := mphi({args})"


def has_critical_uses(instr: Instr) -> bool:
    """Whether ``instr`` performs a critical operation (Definition 1)."""
    return isinstance(instr, (Load, Store, Branch, Output))
