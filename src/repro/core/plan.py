"""Instrumentation plans: the shadow operations a tool inserts.

An :class:`InstrumentationPlan` is the output of both the MSan-style full
instrumentation and Usher's guided instrumentation: for every
instruction, the shadow operations (Figure 7's instrumentation items)
executed alongside it, plus per-function entry operations.

The shadow machine model mirrors MSan's:

- every top-level SSA variable has a shadow σ(x) ∈ {T, F};
- every concrete memory cell has a shadow in shadow memory, addressed
  through the same pointer values the program uses (σ(*x));
- a global relay σ_g shadows parameter/return passing across scopes;
- E(l) records runtime check failures (warnings).

Each operation knows how many shadow *reads* it performs — the paper's
"shadow propagations" metric (Figure 11) — and whether it is a check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.ir.values import Value, Var

#: A shadow slot for a top-level SSA variable: (name, version).
VarSlot = Tuple[str, int]


def var_slot(var: Var) -> VarSlot:
    return (var.name, var.version or 0)


@dataclass(frozen=True)
class ShadowOp:
    """Base class of shadow operations."""

    @property
    def reads(self) -> int:
        """Number of shadow-variable reads this operation performs."""
        return 0

    @property
    def is_check(self) -> bool:
        return False


@dataclass(frozen=True)
class SetShadowVar(ShadowOp):
    """``σ(x) := T/F`` — strong update of a top-level shadow."""

    dst: VarSlot
    literal: bool  # True = defined

    def __str__(self) -> str:
        return f"σ({_s(self.dst)}) := {'T' if self.literal else 'F'}"


@dataclass(frozen=True)
class CopyShadowVar(ShadowOp):
    """``σ(x) := σ(y)``."""

    dst: VarSlot
    src: VarSlot

    @property
    def reads(self) -> int:
        return 1

    def __str__(self) -> str:
        return f"σ({_s(self.dst)}) := σ({_s(self.src)})"


@dataclass(frozen=True)
class AndShadowVar(ShadowOp):
    """``σ(x) := σ(y₁) ∧ … ∧ σ(yₙ)`` — conjunction of source shadows.

    Used for non-bitwise value combinations (address computations, Opt
    I's simplified must-flow closures), where full-spread semantics
    makes the conjunction exact: the result is undefined iff any source
    is (§4.1)."""

    dst: VarSlot
    srcs: Tuple[VarSlot, ...]

    @property
    def reads(self) -> int:
        return len(self.srcs)

    def __str__(self) -> str:
        srcs = " ∧ ".join(f"σ({_s(s)})" for s in self.srcs)
        return f"σ({_s(self.dst)}) := {srcs or 'T'}"


@dataclass(frozen=True)
class BinOpShadow(ShadowOp):
    """``σ(x) := σ(y) ⊕̂ σ(z)`` — the bit-precise shadow of a binary
    operation ([⊥-Bop], with the bit-operation semantics of [24]: the
    laundering rules for ``&``/``|``/shifts need the operand *values*,
    which is why the operands travel with the op)."""

    dst: VarSlot
    op: str
    lhs: Value
    rhs: Value

    @property
    def reads(self) -> int:
        return sum(1 for v in (self.lhs, self.rhs) if isinstance(v, Var))

    def __str__(self) -> str:
        return f"σ({_s(self.dst)}) := σ({self.lhs}) {self.op}̂ σ({self.rhs})"


@dataclass(frozen=True)
class UnOpShadow(ShadowOp):
    """``σ(x) := ⊖̂ σ(y)`` — the bit-precise shadow of a unary op."""

    dst: VarSlot
    op: str
    operand: Value

    @property
    def reads(self) -> int:
        return 1 if isinstance(self.operand, Var) else 0

    def __str__(self) -> str:
        return f"σ({_s(self.dst)}) := {self.op}̂ σ({self.operand})"


@dataclass(frozen=True)
class SetShadowMem(ShadowOp):
    """``σ(*x) := T/F`` — strong update of shadow memory through a
    pointer.  ``whole_object`` poisons/blesses the entire allocation
    (allocation sites); otherwise only the addressed cell."""

    ptr: VarSlot
    literal: bool
    whole_object: bool = False

    @property
    def reads(self) -> int:
        return 0

    def __str__(self) -> str:
        star = "**" if self.whole_object else "*"
        return f"σ({star}{_s(self.ptr)}) := {'T' if self.literal else 'F'}"


@dataclass(frozen=True)
class StoreShadow(ShadowOp):
    """``σ(*x) := σ(y)`` — shadow propagation of a store."""

    ptr: VarSlot
    src: Optional[VarSlot]  # None: the stored value is a constant (T)

    @property
    def reads(self) -> int:
        return 1 if self.src is not None else 0

    def __str__(self) -> str:
        src = f"σ({_s(self.src)})" if self.src else "T"
        return f"σ(*{_s(self.ptr)}) := {src}"


@dataclass(frozen=True)
class LoadShadow(ShadowOp):
    """``σ(x) := σ(*y)`` — shadow propagation of a load."""

    dst: VarSlot
    ptr: VarSlot

    @property
    def reads(self) -> int:
        return 1

    def __str__(self) -> str:
        return f"σ({_s(self.dst)}) := σ(*{_s(self.ptr)})"


@dataclass(frozen=True)
class RelayOut(ShadowOp):
    """``σ_g[i] := σ(y)`` at a call site (argument) or ``σ_g := σ(r)``
    at a return (``slot="ret"``)."""

    slot: Union[int, str]
    src: Optional[VarSlot]  # None: constant actual (T)

    @property
    def reads(self) -> int:
        return 1 if self.src is not None else 0

    def __str__(self) -> str:
        src = f"σ({_s(self.src)})" if self.src else "T"
        return f"σ_g[{self.slot}] := {src}"


@dataclass(frozen=True)
class RelayIn(ShadowOp):
    """``σ(a) := σ_g[i]`` at a function entry (parameter) or
    ``σ(x) := σ_g`` after a call (result, ``slot="ret"``)."""

    slot: Union[int, str]
    dst: VarSlot

    @property
    def reads(self) -> int:
        return 1

    def __str__(self) -> str:
        return f"σ({_s(self.dst)}) := σ_g[{self.slot}]"


@dataclass(frozen=True)
class PhiShadow(ShadowOp):
    """``σ(x) := σ(incoming)`` — the shadow of a φ copies the shadow of
    whichever incoming value the control flow selected."""

    dst: VarSlot
    incomings: Tuple[Tuple[str, Optional[VarSlot]], ...]  # (pred label, slot|None)

    @property
    def reads(self) -> int:
        return 1

    def __str__(self) -> str:
        args = ", ".join(
            f"{label}: {('σ(%s)' % _s(slot)) if slot else 'T'}"
            for label, slot in self.incomings
        )
        return f"σ({_s(self.dst)}) := φ({args})"


@dataclass(frozen=True)
class Check(ShadowOp):
    """``E(l) := σ(x) = F`` — a runtime definedness check."""

    operand: VarSlot
    label: int  # instruction uid

    @property
    def reads(self) -> int:
        return 1

    @property
    def is_check(self) -> bool:
        return True

    def __str__(self) -> str:
        return f"check σ({_s(self.operand)}) @ {self.label}"


def _s(slot: VarSlot) -> str:
    return f"{slot[0]}.{slot[1]}"


@dataclass
class InstrOps:
    """Shadow operations around one instruction."""

    pre: List[ShadowOp] = field(default_factory=list)
    post: List[ShadowOp] = field(default_factory=list)

    def all_ops(self) -> List[ShadowOp]:
        return self.pre + self.post


class InstrumentationPlan:
    """The full instrumentation decision for a module."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.ops: Dict[int, InstrOps] = {}
        self.entry_ops: Dict[str, List[ShadowOp]] = {}

    def at(self, uid: int) -> InstrOps:
        ops = self.ops.get(uid)
        if ops is None:
            ops = self.ops[uid] = InstrOps()
        return ops

    def add_pre(self, uid: int, op: ShadowOp) -> None:
        slot = self.at(uid)
        if op not in slot.pre:
            slot.pre.append(op)

    def add_post(self, uid: int, op: ShadowOp) -> None:
        slot = self.at(uid)
        if op not in slot.post:
            slot.post.append(op)

    def add_entry(self, func: str, op: ShadowOp) -> None:
        ops = self.entry_ops.setdefault(func, [])
        if op not in ops:
            ops.append(op)

    def iter_ops(self):
        for ops in self.entry_ops.values():
            yield from ops
        for instr_ops in self.ops.values():
            yield from instr_ops.all_ops()

    # ------------------------------------------------------------------
    # Static metrics (Figure 11)
    # ------------------------------------------------------------------
    def count_propagations(self) -> int:
        """Static number of shadow propagations (shadow reads)."""
        return sum(op.reads for op in self.iter_ops() if not op.is_check)

    def count_checks(self) -> int:
        """Static number of runtime checks at critical operations."""
        return sum(1 for op in self.iter_ops() if op.is_check)

    def count_ops(self) -> int:
        return sum(1 for _ in self.iter_ops())

    def describe(self) -> str:
        return (
            f"{self.name}: {self.count_ops()} ops, "
            f"{self.count_propagations()} propagations, "
            f"{self.count_checks()} checks"
        )
