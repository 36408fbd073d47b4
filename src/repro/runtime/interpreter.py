"""A shadow-memory interpreter for the TinyC IR.

Stands in for the paper's compiled binaries: it executes a module in SSA
form while (a) tracking *ground-truth* definedness of every value and
memory cell (the oracle — what a perfect detector would know), and (b)
executing the shadow operations of an :class:`InstrumentationPlan`
exactly where a compiled MSan/Usher binary would.

Definedness is **bit-level precise** (§4.1): every value and shadow is
a 64-bit undefined mask, propagated by the rules of
:mod:`repro.runtime.bits` — bitwise operations can launder undefined
bits, non-bitwise operations spread them over the whole word.  The
oracle, MSan and Usher all use the same rules, so their reports are
exactly comparable.

The shadow machine enforces the paper's soundness invariant — "all
shadow values accessed by any shadow statement at run time are
well-defined": reading a shadow slot that no instrumentation ever wrote
raises :class:`ShadowProtocolError`, which the test-suite uses to verify
the guided instrumentation never under-instruments.

Total semantics (documented substitutions for C undefined behaviour):
division/modulo by zero yield 0; out-of-range element offsets clamp to
the object's bounds; values read from uninitialized storage are 0 with
all oracle-mask bits set.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.ir import instructions as ins
from repro.ir.function import Block, Function
from repro.ir.module import Module
from repro.ir.values import Const, Value
from repro.core.plan import (
    AndShadowVar,
    BinOpShadow,
    Check,
    CopyShadowVar,
    InstrumentationPlan,
    LoadShadow,
    PhiShadow,
    RelayIn,
    RelayOut,
    SetShadowMem,
    SetShadowVar,
    ShadowOp,
    StoreShadow,
    UnOpShadow,
    VarSlot,
    var_slot,
)
from repro.obs import TRACE
from repro.runtime.bits import (
    DEFINED,
    UNDEFINED,
    binop_mask,
    spread,
    unop_mask,
)
from repro.opt.localopt import fold_binop, fold_unop
from repro.runtime.events import ExecutionReport


class RuntimeFault(Exception):
    """The program performed an unrecoverable action (bad pointer,
    unresolved indirect call, stack overflow)."""


class StepLimitExceeded(Exception):
    """The step budget ran out (guards runaway random programs)."""


class ShadowProtocolError(Exception):
    """A shadow statement read a shadow value nothing initialized —
    the instrumentation plan is unsound (test oracle)."""


class _Cell:
    __slots__ = ("value", "mask")

    def __init__(self, value: int = 0, mask: int = UNDEFINED) -> None:
        self.value = value
        self.mask = mask  # 64-bit undefined mask (0 = fully defined)


class _Frame:
    __slots__ = ("function", "env", "shadow", "prev", "ret")

    def __init__(self, function: Function) -> None:
        self.function = function
        #: (name, version) -> (value, oracle undefined-mask)
        self.env: Dict[VarSlot, Tuple[int, int]] = {}
        #: (name, version) -> shadow undefined-mask
        self.shadow: Dict[VarSlot, int] = {}
        #: label of the block control came from (φ selection)
        self.prev: Optional[str] = None
        #: the (value, mask) pair a ``ret`` returned
        self.ret: Tuple[int, int] = (0, DEFINED)


_MASK = (1 << 64) - 1


def _wrap(value: int) -> int:
    """Two's-complement 64-bit wrap-around."""
    value &= _MASK
    return value - (1 << 64) if value >= 1 << 63 else value


#: A decoded instruction or shadow operation: run it on a frame.  Only
#: terminators return something: the label of the next block, or
#: ``None`` after a ``ret`` stored its value in ``frame.ret``.
_Step = Callable[[_Frame], Optional[str]]

#: An operand decoded for ``env.get(key, default)``.  A variable reads
#: its slot (an unset slot is 0, fully undefined); a constant's key is
#: ``None``, which no frame binds, so the lookup yields the constant.
_Operand = Tuple[Optional[VarSlot], Tuple[int, int]]

_UNSET = (0, UNDEFINED)


def _operand(value: Value) -> _Operand:
    if isinstance(value, Const):
        return None, (value.value, DEFINED)
    return var_slot(value), _UNSET


class _Phi(NamedTuple):
    incoming: Dict[str, _Operand]  # predecessor label -> operand
    dst: VarSlot
    post: Optional[_Step]  # its post-ops (a φ's pre-ops never run)


class _Block(NamedTuple):
    label: str
    phis: Tuple[_Phi, ...]
    body: Tuple[_Step, ...]  # non-φ, non-terminator instructions
    term: Optional[_Step]  # None: control falls off the block's end
    size: int  # native instructions executed by one pass


class _Code(NamedTuple):
    entry_ops: Optional[_Step]
    entry: _Block
    blocks: Dict[str, _Block]


class Interpreter:
    """Executes a module, optionally under an instrumentation plan.

    Each function is decoded on its first call into per-block tuples of
    closures, with operands, operators and the plan's shadow operations
    bound in; the block loop then only counts steps and calls them.
    ``trace_limit`` and ``trace_memory`` are read when a function is
    decoded, so set them before :meth:`run`.
    """

    def __init__(
        self,
        module: Module,
        plan: Optional[InstrumentationPlan] = None,
        max_steps: int = 2_000_000,
        max_depth: int = 400,
    ) -> None:
        self.module = module
        self.plan = plan
        self.max_steps = max_steps
        self.max_depth = max_depth

        self.report = ExecutionReport()
        self.events = self.report.events

        #: flat memory: address -> cell
        self.memory: Dict[int, _Cell] = {}
        #: address -> (base, size) of its allocation
        self.extent: Dict[int, Tuple[int, int]] = {}
        #: address -> shadow undefined-mask
        self.shadow_memory: Dict[int, int] = {}
        self._next_addr = 16
        #: function name <-> code address
        self._func_addr: Dict[str, int] = {}
        self._addr_func: Dict[int, str] = {}
        #: global name -> base address
        self.global_addr: Dict[str, int] = {}
        #: σ_g relay slots
        self._relay: Dict[Union[int, str], int] = {}
        self._depth = 0
        self._steps = 0
        #: function -> its decoded code (filled on first call)
        self._code: Dict[Function, _Code] = {}
        #: allocation provenance: base address -> ("alloc", uid) or
        #: ("global", name); used by trace_memory.
        self.origin: Dict[int, Tuple[str, object]] = {}
        self.trace_memory = False
        #: load/store uid -> set of origins actually accessed
        self.mem_accesses: Dict[int, set] = {}
        #: optional execution trace: first ``trace_limit`` executed
        #: instructions, as "func: instr" strings.
        self.trace_limit = 0
        self.trace_log: List[str] = []

        self._layout()

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    def _layout(self) -> None:
        for index, name in enumerate(self.module.functions):
            addr = -(index + 1)
            self._func_addr[name] = addr
            self._addr_func[addr] = name
        for glob in self.module.globals.values():
            base = self._allocate(glob.size, glob.initialized)
            self.origin[base] = ("global", glob.name)
            self.global_addr[glob.name] = base
            if self.plan is not None:
                # Global shadow is static storage: initialized at load
                # time by both MSan and Usher.
                bit = DEFINED if glob.initialized else UNDEFINED
                for offset in range(glob.size):
                    self.shadow_memory[base + offset] = bit

    def _allocate(self, size: int, initialized: bool) -> int:
        base = self._next_addr
        self._next_addr += size + 1  # +1: red zone between objects
        mask = DEFINED if initialized else UNDEFINED
        for offset in range(size):
            self.memory[base + offset] = _Cell(0, mask)
            self.extent[base + offset] = (base, size)
        return base

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, args: Optional[List[int]] = None) -> ExecutionReport:
        main = self.module.functions.get("main")
        if main is None:
            raise RuntimeFault("no main function")
        # Each simulated frame costs a handful of Python frames; make
        # sure the guest's max_depth guard fires before CPython's.
        needed = self.max_depth * 40 + 1000
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)
        values = [(v, DEFINED) for v in (args or [])]
        try:
            result = self._call(main, values)
        finally:
            # The decoded closures refer back to this interpreter;
            # dropping them lets refcounting free it without the
            # cycle collector.
            self._code.clear()
        self.report.exit_value = result[0]
        self.report.steps = self._steps
        return self.report

    def _exhausted(self) -> StepLimitExceeded:
        return StepLimitExceeded(f"exceeded {self.max_steps} steps")

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _call(
        self, function: Function, args: List[Tuple[int, int]]
    ) -> Tuple[int, int]:
        self._depth += 1
        if self._depth > self.max_depth:
            raise RuntimeFault("call stack overflow")
        code = self._code.get(function)
        if code is None:
            code = self._code[function] = self._decode(function)
        frame = _Frame(function)
        env = frame.env
        for formal, actual in zip(function.params, args):
            # SSA form names the entry definition version 1; pre-SSA
            # code uses the unversioned (version-0) slot.
            env[(formal, 1)] = actual
            env[(formal, 0)] = actual

        if code.entry_ops is not None:
            code.entry_ops(frame)

        # Every step — native instruction or shadow operation (see
        # _shadow_steps) — is counted and checked against the limit
        # before it runs, so a fault inside the budget is the fault.
        limit = self.max_steps
        report = self.report
        blocks = code.blocks
        label, phis, body, term, size = code.entry
        prev = None
        while True:
            frame.prev = prev
            if phis:
                # φs read in parallel on block entry, then write.
                staged = []
                for phi in phis:
                    self._steps += 1
                    if self._steps > limit:
                        raise self._exhausted()
                    key, default = phi.incoming[prev]
                    staged.append(env.get(key, default))
                for phi, value in zip(phis, staged):
                    env[phi.dst] = value
                    if phi.post is not None:
                        phi.post(frame)
            for step in body:
                self._steps += 1
                if self._steps > limit:
                    raise self._exhausted()
                step(frame)
            if term is None:
                raise RuntimeFault(f"block {label} fell through")
            self._steps += 1
            if self._steps > limit:
                raise self._exhausted()
            target = term(frame)
            report.native_ops += size
            if target is None:
                break
            prev = label
            label, phis, body, term, size = blocks[target]
        self._depth -= 1
        return frame.ret

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _decode(self, function: Function) -> _Code:
        blocks = {block.label: self._decode_block(block) for block in function.blocks}
        entry_ops = None
        if self.plan is not None:
            entry_ops = self._shadow_steps(self.plan.entry_ops.get(function.name, ()))
        return _Code(entry_ops, blocks[function.entry.label], blocks)

    def _decode_block(self, block: Block) -> _Block:
        phis = []
        for phi in block.phis():
            _, post = self._plan_ops(phi)
            incoming = {label: _operand(v) for label, v in phi.incomings.items()}
            phis.append(_Phi(incoming, var_slot(phi.dst), post))
        body: List[_Step] = []
        term: Optional[_Step] = None
        for instr in block.instrs:
            if isinstance(instr, ins.Phi):
                continue  # head φs run on entry; stray ones never do
            step = self._decode_instr(instr)
            pre, post = self._plan_ops(instr)
            is_term = isinstance(instr, (ins.Branch, ins.Jump, ins.Ret))
            if is_term:
                post = None  # control leaves before a terminator's post-ops
            if pre is not None or post is not None:
                step = _with_ops(step, pre, post)
            if self.trace_limit > 0:
                step = self._traced(step, instr)
            if is_term:
                term = step
                break
            body.append(step)
        size = len(phis) + len(body) + 1
        return _Block(block.label, tuple(phis), tuple(body), term, size)

    def _plan_ops(self, instr: ins.Instr) -> Tuple[Optional[_Step], Optional[_Step]]:
        """``instr``'s pre- and post-ops, each one step (or ``None``)."""
        ops = self.plan.ops.get(instr.uid) if self.plan is not None else None
        if ops is None:
            return None, None
        return self._shadow_steps(ops.pre), self._shadow_steps(ops.post)

    def _shadow_steps(self, ops) -> Optional[_Step]:
        """Shadow operations run in order as one closure that counts
        each as a step; ``None`` when there are none."""
        if not ops:
            return None
        decoded = tuple(self._decode_op(op) for op in ops)
        interp, limit = self, self.max_steps

        def run(frame: _Frame) -> None:
            for op in decoded:
                interp._steps += 1
                if interp._steps > limit:
                    raise interp._exhausted()
                op(frame)

        return run

    def _traced(self, run: _Step, instr: ins.Instr) -> _Step:
        log, limit = self.trace_log, self.trace_limit

        def step(frame: _Frame) -> Optional[str]:
            if len(log) < limit:
                log.append(f"{frame.function.name}: {instr}")
            return run(frame)

        return step

    def _decode_instr(self, instr: ins.Instr) -> _Step:
        """One instruction as a closure over its decoded operands."""
        uid = instr.uid
        undefined_uses = self.report.true_undefined_uses

        if isinstance(instr, ins.ConstCopy):
            dst, pair = var_slot(instr.dst), (instr.value, DEFINED)

            def run(frame):
                frame.env[dst] = pair

        elif isinstance(instr, ins.Copy):
            dst, (key, default) = var_slot(instr.dst), _operand(instr.src)

            def run(frame):
                env = frame.env
                env[dst] = env.get(key, default)

        elif isinstance(instr, ins.UnOp):
            dst, (key, default) = var_slot(instr.dst), _operand(instr.operand)
            op = instr.op

            def run(frame):
                env = frame.env
                value, mask = env.get(key, default)
                env[dst] = (_wrap(fold_unop(op, value)), unop_mask(op, value, mask))

        elif isinstance(instr, ins.BinOp):
            dst, op = var_slot(instr.dst), instr.op
            (lkey, ldefault), (rkey, rdefault) = _operand(instr.lhs), _operand(instr.rhs)

            def run(frame):
                env = frame.env
                lhs, lm = env.get(lkey, ldefault)
                rhs, rm = env.get(rkey, rdefault)
                env[dst] = (_wrap(fold_binop(op, lhs, rhs)), binop_mask(op, lhs, lm, rhs, rm))

        elif isinstance(instr, ins.Alloc):
            dst, size, initialized = var_slot(instr.dst), instr.size, instr.initialized
            allocate, origin, tag = self._allocate, self.origin, ("alloc", uid)

            def run(frame):
                base = allocate(size, initialized)
                origin[base] = tag
                frame.env[dst] = (base, DEFINED)

        elif isinstance(instr, ins.Gep):
            dst = var_slot(instr.dst)
            (bkey, bdefault), (okey, odefault) = _operand(instr.base), _operand(instr.offset)
            element = self._element

            def run(frame):
                env = frame.env
                base, bm = env.get(bkey, bdefault)
                offset, om = env.get(okey, odefault)
                env[dst] = (element(base, offset), spread(bm | om))

        elif isinstance(instr, ins.GlobalAddr):
            dst, name, addrs = var_slot(instr.dst), instr.global_name, self.global_addr

            def run(frame):
                frame.env[dst] = (addrs[name], DEFINED)

        elif isinstance(instr, ins.FuncAddr):
            dst, name, addrs = var_slot(instr.dst), instr.func_name, self._func_addr

            def run(frame):
                frame.env[dst] = (addrs[name], DEFINED)

        elif isinstance(instr, ins.Load):
            dst, (key, default) = var_slot(instr.dst), _operand(instr.ptr)
            memory, trace = self.memory, self._trace if self.trace_memory else None

            def run(frame):
                env = frame.env
                addr, mask = env.get(key, default)
                if mask:
                    undefined_uses.append(uid)
                cell = memory.get(addr)
                if cell is None:
                    raise RuntimeFault(f"access to unmapped address {addr}")
                if trace is not None:
                    trace(uid, addr)
                env[dst] = (cell.value, cell.mask)

        elif isinstance(instr, ins.Store):
            (pkey, pdefault), (vkey, vdefault) = _operand(instr.ptr), _operand(instr.value)
            memory, trace = self.memory, self._trace if self.trace_memory else None

            def run(frame):
                env = frame.env
                addr, mask = env.get(pkey, pdefault)
                if mask:
                    undefined_uses.append(uid)
                value, vmask = env.get(vkey, vdefault)
                cell = memory.get(addr)
                if cell is None:
                    raise RuntimeFault(f"access to unmapped address {addr}")
                if trace is not None:
                    trace(uid, addr)
                cell.value = value
                cell.mask = vmask

        elif isinstance(instr, ins.Call):
            run = self._decode_call(instr)

        elif isinstance(instr, ins.Branch):
            (key, default), then, other = _operand(instr.cond), instr.then_label, instr.else_label

            def run(frame):
                cond, mask = frame.env.get(key, default)
                if mask:
                    undefined_uses.append(uid)
                return then if cond else other

        elif isinstance(instr, ins.Jump):
            target = instr.target

            def run(frame):
                return target

        elif isinstance(instr, ins.Ret):
            key, default = (None, (0, DEFINED)) if instr.value is None else _operand(instr.value)

            def run(frame):
                frame.ret = frame.env.get(key, default)

        elif isinstance(instr, ins.Output):
            (key, default), outputs = _operand(instr.value), self.report.outputs

            def run(frame):
                value, mask = frame.env.get(key, default)
                if mask:
                    undefined_uses.append(uid)
                outputs.append(value)

        else:

            def run(frame):
                raise RuntimeFault(f"cannot execute {instr}")

        return run

    def _decode_call(self, instr: ins.Call) -> _Step:
        dst = var_slot(instr.dst) if instr.dst is not None else None
        actuals = tuple(_operand(a) for a in instr.args)
        functions, call, by_addr = self.module.functions, self._call, self._addr_func
        indirect, target = instr.is_indirect, instr.callee
        key, default = _operand(target) if indirect else (None, None)

        def run(frame):
            env = frame.env
            args = [env.get(k, d) for k, d in actuals]
            if indirect:
                addr = env.get(key, default)[0]
                name = by_addr.get(addr)
                if name is None:
                    raise RuntimeFault(f"indirect call to non-function {addr}")
            else:
                name = target
            callee = functions.get(name)
            if callee is None:
                raise RuntimeFault(f"call to unknown function {name!r}")
            result = call(callee, args)
            if dst is not None:
                env[dst] = result

        return run

    def _element(self, base: int, offset: int) -> int:
        extent = self.extent.get(base)
        if extent is None:
            # Address arithmetic on a junk pointer: C undefined
            # behaviour; kept total (the fault surfaces only if the
            # result is dereferenced).
            return base
        obj_base, size = extent
        index = (base - obj_base) + offset
        index = max(0, min(index, size - 1))  # clamp (documented)
        return obj_base + index

    def _trace(self, uid: int, addr: int) -> None:
        extent = self.extent.get(addr)
        if extent is None:
            return
        origin = self.origin.get(extent[0])
        if origin is not None:
            self.mem_accesses.setdefault(uid, set()).add(origin)

    # ------------------------------------------------------------------
    # Shadow machine
    # ------------------------------------------------------------------
    def _decode_op(self, op: ShadowOp) -> _Step:
        """One shadow operation as a closure.  Every read of a shadow
        nothing wrote raises :class:`ShadowProtocolError`."""
        events, shadow_memory = self.events, self.shadow_memory

        if isinstance(op, SetShadowVar):
            dst, bit = op.dst, DEFINED if op.literal else UNDEFINED

            def run(frame):
                frame.shadow[dst] = bit
                events.shadow_writes += 1

        elif isinstance(op, CopyShadowVar):
            dst, src = op.dst, op.src

            def run(frame):
                frame.shadow[dst] = _shadow_var(frame, src, events)
                events.shadow_writes += 1

        elif isinstance(op, AndShadowVar):
            # Conjunction of shadows: exact under full-spread semantics
            # (the sources are non-bitwise must-flow sources).
            dst, srcs = op.dst, op.srcs

            def run(frame):
                combined = DEFINED
                for src in srcs:
                    combined |= _shadow_var(frame, src, events)
                frame.shadow[dst] = spread(combined)
                events.shadow_writes += 1

        elif isinstance(op, BinOpShadow):
            dst, operator = op.dst, op.op
            lhs, rhs = _shadow_operand(op.lhs, events), _shadow_operand(op.rhs, events)

            def run(frame):
                lv, lm = lhs(frame)
                rv, rm = rhs(frame)
                frame.shadow[dst] = binop_mask(operator, lv, lm, rv, rm)
                events.shadow_writes += 1

        elif isinstance(op, UnOpShadow):
            dst, operator = op.dst, op.op
            operand = _shadow_operand(op.operand, events)

            def run(frame):
                value, mask = operand(frame)
                frame.shadow[dst] = unop_mask(operator, value, mask)
                events.shadow_writes += 1

        elif isinstance(op, SetShadowMem):
            ptr, whole = op.ptr, op.whole_object
            bit = DEFINED if op.literal else UNDEFINED
            extents = self.extent

            def run(frame):
                addr = _pointer_of(frame, ptr)
                if whole:
                    extent = extents.get(addr)
                    if extent is None:
                        raise RuntimeFault(f"shadow set through bad pointer {addr}")
                    base, size = extent
                    for offset in range(size):
                        shadow_memory[base + offset] = bit
                else:
                    shadow_memory[addr] = bit
                events.shadow_writes += 1

        elif isinstance(op, StoreShadow):
            ptr, src = op.ptr, op.src

            def run(frame):
                addr = _pointer_of(frame, ptr)
                shadow_memory[addr] = (
                    DEFINED if src is None else _shadow_var(frame, src, events)
                )
                events.shadow_writes += 1

        elif isinstance(op, LoadShadow):
            dst, ptr = op.dst, op.ptr

            def run(frame):
                addr = _pointer_of(frame, ptr)
                events.shadow_reads += 1
                value = shadow_memory.get(addr)
                if value is None:
                    raise ShadowProtocolError(
                        f"shadow memory at {addr} read before any write"
                    )
                frame.shadow[dst] = value
                events.shadow_writes += 1

        elif isinstance(op, RelayOut):
            slot, src, relay = op.slot, op.src, self._relay

            def run(frame):
                relay[slot] = DEFINED if src is None else _shadow_var(frame, src, events)
                events.shadow_writes += 1

        elif isinstance(op, RelayIn):
            slot, dst, relay = op.slot, op.dst, self._relay

            def run(frame):
                bit = relay.get(slot)
                if bit is None:
                    raise ShadowProtocolError(f"σ_g[{slot}] read before write")
                events.shadow_reads += 1
                frame.shadow[dst] = bit
                events.shadow_writes += 1

        elif isinstance(op, PhiShadow):
            dst, incomings = op.dst, dict(op.incomings)

            def run(frame):
                incoming = incomings.get(frame.prev)
                frame.shadow[dst] = (
                    DEFINED if incoming is None else _shadow_var(frame, incoming, events)
                )
                events.shadow_writes += 1

        elif isinstance(op, Check):
            operand, label, warnings = op.operand, op.label, self.report.warnings

            def run(frame):
                mask = _shadow_var(frame, operand, events)
                events.checks += 1
                if mask:
                    warnings.append(label)

        else:

            def run(frame):
                raise RuntimeFault(f"unknown shadow op {op}")

        return run


def _with_ops(run: _Step, pre: Optional[_Step], post: Optional[_Step]) -> _Step:
    """An instruction between its pre- and post-ops."""

    def step(frame: _Frame) -> Optional[str]:
        if pre is not None:
            pre(frame)
        target = run(frame)
        if post is not None:
            post(frame)
        return target

    return step


def _shadow_var(frame: _Frame, slot: VarSlot, events) -> int:
    events.shadow_reads += 1
    value = frame.shadow.get(slot)
    if value is None:
        raise ShadowProtocolError(
            f"shadow of {slot[0]}.{slot[1]} read before any write "
            f"in {frame.function.name}"
        )
    return value


def _shadow_operand(value: Value, events) -> Callable[[_Frame], Tuple[int, int]]:
    """A reader of a shadow-op operand's (runtime value, shadow mask)."""
    if isinstance(value, Const):
        pair = (value.value, DEFINED)
        return lambda frame: pair
    slot = var_slot(value)
    return lambda frame: (
        frame.env.get(slot, _UNSET)[0],
        _shadow_var(frame, slot, events),
    )


def _pointer_of(frame: _Frame, slot: VarSlot) -> int:
    value = frame.env.get(slot)
    if value is None:
        raise ShadowProtocolError(
            f"shadow op refers to unset pointer {slot[0]}.{slot[1]}"
        )
    return value[0]


def run_native(
    module: Module, args: Optional[List[int]] = None, max_steps: int = 2_000_000
) -> ExecutionReport:
    """Execute ``module`` without instrumentation."""
    with TRACE.span("run.native") as span:
        report = Interpreter(module, plan=None, max_steps=max_steps).run(args)
        span.tag(steps=report.steps)
    return report


def run_instrumented(
    module: Module,
    plan: InstrumentationPlan,
    args: Optional[List[int]] = None,
    max_steps: int = 8_000_000,
) -> ExecutionReport:
    """Execute ``module`` under ``plan``'s shadow operations."""
    with TRACE.span("run.instrumented", plan=plan.name) as span:
        report = Interpreter(module, plan=plan, max_steps=max_steps).run(args)
        span.tag(steps=report.steps)
    return report
