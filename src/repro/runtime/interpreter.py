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
    is_bitwise,
    unop_mask,
)
from repro.opt.localopt import _div, _rem
from repro.runtime.events import ExecutionReport


class RuntimeFault(Exception):
    """The program performed an unrecoverable action (bad pointer,
    unresolved indirect call, stack overflow)."""


class StepLimitExceeded(Exception):
    """The step budget ran out (guards runaway random programs)."""


#: Memory cells one run may allocate, red zones included.  Every cell
#: is touched at allocation and none is ever freed, so an oversized
#: array must fault rather than exhaust the host.  The largest native
#: paper-suite run (scale 1.0) ends at address 1,424.
MAX_CELLS = 1 << 20


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
#: The signed 64-bit range; a result outside it wraps around.
_MIN, _MAX = -(1 << 63), (1 << 63) - 1


def _wrap(value: int) -> int:
    """Two's-complement 64-bit wrap-around."""
    value &= _MASK
    return value - (1 << 64) if value >= 1 << 63 else value


#: A decoded instruction or shadow operation: run it on a frame.  Only
#: terminators return something: the label of the next block, or
#: ``None`` after a ``ret`` stored its value in ``frame.ret``.
_Step = Callable[[_Frame], Optional[str]]

#: A block body segment: a tuple of plain steps, which the block loop
#: counts in a local, or one sync step, around which it hands the count
#: over in ``Interpreter._steps`` (see ``Interpreter._call``).
_Segment = Union[Tuple[_Step, ...], _Step]

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
    post: Tuple[_Step, ...]  # its post-ops (a φ's pre-ops never run)


class _Block(NamedTuple):
    label: str
    phis: Tuple[_Phi, ...]
    #: non-φ, non-terminator instructions, each followed by its post-ops
    body: Tuple[_Segment, ...]
    term: Optional[_Step]  # None: control falls off the block's end
    sync: bool  # the terminator has pre-ops: a sync step
    size: int  # native instructions executed by one pass


class _Code(NamedTuple):
    entry_ops: Tuple[_Step, ...]
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
        #: steps taken; while a function runs, its block loop holds the
        #: count in a local and stores it here only around sync steps
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
        if base + size + 1 > MAX_CELLS:
            raise RuntimeFault(
                f"allocating {size} cells exceeds the run's "
                f"{MAX_CELLS}-cell memory budget"
            )
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
        # sure the guest's max_depth guard fires before CPython's.  The
        # raised limit is the run's own: the rest of the process (the
        # TinyC front end's nesting guard) keeps its limit.
        limit = sys.getrecursionlimit()
        needed = self.max_depth * 40 + 1000
        if limit < needed:
            sys.setrecursionlimit(needed)
        values = [(v, DEFINED) for v in (args or [])]
        try:
            result = self._call(main, values)
        finally:
            sys.setrecursionlimit(limit)
            # The decoded closures refer back to this interpreter;
            # dropping them lets refcounting free it without the
            # cycle collector.
            self._code.clear()
        self.report.exit_value = result[0]
        self.report.steps = self._steps
        return self.report

    def _exhausted(self, steps: int) -> StepLimitExceeded:
        self._steps = steps
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

        # Every step — native instruction or shadow operation — is
        # counted and checked against the limit before it runs, so a
        # fault inside the budget is the fault.  The count lives in the
        # local ``steps``; a sync step (a call, or an instruction with
        # pre-ops) finds it in self._steps and leaves it there.
        steps, limit = self._steps, self.max_steps
        for op in code.entry_ops:
            steps += 1
            if steps > limit:
                raise self._exhausted(steps)
            op(frame)
        native_ops = 0
        blocks = code.blocks
        label, phis, body, term, sync, size = code.entry
        prev = None
        while True:
            frame.prev = prev
            if phis:
                # φs read in parallel on block entry, then write.
                staged = []
                for phi in phis:
                    steps += 1
                    if steps > limit:
                        raise self._exhausted(steps)
                    key, default = phi.incoming[prev]
                    staged.append(env.get(key, default))
                for phi, value in zip(phis, staged):
                    env[phi.dst] = value
                    for op in phi.post:
                        steps += 1
                        if steps > limit:
                            raise self._exhausted(steps)
                        op(frame)
            for segment in body:
                if segment.__class__ is tuple:
                    for step in segment:
                        steps += 1
                        if steps > limit:
                            raise self._exhausted(steps)
                        step(frame)
                else:
                    steps += 1
                    if steps > limit:
                        raise self._exhausted(steps)
                    self._steps = steps
                    segment(frame)
                    steps = self._steps
            if term is None:
                raise RuntimeFault(f"block {label} fell through")
            steps += 1
            if steps > limit:
                raise self._exhausted(steps)
            if sync:
                self._steps = steps
                target = term(frame)
                steps = self._steps
            else:
                target = term(frame)
            native_ops += size
            if target is None:
                break
            prev = label
            label, phis, body, term, sync, size = blocks[target]
        self._steps = steps
        self.report.native_ops += native_ops
        self._depth -= 1
        return frame.ret

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _decode(self, function: Function) -> _Code:
        blocks = {block.label: self._decode_block(block) for block in function.blocks}
        entry_ops: Tuple[_Step, ...] = ()
        if self.plan is not None:
            entry_ops = self._decode_ops(self.plan.entry_ops.get(function.name, ()))
        return _Code(entry_ops, blocks[function.entry.label], blocks)

    def _decode_block(self, block: Block) -> _Block:
        phis = []
        for phi in block.phis():
            incoming = {label: _operand(v) for label, v in phi.incomings.items()}
            phis.append(_Phi(incoming, var_slot(phi.dst), self._plan_ops(phi)[1]))
        body: List[_Segment] = []
        plain: List[_Step] = []
        natives = len(phis) + 1  # the φs and the terminator
        term: Optional[_Step] = None
        sync = False
        for instr in block.instrs:
            if isinstance(instr, ins.Phi):
                continue  # head φs run on entry; stray ones never do
            step = self._decode_instr(instr)
            pre, post = self._plan_ops(instr)
            if pre:
                step = self._with_pre(step, pre)
            if self.trace_limit > 0:
                step = self._traced(step, instr)
            if isinstance(instr, (ins.Branch, ins.Jump, ins.Ret)):
                # Control leaves before a terminator's post-ops.
                term, sync = step, bool(pre)
                break
            natives += 1
            if pre or isinstance(instr, ins.Call):
                if plain:
                    body.append(tuple(plain))
                    plain = []
                body.append(step)
            else:
                plain.append(step)
            # Post-ops are plain steps of their own, right after the
            # instruction, whatever kind of step it is.
            plain.extend(post)
        if plain:
            body.append(tuple(plain))
        return _Block(block.label, tuple(phis), tuple(body), term, sync, natives)

    def _plan_ops(self, instr: ins.Instr) -> Tuple[Tuple[_Step, ...], Tuple[_Step, ...]]:
        """``instr``'s decoded pre- and post-ops."""
        ops = self.plan.ops.get(instr.uid) if self.plan is not None else None
        if ops is None:
            return (), ()
        return self._decode_ops(ops.pre), self._decode_ops(ops.post)

    def _decode_ops(self, ops) -> Tuple[_Step, ...]:
        return tuple(self._decode_op(op) for op in ops)

    def _with_pre(self, run: _Step, pre: Tuple[_Step, ...]) -> _Step:
        """An instruction after its pre-ops, as one sync step.

        A pre-op's step is counted after its instruction's own, so the
        pre-ops count on ``self._steps``, which the block loop has
        stored before calling this step."""
        interp, limit = self, self.max_steps

        def step(frame: _Frame) -> Optional[str]:
            for op in pre:
                interp._steps += 1
                if interp._steps > limit:
                    raise interp._exhausted(interp._steps)
                op(frame)
            return run(frame)

        return step

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
            run = _UNOPS[instr.op](var_slot(instr.dst), *_operand(instr.operand))

        elif isinstance(instr, ins.BinOp):
            run = _BINOPS[instr.op](
                var_slot(instr.dst), *_operand(instr.lhs), *_operand(instr.rhs)
            )

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
            extents = self.extent

            def run(frame):
                env = frame.env
                base, bm = env.get(bkey, bdefault)
                offset, om = env.get(okey, odefault)
                # Address arithmetic on a junk pointer (no extent) is C
                # undefined behaviour; kept total, the fault surfaces
                # only if the result is dereferenced.
                extent = extents.get(base)
                if extent is not None:
                    obj_base, size = extent
                    index = base - obj_base + offset
                    if index >= size:  # clamp (documented)
                        index = size - 1
                    if index < 0:
                        index = 0
                    base = obj_base + index
                env[dst] = (base, UNDEFINED if bm | om else DEFINED)

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
                shadow = frame.shadow
                events.shadow_reads += 1
                value = shadow.get(src)
                if value is None:
                    raise _unwritten(frame, src)
                shadow[dst] = value
                events.shadow_writes += 1

        elif isinstance(op, AndShadowVar):
            # Conjunction of shadows: exact under full-spread semantics
            # (the sources are non-bitwise must-flow sources).
            run = _and_shadow(op.dst, op.srcs, events)

        elif isinstance(op, BinOpShadow) and not is_bitwise(op.op):
            # Full spread: the conjunction of the variable operands'
            # shadows (a constant's is defined).
            srcs = tuple(var_slot(v) for v in (op.lhs, op.rhs) if not isinstance(v, Const))
            run = _and_shadow(op.dst, srcs, events)

        elif isinstance(op, BinOpShadow):
            dst, operator = op.dst, op.op
            (lslot, lpair), (rslot, rpair) = _operand(op.lhs), _operand(op.rhs)

            def run(frame):
                shadow = frame.shadow
                if lslot is None:
                    lv, lm = lpair
                else:
                    events.shadow_reads += 1
                    lm = shadow.get(lslot)
                    if lm is None:
                        raise _unwritten(frame, lslot)
                    lv = frame.env.get(lslot, _UNSET)[0]
                if rslot is None:
                    rv, rm = rpair
                else:
                    events.shadow_reads += 1
                    rm = shadow.get(rslot)
                    if rm is None:
                        raise _unwritten(frame, rslot)
                    rv = frame.env.get(rslot, _UNSET)[0]
                shadow[dst] = binop_mask(operator, lv, lm, rv, rm)
                events.shadow_writes += 1

        elif isinstance(op, UnOpShadow):
            dst, operator = op.dst, op.op
            slot, pair = _operand(op.operand)

            def run(frame):
                shadow = frame.shadow
                if slot is None:
                    value, mask = pair
                else:
                    events.shadow_reads += 1
                    mask = shadow.get(slot)
                    if mask is None:
                        raise _unwritten(frame, slot)
                    value = frame.env.get(slot, _UNSET)[0]
                shadow[dst] = unop_mask(operator, value, mask)
                events.shadow_writes += 1

        elif isinstance(op, SetShadowMem):
            ptr, whole = op.ptr, op.whole_object
            bit = DEFINED if op.literal else UNDEFINED
            extents = self.extent

            def run(frame):
                pointer = frame.env.get(ptr)
                if pointer is None:
                    raise _unwritten(frame, ptr, pointer=True)
                addr = pointer[0]
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
                pointer = frame.env.get(ptr)
                if pointer is None:
                    raise _unwritten(frame, ptr, pointer=True)
                if src is None:
                    value = DEFINED
                else:
                    events.shadow_reads += 1
                    value = frame.shadow.get(src)
                    if value is None:
                        raise _unwritten(frame, src)
                shadow_memory[pointer[0]] = value
                events.shadow_writes += 1

        elif isinstance(op, LoadShadow):
            dst, ptr = op.dst, op.ptr

            def run(frame):
                pointer = frame.env.get(ptr)
                if pointer is None:
                    raise _unwritten(frame, ptr, pointer=True)
                events.shadow_reads += 1
                value = shadow_memory.get(pointer[0])
                if value is None:
                    raise ShadowProtocolError(
                        f"shadow memory at {pointer[0]} read before any write"
                    )
                frame.shadow[dst] = value
                events.shadow_writes += 1

        elif isinstance(op, RelayOut):
            slot, src, relay = op.slot, op.src, self._relay

            def run(frame):
                if src is None:
                    relay[slot] = DEFINED
                else:
                    events.shadow_reads += 1
                    value = frame.shadow.get(src)
                    if value is None:
                        raise _unwritten(frame, src)
                    relay[slot] = value
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
                shadow = frame.shadow
                incoming = incomings.get(frame.prev)
                if incoming is None:
                    value = DEFINED
                else:
                    events.shadow_reads += 1
                    value = shadow.get(incoming)
                    if value is None:
                        raise _unwritten(frame, incoming)
                shadow[dst] = value
                events.shadow_writes += 1

        elif isinstance(op, Check):
            operand, label, warnings = op.operand, op.label, self.report.warnings

            def run(frame):
                events.shadow_reads += 1
                mask = frame.shadow.get(operand)
                if mask is None:
                    raise _unwritten(frame, operand)
                events.checks += 1
                if mask:
                    warnings.append(label)

        else:

            def run(frame):
                raise RuntimeFault(f"unknown shadow op {op}")

        return run


def _unwritten(frame: _Frame, slot: VarSlot, pointer: bool = False) -> ShadowProtocolError:
    """A shadow op read ``slot``'s shadow (or, as a ``pointer``, its
    value) before anything wrote it."""
    if pointer:
        return ShadowProtocolError(
            f"shadow op refers to unset pointer {slot[0]}.{slot[1]}"
        )
    return ShadowProtocolError(
        f"shadow of {slot[0]}.{slot[1]} read before any write "
        f"in {frame.function.name}"
    )


def _and_shadow(dst: VarSlot, srcs: Tuple[VarSlot, ...], events) -> _Step:
    """``dst``'s shadow := the full-spread conjunction of ``srcs``'."""

    def run(frame):
        shadow = frame.shadow
        combined = DEFINED
        for src in srcs:
            events.shadow_reads += 1
            value = shadow.get(src)
            if value is None:
                raise _unwritten(frame, src)
            combined |= value
        shadow[dst] = UNDEFINED if combined else DEFINED
        events.shadow_writes += 1

    return run


# ----------------------------------------------------------------------
# Native operators, one closure factory per operator.  Each takes the
# destination slot and the decoded operands, inlines the arithmetic and
# the 64-bit wrap, and spreads any undefined input bit over the result
# (repro.runtime.bits); the bitwise operators' masks come from
# binop_mask/unop_mask, which own the laundering rules.
# ----------------------------------------------------------------------
def _add(dst, lkey, ldefault, rkey, rdefault):
    def run(frame):
        env = frame.env
        lhs, lm = env.get(lkey, ldefault)
        rhs, rm = env.get(rkey, rdefault)
        value = lhs + rhs
        if not _MIN <= value <= _MAX:
            value = _wrap(value)
        env[dst] = (value, UNDEFINED if lm | rm else DEFINED)

    return run


def _sub(dst, lkey, ldefault, rkey, rdefault):
    def run(frame):
        env = frame.env
        lhs, lm = env.get(lkey, ldefault)
        rhs, rm = env.get(rkey, rdefault)
        value = lhs - rhs
        if not _MIN <= value <= _MAX:
            value = _wrap(value)
        env[dst] = (value, UNDEFINED if lm | rm else DEFINED)

    return run


def _mul(dst, lkey, ldefault, rkey, rdefault):
    def run(frame):
        env = frame.env
        lhs, lm = env.get(lkey, ldefault)
        rhs, rm = env.get(rkey, rdefault)
        value = lhs * rhs
        if not _MIN <= value <= _MAX:
            value = _wrap(value)
        env[dst] = (value, UNDEFINED if lm | rm else DEFINED)

    return run


def _divide(dst, lkey, ldefault, rkey, rdefault):
    def run(frame):
        env = frame.env
        lhs, lm = env.get(lkey, ldefault)
        rhs, rm = env.get(rkey, rdefault)
        value = lhs // rhs if lhs >= 0 and rhs > 0 else _div(lhs, rhs)
        if not _MIN <= value <= _MAX:
            value = _wrap(value)
        env[dst] = (value, UNDEFINED if lm | rm else DEFINED)

    return run


def _modulo(dst, lkey, ldefault, rkey, rdefault):
    def run(frame):
        env = frame.env
        lhs, lm = env.get(lkey, ldefault)
        rhs, rm = env.get(rkey, rdefault)
        value = lhs % rhs if lhs >= 0 and rhs > 0 else _rem(lhs, rhs)
        if not _MIN <= value <= _MAX:
            value = _wrap(value)
        env[dst] = (value, UNDEFINED if lm | rm else DEFINED)

    return run


def _lt(dst, lkey, ldefault, rkey, rdefault):
    def run(frame):
        env = frame.env
        lhs, lm = env.get(lkey, ldefault)
        rhs, rm = env.get(rkey, rdefault)
        env[dst] = (1 if lhs < rhs else 0, UNDEFINED if lm | rm else DEFINED)

    return run


def _le(dst, lkey, ldefault, rkey, rdefault):
    def run(frame):
        env = frame.env
        lhs, lm = env.get(lkey, ldefault)
        rhs, rm = env.get(rkey, rdefault)
        env[dst] = (1 if lhs <= rhs else 0, UNDEFINED if lm | rm else DEFINED)

    return run


def _gt(dst, lkey, ldefault, rkey, rdefault):
    def run(frame):
        env = frame.env
        lhs, lm = env.get(lkey, ldefault)
        rhs, rm = env.get(rkey, rdefault)
        env[dst] = (1 if lhs > rhs else 0, UNDEFINED if lm | rm else DEFINED)

    return run


def _ge(dst, lkey, ldefault, rkey, rdefault):
    def run(frame):
        env = frame.env
        lhs, lm = env.get(lkey, ldefault)
        rhs, rm = env.get(rkey, rdefault)
        env[dst] = (1 if lhs >= rhs else 0, UNDEFINED if lm | rm else DEFINED)

    return run


def _eq(dst, lkey, ldefault, rkey, rdefault):
    def run(frame):
        env = frame.env
        lhs, lm = env.get(lkey, ldefault)
        rhs, rm = env.get(rkey, rdefault)
        env[dst] = (1 if lhs == rhs else 0, UNDEFINED if lm | rm else DEFINED)

    return run


def _ne(dst, lkey, ldefault, rkey, rdefault):
    def run(frame):
        env = frame.env
        lhs, lm = env.get(lkey, ldefault)
        rhs, rm = env.get(rkey, rdefault)
        env[dst] = (1 if lhs != rhs else 0, UNDEFINED if lm | rm else DEFINED)

    return run


def _and(dst, lkey, ldefault, rkey, rdefault):
    def run(frame):
        env = frame.env
        lhs, lm = env.get(lkey, ldefault)
        rhs, rm = env.get(rkey, rdefault)
        value = lhs & rhs
        if not _MIN <= value <= _MAX:
            value = _wrap(value)
        env[dst] = (value, binop_mask("&", lhs, lm, rhs, rm))

    return run


def _or(dst, lkey, ldefault, rkey, rdefault):
    def run(frame):
        env = frame.env
        lhs, lm = env.get(lkey, ldefault)
        rhs, rm = env.get(rkey, rdefault)
        value = lhs | rhs
        if not _MIN <= value <= _MAX:
            value = _wrap(value)
        env[dst] = (value, binop_mask("|", lhs, lm, rhs, rm))

    return run


def _xor(dst, lkey, ldefault, rkey, rdefault):
    def run(frame):
        env = frame.env
        lhs, lm = env.get(lkey, ldefault)
        rhs, rm = env.get(rkey, rdefault)
        value = lhs ^ rhs
        if not _MIN <= value <= _MAX:
            value = _wrap(value)
        env[dst] = (value, binop_mask("^", lhs, lm, rhs, rm))

    return run


def _shl(dst, lkey, ldefault, rkey, rdefault):
    def run(frame):
        env = frame.env
        lhs, lm = env.get(lkey, ldefault)
        rhs, rm = env.get(rkey, rdefault)
        value = lhs << (rhs % 64 if rhs >= 0 else 0)
        if not _MIN <= value <= _MAX:
            value = _wrap(value)
        env[dst] = (value, binop_mask("<<", lhs, lm, rhs, rm))

    return run


def _shr(dst, lkey, ldefault, rkey, rdefault):
    def run(frame):
        env = frame.env
        lhs, lm = env.get(lkey, ldefault)
        rhs, rm = env.get(rkey, rdefault)
        value = lhs >> (rhs % 64 if rhs >= 0 else 0)
        if not _MIN <= value <= _MAX:
            value = _wrap(value)
        env[dst] = (value, binop_mask(">>", lhs, lm, rhs, rm))

    return run


def _neg(dst, key, default):
    def run(frame):
        env = frame.env
        operand, mask = env.get(key, default)
        value = -operand
        if not _MIN <= value <= _MAX:
            value = _wrap(value)
        env[dst] = (value, UNDEFINED if mask else DEFINED)

    return run


def _not(dst, key, default):
    def run(frame):
        env = frame.env
        operand, mask = env.get(key, default)
        env[dst] = (0 if operand else 1, UNDEFINED if mask else DEFINED)

    return run


def _invert(dst, key, default):
    def run(frame):
        env = frame.env
        operand, mask = env.get(key, default)
        value = ~operand
        if not _MIN <= value <= _MAX:
            value = _wrap(value)
        env[dst] = (value, unop_mask("~", operand, mask))

    return run


_BINOPS = {
    "+": _add, "-": _sub, "*": _mul, "/": _divide, "%": _modulo,
    "<": _lt, "<=": _le, ">": _gt, ">=": _ge, "==": _eq, "!=": _ne,
    "&": _and, "|": _or, "^": _xor, "<<": _shl, ">>": _shr,
}  # fmt: skip
_UNOPS = {"-": _neg, "!": _not, "~": _invert}


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
