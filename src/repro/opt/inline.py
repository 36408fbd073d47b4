"""Function inlining for call-graph simplification.

The evaluated implementation "iteratively inlin[es] the functions with at
least one function pointer argument to simplify the call graph (excluding
those functions that are directly recursive)" (§4.1).  Lacking static
types, a "function pointer argument" is recognised semantically: a formal
parameter used as the callee of an indirect call (directly, or after
top-level copies) inside the function.

Inlining is performed on the pre-SSA IR: callee blocks are cloned with
renamed labels and variables, formals become copies of the actuals, and
each ``ret`` becomes a copy to the call result plus a jump to the
continuation block.  Each inlined call gets a tag ``inlN`` appended to
the names it makes; N counts up from one above the highest tag the
module already holds, so the pipeline's output depends on its input
module alone and tags never clash with existing names.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, Iterator, Set

from repro.ir import instructions as ins
from repro.ir.function import Block, Function
from repro.ir.module import Module
from repro.ir.printer import module_to_str
from repro.ir.values import Const, Value, Var


def functions_with_fp_params(module: Module) -> Set[str]:
    """Functions taking (what behaves like) a function-pointer argument.

    A flow-insensitive fixpoint tracks parameter values through
    top-level copies and through stack slots (the -O0 front end spills
    everything): a function qualifies when an indirect call\'s callee may
    hold one of its parameters.
    """
    result: Set[str] = set()
    for function in module.functions.values():
        fp_values = set(function.params)
        fp_slots: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for instr in function.instructions():
                if isinstance(instr, ins.Copy) and isinstance(instr.src, Var):
                    if (
                        instr.src.name in fp_values
                        and instr.dst.name not in fp_values
                    ):
                        fp_values.add(instr.dst.name)
                        changed = True
                elif isinstance(instr, ins.Store):
                    if (
                        isinstance(instr.value, Var)
                        and isinstance(instr.ptr, Var)
                        and instr.value.name in fp_values
                        and instr.ptr.name not in fp_slots
                    ):
                        fp_slots.add(instr.ptr.name)
                        changed = True
                elif isinstance(instr, ins.Load) and isinstance(instr.ptr, Var):
                    if (
                        instr.ptr.name in fp_slots
                        and instr.dst.name not in fp_values
                    ):
                        fp_values.add(instr.dst.name)
                        changed = True
        for instr in function.instructions():
            if isinstance(instr, ins.Call) and instr.is_indirect:
                if instr.callee.name in fp_values:
                    result.add(function.name)
                    break
    return result


def _directly_recursive(function: Function) -> bool:
    return any(
        isinstance(i, ins.Call)
        and not i.is_indirect
        and i.callee == function.name
        for i in function.instructions()
    )


def inline_fp_functions(module: Module, max_rounds: int = 5) -> int:
    """Iteratively inline direct calls to fp-argument functions.

    Returns the number of call sites inlined.  Re-assigns uids.
    """
    total = 0
    tags = _fresh_tags(module)
    for _ in range(max_rounds):
        targets = {
            name
            for name in functions_with_fp_params(module)
            if not _directly_recursive(module.functions[name])
            and name != "main"
        }
        if not targets:
            break
        round_count = 0
        for function in list(module.functions.values()):
            if function.name in targets:
                continue  # inline into non-targets first; next round fixes up
            round_count += _inline_calls_in(module, function, targets, tags)
        if round_count == 0:
            break
        total += round_count
    module.assign_uids()
    return total


def inline_call_sites(module: Module, targets: Set[str]) -> int:
    """Inline every direct call to any function named in ``targets``."""
    total = 0
    tags = _fresh_tags(module)
    for function in list(module.functions.values()):
        if function.name in targets:
            continue
        total += _inline_calls_in(module, function, targets, tags)
    module.assign_uids()
    return total


_TAG_RE = re.compile(r"\.inl(\d+)")


def _fresh_tags(module: Module) -> Iterator[str]:
    """``inlN`` tags for N above every tag ``module`` holds when the
    first is drawn (a module nothing is inlined into is never printed)."""
    used = [int(n) for n in _TAG_RE.findall(module_to_str(module))]
    for n in itertools.count(max(used, default=0) + 1):
        yield f"inl{n}"


def _inline_calls_in(
    module: Module, function: Function, targets: Set[str], tags: Iterator[str]
) -> int:
    count = 0
    changed = True
    while changed:
        changed = False
        for block in list(function.blocks):
            for index, instr in enumerate(block.instrs):
                if (
                    isinstance(instr, ins.Call)
                    and not instr.is_indirect
                    and instr.callee in targets
                ):
                    _inline_one(module, function, block, index, next(tags))
                    count += 1
                    changed = True
                    break
            if changed:
                break
    return count


def _inline_one(
    module: Module, function: Function, block: Block, index: int, tag: str
) -> None:
    call = block.instrs[index]
    assert isinstance(call, ins.Call) and not call.is_indirect
    callee = module.functions[call.callee]

    rename_var: Dict[str, str] = {}

    def map_var(var: Var) -> Var:
        if var.name not in rename_var:
            rename_var[var.name] = f"{var.name}.{tag}"
        return Var(rename_var[var.name])

    def map_value(value: Value) -> Value:
        return map_var(value) if isinstance(value, Var) else value

    label_map = {b.label: f"{b.label}.{tag}" for b in callee.blocks}
    cont_label = f"cont.{tag}"

    # Split the call block: instructions after the call move to `cont`.
    cont = function.add_block(cont_label)
    tail = block.instrs[index + 1 :]
    block.instrs = block.instrs[:index]
    for i in tail:
        i.block = cont
    cont.instrs = tail

    # Bind actuals to renamed formals.
    for formal, actual in zip(callee.params, call.args):
        copy = ins.Copy(map_var(Var(formal)), actual)
        block.append(copy)
    for extra in callee.params[len(call.args) :]:
        map_var(Var(extra))  # unbound formal stays undefined
    block.append(ins.Jump(label_map[callee.entry.label]))

    # Clone callee blocks; each `ret v` becomes `dst := v; goto cont`.
    for src_block in callee.blocks:
        clone = function.add_block(label_map[src_block.label])
        for instr in src_block.instrs:
            if isinstance(instr, ins.Ret):
                if call.dst is not None:
                    value = (
                        map_value(instr.value)
                        if instr.value is not None
                        else Const(0)
                    )
                    clone.append(ins.Copy(call.dst, value))
                clone.append(ins.Jump(cont_label))
            else:
                copy = _clone_instr(instr, map_var, map_value, label_map, tag)
                copy.line = instr.line
                clone.append(copy)


def _clone_instr(instr, map_var, map_value, label_map, tag):
    if isinstance(instr, ins.ConstCopy):
        return ins.ConstCopy(map_var(instr.dst), instr.value)
    if isinstance(instr, ins.Copy):
        return ins.Copy(map_var(instr.dst), map_value(instr.src))
    if isinstance(instr, ins.BinOp):
        return ins.BinOp(
            map_var(instr.dst), instr.op, map_value(instr.lhs), map_value(instr.rhs)
        )
    if isinstance(instr, ins.UnOp):
        return ins.UnOp(map_var(instr.dst), instr.op, map_value(instr.operand))
    if isinstance(instr, ins.Alloc):
        return ins.Alloc(
            map_var(instr.dst),
            f"{instr.obj_name}.{tag}",
            instr.initialized,
            instr.kind,
            instr.size,
            instr.is_array,
        )
    if isinstance(instr, ins.Gep):
        return ins.Gep(map_var(instr.dst), map_value(instr.base), map_value(instr.offset))
    if isinstance(instr, ins.GlobalAddr):
        return ins.GlobalAddr(map_var(instr.dst), instr.global_name)
    if isinstance(instr, ins.FuncAddr):
        return ins.FuncAddr(map_var(instr.dst), instr.func_name)
    if isinstance(instr, ins.Load):
        return ins.Load(map_var(instr.dst), map_value(instr.ptr))
    if isinstance(instr, ins.Store):
        return ins.Store(map_value(instr.ptr), map_value(instr.value))
    if isinstance(instr, ins.Call):
        dst = map_var(instr.dst) if instr.dst is not None else None
        callee = (
            map_var(instr.callee) if instr.is_indirect else instr.callee
        )
        return ins.Call(dst, callee, [map_value(a) for a in instr.args])
    if isinstance(instr, ins.Branch):
        return ins.Branch(
            map_value(instr.cond),
            label_map[instr.then_label],
            label_map[instr.else_label],
        )
    if isinstance(instr, ins.Jump):
        return ins.Jump(label_map[instr.target])
    if isinstance(instr, ins.Output):
        return ins.Output(map_value(instr.value))
    raise ValueError(f"cannot inline instruction {instr}")
