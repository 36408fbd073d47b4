"""Lowering of the TinyC AST to the IR.

The lowering is deliberately naive, mirroring what clang emits at ``-O0``:
**every** local variable and every parameter is spilled to a stack slot
(an ``alloc_F``), and all accesses go through loads and stores.  The
``mem2reg`` pass (:mod:`repro.opt.mem2reg`) later promotes the slots whose
address is never taken into top-level virtual registers, which is exactly
the paper's ``O0+IM`` pipeline (Section 4.1).

Semantics notes (documented substitutions for C undefined behaviour so the
interpreter is total):

- Integer division/modulo by zero evaluates to 0.
- Out-of-range element indices are clamped to the object bounds.
- A function that falls off its end returns the defined value 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.ir.builder import IRBuilder
from repro.ir.cfg import remove_unreachable_blocks
from repro.ir.module import Module
from repro.ir.values import Const, Value, Var
from repro.tinyc import ast
from repro.tinyc.lexer import TinyCSyntaxError
from repro.tinyc.parser import parse


class LoweringError(Exception):
    """A semantic error found while lowering (undeclared names etc.)."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def compile_source(source: str, name: str = "module") -> Module:
    """Parse and lower TinyC source text to an IR module.

    The parser and the lowering recurse over the program's nesting, so
    a program nested deeper than the interpreter's recursion limit is
    rejected as a syntax error rather than crashing."""
    try:
        return lower_program(parse(source), name)
    except RecursionError:
        raise TinyCSyntaxError("program nests too deeply") from None


def lower_program(program: ast.Program, name: str = "module") -> Module:
    """Lower a parsed TinyC program to an IR module."""
    builder = IRBuilder()
    builder.module.name = name
    func_names = {f.name for f in program.functions}
    for decl in program.globals:
        if decl.name in builder.module.globals:
            raise LoweringError(f"duplicate global {decl.name!r}", decl.line)
        builder.add_global(
            decl.name,
            initialized=decl.initialized,
            size=decl.num_fields,
            is_array=decl.is_array,
        )
    seen = set()
    for func in program.functions:
        if func.name in seen:
            raise LoweringError(f"duplicate function {func.name!r}", func.line)
        seen.add(func.name)
        _FunctionLowerer(builder, func, func_names).lower()
    module = builder.finish()
    for function in module.functions.values():
        remove_unreachable_blocks(function)
    module.assign_uids()
    return module


class _LocalSlot:
    """A stack slot backing one source-level local or parameter."""

    def __init__(self, pointer: Var, is_aggregate: bool) -> None:
        self.pointer = pointer
        self.is_aggregate = is_aggregate


class _FunctionLowerer:
    def __init__(
        self, builder: IRBuilder, func: ast.FuncDef, func_names: "set[str]"
    ) -> None:
        self.b = builder
        self.func = func
        self.func_names = func_names
        self.slots: Dict[str, _LocalSlot] = {}
        # (continue target, break target) labels of enclosing loops.
        self.loop_stack: List[Tuple[str, str]] = []

    def lower(self) -> None:
        func = self.func
        self.b.current_line = func.line
        self.b.start_function(func.name, func.params)
        for decl in self._collect_decls(func.body):
            self._declare_local(decl)
        for param in func.params:
            if param in self.slots:
                raise LoweringError(
                    f"parameter {param!r} redeclared as local", func.line
                )
            slot = self.b.fresh_temp(f"{param}.addr")
            self.b.alloc(slot, f"{func.name}::{param}", initialized=False)
            self.b.store(slot, Var(param))
            self.slots[param] = _LocalSlot(slot, is_aggregate=False)
        self._lower_body(func.body)
        if not self.b.block.terminated:
            self.b.ret(Const(0))

    def _collect_decls(self, stmts: List[ast.Node]) -> List[ast.VarDecl]:
        """All var declarations in the function, in source order."""
        decls: List[ast.VarDecl] = []
        for stmt in stmts:
            if isinstance(stmt, ast.VarStmt):
                decls.extend(stmt.decls)
            elif isinstance(stmt, ast.IfStmt):
                decls.extend(self._collect_decls(stmt.then_body))
                decls.extend(self._collect_decls(stmt.else_body))
            elif isinstance(stmt, ast.WhileStmt):
                decls.extend(self._collect_decls(stmt.body))
        return decls

    def _declare_local(self, decl: ast.VarDecl) -> None:
        if decl.name in self.slots:
            raise LoweringError(f"duplicate local {decl.name!r}", decl.line)
        if decl.name in self.func.params:
            raise LoweringError(
                f"local {decl.name!r} shadows a parameter", decl.line
            )
        slot = self.b.fresh_temp(f"{decl.name}.addr")
        aggregate = decl.num_fields > 1 or decl.is_array
        self.b.alloc(
            slot,
            f"{self.func.name}::{decl.name}",
            initialized=False,
            size=decl.num_fields,
            is_array=decl.is_array,
        )
        self.slots[decl.name] = _LocalSlot(slot, is_aggregate=aggregate)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _lower_body(self, stmts: List[ast.Node]) -> None:
        for stmt in stmts:
            if self.b.block.terminated:
                # Unreachable code after break/continue/return: keep
                # lowering into a dead block; it is pruned afterwards.
                self.b.position_at(self.b.new_block("dead"))
            self._lower_stmt(stmt)

    def _lower_stmt(self, stmt: ast.Node) -> None:
        self.b.current_line = stmt.line
        if isinstance(stmt, ast.VarStmt):
            for decl in stmt.decls:
                if decl.init is not None:
                    value = self._rvalue(decl.init)
                    self.b.store(self.slots[decl.name].pointer, value)
        elif isinstance(stmt, ast.AssignStmt):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.IfStmt):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.WhileStmt):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.BreakStmt):
            if not self.loop_stack:
                raise LoweringError("break outside a loop", stmt.line)
            self.b.jump(self.loop_stack[-1][1])
        elif isinstance(stmt, ast.ContinueStmt):
            if not self.loop_stack:
                raise LoweringError("continue outside a loop", stmt.line)
            self.b.jump(self.loop_stack[-1][0])
        elif isinstance(stmt, ast.ReturnStmt):
            value = (
                self._rvalue(stmt.value) if stmt.value is not None else Const(0)
            )
            self.b.ret(value)
        elif isinstance(stmt, ast.OutputStmt):
            self.b.output(self._rvalue(stmt.value))
        elif isinstance(stmt, ast.ExprStmt):
            self._rvalue(stmt.expr, want_result=False)
        elif isinstance(stmt, ast.SkipStmt):
            pass
        else:
            raise LoweringError(f"unhandled statement {type(stmt).__name__}", stmt.line)

    def _lower_assign(self, stmt: ast.AssignStmt) -> None:
        target = stmt.target
        if isinstance(target, ast.NameExpr):
            slot = self.slots.get(target.name)
            if slot is not None:
                if slot.is_aggregate:
                    raise LoweringError(
                        f"cannot assign whole aggregate {target.name!r}",
                        stmt.line,
                    )
                value = self._rvalue(stmt.value)
                self.b.store(slot.pointer, value)
                return
            if target.name in self.b.module.globals:
                glob = self.b.module.globals[target.name]
                if glob.size > 1 or glob.is_array:
                    raise LoweringError(
                        f"cannot assign whole aggregate {target.name!r}",
                        stmt.line,
                    )
                value = self._rvalue(stmt.value)
                addr = self.b.fresh_temp("g")
                self.b.global_addr(addr, target.name)
                self.b.store(addr, value)
                return
            raise LoweringError(f"undeclared name {target.name!r}", stmt.line)
        if isinstance(target, ast.DerefExpr):
            pointer = self._rvalue(target.pointer)
            value = self._rvalue(stmt.value)
            self.b.store(pointer, value)
            return
        if isinstance(target, ast.IndexExpr):
            addr = self._element_addr(target)
            value = self._rvalue(stmt.value)
            self.b.store(addr, value)
            return
        raise LoweringError("bad assignment target", stmt.line)

    def _lower_if(self, stmt: ast.IfStmt) -> None:
        cond = self._rvalue(stmt.cond)
        then_block = self.b.new_block("then")
        join_block = self.b.new_block("join")
        else_block = self.b.new_block("else") if stmt.else_body else join_block
        self.b.branch(cond, then_block.label, else_block.label)

        self.b.position_at(then_block)
        self._lower_body(stmt.then_body)
        if not self.b.block.terminated:
            self.b.jump(join_block.label)

        if stmt.else_body:
            self.b.position_at(else_block)
            self._lower_body(stmt.else_body)
            if not self.b.block.terminated:
                self.b.jump(join_block.label)

        self.b.position_at(join_block)

    def _lower_while(self, stmt: ast.WhileStmt) -> None:
        head = self.b.new_block("loop")
        body = self.b.new_block("body")
        exit_block = self.b.new_block("endloop")
        self.b.jump(head.label)

        self.b.position_at(head)
        cond = self._rvalue(stmt.cond)
        self.b.branch(cond, body.label, exit_block.label)

        self.b.position_at(body)
        self.loop_stack.append((head.label, exit_block.label))
        self._lower_body(stmt.body)
        self.loop_stack.pop()
        if not self.b.block.terminated:
            self.b.jump(head.label)

        self.b.position_at(exit_block)

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------
    def _rvalue(self, expr: ast.Expr, want_result: bool = True) -> Value:
        """Lower ``expr``; return the value (a Const or a fresh temp)."""
        if isinstance(expr, ast.NumberExpr):
            return Const(expr.value)
        if isinstance(expr, ast.NameExpr):
            return self._name_value(expr)
        if isinstance(expr, ast.UnaryExpr):
            operand = self._rvalue(expr.operand)
            dst = self.b.fresh_temp()
            return self.b.unop(dst, expr.op, operand)
        if isinstance(expr, ast.BinaryExpr):
            lhs = self._rvalue(expr.lhs)
            rhs = self._rvalue(expr.rhs)
            dst = self.b.fresh_temp()
            return self.b.binop(dst, expr.op, lhs, rhs)
        if isinstance(expr, ast.ShortCircuitExpr):
            return self._short_circuit(expr)
        if isinstance(expr, ast.DerefExpr):
            pointer = self._rvalue(expr.pointer)
            dst = self.b.fresh_temp()
            return self.b.load(dst, pointer)
        if isinstance(expr, ast.AddrOfExpr):
            return self._addr_of(expr)
        if isinstance(expr, ast.IndexExpr):
            addr = self._element_addr(expr)
            dst = self.b.fresh_temp()
            return self.b.load(dst, addr)
        if isinstance(expr, ast.AllocExpr):
            dst = self.b.fresh_temp("h")
            self.b.alloc(
                dst,
                obj_name=f"{self.func.name}::heap@{expr.line}.{self.b.fresh_obj('')}",
                initialized=expr.initialized,
                kind="heap",
                size=expr.num_fields,
                is_array=expr.is_array,
            )
            return dst
        if isinstance(expr, ast.CallExpr):
            return self._call(expr, want_result)
        raise LoweringError(f"unhandled expression {type(expr).__name__}", expr.line)

    def _name_value(self, expr: ast.NameExpr) -> Value:
        slot = self.slots.get(expr.name)
        if slot is not None:
            if slot.is_aggregate:
                # Array/record decay: the name is the object's address.
                return slot.pointer
            dst = self.b.fresh_temp()
            return self.b.load(dst, slot.pointer)
        if expr.name in self.b.module.globals:
            glob = self.b.module.globals[expr.name]
            addr = self.b.fresh_temp("g")
            self.b.global_addr(addr, expr.name)
            if glob.size > 1 or glob.is_array:
                return addr
            dst = self.b.fresh_temp()
            return self.b.load(dst, addr)
        if expr.name in self.func_names:
            dst = self.b.fresh_temp("fp")
            return self.b.func_addr(dst, expr.name)
        raise LoweringError(f"undeclared name {expr.name!r}", expr.line)

    def _addr_of(self, expr: ast.AddrOfExpr) -> Value:
        slot = self.slots.get(expr.name)
        if slot is not None:
            return slot.pointer
        if expr.name in self.b.module.globals:
            dst = self.b.fresh_temp("g")
            return self.b.global_addr(dst, expr.name)
        if expr.name in self.func_names:
            dst = self.b.fresh_temp("fp")
            return self.b.func_addr(dst, expr.name)
        raise LoweringError(f"undeclared name {expr.name!r}", expr.line)

    def _element_addr(self, expr: ast.IndexExpr) -> Value:
        base = self._rvalue(expr.base)
        offset = self._rvalue(expr.index)
        dst = self.b.fresh_temp("e")
        return self.b.gep(dst, base, offset)

    def _short_circuit(self, expr: ast.ShortCircuitExpr) -> Value:
        """Lower ``&&`` / ``||`` with control flow.

        The result temp is assigned on both paths; SSA construction later
        inserts the φ.
        """
        result = self.b.fresh_temp("sc")
        lhs = self._rvalue(expr.lhs)
        rhs_block = self.b.new_block("sc_rhs")
        short_block = self.b.new_block("sc_short")
        join_block = self.b.new_block("sc_join")
        if expr.op == "&&":
            self.b.branch(lhs, rhs_block.label, short_block.label)
            short_value = Const(0)
        else:
            self.b.branch(lhs, short_block.label, rhs_block.label)
            short_value = Const(1)

        self.b.position_at(rhs_block)
        rhs = self._rvalue(expr.rhs)
        coerced = self.b.fresh_temp("sc")
        self.b.binop(coerced, "!=", rhs, Const(0))
        self.b.copy(result, coerced)
        self.b.jump(join_block.label)

        self.b.position_at(short_block)
        self.b.copy(result, short_value)
        self.b.jump(join_block.label)

        self.b.position_at(join_block)
        return result

    def _call(self, expr: ast.CallExpr, want_result: bool) -> Value:
        args = [self._rvalue(a) for a in expr.args]
        callee = expr.callee
        dst = self.b.fresh_temp("r") if want_result else None
        if isinstance(callee, ast.NameExpr) and callee.name in self.func_names:
            if callee.name not in self.slots:
                self.b.call(dst, callee.name, args)
                return dst if dst is not None else Const(0)
        if isinstance(callee, ast.DerefExpr):
            # ``(*f)(args)`` — the deref is a no-op on function pointers.
            callee = callee.pointer
        pointer = self._rvalue(callee)
        if isinstance(pointer, Const):
            raise LoweringError("cannot call a constant", expr.line)
        self.b.call(dst, pointer, args)
        return dst if dst is not None else Const(0)
