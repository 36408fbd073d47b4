"""Recursive-descent / Pratt parser for TinyC.

Grammar (EBNF)::

    program     := (global_decl | func_def)*
    global_decl := "global" ["uninit"] IDENT [aggregate] ";"
    aggregate   := "[" NUMBER "]" | "{" NUMBER "}"
    func_def    := "def" IDENT "(" [IDENT ("," IDENT)*] ")" block
    block       := "{" stmt* "}"
    stmt        := "var" var_decl ("," var_decl)* ";"
                 | "if" "(" expr ")" block ["else" (block | if_stmt)]
                 | "while" "(" expr ")" block
                 | "break" ";" | "continue" ";"
                 | "return" [expr] ";"
                 | "output" "(" expr ")" ";"
                 | "skip" ";"
                 | lvalue "=" expr ";"
                 | expr ";"
    var_decl    := IDENT [aggregate] ["=" expr]
    lvalue      := IDENT | "*" unary | postfix "[" expr "]"

Expressions use standard C precedence: ``||`` < ``&&`` < ``|`` < ``^`` <
``&`` < equality < relational < shifts < additive < multiplicative <
unary (``- ! ~ * &``) < postfix (call, index).
"""

from __future__ import annotations

from typing import List, Optional

from repro.tinyc import ast
from repro.tinyc.lexer import Token, TinyCSyntaxError, tokenize

_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    "<=": 7,
    ">": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}


def parse(source: str) -> ast.Program:
    """Parse TinyC source text into an AST."""
    return _Parser(tokenize(source)).parse_program()


class _Parser:
    def __init__(self, tokens: List[Token]) -> None:
        self._tokens = tokens
        self._pos = 0

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------
    # The current token is read as ``self._tokens[self._pos]`` in place:
    # these probes run tens of thousands of times per module, and a
    # property call would be most of their cost.
    def _advance(self) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _check(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self._tokens[self._pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def _accept(self, kind: str, text: Optional[str] = None) -> Optional[Token]:
        tok = self._tokens[self._pos]
        if tok.kind == kind and (text is None or tok.text == text):
            if kind != "eof":
                self._pos += 1
            return tok
        return None

    def _expect(self, kind: str, text: Optional[str] = None) -> Token:
        tok = self._tokens[self._pos]
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            raise TinyCSyntaxError(
                f"expected {want!r}, found {tok.text!r}", tok.line, tok.col
            )
        if kind != "eof":
            self._pos += 1
        return tok

    def _error(self, message: str) -> TinyCSyntaxError:
        tok = self._tokens[self._pos]
        return TinyCSyntaxError(message, tok.line, tok.col)

    # ------------------------------------------------------------------
    # Top level
    # ------------------------------------------------------------------
    def parse_program(self) -> ast.Program:
        program = ast.Program(line=1)
        while not self._check("eof"):
            if self._check("keyword", "global"):
                program.globals.append(self._global_decl())
            elif self._check("keyword", "def"):
                program.functions.append(self._func_def())
            else:
                raise self._error(
                    f"expected 'global' or 'def', found {self._tokens[self._pos].text!r}"
                )
        return program

    def _aggregate(self) -> "tuple[int, bool]":
        """Parse an optional ``[N]`` or ``{N}`` suffix."""
        if self._accept("op", "["):
            size = int(self._expect("number").text)
            self._expect("op", "]")
            return max(size, 1), True
        if self._accept("op", "{"):
            size = int(self._expect("number").text)
            self._expect("op", "}")
            return max(size, 1), False
        return 1, False

    def _global_decl(self) -> ast.GlobalDecl:
        start = self._expect("keyword", "global")
        initialized = not self._accept("keyword", "uninit")
        name = self._expect("ident").text
        num_fields, is_array = self._aggregate()
        self._expect("op", ";")
        return ast.GlobalDecl(
            line=start.line,
            name=name,
            num_fields=num_fields,
            is_array=is_array,
            initialized=initialized,
        )

    def _func_def(self) -> ast.FuncDef:
        start = self._expect("keyword", "def")
        name = self._expect("ident").text
        self._expect("op", "(")
        params: List[str] = []
        if not self._check("op", ")"):
            params.append(self._expect("ident").text)
            while self._accept("op", ","):
                params.append(self._expect("ident").text)
        self._expect("op", ")")
        body = self._block()
        return ast.FuncDef(line=start.line, name=name, params=params, body=body)

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------
    def _block(self) -> List[ast.Node]:
        self._expect("op", "{")
        stmts: List[ast.Node] = []
        while not self._check("op", "}"):
            if self._check("eof"):
                raise self._error("unterminated block")
            stmts.append(self._statement())
        self._expect("op", "}")
        return stmts

    def _statement(self) -> ast.Node:
        tok = self._tokens[self._pos]
        if self._check("keyword", "var"):
            return self._var_stmt()
        if self._check("keyword", "if"):
            return self._if_stmt()
        if self._check("keyword", "while"):
            self._advance()
            self._expect("op", "(")
            cond = self._expression()
            self._expect("op", ")")
            body = self._block()
            return ast.WhileStmt(line=tok.line, cond=cond, body=body)
        if self._accept("keyword", "break"):
            self._expect("op", ";")
            return ast.BreakStmt(line=tok.line)
        if self._accept("keyword", "continue"):
            self._expect("op", ";")
            return ast.ContinueStmt(line=tok.line)
        if self._accept("keyword", "return"):
            value = None if self._check("op", ";") else self._expression()
            self._expect("op", ";")
            return ast.ReturnStmt(line=tok.line, value=value)
        if self._accept("keyword", "output"):
            self._expect("op", "(")
            value = self._expression()
            self._expect("op", ")")
            self._expect("op", ";")
            return ast.OutputStmt(line=tok.line, value=value)
        if self._accept("keyword", "skip"):
            self._expect("op", ";")
            return ast.SkipStmt(line=tok.line)
        # Assignment or expression statement.
        expr = self._expression()
        if self._accept("op", "="):
            value = self._expression()
            self._expect("op", ";")
            self._check_lvalue(expr)
            return ast.AssignStmt(line=tok.line, target=expr, value=value)
        self._expect("op", ";")
        return ast.ExprStmt(line=tok.line, expr=expr)

    def _check_lvalue(self, expr: ast.Expr) -> None:
        if isinstance(expr, (ast.NameExpr, ast.DerefExpr, ast.IndexExpr)):
            return
        raise TinyCSyntaxError(
            "assignment target must be a name, *pointer or element",
            expr.line,
            0,
        )

    def _var_stmt(self) -> ast.VarStmt:
        start = self._expect("keyword", "var")
        decls: List[ast.VarDecl] = []
        while True:
            name_tok = self._expect("ident")
            num_fields, is_array = self._aggregate()
            init = None
            if self._accept("op", "="):
                if num_fields > 1 or is_array:
                    raise self._error("aggregates cannot have initializers")
                init = self._expression()
            decls.append(
                ast.VarDecl(
                    line=name_tok.line,
                    name=name_tok.text,
                    init=init,
                    num_fields=num_fields,
                    is_array=is_array,
                )
            )
            if not self._accept("op", ","):
                break
        self._expect("op", ";")
        return ast.VarStmt(line=start.line, decls=decls)

    def _if_stmt(self) -> ast.IfStmt:
        start = self._expect("keyword", "if")
        self._expect("op", "(")
        cond = self._expression()
        self._expect("op", ")")
        then_body = self._block()
        else_body: List[ast.Node] = []
        if self._accept("keyword", "else"):
            if self._check("keyword", "if"):
                else_body = [self._if_stmt()]
            else:
                else_body = self._block()
        return ast.IfStmt(
            line=start.line, cond=cond, then_body=then_body, else_body=else_body
        )

    # ------------------------------------------------------------------
    # Expressions (Pratt)
    # ------------------------------------------------------------------
    def _expression(self, min_prec: int = 1) -> ast.Expr:
        lhs = self._unary()
        while True:
            tok = self._tokens[self._pos]
            if tok.kind != "op":
                break
            prec = _BINARY_PRECEDENCE.get(tok.text)
            if prec is None or prec < min_prec:
                break
            self._advance()
            rhs = self._expression(prec + 1)
            if tok.text in ("&&", "||"):
                lhs = ast.ShortCircuitExpr(
                    line=tok.line, op=tok.text, lhs=lhs, rhs=rhs
                )
            else:
                lhs = ast.BinaryExpr(line=tok.line, op=tok.text, lhs=lhs, rhs=rhs)
        return lhs

    def _unary(self) -> ast.Expr:
        tok = self._tokens[self._pos]
        if tok.kind == "op" and tok.text in ("-", "!", "~"):
            self._advance()
            operand = self._unary()
            return ast.UnaryExpr(line=tok.line, op=tok.text, operand=operand)
        if self._accept("op", "*"):
            pointer = self._unary()
            return ast.DerefExpr(line=tok.line, pointer=pointer)
        if self._accept("op", "&"):
            name = self._expect("ident").text
            return ast.AddrOfExpr(line=tok.line, name=name)
        return self._postfix()

    def _postfix(self) -> ast.Expr:
        expr = self._primary()
        while True:
            tok = self._tokens[self._pos]
            if self._accept("op", "("):
                args: List[ast.Expr] = []
                if not self._check("op", ")"):
                    args.append(self._expression())
                    while self._accept("op", ","):
                        args.append(self._expression())
                self._expect("op", ")")
                expr = ast.CallExpr(line=tok.line, callee=expr, args=args)
            elif self._accept("op", "["):
                index = self._expression()
                self._expect("op", "]")
                expr = ast.IndexExpr(line=tok.line, base=expr, index=index)
            else:
                return expr

    def _primary(self) -> ast.Expr:
        tok = self._tokens[self._pos]
        if tok.kind == "number":
            self._advance()
            return ast.NumberExpr(line=tok.line, value=int(tok.text))
        if tok.kind == "ident":
            self._advance()
            return ast.NameExpr(line=tok.line, name=tok.text)
        if tok.kind == "keyword" and tok.text in (
            "malloc",
            "calloc",
            "malloc_array",
            "calloc_array",
        ):
            self._advance()
            self._expect("op", "(")
            size = int(self._expect("number").text)
            self._expect("op", ")")
            return ast.AllocExpr(
                line=tok.line,
                initialized=tok.text.startswith("calloc"),
                is_array=tok.text.endswith("_array"),
                num_fields=max(size, 1),
            )
        if self._accept("op", "("):
            expr = self._expression()
            self._expect("op", ")")
            return expr
        raise self._error(f"expected an expression, found {tok.text!r}")
