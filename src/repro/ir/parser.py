"""Textual IR parser — the inverse of :mod:`repro.ir.printer`.

Parses the pre-SSA form the front end and optimizer produce (no φs, no
SSA versions, no μ/χ annotations — those are analysis results, not
inputs).  Together with the printer this gives a round-trip property
(``parse(print(m))`` prints identically, the ``; module NAME`` header
included) and lets tests and tools ship IR fixtures as plain text.

Each line costs one regular-expression match: a line is routed by its
first characters to the global, ``def`` or label pattern, and every
instruction form is one alternative of a single compiled pattern,
tried in a fixed precedence order.  The module name is taken from a
``; module NAME`` header only when it is the first non-blank line;
every other ``;`` line is a comment.

Accepted grammar (one instruction per line, blocks introduced by
``label:`` lines)::

    ; module NAME
    global g (init=T)
    global a (init=F array[8])
    global r (init=T fields=3)

    def f(a, b) {
    entry:
        x := 42
        x := y
        x := y + z
        x := -y
        p := alloc_F obj (stack, fields=2)
        q := alloc_T obj2 (heap, array[8])
        e := gep p, 1
        g := &glob
        fp := &func()
        v := *p
        *p := v
        r := f(x, 1)
        r := *fp(x)
        if c goto then else els
        goto join
        output v
        ret v
    }
"""

from __future__ import annotations

import re
from typing import Optional, Tuple

from repro.ir import instructions as ins
from repro.ir.function import Function
from repro.ir.module import GlobalVariable, Module
from repro.ir.values import Const, Value, Var


class IRParseError(Exception):
    """A malformed IR text line."""

    def __init__(self, message: str, line_no: int, line: str) -> None:
        super().__init__(f"line {line_no}: {message}: {line.strip()!r}")
        self.line_no = line_no


_NAME = r"[%A-Za-z_][%A-Za-z0-9_.@:\-]*"
_VALUE = rf"(?:-?\d+|{_NAME})"

_INT_RE = re.compile(r"-?\d+")
_MODULE_PREFIX = "; module "
_GLOBAL_RE = re.compile(
    rf"global\s+(?P<name>{_NAME})\s*"
    r"\(init=(?P<init>[TF])(?:\s+(?:array\[(?P<asize>\d+)\]|fields=(?P<fields>\d+)))?\)"
)
_DEF_RE = re.compile(rf"def\s+(?P<name>{_NAME})\s*\((?P<params>[^)]*)\)\s*(?:\[[^\]]*\]\s*)?\{{")
_LABEL_RE = re.compile(rf"^(?P<label>{_NAME}):$")
#: Printed μ/χ annotations (analysis results, not input).
_ANNOT_RE = re.compile(r"\s+\[(?:mu|.*:= chi)\(.*\]$")


def _kind(kind: str, pattern: str) -> str:
    """``pattern`` as one alternative of :data:`_INSTR_RE`: wrapped in a
    group named ``kind``, its own groups renamed ``kind_<group>``."""
    return f"(?P<{kind}>" + pattern.replace("(?P<", f"(?P<{kind}_") + ")"


#: Every instruction form, tried in precedence order by one match.
#: ``Load`` precedes ``Call``: a line both match is a ``Load``.  A
#: negative literal (``x := -5``) is a ``ConstCopy``, never a ``UnOp``.
_INSTR_RE = re.compile(
    "|".join(
        [
            _kind(
                "alloc",
                rf"(?P<dst>{_NAME}) := alloc_(?P<flavor>[TF]) (?P<obj>\S+)"
                r" \((?P<kind>stack|heap)"
                r"(?:, (?:fields=(?P<fields>\d+)|array\[(?P<asize>\d+)\]))?\)",
            ),
            _kind(
                "gep",
                rf"(?P<dst>{_NAME}) := gep (?P<base>{_VALUE}), (?P<off>{_VALUE})$",
            ),
            _kind("funcaddr", rf"(?P<dst>{_NAME}) := &(?P<func>{_NAME})\(\)$"),
            _kind("globaladdr", rf"(?P<dst>{_NAME}) := &(?P<glob>{_NAME})$"),
            _kind("load", rf"(?P<dst>{_NAME}) := \*(?P<ptr>{_VALUE})$"),
            _kind(
                "call",
                rf"(?:(?P<dst>{_NAME}) := )?(?P<star>\*)?"
                rf"(?P<callee>{_NAME})\((?P<args>[^)]*)\)$",
            ),
            _kind("store", rf"\*(?P<ptr>{_VALUE}) := (?P<src>{_VALUE})$"),
            _kind(
                "binop",
                rf"(?P<dst>{_NAME}) := (?P<lhs>{_VALUE}) "
                rf"(?P<op>\+|-|\*|/|%|<<|>>|<=|>=|==|!=|<|>|&|\||\^) "
                rf"(?P<rhs>{_VALUE})$",
            ),
            _kind(
                "unop",
                rf"(?P<dst>{_NAME}) := (?!-\d+$)(?P<op>[-!~])(?P<val>{_VALUE})$",
            ),
            _kind("copy", rf"(?P<dst>{_NAME}) := (?P<src>{_VALUE})$"),
            _kind(
                "branch",
                rf"if (?P<cond>{_VALUE}) goto (?P<then>{_NAME}) "
                rf"else (?P<els>{_NAME})$",
            ),
            _kind("jump", rf"goto (?P<target>{_NAME})$"),
            _kind("ret", rf"ret(?: (?P<val>{_VALUE}))?$"),
            _kind("output", rf"output (?P<val>{_VALUE})$"),
        ]
    )
)


class _Operands(dict):
    """One parse's operands by spelling.  ``Var`` and ``Const`` are
    immutable, so every occurrence of a spelling shares one object, as
    in the front end's output: a dict hit costs less than building a
    frozen dataclass, and the module holds fewer objects."""

    def __missing__(self, text: str) -> Value:
        # Skip the match for names: they start with neither '-' nor a digit.
        head = text[0]
        if (head == "-" or head.isdecimal()) and _INT_RE.fullmatch(text):
            value: Value = Const(int(text))
        else:
            value = Var(text)
        self[text] = value
        return value


def _sized(fields: Optional[str], asize: Optional[str]) -> Tuple[int, bool]:
    """``(size, is_array)`` of a ``fields=N`` / ``array[N]`` suffix."""
    if asize:
        return int(asize), True
    if fields:
        return int(fields), False
    return 1, False


def parse_ir(text: str) -> Module:
    """Parse printed IR text back into a module."""
    module = Module()
    function: Optional[Function] = None
    block = None
    first = True
    values = _Operands()

    try:
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            header, first = first, False
            if line[0] == ";":
                if header and line.startswith(_MODULE_PREFIX):
                    module.name = line[len(_MODULE_PREFIX):]
                continue

            if line.startswith("global"):
                match = _GLOBAL_RE.fullmatch(line)
                if match:
                    size, is_array = _sized(
                        match.group("fields"), match.group("asize")
                    )
                    module.add_global(
                        GlobalVariable(
                            match.group("name"),
                            initialized=match.group("init") == "T",
                            size=size,
                            is_array=is_array,
                        )
                    )
                    continue
            elif line.startswith("def"):
                match = _DEF_RE.fullmatch(line)
                if match:
                    params = [
                        p.strip()
                        for p in match.group("params").split(",")
                        if p.strip()
                    ]
                    function = Function(match.group("name"), params)
                    module.add_function(function)
                    block = None
                    continue
            elif line == "}":
                function = None
                block = None
                continue

            if function is None:
                raise IRParseError(
                    "instruction outside a function", line_no, raw
                )

            if line[-1] == ":":
                match = _LABEL_RE.fullmatch(line)
                if match:
                    block = function.add_block(match.group("label"))
                    continue

            if block is None:
                raise IRParseError("instruction outside a block", line_no, raw)

            if "[" in line:
                line = _ANNOT_RE.sub("", line)
            block.append(_parse_instr(line, line_no, raw, values))
    except ValueError as error:
        # The IR containers reject a duplicate function, global or block
        # label, an instruction after a terminator and a zero size.
        raise IRParseError(str(error), line_no, raw) from None

    module.assign_uids()
    return module


def _parse_instr(
    body: str, line_no: int, raw: str, values: _Operands
) -> ins.Instr:
    match = _INSTR_RE.fullmatch(body)
    if match is None:
        raise IRParseError("unrecognized instruction", line_no, raw)
    kind = match.lastgroup
    group = match.group
    if kind == "load":
        dst, ptr = group("load_dst", "load_ptr")
        return ins.Load(values[dst], values[ptr])
    if kind == "store":
        ptr, src = group("store_ptr", "store_src")
        return ins.Store(values[ptr], values[src])
    if kind == "binop":
        dst, op, lhs, rhs = group("binop_dst", "binop_op", "binop_lhs", "binop_rhs")
        return ins.BinOp(values[dst], op, values[lhs], values[rhs])
    if kind == "alloc":
        dst, flavor, obj, where, fields, asize = group(
            "alloc_dst", "alloc_flavor", "alloc_obj", "alloc_kind",
            "alloc_fields", "alloc_asize",
        )
        size, is_array = _sized(fields, asize)
        return ins.Alloc(
            values[dst],
            obj,
            initialized=flavor == "T",
            kind=where,
            size=size,
            is_array=is_array,
        )
    if kind == "copy":
        dst, src = group("copy_dst", "copy_src")
        value = values[src]
        if isinstance(value, Const):
            return ins.ConstCopy(values[dst], value.value)
        return ins.Copy(values[dst], value)
    if kind == "call":
        dst, star, callee, args = group("call_dst", "call_star", "call_callee", "call_args")
        return ins.Call(
            values[dst] if dst else None,
            values[callee] if star else callee,
            [values[a.strip()] for a in args.split(",") if a.strip()],
        )
    if kind == "gep":
        dst, base, off = group("gep_dst", "gep_base", "gep_off")
        return ins.Gep(values[dst], values[base], values[off])
    if kind == "funcaddr":
        dst, func = group("funcaddr_dst", "funcaddr_func")
        return ins.FuncAddr(values[dst], func)
    if kind == "globaladdr":
        dst, glob = group("globaladdr_dst", "globaladdr_glob")
        return ins.GlobalAddr(values[dst], glob)
    if kind == "unop":
        dst, op, val = group("unop_dst", "unop_op", "unop_val")
        return ins.UnOp(values[dst], op, values[val])
    if kind == "branch":
        cond, then, els = group("branch_cond", "branch_then", "branch_els")
        return ins.Branch(values[cond], then, els)
    if kind == "jump":
        return ins.Jump(group("jump_target"))
    if kind == "ret":
        value = group("ret_val")
        return ins.Ret(values[value] if value else None)
    return ins.Output(values[group("output_val")])
