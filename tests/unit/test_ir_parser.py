"""Unit + round-trip tests for the textual IR parser."""

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.ir import module_to_str, verify_module
from repro.ir.parser import IRParseError, parse_ir
from repro.ir.values import Const, Var
from repro.opt import run_pipeline
from repro.runtime import StepLimitExceeded, run_native
from repro.tinyc import compile_source
from repro.workloads import GeneratorParams, generate_program


class TestBasicParsing:
    def test_minimal_module(self):
        module = parse_ir(
            """
            def main() {
            entry:
                x := 42
                ret x
            }
            """
        )
        verify_module(module)
        assert run_native(module).exit_value == 42

    def test_globals(self):
        module = parse_ir(
            """
            global g (init=T)
            global a (init=F array[8])
            global r (init=T fields=3)

            def main() {
            entry:
                ret 0
            }
            """
        )
        assert module.globals["g"].initialized
        assert module.globals["a"].is_array and module.globals["a"].size == 8
        assert module.globals["r"].num_fields == 3

    def test_all_instruction_forms(self):
        module = parse_ir(
            """
            global g (init=T)
            def f(a) {
            e:
                ret a
            }
            def main() {
            entry:
                x := 1
                y := x
                z := x + y
                n := -z
                p := alloc_F cell (heap, fields=2)
                q := alloc_T arr (stack, array[4])
                e1 := gep p, 1
                ga := &g
                fp := &f()
                *e1 := z
                v := *e1
                r1 := f(v)
                r2 := *fp(v)
                output r2
                if v goto a else b
            a:
                goto c
            b:
                goto c
            c:
                ret r1
            }
            """
        )
        verify_module(module)
        report = run_native(module)
        assert report.exit_value == 2
        assert report.outputs == [2]

    def test_errors(self):
        with pytest.raises(IRParseError, match="outside a function"):
            parse_ir("x := 1")
        with pytest.raises(IRParseError, match="outside a block"):
            parse_ir("def main() {\n x := 1\n}")
        with pytest.raises(IRParseError, match="unrecognized"):
            parse_ir("def main() {\ne:\n x ?= 1\n}")


class TestRoundTrip:
    def _round_trip(self, module):
        printed = module_to_str(module)
        reparsed = parse_ir(printed)
        assert module_to_str(reparsed) == printed
        return reparsed

    def test_frontend_output_round_trips(self):
        module = compile_source(
            """
            global tbl[4];
            def twice(v) { return v * 2; }
            def main() {
              var p = malloc(2);
              p[0] = twice(3);
              tbl[1] = p[0];
              output(tbl[1]);
              return 0;
            }
            """
        )
        reparsed = self._round_trip(module)
        assert run_native(reparsed).outputs == run_native(module).outputs

    def test_optimized_output_round_trips(self):
        module = compile_source(
            "def main() { var i = 0, s = 0; while (i < 5) { s = s + i; i = i + 1; } output(s); return 0; }"
        )
        run_pipeline(module, "O0+IM")
        reparsed = self._round_trip(module)
        assert run_native(reparsed).outputs == [10]

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_programs_round_trip(self, seed):
        module = compile_source(
            generate_program(seed, GeneratorParams(uninit_prob=0.2))
        )
        run_pipeline(module, "O0+IM")
        printed = module_to_str(module)
        reparsed = parse_ir(printed)
        assert module_to_str(reparsed) == printed
        try:
            original = run_native(module, max_steps=300_000)
            replayed = run_native(reparsed, max_steps=300_000)
        except StepLimitExceeded:
            return
        assert replayed.outputs == original.outputs
        assert replayed.exit_value == original.exit_value


def _one_instr(line):
    module = parse_ir(f"def main() {{\nentry:\n    {line}\n}}")
    (instr,) = module.functions["main"].blocks[0].instrs
    return instr


class TestLanguagePins:
    """The accepted line language, pinned line by line: the class each
    line parses to and how that instruction prints back."""

    @pytest.mark.parametrize(
        "line, kind, printed",
        [
            # Names may contain '-', '.', ':', '@' and '%'.
            ("%a-b.c:d@e := %f.1", "Copy", None),
            ("x := y:", "Copy", None),
            ("global := 5", "ConstCopy", None),
            ("def := x", "Copy", None),
            ("x := gep", "Copy", None),
            ("x := 42", "ConstCopy", None),
            # A negative literal is a constant; a negated name is a UnOp.
            ("x := -5", "ConstCopy", None),
            ("x := -y", "UnOp", None),
            ("x := --5", "UnOp", None),
            ("x := !5", "UnOp", None),
            ("x := ~%t.2", "UnOp", None),
            ("x := y - -3", "BinOp", None),
            ("x := y << 2", "BinOp", None),
            ("x := 1 < 10", "BinOp", None),
            # A starred pointer is a Load unless it is called.
            ("x := *p", "Load", None),
            ("x := *-3", "Load", None),
            ("x := *fp(a)", "Call", None),
            ("x := *fp(a, -2, b)", "Call", None),
            ("*p := -3", "Store", None),
            ("*%p.1 := v", "Store", None),
            ("r := f()", "Call", None),
            ("f(a, 1)", "Call", None),
            ("p := alloc_F obj (stack)", "Alloc", None),
            ("q := alloc_T f::obj2 (heap, array[8])", "Alloc", None),
            ("r := alloc_F o (stack, fields=3)", "Alloc", None),
            ("e := gep p, 1", "Gep", None),
            ("e := gep p, k", "Gep", None),
            ("g := &glob", "GlobalAddr", None),
            ("fp := &func()", "FuncAddr", None),
            ("x := &f() ", "FuncAddr", "x := &f()"),
            ("if c goto a else b", "Branch", None),
            ("if -1 goto a.b else c:d", "Branch", None),
            ("goto x", "Jump", None),
            ("output v", "Output", None),
            ("output -4", "Output", None),
            ("ret", "Ret", None),
            ("ret -1", "Ret", None),
            # Printed μ/χ annotations are dropped.
            ("v := *p  [mu(f0::a0.4)]", "Load", "v := *p"),
            ("*p := v  [f0::a0.3 := chi(f0::a0.2)]", "Store", "*p := v"),
            ("r := f(x)  [mu(g.1), g.2 := chi(g.1)]", "Call", "r := f(x)"),
            ("ret x  [mu(f0::a0.4), mu(f0::a1.3)]", "Ret", "ret x"),
            ("ret  [mu(a.1)]", "Ret", "ret"),
            (
                "p := alloc_F obj (stack)  [f::o.2 := chi(f::o.1)]",
                "Alloc",
                "p := alloc_F obj (stack)",
            ),
        ],
    )
    def test_line(self, line, kind, printed):
        instr = _one_instr(line)
        assert type(instr).__name__ == kind
        assert str(instr) == (printed if printed is not None else line)

    def test_operand_kinds(self):
        assert _one_instr("x := -5").value == -5
        assert _one_instr("x := --5").operand == Const(-5)
        assert _one_instr("x := *-3").ptr == Const(-3)
        call = _one_instr("x := f(5a, b c, -1)")
        assert call.args == [Var("5a"), Var("b c"), Const(-1)]
        indirect = _one_instr("x := *fp(a)")
        assert indirect.callee == Var("fp") and indirect.is_indirect

    @pytest.mark.parametrize(
        "line",
        [
            "x ?= 1",
            "x := y +z",
            "*p := *q",
            "x := alloc_Q o (stack)",
            "x := -",
            "r := 5a(b)",
            "x := y  [junk]",
            "foo: [mu(x)]",
        ],
    )
    def test_malformed_line_reports_its_number(self, line):
        text = f"global g (init=T)\n\ndef main() {{\nentry:\n    x := 1\n    {line}\n}}"
        with pytest.raises(IRParseError, match="unrecognized") as raised:
            parse_ir(text)
        assert raised.value.line_no == 6

    def test_structural_errors_report_their_line(self):
        with pytest.raises(IRParseError, match="outside a function") as raised:
            parse_ir("; module m\n\nx := 1")
        assert raised.value.line_no == 3
        with pytest.raises(IRParseError, match="outside a block") as raised:
            parse_ir("def main() {\n\n    x := 1\n}")
        assert raised.value.line_no == 3

    @pytest.mark.parametrize(
        "text, line_no, message",
        [
            ("def main() {\ne:\n ret 0\n x := 1\n}", 4,
             "block e already has a terminator"),
            ("def main() {\ne:\n ret 0\n}\ndef main() {\ne:\n ret 0\n}", 5,
             "duplicate function: main"),
            ("global g (init=T)\nglobal g (init=F)", 2, "duplicate global: g"),
            ("def main() {\ne:\n goto e\ne:\n ret 0\n}", 4,
             "duplicate block label: e"),
            ("global a (init=F array[0])", 1, "size must be >= 1"),
            ("def main() {\ne:\n p := alloc_F o (stack, fields=0)\n ret 0\n}",
             3, "size must be >= 1"),
        ],
        ids=["after_terminator", "function", "global", "label",
             "global_size", "alloc_size"],
    )
    def test_container_errors_report_their_line(self, text, line_no, message):
        """The module, function and block containers reject these with
        a ``ValueError``; the parser names the offending line instead."""
        with pytest.raises(IRParseError) as raised:
            parse_ir(text)
        assert raised.value.line_no == line_no
        assert str(raised.value) == (
            f"line {line_no}: {message}: "
            f"{text.splitlines()[line_no - 1].strip()!r}"
        )

    @pytest.mark.parametrize(
        "path",
        sorted((Path(__file__).parents[1] / "data" / "corpus").glob("*.ir")),
        ids=lambda path: path.name,
    )
    def test_corpus_files_round_trip(self, path):
        module = parse_ir(path.read_text())
        printed = module_to_str(module)
        reparsed = parse_ir(printed)
        assert module_to_str(reparsed) == printed
        assert [type(i) for i in reparsed.instructions()] == [
            type(i) for i in module.instructions()
        ]
        assert [i.uid for i in reparsed.instructions()] == [
            i.uid for i in module.instructions()
        ]


class TestModuleName:
    def test_header_names_the_module(self):
        module = compile_source("def main() { return 0; }", "foo")
        reparsed = parse_ir(module_to_str(module))
        assert reparsed.name == "foo"
        assert module_to_str(reparsed) == module_to_str(module)

    def test_dotted_and_dashed_names_round_trip(self):
        for name in ("gen-f2", "164.gzip"):
            module = compile_source("def main() { return 0; }", name)
            assert parse_ir(module_to_str(module)).name == name

    def test_only_a_leading_header_names_the_module(self):
        body = "def main() {\nentry:\n    ret 0\n}"
        assert parse_ir(body).name == "module"
        assert parse_ir("; a comment\n; module late\n" + body).name == "module"
        assert parse_ir("\n\n  ; module early\n" + body).name == "early"
