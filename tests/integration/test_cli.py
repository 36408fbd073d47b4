"""Integration tests for the command-line interface."""

import pytest

from repro.cli import main

BUGGY = """
def main() {
  var x;
  if (0) { x = 1; }
  output(x);
  return 0;
}
"""

CLEAN = """
def main() {
  var x = 1;
  output(x + 2);
  return 0;
}
"""


@pytest.fixture
def buggy_file(tmp_path):
    path = tmp_path / "buggy.tc"
    path.write_text(BUGGY)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.tc"
    path.write_text(CLEAN)
    return str(path)


class TestCheck:
    def test_buggy_program_exits_1(self, buggy_file, capsys):
        assert main(["check", buggy_file]) == 1
        out = capsys.readouterr().out
        assert "use of undefined value" in out
        assert "line 5" in out  # the output statement

    def test_clean_program_exits_0(self, clean_file, capsys):
        assert main(["check", clean_file]) == 0
        assert "no uses of undefined values" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "config", ["msan", "usher_tl", "usher_tl_at", "usher_opt1", "usher"]
    )
    def test_every_config_detects(self, buggy_file, config):
        assert main(["check", buggy_file, "--config", config]) == 1

    def test_show_plan(self, buggy_file, capsys):
        main(["check", buggy_file, "--show-plan"])
        out = capsys.readouterr().out
        assert "instrumentation plan" in out
        assert "σ(" in out

    def test_solver_stats_profile(self, buggy_file, capsys):
        assert main(["check", buggy_file, "--solver-stats"]) == 1
        out = capsys.readouterr().out
        assert "solver profile (delta" in out
        assert "facts propagated" in out

    def test_trace_writes_valid_chrome_trace(
        self, buggy_file, tmp_path, capsys
    ):
        from repro.obs.trace import TRACE, validate_chrome_trace

        out = tmp_path / "trace.json"
        assert main(["check", buggy_file, "--trace", str(out)]) == 1
        printed = capsys.readouterr().out
        assert "trace: wrote" in printed and str(out) in printed
        assert not TRACE.enabled  # tracing switched back off afterwards
        spans = validate_chrome_trace(out.read_text())
        assert spans > 0
        import json as _json

        names = {
            e["name"]
            for e in _json.loads(out.read_text())["traceEvents"]
            if e["ph"] == "X"
        }
        assert {"parse", "analyze", "pointer_analysis"} <= names

    def test_trace_still_written_on_compile_error(self, tmp_path, capsys):
        from repro.obs.trace import TRACE

        bad = tmp_path / "bad.tc"
        bad.write_text("def main( {")
        out = tmp_path / "trace.json"
        assert main(["check", str(bad), "--trace", str(out)]) == 2
        assert not TRACE.enabled

    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "/nonexistent.tc"]) == 2

    def test_syntax_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tc"
        bad.write_text("def main( {")
        assert main(["check", str(bad)]) == 2
        assert "compile error" in capsys.readouterr().err


class TestRunAndIR:
    def test_run_prints_outputs(self, clean_file, capsys):
        assert main(["run", clean_file]) == 0
        assert capsys.readouterr().out.strip() == "3"

    LOOP = """
def main() {
  var i = 0;
  while (i < ITERATIONS) { i = i + 1; }
  output(i);
  return 0;
}
"""

    def loop_file(self, tmp_path, iterations):
        path = tmp_path / "loop.tc"
        path.write_text(self.LOOP.replace("ITERATIONS", str(iterations)))
        return str(path)

    def test_run_has_the_check_step_budget(self, tmp_path, capsys):
        # 300k iterations take 2.1M steps, past the interpreter's own
        # 2M default; ``run`` gets the budget ``check`` has.
        assert main(["run", self.loop_file(tmp_path, 300_000)]) == 0
        assert capsys.readouterr().out.strip() == "300000"

    def test_run_and_check_share_one_budget(self, tmp_path, capsys, monkeypatch):
        from repro import cli

        monkeypatch.setattr(cli, "MAX_STEPS", 500)
        loop = self.loop_file(tmp_path, 1000)
        for command in ("run", "check"):
            assert main([command, loop]) == 2
            assert "step limit" in capsys.readouterr().err

    JUNK = """
def main() {
  var i = 0;
  while (i < 3) { i = i + 1; }
  var p = 5;
  return p[0];
}
"""

    def test_trace_is_printed_before_a_fault(self, tmp_path, capsys):
        path = tmp_path / "junk.tc"
        path.write_text(self.JUNK)
        assert main(["run", str(path), "--trace", "100"]) == 2
        captured = capsys.readouterr()
        trace = captured.out.splitlines()
        assert len(trace) > 10
        assert all(line.startswith("trace: main: ") for line in trace)
        assert " := *%" in trace[-1]  # the faulting load
        assert captured.err.strip() == "runtime fault: access to unmapped address 5"

    def test_trace_is_printed_before_a_step_limit(self, tmp_path, capsys, monkeypatch):
        from repro import cli

        monkeypatch.setattr(cli, "MAX_STEPS", 50)
        assert main(["run", self.loop_file(tmp_path, 1000), "--trace", "20"]) == 2
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 20
        assert "step limit" in captured.err

    def test_ir_dump(self, clean_file, capsys):
        assert main(["ir", clean_file]) == 0
        out = capsys.readouterr().out
        assert "def main()" in out
        assert "output" in out

    def test_ir_ssa_dump(self, clean_file, capsys):
        assert main(["ir", clean_file, "--ssa", "--uids"]) == 0
        out = capsys.readouterr().out
        assert ".1" in out  # SSA versions

    def test_ir_levels(self, clean_file, capsys):
        main(["ir", clean_file, "--level", "O1"])
        o1 = capsys.readouterr().out
        main(["ir", clean_file, "--level", "O0"])
        o0 = capsys.readouterr().out
        assert len(o1) <= len(o0)


class TestReportAndSweep:
    def test_report_sections(self, capsys):
        assert main(["report", "--scale", "0.05",
                     "--sections", "figure11"]) == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out
        assert "Table 1" not in out

    def test_report_to_file(self, tmp_path, capsys):
        target = tmp_path / "r.md"
        assert main(["report", "--scale", "0.05",
                     "--sections", "figure11", "-o", str(target)]) == 0
        assert "Figure 11" in target.read_text()

    def test_report_trace_section(self, capsys):
        assert main(["report", "--scale", "0.05",
                     "--sections", "trace"]) == 0
        out = capsys.readouterr().out
        assert "Phase trace" in out
        assert "pointer_analysis" in out

    def test_sweep_prints_both_figures(self, capsys):
        assert main(["sweep", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "average" in out
        assert "usher_tl_at" in out
