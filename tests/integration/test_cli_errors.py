"""CLI error paths: invalid input exits non-zero with one clean line.

Every malformed input — config specs, seed ranges, budgets, unreadable
files — must produce exit code 2 and a single-line message on stderr,
never a traceback.  A flag the CLI does not have (such as the removed
``--jobs`` and ``--tier``) is an argparse usage error, also exit 2.
"""

import pytest

from repro.cli import main

CLEAN = """
def main() {
  var x = 1;
  output(x + 2);
  return 0;
}
"""


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.tc"
    path.write_text(CLEAN)
    return str(path)


def one_clean_error_line(capsys):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.strip()]
    assert len(lines) == 1, err
    return lines[0]


def rejected_flag_line(argv, flag, capsys):
    """A flag the CLI does not have is an argparse usage error: exit 2,
    the usage text and one ``error:`` line naming the flag."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1, err
    assert f"unrecognized arguments: {flag}" in errors[0]
    return errors[0]


class TestJobsValidation:
    """``--jobs`` is gone with the solver knobs: every value is
    rejected before any analysis runs."""

    @pytest.mark.parametrize("bad", ["banana", "0", "-3", "2.5", ""])
    def test_invalid_jobs_flag(self, clean_file, bad, capsys):
        rejected_flag_line(["check", clean_file, "--jobs", bad], "--jobs", capsys)

    def test_report_validates_jobs_too(self, capsys):
        rejected_flag_line(
            ["report", "--scale", "0.05", "--jobs", "nope"], "--jobs", capsys
        )


class TestTierValidation:
    """``--tier`` is gone with the solver knobs: every value is
    rejected before any analysis runs."""

    @pytest.mark.parametrize("bad", ["turbo", "0", "", "fulll"])
    def test_invalid_tier_flag(self, clean_file, bad, capsys):
        rejected_flag_line(["check", clean_file, "--tier", bad], "--tier", capsys)

    def test_report_validates_tier_too(self, capsys):
        rejected_flag_line(
            ["report", "--scale", "0.05", "--tier", "nope"], "--tier", capsys
        )

    def test_fuzz_validates_tier_too(self, capsys):
        rejected_flag_line(
            ["fuzz", "--seeds", "0:1", "--tier", "nope"], "--tier", capsys
        )


class TestFuzzArgValidation:
    def test_unknown_config(self, capsys):
        assert main(["fuzz", "--configs", "tl,bogus"]) == 2
        line = one_clean_error_line(capsys)
        assert line.startswith("error:")
        assert "bogus" in line and "known:" in line

    def test_duplicate_config(self, capsys):
        assert main(["fuzz", "--configs", "tl,tl"]) == 2
        assert "duplicate" in one_clean_error_line(capsys)

    def test_msan_rejects_suffixes(self, capsys):
        assert main(["fuzz", "--configs", "msan+demand"]) == 2
        assert "msan" in one_clean_error_line(capsys)

    @pytest.mark.parametrize("bad", ["5:x", "x", "9:3", "-4"])
    def test_invalid_seed_spec(self, bad, capsys):
        assert main(["fuzz", "--seeds", bad]) == 2
        assert one_clean_error_line(capsys).startswith("error:")

    def test_empty_seed_spec(self, capsys):
        assert main(["fuzz", "--seeds", ""]) == 2
        assert "nothing to fuzz" in one_clean_error_line(capsys)

    @pytest.mark.parametrize("bad", ["nope", "1h", "0", "12q"])
    def test_invalid_budget(self, bad, capsys):
        assert main(["fuzz", "--seeds", "0:1", "--budget", bad]) == 2
        assert "budget" in one_clean_error_line(capsys)

    def test_invalid_jobs(self, capsys):
        rejected_flag_line(
            ["fuzz", "--seeds", "0:1", "--jobs", "many"], "--jobs", capsys
        )

    def test_missing_module_file(self, capsys):
        assert main(["fuzz", "--seeds", "", "--module",
                     "/nonexistent/mod.ir"]) == 2
        assert one_clean_error_line(capsys).startswith("error:")

    def test_unparseable_module_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.ir"
        bad.write_text("def main() {\nentry:\n    this is not ir\n}\n")
        assert main(["fuzz", "--seeds", "", "--module", str(bad)]) == 2
        assert one_clean_error_line(capsys).startswith("invalid module:")


class TestServeArgValidation:
    """``repro serve`` rejects the removed flags before any socket is
    bound."""

    def test_invalid_jobs_flag(self, capsys):
        rejected_flag_line(["serve", "--jobs", "banana"], "--jobs", capsys)

    def test_invalid_tier_flag(self, capsys):
        rejected_flag_line(["serve", "--tier", "warp"], "--tier", capsys)


class TestNonTerminatingProgram:
    """A program that never halts hits the interpreter's step budget;
    ``run`` and ``check`` report it like a runtime fault: one line on
    stderr, exit code 2."""

    LOOP = "def main() { var x = 0; while (1) { x = x + 1; } return x; }\n"

    @pytest.fixture
    def loop_file(self, tmp_path):
        path = tmp_path / "loop.tc"
        path.write_text(self.LOOP)
        return str(path)

    def test_run(self, loop_file, capsys, monkeypatch):
        # Like ``check``, ``run`` has a 50M-step budget; a smaller one
        # reaches the same limit in a fraction of the time.
        from repro import cli

        monkeypatch.setattr(cli, "MAX_STEPS", 100_000)
        assert main(["run", loop_file]) == 2
        line = one_clean_error_line(capsys)
        assert line.startswith("error:")
        assert "step limit" in line

    def test_check(self, loop_file, capsys, monkeypatch):
        # ``check`` runs with a 50M-step budget; a smaller one reaches
        # the same limit in a fraction of the time.
        from repro import api

        real = api.run_instrumented
        monkeypatch.setattr(
            api,
            "run_instrumented",
            lambda module, plan, max_steps: real(module, plan, max_steps=100_000),
        )
        assert main(["check", loop_file]) == 2
        line = one_clean_error_line(capsys)
        assert line.startswith("error:")
        assert "step limit" in line


class TestUnreadableInput:
    """An input file that cannot be read as text is a usage error."""

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.tc"
        path.write_bytes(b"def main() { return 0; } // caf\xe9\n")
        assert main(["check", str(path)]) == 2
        line = one_clean_error_line(capsys)
        assert line.startswith("error: cannot read")
        assert "UTF-8" in line

    def test_directory(self, tmp_path, capsys):
        assert main(["check", str(tmp_path)]) == 2
        line = one_clean_error_line(capsys)
        assert line.startswith("error: cannot read")


class TestDeepNesting:
    """Nesting deeper than the parser and lowering can recurse is a
    compile error, not a ``RecursionError`` traceback."""

    SHAPES = {
        "parentheses": "def main() { return "
        + "(" * 3000 + "1" + ")" * 3000 + "; }\n",
        "ifs": "def main() { var x = 1;\n"
        + "if (x) {\n" * 2000 + "x = 2;\n" + "}\n" * 2000
        + "return x; }\n",
        "sum_chain": "def main() { var x = 1; return x"
        + " + 1" * 20000 + "; }\n",
    }

    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_check(self, shape, tmp_path, capsys):
        path = tmp_path / f"{shape}.tc"
        path.write_text(self.SHAPES[shape])
        assert main(["check", str(path)]) == 2
        line = one_clean_error_line(capsys)
        assert line == "compile error: program nests too deeply"

    def test_analyze_raises_syntax_error(self):
        from repro.api import analyze
        from repro.tinyc import TinyCSyntaxError

        with pytest.raises(TinyCSyntaxError, match="nests too deeply"):
            analyze(source=self.SHAPES["parentheses"])


class TestOversizedAllocation:
    """An allocation beyond the run's memory budget is a runtime fault,
    reported before any cell of it is touched."""

    @pytest.mark.parametrize(
        "source",
        [
            "def main() { var a[100000000000]; return 0; }\n",
            "global g[100000000000];\ndef main() { return 0; }\n",
        ],
        ids=["local", "global"],
    )
    @pytest.mark.parametrize("command", ["run", "check"])
    def test_faults(self, command, source, tmp_path, capsys):
        path = tmp_path / "big.tc"
        path.write_text(source)
        assert main([command, str(path)]) == 2
        line = one_clean_error_line(capsys)
        assert line.startswith("runtime fault:")
        assert "memory budget" in line
