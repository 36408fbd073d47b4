"""CLI error paths: invalid input exits non-zero with one clean line.

Every malformed flag — ``--jobs``, ``REPRO_JOBS``, config specs, seed
ranges, budgets — must produce exit code 2 and a single-line message
on stderr, never a traceback.
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


class TestJobsValidation:
    @pytest.mark.parametrize("bad", ["banana", "0", "-3", "2.5", ""])
    def test_invalid_jobs_flag(self, clean_file, bad, capsys):
        assert main(["check", clean_file, "--jobs", bad]) == 2
        line = one_clean_error_line(capsys)
        assert line.startswith("error:")
        assert "--jobs" in line

    def test_invalid_jobs_env(self, clean_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "banana")
        assert main(["check", clean_file]) == 2
        line = one_clean_error_line(capsys)
        assert line.startswith("error:")
        assert "REPRO_JOBS" in line

    def test_valid_jobs_env_still_works(self, clean_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert main(["check", clean_file]) == 0

    def test_report_validates_jobs_too(self, capsys):
        assert main(["report", "--scale", "0.05", "--jobs", "nope"]) == 2
        assert one_clean_error_line(capsys).startswith("error:")


class TestTierValidation:
    @pytest.mark.parametrize("bad", ["turbo", "0", "", "fulll"])
    def test_invalid_tier_flag(self, clean_file, bad, capsys):
        assert main(["check", clean_file, "--tier", bad]) == 2
        line = one_clean_error_line(capsys)
        assert line.startswith("error:")
        assert "--tier" in line
        assert "full, lazy, unified" in line

    def test_invalid_tier_env(self, clean_file, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TIER", "turbo")
        assert main(["check", clean_file]) == 2
        line = one_clean_error_line(capsys)
        assert line.startswith("error:")
        assert "REPRO_TIER" in line

    def test_valid_tier_env_still_works(self, clean_file, monkeypatch):
        monkeypatch.setenv("REPRO_TIER", "unified")
        assert main(["check", clean_file]) == 0

    def test_report_validates_tier_too(self, capsys):
        assert main(["report", "--scale", "0.05", "--tier", "nope"]) == 2
        assert one_clean_error_line(capsys).startswith("error:")

    def test_fuzz_validates_tier_too(self, capsys):
        assert main(["fuzz", "--seeds", "0:1", "--tier", "nope"]) == 2
        assert one_clean_error_line(capsys).startswith("error:")


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
        assert main(["fuzz", "--seeds", "0:1", "--jobs", "many"]) == 2
        assert one_clean_error_line(capsys).startswith("error:")

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
    """``repro serve`` shares the analysis-options flag group, so the
    same boundary discipline applies before any socket is bound."""

    def test_invalid_jobs_flag(self, capsys):
        assert main(["serve", "--jobs", "banana"]) == 2
        line = one_clean_error_line(capsys)
        assert line.startswith("error:")
        assert "--jobs" in line

    def test_invalid_tier_flag(self, capsys):
        assert main(["serve", "--tier", "warp"]) == 2
        line = one_clean_error_line(capsys)
        assert line.startswith("error:")
        assert "full, lazy, unified" in line

    def test_invalid_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_TIER", "turbo")
        assert main(["serve"]) == 2
        line = one_clean_error_line(capsys)
        assert line.startswith("error:")
        assert "REPRO_TIER" in line


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
