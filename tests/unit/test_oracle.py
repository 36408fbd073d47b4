"""Unit tests for the soundness oracle: differ, minimizer, faults.

The oracle is itself test infrastructure, so these tests validate it
against *live prey*: deliberately planted soundness faults must be
caught as divergences and shrunk to near-minimal reproducers.
"""

import json

import pytest

from repro.core import UsherConfig, run_usher
from repro.ir.printer import module_to_str
from repro.oracle import (
    CONFIG_FACTORIES,
    build_config,
    build_config_matrix,
    corrupt_plan,
    count_instructions,
    diff_config,
    diff_module,
    minimize_ir,
    run_campaign,
)
from repro.oracle.differ import EXACT_NAMES, UnknownConfigError
from repro.oracle.harness import _bucket_predicate, examine_text, seed_text
from repro.runtime import run_native
from repro.tinyc import compile_source
from tests.helpers import BUGGY_SCALAR, analyzed

#: A buggy program wrapped in deletable padding: the minimal diverging
#: core is one undefined use, everything else is there to be shrunk away.
PADDED_BUGGY = """
def pad(a) {
  var z = a + 1;
  var w = z * 2;
  var q = w - a;
  return q;
}
def main() {
  var x;
  var a = 1;
  var b = 2;
  var c = a + b;
  c = pad(c);
  c = pad(c + a);
  if (c > 100) { x = 5; }
  output(c);
  output(x);
  return 0;
}
"""


def padded_text():
    return module_to_str(compile_source(PADDED_BUGGY, "padded"))


def drop_true_bug_checks(spec, prepared, plan):
    """Fault hook: silently drop every check reporting a true bug."""
    native = run_native(prepared.module)
    for label in sorted(native.true_bug_set()):
        plan = corrupt_plan(plan, "drop-check", label=label)
    return plan


def plant_spurious_check(spec, prepared, plan):
    """Fault hook: plant a check that always fires with uid -1."""
    return corrupt_plan(plan, "spurious-check")


class TestBuildConfig:
    def test_plain_names_resolve(self):
        for name in CONFIG_FACTORIES:
            spec, config = build_config(name)
            assert spec == name
            assert (config is None) == (name == "msan")

    def test_suffixes_compose(self):
        spec, config = build_config("full+demand@summary")
        assert spec == "full+demand@summary"
        assert config.resolver == "summary"
        assert config.demand

    def test_unknown_base_raises(self):
        with pytest.raises(UnknownConfigError, match="unknown config"):
            build_config("bogus")

    def test_unknown_resolver_raises(self):
        with pytest.raises(UnknownConfigError, match="resolver"):
            build_config("full@turbo")

    def test_bad_jobs_suffix_raises(self):
        # The ``*N`` worker-count suffix is gone: any ``*`` spec is an
        # unknown configuration.
        for spec in ("full*zero", "full*2", "tl+demand*4"):
            with pytest.raises(UnknownConfigError, match="unknown config"):
                build_config(spec)

    def test_msan_takes_no_suffixes(self):
        with pytest.raises(UnknownConfigError, match="msan"):
            build_config("msan+demand")

    def test_matrix_rejects_duplicates(self):
        with pytest.raises(UnknownConfigError, match="duplicate"):
            build_config_matrix(["tl", "tl"])

    def test_matrix_preserves_order(self):
        matrix = build_config_matrix(["full", "tl", "msan"])
        assert [spec for spec, _ in matrix] == ["full", "tl", "msan"]


class TestDiffer:
    def test_correct_pipeline_has_no_divergence(self):
        prepared = analyzed(BUGGY_SCALAR)
        matrix = build_config_matrix(sorted(CONFIG_FACTORIES))
        assert diff_module(prepared, matrix) == []

    def test_dropped_check_is_a_missed_divergence(self):
        prepared = analyzed(BUGGY_SCALAR)
        native = run_native(prepared.module)
        bug = next(iter(native.true_bug_set()))
        plan = run_usher(prepared, UsherConfig.tl()).plan
        corrupted = corrupt_plan(plan, "drop-check", label=bug)
        divergences = diff_config(prepared, native, "tl", UsherConfig.tl(),
                                  plan=corrupted)
        assert [d.kind for d in divergences] == ["missed"]
        assert bug in divergences[0].expected
        assert bug not in divergences[0].warned

    def test_planted_check_is_a_spurious_divergence(self):
        prepared = analyzed(BUGGY_SCALAR)
        native = run_native(prepared.module)
        plan = run_usher(prepared, UsherConfig.tl()).plan
        corrupted = corrupt_plan(plan, "spurious-check")
        divergences = diff_config(prepared, native, "tl", UsherConfig.tl(),
                                  plan=corrupted)
        kinds = {d.kind for d in divergences}
        assert "spurious" in kinds
        spurious = next(d for d in divergences if d.kind == "spurious")
        assert -1 in spurious.warned
        assert "spurious" in spurious.describe()

    def test_exact_contract_covers_the_non_opt2_configs(self):
        assert EXACT_NAMES == {"msan", "tl", "tl_at", "opt_i"}

    def test_corrupt_plan_rejects_unknown_mode(self):
        prepared = analyzed(BUGGY_SCALAR)
        plan = run_usher(prepared, UsherConfig.tl()).plan
        with pytest.raises(ValueError, match="unknown fault mode"):
            corrupt_plan(plan, "scramble")

    def test_corrupt_plan_does_not_mutate_the_original(self):
        prepared = analyzed(BUGGY_SCALAR)
        plan = run_usher(prepared, UsherConfig.tl()).plan
        before = {uid: (list(ops.pre), list(ops.post))
                  for uid, ops in plan.ops.items()}
        corrupt_plan(plan, "spurious-check")
        after = {uid: (list(ops.pre), list(ops.post))
                 for uid, ops in plan.ops.items()}
        assert before == after


class TestMinimizer:
    def test_count_instructions_ignores_structure_lines(self):
        assert count_instructions(padded_text()) > 20

    def test_predicate_must_hold_initially(self):
        with pytest.raises(ValueError, match="does not hold"):
            minimize_ir(padded_text(), lambda module: False)

    def test_eval_budget_is_respected(self):
        result = minimize_ir(padded_text(), lambda module: True, max_evals=5)
        assert result.evals <= 5

    def test_result_module_reparses(self):
        result = minimize_ir(padded_text(), lambda module: True, max_evals=50)
        assert result.module is not None
        assert result.reduced

    @pytest.mark.parametrize(
        "hook,bucket",
        [
            (drop_true_bug_checks, ("tl", "missed")),
            (plant_spurious_check, ("tl", "spurious")),
        ],
        ids=["drop-check", "spurious-check"],
    )
    def test_fault_injection_caught_and_shrunk(self, hook, bucket):
        """The oracle's acceptance bar: a planted soundness fault is
        (a) caught as a divergence in the right bucket and (b) shrunk
        to a reproducer of at most 10 instructions."""
        text = padded_text()
        matrix = build_config_matrix(["tl"])
        status, divergences = examine_text(text, "padded", matrix, hook)
        assert status == "divergent"
        assert any(
            d.config == bucket[0] and d.kind == bucket[1]
            for d in divergences
        )
        result = minimize_ir(
            text, _bucket_predicate(matrix, bucket, hook), max_evals=800
        )
        assert result.reduced
        assert result.instructions <= 10, result.text


class TestCampaign:
    def test_clean_seeds_report_ok(self, tmp_path):
        out = tmp_path / "fuzz.jsonl"
        matrix = build_config_matrix(["tl"])
        result = run_campaign([4, 9], matrix, out_path=str(out))
        assert [c.status for c in result.cases] == ["ok", "ok"]
        assert not result.divergent
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["type"] for r in records] == ["case", "case", "summary"]
        assert records[-1]["divergent"] == 0

    def test_fault_campaign_minimizes_and_emits_reproducer(self, tmp_path):
        out = tmp_path / "fuzz.jsonl"
        repro_dir = tmp_path / "reproducers"
        matrix = build_config_matrix(["tl"])
        result = run_campaign(
            [],
            matrix,
            texts={"padded": padded_text()},
            plan_hook=plant_spurious_check,
            minimize=True,
            minimize_evals=800,
            out_path=str(out),
            reproducer_dir=str(repro_dir),
        )
        (case,) = result.divergent
        assert case.minimized["tl/spurious"] <= 10
        (path,) = case.reproducers
        text = open(path).read()
        assert "soundness-oracle reproducer" in text
        # the reproducer replays: it still diverges under the same fault
        status, _ = examine_text(
            text, "replay", matrix, plant_spurious_check
        )
        assert status == "divergent"
        assert result.bucket_counts() == {("tl", "spurious"): 1}

    def test_analysis_crash_is_triaged_not_raised(self, tmp_path):
        def exploding_hook(spec, prepared, plan):
            raise RuntimeError("kaboom")

        matrix = build_config_matrix(["tl"])
        result = run_campaign(
            [], matrix, texts={"padded": padded_text()},
            plan_hook=exploding_hook,
        )
        (case,) = result.divergent
        (div,) = case.divergences
        assert div.kind == "crash"
        assert "kaboom" in div.detail

    def test_zero_budget_exhausts_before_work(self):
        matrix = build_config_matrix(["tl"])
        result = run_campaign([4], matrix, budget_seconds=0.0)
        assert result.budget_exhausted
        assert result.cases == []

    def test_seed_text_is_deterministic(self):
        assert seed_text(4) == seed_text(4)
