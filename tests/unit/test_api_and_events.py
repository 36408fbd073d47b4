"""Unit tests for the high-level API, events and cost model."""

import warnings as _warnings

import pytest

from repro.api import (
    CONFIG_ORDER,
    EXTENDED_CONFIG_ORDER,
    analyze,
)
from repro.options import AnalysisOptions
from repro.runtime import CostModel, DynamicEvents, ExecutionReport
from repro.tinyc import compile_source

SOURCE = """
def main() {
  var x = 2;
  var p = malloc(1);
  *p = x * 3;
  output(*p);
  return 0;
}
"""

BUGGY_SOURCE = """
def classify(v) {
  var bin;
  if (v < 5) { bin = 0; }
  return bin;
}
def main() {
  var b = classify(9);
  if (b) { output(1); }
  return 0;
}
"""


class TestAnalysisAPI:
    def test_all_configs_by_default(self):
        analysis = analyze(source=SOURCE)
        assert set(analysis.plans) == set(CONFIG_ORDER)
        assert set(analysis.results) == set(CONFIG_ORDER) - {"msan"}

    def test_selected_configs_only(self):
        analysis = analyze(source=SOURCE, configs=["msan", "usher"])
        assert set(analysis.plans) == {"msan", "usher"}

    def test_extended_order_includes_extension(self):
        assert EXTENDED_CONFIG_ORDER[-1] == "usher_ext"
        assert set(CONFIG_ORDER) < set(EXTENDED_CONFIG_ORDER)

    def test_runs_are_cached(self):
        analysis = analyze(source=SOURCE, configs=["usher"])
        first = analysis.run("usher")
        second = analysis.run("usher")
        assert first is second
        assert analysis.run_native() is analysis.run_native()

    def test_unknown_config_raises(self):
        with pytest.raises(KeyError):
            analyze(source=SOURCE, configs=["nonsense"])

    def test_unknown_level_raises(self):
        with pytest.raises(ValueError):
            analyze(source=SOURCE, level="O9")

    def test_static_counts_accessible(self):
        analysis = analyze(source=SOURCE, configs=["msan", "usher"])
        assert analysis.static_propagations("msan") > 0
        assert analysis.static_checks("msan") >= 3  # store, load ptr, output

    def test_accepts_precompiled_module(self):
        module = compile_source(SOURCE, "precompiled")
        analysis = analyze(module=module, configs=["usher"])
        assert analysis.module is module

    def test_requires_exactly_one_input(self):
        with pytest.raises(ValueError):
            analyze()
        with pytest.raises(ValueError):
            analyze(source=SOURCE, module=compile_source(SOURCE))


class TestDemandQueries:
    def test_query_and_explain_by_uid(self):
        analysis = analyze(source=BUGGY_SOURCE, configs=["usher_tl_at"])
        result = analysis.results["usher_tl_at"]
        bottom = next(
            s
            for s in result.vfg.check_sites
            if s.node is not None and not result.gamma.is_defined(s.node)
        )
        assert analysis.query(bottom.instr_uid) is False
        assert analysis.query(bottom) is False
        assert analysis.query(bottom.node) is False
        steps = analysis.explain(bottom.instr_uid)
        assert steps is not None
        assert "originates" in steps[0].description
        assert steps[-1].node == bottom.node

    def test_defined_site_queries_true_and_explains_none(self):
        analysis = analyze(source=BUGGY_SOURCE, configs=["usher_tl_at"])
        result = analysis.results["usher_tl_at"]
        defined = next(
            s
            for s in result.vfg.check_sites
            if s.node is not None and result.gamma.is_defined(s.node)
        )
        assert analysis.query(defined) is True
        assert analysis.explain(defined) is None

    def test_msan_only_analysis_degrades_gracefully(self):
        analysis = analyze(source=BUGGY_SOURCE, configs=["msan"])
        assert analysis.query(12345) is True
        assert analysis.explain(12345) is None

    def test_summary_resolver_still_explains(self):
        analysis = analyze(
            source=BUGGY_SOURCE,
            configs=["usher_tl_at"],
            options=AnalysisOptions(resolver="summary"),
        )
        result = analysis.results["usher_tl_at"]
        bottom = next(
            s
            for s in result.vfg.check_sites
            if s.node is not None and not result.gamma.is_defined(s.node)
        )
        assert analysis.explain(bottom) is not None


class TestRemovedShims:
    def test_analyze_source_is_gone(self):
        # The one-release deprecation window closed: the old entry
        # points no longer exist, analyze(source=...) is the only door.
        import repro.api as api

        assert not hasattr(api, "analyze_source")
        assert not hasattr(api, "analyze_module")
        with pytest.raises(ImportError):
            from repro.api import analyze_source  # noqa: F401

    def test_options_are_the_only_knob_surface(self):
        # resolver / context_depth are options fields now, and the
        # solver knobs and the demand option are gone altogether.
        for keyword in ("demand", "resolver", "context_depth", "jobs", "tier"):
            with pytest.raises(TypeError):
                analyze(source=SOURCE, **{keyword: None})

    def test_new_entry_point_does_not_warn(self):
        with _warnings.catch_warnings():
            _warnings.simplefilter("error", DeprecationWarning)
            analyze(source=SOURCE, configs=["usher"])


class TestEvents:
    def test_merge(self):
        a = DynamicEvents(shadow_reads=1, shadow_writes=2, checks=3)
        b = DynamicEvents(shadow_reads=10, shadow_writes=20, checks=30)
        a.merge(b)
        assert a.as_dict() == {
            "shadow_reads": 11,
            "shadow_writes": 22,
            "checks": 33,
        }

    def test_report_helpers(self):
        report = ExecutionReport(
            warnings=[3, 3, 5], true_undefined_uses=[5, 3]
        )
        assert report.detected
        assert report.has_true_bug
        assert report.warning_set() == {3, 5}
        assert report.true_bug_set() == {3, 5}

    def test_empty_report(self):
        report = ExecutionReport()
        assert not report.detected and not report.has_true_bug


class TestCostModel:
    def test_shadow_work_composition(self):
        report = ExecutionReport()
        report.events.shadow_reads = 10
        report.events.shadow_writes = 4
        report.events.checks = 2
        model = CostModel(read_cost=2.0, write_cost=0.5, check_cost=1.0)
        assert model.shadow_work(report) == pytest.approx(20 + 2 + 2)

    def test_slowdown_normalizes_by_native_ops(self):
        report = ExecutionReport(native_ops=100)
        report.events.shadow_reads = 100
        model = CostModel(read_cost=1.0, write_cost=0.0, check_cost=0.0)
        assert model.slowdown_percent(report) == pytest.approx(100.0)

    def test_zero_native_ops(self):
        assert CostModel().slowdown_percent(ExecutionReport()) == 0.0
