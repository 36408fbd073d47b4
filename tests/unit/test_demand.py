"""Unit tests for the demand-driven definedness engine."""

import pytest

from repro.core import UsherConfig, run_usher
from repro.vfg.definedness import resolve_definedness
from repro.vfg.demand import (
    ANY,
    DemandEngine,
    _call_preimages,
    _ret_preimages,
)
from repro.vfg.explain import explain_undefined, explain_undefined_demand
from repro.vfg.graph import BOT, TOP, Root
from repro.vfg.tabulation import resolve_definedness_summary
from tests.helpers import analyzed

SOURCE = """
def classify(v) {
  var bin;
  if (v < 5) { bin = 0; }
  return bin;
}
def helper(x) {
  var y = x + 1;
  return y;
}
def main() {
  var b = classify(9);
  var c = helper(3);
  if (b) { output(c); }
  return 0;
}
"""


@pytest.fixture(scope="module")
def setup():
    prepared = analyzed(SOURCE)
    result = run_usher(prepared, UsherConfig.tl_at())
    return prepared, result


class TestPreimages:
    """The backward constraint transitions against the forward push/pop."""

    def test_call_open_any(self):
        assert _call_preimages((), True, 7, 1) == [ANY]

    def test_call_closed_empty_has_no_preimage(self):
        assert _call_preimages((), False, 7, 1) == []

    def test_call_mismatched_site(self):
        assert _call_preimages((8,), True, 7, 1) == []

    def test_call_at_depth_opens_constraint(self):
        # frames length == depth: the truncated frame is unknown.
        assert _call_preimages((7,), False, 7, 1) == [((), True)]
        assert _call_preimages((3, 7), False, 3, 2) == [((7,), True)]

    def test_call_below_depth_stays_closed(self):
        assert _call_preimages((7,), False, 7, 2) == [((), False)]

    def test_ret_pushes_and_keeps_empty(self):
        pre = _ret_preimages((), True, 7, 1)
        assert ((7,), True) in pre
        assert ((), False) in pre

    def test_ret_overflow_only_keeps_empty(self):
        assert _ret_preimages((3,), True, 7, 1) == []
        assert _ret_preimages((), False, 7, 0) == [((), False)]


class TestDemandEngine:
    def test_matches_oracle_on_every_node(self, setup):
        _prepared, result = setup
        oracle = resolve_definedness(result.vfg, 1)
        engine = DemandEngine(result.vfg, context_depth=1)
        for node in result.vfg.nodes():
            assert engine.is_defined(node) == oracle.is_defined(node), node

    def test_matches_summary_oracle(self, setup):
        _prepared, result = setup
        oracle = resolve_definedness_summary(result.vfg)
        engine = DemandEngine(result.vfg, resolver="summary")
        for node in result.vfg.nodes():
            assert engine.is_defined(node) == oracle.is_defined(node), node

    def test_roots_and_constants_are_defined(self, setup):
        _prepared, result = setup
        engine = DemandEngine(result.vfg)
        assert engine.is_defined(None)
        assert engine.is_defined(BOT)
        assert engine.is_defined(TOP)

    def test_negative_depth_rejected(self, setup):
        _prepared, result = setup
        with pytest.raises(ValueError):
            DemandEngine(result.vfg, context_depth=-1)

    def test_unknown_resolver_rejected(self, setup):
        _prepared, result = setup
        with pytest.raises(ValueError):
            DemandEngine(result.vfg, resolver="nonsense")

    def test_memo_reuse_on_repeated_query(self, setup):
        _prepared, result = setup
        engine = DemandEngine(result.vfg)
        site = next(s for s in result.vfg.check_sites if s.node is not None)
        engine.is_bottom(site.node)
        visited_once = engine.stats.states_visited
        assert engine.stats.memo_hits == 0
        engine.is_bottom(site.node)
        assert engine.stats.states_visited == visited_once
        assert engine.stats.memo_hits == 1

    def test_memo_shared_across_different_queries(self, setup):
        """Successive queries over overlapping slices visit fewer
        states in one shared engine than in fresh engines."""
        _prepared, result = setup
        nodes = [s.node for s in result.vfg.check_sites if s.node is not None]
        assert len(nodes) >= 2
        shared = DemandEngine(result.vfg)
        shared.query_nodes(nodes)
        fresh_total = 0
        for node in nodes:
            fresh = DemandEngine(result.vfg)
            fresh.is_bottom(node)
            fresh_total += fresh.stats.states_visited
        assert shared.stats.states_visited <= fresh_total

    def test_early_cutoff_possible(self, setup):
        """⊥ verdicts may stop before the whole slice is explored."""
        _prepared, result = setup
        oracle = resolve_definedness(result.vfg, 1)
        engine = DemandEngine(result.vfg)
        for node in result.vfg.nodes():
            if not oracle.is_defined(node):
                engine.is_bottom(node)
        assert engine.stats.bottom_verdicts > 0

    def test_query_sites_batches_by_uid(self, setup):
        _prepared, result = setup
        engine = DemandEngine(result.vfg)
        oracle = resolve_definedness(result.vfg, 1)
        verdicts = engine.query_sites(result.vfg.check_sites)
        for site in result.vfg.check_sites:
            if not oracle.is_defined(site.node):
                assert verdicts[site.instr_uid] is False

    def test_stats_snapshot_roundtrips(self, setup):
        _prepared, result = setup
        engine = DemandEngine(result.vfg)
        engine.query_sites(result.vfg.check_sites)
        snapshot = engine.stats.as_dict()
        assert snapshot["queries"] == engine.stats.queries
        assert 0.0 <= snapshot["peak_visited_fraction"] <= 1.0
        assert "⊥" in engine.stats.format_summary() or "queries" in (
            engine.stats.format_summary()
        )


class TestDemandExplain:
    def test_same_path_length_as_oracle_bfs(self, setup):
        prepared, result = setup
        engine = DemandEngine(result.vfg, context_depth=1)
        for site in result.vfg.check_sites:
            if site.node is None:
                continue
            oracle = explain_undefined(result.vfg, prepared.module, site.node)
            demand = explain_undefined_demand(engine, prepared.module, site.node)
            assert (oracle is None) == (demand is None)
            if oracle is not None:
                assert len(oracle) == len(demand)
                assert isinstance(demand[0].node, Root)
                assert demand[-1].node == site.node

    def test_explain_records_query_stats(self, setup):
        prepared, result = setup
        engine = DemandEngine(result.vfg, context_depth=1)
        site = next(s for s in result.vfg.check_sites if s.node is not None)
        explain_undefined_demand(engine, prepared.module, site.node)
        assert engine.stats.queries == 1
        assert engine.stats.nodes_visited > 0

    def test_summary_mode_cannot_build_paths(self, setup):
        _prepared, result = setup
        engine = DemandEngine(result.vfg, resolver="summary")
        site = next(s for s in result.vfg.check_sites if s.node is not None)
        with pytest.raises(ValueError):
            engine.find_bottom_chain(site.node)
