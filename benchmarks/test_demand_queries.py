"""Benchmark: demand-driven definedness queries vs whole-program Γ.

The demand engine's acceptance gate: on a large (factor-8) generated
program, answering a *single* check-site query by backward slicing must
visit well under 30% of the VFG — the whole point of demand-driven
resolution is that one query never pays for the whole graph.

Each run's :class:`~repro.analysis.solverstats.QueryStats` counters
(queries, states visited, peak distinct nodes visited) are asserted
exactly.
"""

import time

import pytest

from repro.core import UsherConfig, prepare_module, run_usher
from repro.opt import run_pipeline
from repro.tinyc import compile_source
from repro.vfg.definedness import resolve_definedness
from repro.vfg.demand import DemandEngine
from repro.workloads import GeneratorParams, generate_program


def build_vfg(seed: int, factor: int):
    params = GeneratorParams().scaled(factor)
    module = compile_source(generate_program(seed, params), f"gen{seed}")
    run_pipeline(module, "O0+IM")
    prepared = prepare_module(module)
    return run_usher(prepared, UsherConfig.tl_at()).vfg


def work(stats):
    return (stats.queries, stats.states_visited, stats.peak_nodes_visited)


class TestDemandQueryLocality:
    """A single query touches a small slice, not the whole graph."""

    def test_single_site_query_visits_under_30_percent(self):
        vfg = build_vfg(11, 8)
        assert vfg.check_sites, "factor-8 program must have check sites"
        engine = DemandEngine(vfg, context_depth=1)
        site = max(
            (s for s in vfg.check_sites if s.node is not None),
            key=lambda s: s.instr_uid,
        )
        engine.is_bottom(site.node)
        assert work(engine.stats) == (1, 3, 3)
        assert engine.stats.peak_visited_fraction < 0.30, (
            f"single query visited {engine.stats.peak_nodes_visited} of "
            f"{vfg.num_nodes} nodes "
            f"({engine.stats.peak_visited_fraction:.1%})"
        )

    @pytest.mark.parametrize(
        "factor,pinned",
        [(2, (49, 489, 44)), (4, (88, 873, 83)), (8, (156, 2037, 274))],
    )
    def test_all_sites_batch_query(self, factor, pinned):
        """Batched mode (the Opt II workload): answer every check site,
        sharing the memo, and pin the aggregate profile."""
        vfg = build_vfg(11, factor)
        engine = DemandEngine(vfg, context_depth=1)
        verdicts = engine.query_sites(vfg.check_sites)
        assert work(engine.stats) == pinned
        oracle = resolve_definedness(vfg, 1)
        expected = {}
        for site in vfg.check_sites:
            ok = oracle.is_defined(site.node)
            expected[site.instr_uid] = expected.get(site.instr_uid, True) and ok
        assert verdicts == expected

    def test_query_latency_vs_full_resolution(self):
        """One demand query should be much cheaper than resolving the
        whole program's Γ (asserted loosely vs timer noise)."""
        vfg = build_vfg(5, 8)
        site = next(s for s in vfg.check_sites if s.node is not None)

        full_elapsed = min(
            _timed(lambda: resolve_definedness(vfg, 1)) for _ in range(3)
        )
        demand_elapsed = min(
            _timed_fresh_query(vfg, site.node) for _ in range(3)
        )
        engine = DemandEngine(vfg, context_depth=1)
        engine.is_bottom(site.node)
        assert work(engine.stats) == (1, 183, 129)
        assert demand_elapsed < full_elapsed


class TestBatchQueries:
    """Batched ``query_sites`` on a 16-site batch."""

    def test_batch16_query_work(self):
        vfg = build_vfg(11, 8)
        sites = sorted(
            (s for s in vfg.check_sites if s.node is not None),
            key=lambda s: s.instr_uid,
        )[:16]
        assert len(sites) == 16, "factor-8 program must offer 16 sites"

        engine = DemandEngine(vfg, context_depth=1)
        engine.query_sites(sites)
        assert work(engine.stats) == (16, 591, 274)


def _timed(thunk) -> float:
    started = time.perf_counter()
    thunk()
    return time.perf_counter() - started


def _timed_fresh_query(vfg, node) -> float:
    engine = DemandEngine(vfg, context_depth=1)
    started = time.perf_counter()
    engine.is_bottom(node)
    return time.perf_counter() - started
