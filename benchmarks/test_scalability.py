"""Benchmark: analysis scalability on generated programs.

Table 1's claim that the whole analysis is "reasonably lightweight"
(seconds, not minutes) is exercised by timing the full static pipeline
on random programs of growing size.

The solver benchmark compares the two constraint solvers — the
difference-propagating :class:`~repro.analysis.andersen.DeltaSolver`
against the naive :class:`~repro.analysis.andersen.ReferenceSolver` —
on pointer-heavy generated programs whose hub cells and aliasing
chains make the naive solver re-propagate quadratically.  Each
measured module's :class:`~repro.analysis.solverstats.SolverStats`
counters are asserted exactly; wall time is asserted only loosely.
"""

import time

import pytest

from repro.analysis import analyze_pointers
from repro.core import UsherConfig, prepare_module, run_usher
from repro.opt import run_pipeline
from repro.tinyc import compile_source
from repro.workloads import GeneratorParams, generate_program

#: (seed, factor) of a pointer-heavy module -> the delta solver's
#: (pops, facts_propagated, bytes_pts).
DELTA_WORK = {
    (11, 1): (366, 436, 4726),
    (11, 2): (454, 566, 7298),
    (11, 4): (855, 1157, 23314),
    (11, 8): (5408, 41702, 196896),
    (5, 6): (5442, 56473, 174161),
}

#: (seed, factor) of a pointer-heavy module -> the reference solver's
#: (facts_added, copy_edges, icall_bindings).  Its pops and
#: facts_propagated follow the iteration order of sets of string-keyed
#: nodes, so they move with PYTHONHASHSEED; the fixpoint's size does not.
REFERENCE_FIXPOINT = {
    (11, 1): (448, 582, 7),
    (11, 2): (608, 774, 2),
    (11, 4): (1251, 1355, 3),
    (11, 8): (44626, 6464, 18),
    (5, 6): (53117, 5692, 20),
}


def analyze_generated(seed: int, factor: int):
    params = GeneratorParams().scaled(factor)
    module = compile_source(generate_program(seed, params))
    run_pipeline(module, "O0+IM")
    prepared = prepare_module(module)
    return run_usher(prepared, UsherConfig.full())


def pointer_heavy_module(seed: int, factor: int):
    params = GeneratorParams().scaled(factor).pointer_heavy()
    return compile_source(generate_program(seed, params), f"heavy{seed}")


def run_solver(module, use_reference: bool):
    started = time.perf_counter()
    result = analyze_pointers(module, use_reference=use_reference)
    elapsed = time.perf_counter() - started
    return elapsed, result.solver_stats


def work(stats):
    return (stats.pops, stats.facts_propagated, stats.bytes_pts)


def fixpoint(stats):
    return (stats.facts_added, stats.copy_edges, stats.icall_bindings)


class TestScalability:
    @pytest.mark.parametrize("factor", [1, 2, 4])
    def test_analysis_time_grows_gracefully(self, benchmark, factor):
        result = benchmark.pedantic(
            analyze_generated, args=(11, factor), iterations=1, rounds=3
        )
        assert result.plan is not None

    def test_large_program_analyzable_in_seconds(self):
        start = time.perf_counter()
        result = analyze_generated(5, 6)
        elapsed = time.perf_counter() - start
        assert elapsed < 15.0
        assert result.vfg.num_nodes > 100


class TestSolverScalability:
    """Delta solver vs reference solver on pointer-heavy programs."""

    @pytest.mark.parametrize("factor", [1, 2, 4, 8])
    def test_delta_solver_scales(self, benchmark, factor):
        module = pointer_heavy_module(11, factor)

        def solve():
            return run_solver(module, use_reference=False)

        _, stats = benchmark.pedantic(solve, iterations=1, rounds=3)
        assert work(stats) == DELTA_WORK[(11, factor)]

    @pytest.mark.parametrize("factor", [1, 2, 4, 8])
    def test_reference_solver_baseline(self, benchmark, factor):
        module = pointer_heavy_module(11, factor)

        def solve():
            return run_solver(module, use_reference=True)

        _, stats = benchmark.pedantic(solve, iterations=1, rounds=3)
        assert fixpoint(stats) == REFERENCE_FIXPOINT[(11, factor)]
        assert stats.pops > 0

    def test_delta_beats_reference_at_scale(self):
        """The acceptance gate: on the large pointer-heavy instance the
        delta solver must cut both the solve-phase wall time and the
        propagated-fact volume by at least 2x.  (The wall time is
        asserted loosely against timer noise; the delta solver's
        counters exactly.)"""
        module = pointer_heavy_module(5, 6)
        _, delta_stats = min(
            (run_solver(module, use_reference=False) for _ in range(3)),
            key=lambda pair: pair[0],
        )
        _, ref_stats = min(
            (run_solver(module, use_reference=True) for _ in range(3)),
            key=lambda pair: pair[0],
        )
        assert work(delta_stats) == DELTA_WORK[(5, 6)]
        assert fixpoint(ref_stats) == REFERENCE_FIXPOINT[(5, 6)]
        delta_solve = delta_stats.phase_seconds["solve"]
        ref_solve = ref_stats.phase_seconds["solve"]
        assert ref_stats.facts_propagated >= 2 * delta_stats.facts_propagated
        assert ref_solve >= 2 * delta_solve
        assert delta_stats.sccs_collapsed > 0


class TestLargeModules:
    """Points-to bytes of the delta solver on large modules.

    The dense bitsets' cost is the *span* of each set, so their bytes
    grow faster than the module.  Each factor's (pops,
    facts_propagated, bytes_pts) is asserted exactly; peak RSS is
    measured end to end by ``usherbench`` (``peak_rss_mb``).
    """

    @staticmethod
    def _generated(seed, factor):
        params = GeneratorParams().scaled(factor)
        module = compile_source(
            generate_program(seed, params), f"gen{seed}x{factor}"
        )
        run_pipeline(module, "O0+IM")
        return module

    @staticmethod
    def _heavy(seed, factor):
        module = pointer_heavy_module(seed, factor)
        run_pipeline(module, "O0+IM")
        return module

    @staticmethod
    def _check(module_for, pins):
        for factor, expected in pins.items():
            _, stats = run_solver(module_for(11, factor), False)
            assert work(stats) == expected, factor
            assert stats.peak_rss > 0

    def test_generated_factor64(self):
        self._check(self._generated, {16: (293, 217, 1326), 64: (1172, 854, 18627)})

    def test_pointer_heavy_factor32(self):
        self._check(self._heavy, {8: (4716, 52742, 10424), 32: (17911, 1118911, 95280)})
