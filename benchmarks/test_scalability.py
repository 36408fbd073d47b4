"""Benchmark: analysis scalability on generated programs.

Table 1's claim that the whole analysis is "reasonably lightweight"
(seconds, not minutes) is exercised by timing the full static pipeline
on random programs of growing size.

The solver benchmark compares the two constraint solvers — the
difference-propagating :class:`~repro.analysis.andersen.DeltaSolver`
against the naive :class:`~repro.analysis.andersen.ReferenceSolver` —
on pointer-heavy generated programs whose hub cells and aliasing
chains make the naive solver re-propagate quadratically.  Each run's
:class:`~repro.analysis.solverstats.SolverStats` snapshot is appended
as a JSON line to ``benchmarks/results/solver_stats.jsonl`` so the
speedup trajectory is recorded across sessions.
"""

import time
from pathlib import Path

import pytest

from repro.analysis import analyze_pointers
from repro.core import UsherConfig, prepare_module, run_usher
from repro.obs.registry import write_stats_row
from repro.opt import run_pipeline
from repro.tinyc import compile_source
from repro.workloads import GeneratorParams, generate_program

RESULTS_DIR = Path(__file__).parent / "results"
SOLVER_STATS_LOG = RESULTS_DIR / "solver_stats.jsonl"


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


def record_solver_stats(
    seed: int,
    factor: int,
    elapsed: float,
    stats,
    benchmark: str = "solver_scalability",
    **extra,
) -> None:
    write_stats_row(
        SOLVER_STATS_LOG,
        benchmark,
        seed,
        factor,
        elapsed=elapsed,
        stats=stats,
        analyze_seconds=round(elapsed, 6),
        **extra,
    )


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

        elapsed, stats = benchmark.pedantic(solve, iterations=1, rounds=3)
        record_solver_stats(11, factor, elapsed, stats)
        assert stats.pops > 0

    @pytest.mark.parametrize("factor", [1, 2, 4, 8])
    def test_reference_solver_baseline(self, benchmark, factor):
        module = pointer_heavy_module(11, factor)

        def solve():
            return run_solver(module, use_reference=True)

        elapsed, stats = benchmark.pedantic(solve, iterations=1, rounds=3)
        record_solver_stats(11, factor, elapsed, stats)
        assert stats.pops > 0

    def test_delta_beats_reference_at_scale(self):
        """The acceptance gate: on the large pointer-heavy instance the
        delta solver must cut both the solve-phase wall time and the
        propagated-fact volume by at least 2x.  (Asserted loosely here
        against timer noise; the exact numbers land in
        ``benchmarks/results/solver_stats.jsonl``.)"""
        module = pointer_heavy_module(5, 6)
        delta_elapsed, delta_stats = min(
            (run_solver(module, use_reference=False) for _ in range(3)),
            key=lambda pair: pair[0],
        )
        ref_elapsed, ref_stats = min(
            (run_solver(module, use_reference=True) for _ in range(3)),
            key=lambda pair: pair[0],
        )
        record_solver_stats(5, 6, delta_elapsed, delta_stats)
        record_solver_stats(5, 6, ref_elapsed, ref_stats)
        delta_solve = delta_stats.phase_seconds["solve"]
        ref_solve = ref_stats.phase_seconds["solve"]
        assert ref_stats.facts_propagated >= 2 * delta_stats.facts_propagated
        assert ref_solve >= 2 * delta_solve
        assert delta_stats.sccs_collapsed > 0


class TestLargeModules:
    """Points-to bytes of the delta solver on large modules.

    The dense bitsets' cost is the *span* of each set, so their bytes
    grow faster than the module.  One row per factor lands in the log
    under the benchmark names the storage comparison used, so the
    committed history keeps gating them (``tools/diff_solver_stats.py``
    fails on a >2x ``pops`` / ``bytes_pts`` / ``peak_rss`` jump).
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

    def _record(self, module_for, factors, benchmark):
        for factor in factors:
            elapsed, stats = run_solver(module_for(11, factor), False)
            record_solver_stats(11, factor, elapsed, stats, benchmark=benchmark)
            assert stats.bytes_pts > 0 and stats.peak_rss > 0

    def test_generated_factor64(self):
        self._record(self._generated, (16, 64), "solver_storage_generated")

    def test_pointer_heavy_factor32(self):
        self._record(self._heavy, (8, 32), "solver_storage_heavy")
