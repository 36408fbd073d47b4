"""Differential suite: wave scheduling is invisible.

The :class:`~repro.analysis.andersen.DeltaSolver`'s wave schedule
(Pearce–Kelly topological order, one merged delta per node per wave)
changes only the work profile against the naive worklist of the
:class:`~repro.analysis.andersen.ReferenceSolver`, never the result.

Checked over the bundled workloads, hypothesis-generated programs and
the pointer-heavy corpus: points-to sets, call targets, wrappers and
allocation objects (including list order, which downstream consumers
rely on) are bit-identical.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import analyze_pointers
from repro.opt import run_pipeline
from repro.tinyc import compile_source
from repro.workloads import WORKLOADS, GeneratorParams, generate_program

from tests.helpers import CORPUS_PARAMS as _PARAMS
_SETTINGS = dict(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _module_for(seed, params=_PARAMS, name=None):
    module = compile_source(generate_program(seed, params), name or f"seed{seed}")
    run_pipeline(module, "O0+IM")
    return module


def _workload_module(workload):
    module = compile_source(workload.source(0.1), workload.name)
    run_pipeline(module, "O0+IM")
    return module


def _normalize(result):
    """Snapshot of everything the solvers must agree on —
    including ``alloc_objects`` list *order*, which plan construction
    and clone bookkeeping consume."""
    return (
        {node: frozenset(locs) for node, locs in result.pts.items()},
        {uid: frozenset(t) for uid, t in result.call_targets.items()},
        frozenset(result.wrappers),
        {uid: tuple(objs) for uid, objs in result.alloc_objects.items()},
    )


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_schedules_agree_on_workload_corpus(workload):
    module = _workload_module(workload)
    wave = analyze_pointers(module)
    reference = analyze_pointers(module, use_reference=True)
    assert _normalize(wave) == _normalize(reference)
    # Popping by topological position never costs more pops than the
    # reference's re-offer-everything worklist.
    assert wave.solver_stats.waves > 0
    assert wave.solver_stats.pops <= reference.solver_stats.pops


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(**_SETTINGS)
def test_schedules_and_jobs_agree_on_random_programs(seed):
    module = _module_for(seed)
    wave = analyze_pointers(module)
    reference = analyze_pointers(module, use_reference=True)
    assert _normalize(reference) == _normalize(wave), seed


@pytest.mark.parametrize("seed", [3, 5, 11])
def test_wave_agrees_and_reduces_pops_on_pointer_heavy_corpus(seed):
    """The wave schedule must agree with the reference worklist on the
    corpus built to stress it (hub cells, copy cycles) — and actually
    do less work there: fewer pops is the whole point of deep
    propagation."""
    params = GeneratorParams().scaled(3).pointer_heavy()
    module = _module_for(seed, params, name=f"heavy{seed}")
    wave = analyze_pointers(module)
    reference = analyze_pointers(module, use_reference=True)
    assert _normalize(wave) == _normalize(reference)
    assert wave.solver_stats.waves > 0
    assert wave.solver_stats.peak_wave_width > 0
    assert wave.solver_stats.pops < reference.solver_stats.pops, (
        wave.solver_stats.pops,
        reference.solver_stats.pops,
    )
