"""Differential suite: wave scheduling and per-function tapes are invisible.

Two parts of the pointer solver change only the work profile, never
the result:

* the :class:`~repro.analysis.andersen.DeltaSolver`'s wave schedule
  (Pearce–Kelly topological order, one merged delta per node per wave)
  against the naive worklist of the
  :class:`~repro.analysis.andersen.ReferenceSolver`;
* seeding the solver from per-function constraint tapes — what an
  :class:`~repro.service.AnalysisSession` caches and replays on every
  rebuild — against the serial whole-module generator.

Checked over the bundled workloads, hypothesis-generated programs and
the pointer-heavy corpus: points-to sets, call targets, wrappers and
allocation objects (including list order, which downstream consumers
rely on) are bit-identical, and the tape replay reproduces the exact
serial constraint stream (solver-state equality, not just result
equality).
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import analyze_pointers
from repro.analysis.andersen import DeltaSolver, _recursive_functions
from repro.analysis.shardgen import _collector_class
from repro.analysis.solverstats import SolverStats
from repro.opt import run_pipeline
from repro.service.session import _collect_tape, _normalized_ops, _TapeSolver
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


def _tape_solver(module, wrappers=frozenset()):
    """A :class:`_TapeSolver` seeded from freshly collected
    per-function tapes, as a session's rebuild constructs it."""
    recursive = _recursive_functions(module)
    tapes = [
        _collect_tape(module, wrappers, recursive, fname)
        for fname in module.functions
    ]
    return _TapeSolver(
        module,
        frozenset(wrappers),
        tapes,
        SolverStats(solver=DeltaSolver.kind),
        set(recursive),
    )


def _tape_analyze(module):
    """``analyze_pointers`` with both passes seeded from tapes."""
    base = _tape_solver(module)
    base.solve()
    wrappers = frozenset(base.detect_wrappers())
    if not wrappers:
        return base.result()
    refined = _tape_solver(module, wrappers)
    refined.solve()
    result = refined.result()
    result.wrappers = set(wrappers)
    return result


# -- solver: the wave schedule against the reference worklist -------------


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
    taped = _tape_analyze(module)
    baseline = _normalize(wave)
    assert _normalize(reference) == baseline, seed
    assert _normalize(taped) == baseline, seed


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


# -- generation: per-function tapes against the serial generator ----------


def test_sharded_generation_replays_the_serial_constraint_stream():
    """Stronger than result equality: a solver seeded from
    per-function tapes must hold the same interned state as the serial
    generator (same node/bit universe in the same order), because the
    replay reproduces the exact serial stream."""
    module = _module_for(7)
    serial = DeltaSolver(module, wrappers=frozenset())
    taped = _tape_solver(module)
    assert len(module.functions) > 1
    assert serial._nodes == taped._nodes
    assert serial._locs == taped._locs
    assert serial._bits == taped._bits
    assert serial._copy_out == taped._copy_out
    assert serial.alloc_objects == taped.alloc_objects
    assert serial.call_targets == taped.call_targets
    assert serial.clone_base == taped.clone_base


@pytest.mark.parametrize("workload", WORKLOADS[:6], ids=lambda w: w.name)
def test_jobs_agree_on_workload_corpus(workload):
    module = _workload_module(workload)
    serial = analyze_pointers(module)
    taped = _tape_analyze(module)
    assert _normalize(serial) == _normalize(taped)


def test_collect_tapes_covers_the_serial_generation():
    """The per-function tapes together carry exactly the constraints
    the whole-module generator emits."""
    module = _module_for(11)
    names = list(module.functions)
    recursive = _recursive_functions(module)
    whole = _collector_class()(
        module, frozenset(), set(recursive), names
    ).result_shard
    union = set()
    for name in names:
        union |= _normalized_ops(
            _collect_tape(module, frozenset(), recursive, name)
        )
    assert union == _normalized_ops(whole)
