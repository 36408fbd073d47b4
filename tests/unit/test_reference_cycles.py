"""Analysis, runs and sessions leave no cyclic garbage.

The IR's parent links are weak and no analysis builds a recursive
closure, so everything ``analyze()``, the runs and ``AnalysisSession``
create is freed by reference counting the moment it is dropped.  That
is what makes it safe for those entry points to pause the cyclic
collector (:mod:`repro.gcpause`).  Each case here does its work with
the collector disabled, drops every result, and asserts that a full
collection then finds nothing.  The work runs twice and only the second
round is counted, so first-use caches and imports do not count.

The same file checks the other half of the ownership contract: deep
copies and pickles of a module relink every block and instruction to
the copy's own parents, and the pause restores the caller's collector
state.
"""

from __future__ import annotations

import copy
import gc
import pickle
import random

import pytest

from repro import api
from repro.core import prepare_module, run_usher
from repro.gcpause import collector_paused
from repro.obs.trace import TRACE
from repro.runtime import StepLimitExceeded
from repro.service import AnalysisSession, plan_signature
from repro.tinyc import TinyCSyntaxError, compile_source
from repro.workloads import ALL_WORKLOADS, GeneratorParams, generate_program

SUITE_SCALE = 0.05


def _heavy_f8() -> str:
    return generate_program(11, GeneratorParams().scaled(8).pointer_heavy())


def _cyclic_garbage(work) -> int:
    """Objects a full collection frees after ``work()`` ran (twice)
    with the collector disabled and dropped all it made."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        work()
        gc.collect()
        work()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


def _exercise(analysis) -> None:
    """Every run, query and explanation an ``Analysis`` offers."""
    analysis.run_native()
    for config in analysis.plans:
        analysis.run(config)
    for config, result in analysis.results.items():
        for site in result.vfg.check_sites[:20]:
            analysis.query(site.instr_uid, config)
            analysis.explain(site.instr_uid, config)


def test_suite_analysis_runs_and_queries_leave_no_cycles():
    sources = [(w.name, w.source(SUITE_SCALE)) for w in ALL_WORKLOADS]

    def work():
        for name, source in sources:
            _exercise(
                api.analyze(
                    source=source, name=name, configs=api.EXTENDED_CONFIG_ORDER
                )
            )

    assert len(sources) == 19
    assert _cyclic_garbage(work) == 0


def test_heavy_f8_analysis_runs_and_queries_leave_no_cycles():
    source = _heavy_f8()

    def work():
        _exercise(
            api.analyze(
                source=source, name="heavy-f8", configs=api.EXTENDED_CONFIG_ORDER
            )
        )

    assert _cyclic_garbage(work) == 0


def test_traced_analysis_leaves_no_cycles():
    source = ALL_WORKLOADS[0].source(SUITE_SCALE)

    def work():
        with TRACE.capture():
            _exercise(api.analyze(source=source, name="traced"))
        assert TRACE.events
        TRACE.clear()

    try:
        assert _cyclic_garbage(work) == 0
    finally:
        TRACE.disable()
        TRACE.clear()


def test_run_that_hits_its_step_limit_leaves_no_cycles():
    source = ALL_WORKLOADS[0].source(SUITE_SCALE)
    hits = []

    def work():
        analysis = api.analyze(source=source, name="limited")
        analysis.max_steps = 50
        for run in (analysis.run_native, lambda: analysis.run("usher")):
            try:
                run()
            except StepLimitExceeded:
                hits.append(True)

    assert _cyclic_garbage(work) == 0
    assert len(hits) == 4


def _session_source() -> str:
    return generate_program(11, GeneratorParams().scaled(2))


def test_session_edits_queries_and_explanations_leave_no_cycles():
    source = _session_source()

    def work():
        session = AnalysisSession.from_source(source, name="gen")
        rng = random.Random(1)
        for serial in range(6):
            fname = rng.choice(session.function_names())
            lines = session.function_text(fname).splitlines()
            label = next(
                i for i, line in enumerate(lines) if line.rstrip().endswith(":")
            )
            lines.insert(label + 1, f"    %__e{serial} := 0")
            session.update(fname, "\n".join(lines))
            verdicts = session.query_sites()
            for uid in [u for u, ok in verdicts.items() if not ok][:5]:
                assert session.explain(uid) is not None

    assert _cyclic_garbage(work) == 0


def test_cold_analysis_of_a_pristine_copy_leaves_no_cycles():
    session = AnalysisSession.from_source(_session_source(), name="gen")

    def work():
        prepared = prepare_module(copy.deepcopy(session.pristine))
        result = run_usher(prepared, session.config)
        assert plan_signature(result.plan) == plan_signature(session.plan)

    assert _cyclic_garbage(work) == 0


# -- copies ---------------------------------------------------------------
def _assert_owned(module) -> None:
    """Every block's and instruction's parent link points inside
    ``module``."""
    for function in module.functions.values():
        for block in function.blocks:
            assert block.function is function
            for instr in block.instrs:
                assert instr.block is block


def _signatures(analysis):
    return {name: plan_signature(plan) for name, plan in analysis.plans.items()}


@pytest.mark.parametrize(
    "clone",
    [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
    ids=["deepcopy", "pickle"],
)
def test_module_copies_own_their_parent_links(clone):
    module = compile_source(ALL_WORKLOADS[0].source(SUITE_SCALE), "orig")
    twin = clone(module)
    _assert_owned(module)
    _assert_owned(twin)
    originals = {id(i) for i in module.instructions()}
    assert not originals & {id(i) for i in twin.instructions()}
    assert _signatures(api.analyze(module=twin)) == _signatures(
        api.analyze(module=module)
    )


def test_parent_links_are_weak():
    module = compile_source(ALL_WORKLOADS[0].source(SUITE_SCALE), "orig")
    instr = next(module.instructions())
    assert instr.block is not None
    del module
    assert instr.block is None


# -- collector state ------------------------------------------------------
def test_analyze_restores_the_collector():
    assert gc.isenabled()
    api.analyze(source=ALL_WORKLOADS[0].source(SUITE_SCALE))
    assert gc.isenabled()


def test_raising_analyze_restores_the_collector():
    assert gc.isenabled()
    with pytest.raises(TinyCSyntaxError):
        api.analyze(source="def main( {")
    assert gc.isenabled()


def test_pause_keeps_a_disabled_collector_disabled():
    gc.disable()
    try:
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        api.analyze(source=ALL_WORKLOADS[0].source(SUITE_SCALE))
        assert not gc.isenabled()
    finally:
        gc.enable()
