"""Shared static work: each distinct VFG is built once per prepared module.

``PreparedModule`` memoizes :func:`build_vfg` by the arguments a config
sets, so ``usher_tl_at``, ``usher_opt1`` and ``usher`` analyze one
graph object.  That is only sound while no consumer mutates it: Opt I,
guided instrumentation and Γ resolution read it, and Opt II rewires a
copy.  These tests pin both halves.
"""

import pytest

from repro.api import analyze
from repro.core import UsherConfig, run_usher, usher
from repro.workloads import BY_NAME, GeneratorParams, generate_program
from tests.helpers import prepared_random

CONFIGS = (
    UsherConfig.tl(),
    UsherConfig.tl_at(),
    UsherConfig.opt_i(),
    UsherConfig.full(),
    UsherConfig.extended(),
)


def sources():
    yield "heavy", generate_program(11, GeneratorParams().scaled(2).pointer_heavy())
    yield "parser", BY_NAME["197.parser"].source(0.05)


def snapshot(vfg):
    """Everything a consumer could change: edges in order, def sites,
    check sites and the node table."""
    return (
        [(e.src, e.dst, e.kind, e.callsite) for e in vfg.edges()],
        dict(vfg.def_site),
        [(s.instr_uid, s.func, s.node, s.operand) for s in vfg.check_sites],
        list(vfg.nodes()),
    )


@pytest.mark.parametrize("name,source", list(sources()))
def test_default_analyze_builds_two_graphs(name, source, monkeypatch):
    calls = []
    real = usher.build_vfg

    def counting(*args, **kwargs):
        calls.append(kwargs["address_taken"])
        return real(*args, **kwargs)

    monkeypatch.setattr(usher, "build_vfg", counting)
    analysis = analyze(source=source, name=name)
    assert sorted(calls) == [False, True]  # TL, then the shared TL+AT
    results = analysis.results
    assert results["usher_tl_at"].vfg is results["usher"].vfg
    assert results["usher_opt1"].vfg is results["usher"].vfg
    assert results["usher_tl"].vfg is not results["usher"].vfg
    assert results["usher_tl_at"].gamma is results["usher_opt1"].gamma


@pytest.mark.parametrize("seed", [3, 11])
def test_configs_leave_the_shared_graph_untouched(seed):
    prepared = prepared_random(seed)
    shared = prepared.vfg(UsherConfig.tl_at())
    before = snapshot(shared)
    results = [run_usher(prepared, config) for config in CONFIGS]
    assert snapshot(shared) == before
    assert [r.vfg is shared for r in results] == [False, True, True, True, False]


def test_distinct_graph_arguments_build_distinct_graphs():
    prepared = prepared_random(5)
    plain = prepared.vfg(UsherConfig.tl_at())
    assert prepared.vfg(UsherConfig(semi_strong=False)) is not plain
    assert prepared.vfg(UsherConfig(array_init=True)) is not plain
    assert prepared.vfg(UsherConfig.full()) is plain
