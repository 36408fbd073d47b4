"""Property-based invariants of the core data structures."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import UsherConfig, prepare_module, run_usher
from repro.opt import run_pipeline
from repro.tinyc import compile_source
from repro.vfg import (
    TopNode,
    build_vfg,
    compute_mfc,
    resolve_definedness,
)
from repro.vfg.graph import BOT, TOP, VFGOverlay
from repro.vfg.tabulation import resolve_gamma
from repro.workloads import GeneratorParams, generate_program

from tests.helpers import ANALYSIS_PARAMS as _PARAMS
_SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def vfg_of(seed: int):
    module = compile_source(generate_program(seed, _PARAMS), f"seed{seed}")
    run_pipeline(module, "O0+IM")
    prepared = prepare_module(module)
    vfg = build_vfg(
        module, prepared.pointers, prepared.callgraph, prepared.modref
    )
    return module, vfg


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(**_SETTINGS)
def test_context_depth_monotonicity(seed):
    """More context never makes the resolution less precise."""
    _, vfg = vfg_of(seed)
    bottoms = [
        resolve_definedness(vfg, context_depth=k).bottom_nodes
        for k in (0, 1, 2)
    ]
    assert bottoms[1] <= bottoms[0]
    assert bottoms[2] <= bottoms[1]


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(**_SETTINGS)
def test_empty_overlay_reads_exactly_like_its_base(seed):
    """Opt II's view before any redirect is the built graph itself."""
    _, vfg = vfg_of(seed)
    overlay = VFGOverlay(vfg)
    assert overlay.node_table() == vfg.node_table()
    assert overlay.def_columns() == vfg.def_columns()
    assert list(overlay.edges()) == list(vfg.edges())
    for nid in range(vfg.num_nodes):
        assert overlay.rows_into(nid) == vfg.rows_into(nid)
        assert overlay.rows_out_of(nid) == vfg.rows_out_of(nid)
    for node in (TOP, BOT, *vfg.nodes()):
        assert overlay.node_id(node) == vfg.node_id(node)
    for resolver in ("callstring", "summary"):
        assert (
            resolve_gamma(overlay, resolver).bottom_nodes
            == resolve_gamma(vfg, resolver).bottom_nodes
        )


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(**_SETTINGS)
def test_mfc_definedness_characterization(seed):
    """Definition 2's key property: Γ(x) = ⊤ iff Γ(ŷ) = ⊤ for every
    node in the closure — equivalently, a ⊥ sink has a ⊥ source."""
    module, vfg = vfg_of(seed)
    gamma = resolve_definedness(vfg)
    checked = 0
    for node in vfg.nodes():
        if not isinstance(node, TopNode):
            continue
        _, kind = vfg.def_site.get(node, (None, ""))
        if kind not in ("copy", "binop", "unop", "gep"):
            continue
        mfc = compute_mfc(vfg, module, node)
        if gamma.is_defined(node):
            continue
        checked += 1
        assert any(not gamma.is_defined(s) for s in mfc.sources), str(node)
        if checked > 25:
            break


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_plan_counters_match_op_enumeration(seed):
    module = compile_source(generate_program(seed, _PARAMS), f"seed{seed}")
    run_pipeline(module, "O0+IM")
    prepared = prepare_module(module)
    result = run_usher(prepared, UsherConfig.full())
    plan = result.plan
    reads = sum(op.reads for op in plan.iter_ops() if not op.is_check)
    checks = sum(1 for op in plan.iter_ops() if op.is_check)
    assert plan.count_propagations() == reads
    assert plan.count_checks() == checks
    assert plan.count_ops() == sum(1 for _ in plan.iter_ops())


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_bottom_check_has_an_explanation(seed):
    """The diagnostic path finder agrees with Γ: every ⊥ critical use
    is reachable from F along a realizable path (and no ⊤ one is)."""
    from repro.vfg.explain import explain_undefined

    module, vfg = vfg_of(seed)
    gamma = resolve_definedness(vfg)
    for site in vfg.check_sites:
        if site.node is None:
            continue
        steps = explain_undefined(vfg, module, site.node)
        if gamma.is_defined(site.node):
            assert steps is None, str(site.node)
        else:
            assert steps is not None, str(site.node)
            assert steps[-1].node == site.node
