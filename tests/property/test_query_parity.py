"""Per-site queries and explanations against eager Γ.

:meth:`repro.api.Analysis.query` answers from the eager Γ of the
configuration's VFG before Opt II, and :meth:`Analysis.explain` walks
one :class:`~repro.vfg.explain.FlowTree` per configuration.  Checked
over every check site of the 19 suite programs (both resolvers, the
five Usher configurations) and the pointer-heavy generated module of
the ``static-large`` benchmark:

* every verdict equals :func:`repro.vfg.tabulation.resolve_gamma` on
  the result's VFG;
* every ⊥ site has a chain that starts at F, ends at the site's node
  and replays through :func:`repro.vfg.definedness.step_context` from
  the empty context;
* a chain does not depend on which sites were explained before it;
* explaining every ⊥ site of one configuration runs one search.
"""

import pytest

from repro.api import Analysis, analyze
from repro.obs.trace import TRACE
from repro.options import AnalysisOptions
from repro.vfg.definedness import step_context
from repro.vfg.explain import FlowTree, explain_depth
from repro.vfg.graph import BOT
from repro.vfg.tabulation import resolve_gamma
from repro.workloads import ALL_WORKLOADS, GeneratorParams, generate_program

CONFIGS = ("usher_tl", "usher_tl_at", "usher_opt1", "usher", "usher_ext")
RESOLVERS = ("callstring", "summary")

#: The ``heavy-f8`` module of the ``static-large`` benchmark.
HEAVY_F8 = generate_program(11, GeneratorParams().scaled(8).pointer_heavy())


def bottom_sites(analysis: Analysis, config: str):
    return [
        site
        for site in analysis.results[config].vfg.check_sites
        if not analysis.query(site, config)
    ]


def check_explanations(analysis: Analysis, config: str) -> None:
    result = analysis.results[config]
    depth = explain_depth(analysis.resolver, analysis.context_depth)
    tree = FlowTree(result.vfg, depth)
    sites = bottom_sites(analysis, config)
    # Warm: every other site explained first, in reverse order.
    for site in reversed(sites):
        analysis.explain(site, config)
    for site in sites:
        chain = tree.chain(site.node)
        assert chain is not None, (config, site.instr_uid)
        assert chain[0] == (BOT, None)
        assert chain[-1][0] == site.node
        ctx = ()
        for node, edge in chain[1:]:
            assert edge.dst == node
            ctx = step_context(ctx, edge.kind, edge.callsite, depth)
            assert ctx is not None, (config, site.instr_uid)
        fresh = Analysis(
            analysis.module,
            analysis.prepared,
            analysis.plans,
            analysis.results,
            analysis.level,
            context_depth=analysis.context_depth,
            resolver=analysis.resolver,
        )
        steps = fresh.explain(site, config)
        assert steps == tree.explain(analysis.module, site.node)
        assert analysis.explain(site, config) == steps


@pytest.mark.parametrize("workload", ALL_WORKLOADS, ids=lambda w: w.name)
def test_query_matches_eager_gamma(workload):
    source = workload.source(0.1)
    for resolver in RESOLVERS:
        analysis = analyze(
            source=source,
            name=workload.name,
            configs=CONFIGS,
            options=AnalysisOptions(resolver=resolver),
        )
        for config in CONFIGS:
            result = analysis.results[config]
            gamma = resolve_gamma(result.vfg, resolver, 1)
            for site in result.vfg.check_sites:
                assert analysis.query(site, config) == gamma.is_defined(
                    site.node
                ), (resolver, config, site.instr_uid)
            check_explanations(analysis, config)


def test_heavy_module_explanations():
    analysis = analyze(source=HEAVY_F8, name="heavy-f8", configs=CONFIGS)
    for config in CONFIGS:
        check_explanations(analysis, config)


def test_one_explain_span_per_config():
    analysis = analyze(source=HEAVY_F8, name="heavy-f8", configs=["usher"])
    uids = sorted({site.instr_uid for site in bottom_sites(analysis, "usher")})
    assert len(uids) > 1
    with TRACE.capture():
        for uid in uids:
            assert analysis.explain(uid, "usher") is not None
    spans = [event.name for event in TRACE.events]
    TRACE.clear()
    assert spans.count("explain") == 1
