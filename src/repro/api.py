"""High-level convenience API tying the whole pipeline together.

The single entry point is :func:`analyze` (keyword-only; pass either
TinyC ``source`` or a compiled ``module``)::

    from repro.api import analyze

    analysis = analyze(source=source, level="O0+IM")
    report = analysis.run("usher")
    print(report.warnings, analysis.slowdown("usher"))

    # Demand-driven definedness queries (no whole-program resolution):
    analysis.query(uid)          # Γ at one check site: defined?
    analysis.explain(uid)        # how F reaches it, step by step
    analysis.query_stats()       # what the queries actually visited

Definedness options (demand-driven Γ, resolver, context depth, a
single configuration) are passed as one
:class:`repro.options.AnalysisOptions` record (``analyze(options=...)``).
For a long-lived, incrementally re-analyzed program, see
:class:`repro.service.session.AnalysisSession` and ``repro serve``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Union

from repro.ir.module import Module
from repro.ir.verifier import verify_module
from repro.analysis.solverstats import QueryStats
from repro.core import (
    InstrumentationPlan,
    PreparedModule,
    UsherConfig,
    UsherResult,
    prepare_module,
    run_msan,
    run_usher,
)
from repro.obs.trace import TRACE
from repro.opt import run_pipeline
from repro.options import AnalysisOptions
from repro.runtime import (
    DEFAULT_COST_MODEL,
    CostModel,
    ExecutionReport,
    run_instrumented,
    run_native,
)
from repro.tinyc import compile_source
from repro.vfg.demand import DemandEngine
from repro.vfg.explain import FlowStep, explain_undefined_demand
from repro.vfg.graph import CheckSite, Node

#: The analysis configurations of §4.5, in presentation order.
CONFIG_ORDER = ("msan", "usher_tl", "usher_tl_at", "usher_opt1", "usher")

#: CONFIG_ORDER plus the beyond-paper extension configuration.
EXTENDED_CONFIG_ORDER = CONFIG_ORDER + ("usher_ext",)

#: The step budget of an analyzed program's runs, and of every run the
#: ``repro run`` and ``repro check`` commands make.
MAX_STEPS = 50_000_000

#: Something identifying a check site: the site itself, its VFG node,
#: or the uid of the critical instruction.
Site = Union[CheckSite, Node, int]


@dataclass
class Analysis:
    """A fully analyzed program: plans for MSan and all Usher configs."""

    module: Module
    prepared: PreparedModule
    plans: Dict[str, InstrumentationPlan]
    results: Dict[str, UsherResult]
    level: str
    context_depth: int = 1
    resolver: str = "callstring"
    _runs: Dict[str, ExecutionReport] = field(default_factory=dict)
    _native: Optional[ExecutionReport] = None
    _engines: Dict[str, DemandEngine] = field(default_factory=dict)
    max_steps: int = MAX_STEPS

    def run_native(self) -> ExecutionReport:
        if self._native is None:
            self._native = run_native(self.module, max_steps=self.max_steps)
        return self._native

    def run(self, config: str) -> ExecutionReport:
        """Execute under the named configuration's instrumentation."""
        if config not in self._runs:
            self._runs[config] = run_instrumented(
                self.module, self.plans[config], max_steps=self.max_steps
            )
        return self._runs[config]

    def slowdown(self, config: str, model: CostModel = DEFAULT_COST_MODEL) -> float:
        return model.slowdown_percent(self.run(config))

    def static_propagations(self, config: str) -> int:
        return self.plans[config].count_propagations()

    def static_checks(self, config: str) -> int:
        return self.plans[config].count_checks()

    # -- demand-driven queries ----------------------------------------
    def _pick_config(self, config: Optional[str]) -> Optional[str]:
        if config is not None:
            return config if config in self.results else None
        for name in EXTENDED_CONFIG_ORDER:
            if name in self.results:
                return name
        return next(iter(self.results), None)

    def engine(self, config: Optional[str] = None) -> Optional[DemandEngine]:
        """The demand engine over ``config``'s VFG (built lazily, one
        per config, memo shared across all queries).  ``None`` when no
        analyzed configuration is available (e.g. MSan only)."""
        picked = self._pick_config(config)
        if picked is None:
            return None
        if picked not in self._engines:
            self._engines[picked] = DemandEngine(
                self.results[picked].vfg,
                context_depth=self.context_depth,
                resolver=self.resolver,
            )
        return self._engines[picked]

    def _site_nodes(self, site: Site, config: Optional[str]) -> List[Node]:
        if isinstance(site, CheckSite):
            return [site.node] if site.node is not None else []
        if isinstance(site, int):
            picked = self._pick_config(config)
            if picked is None:
                return []
            return [
                s.node
                for s in self.results[picked].vfg.check_sites
                if s.instr_uid == site and s.node is not None
            ]
        return [site]

    def query(self, site: Site, config: Optional[str] = None) -> bool:
        """Γ at one check site, answered demand-driven: ``True`` iff
        every value used there is ⊤ (definitely defined).

        ``site`` may be a :class:`~repro.vfg.graph.CheckSite`, a VFG
        node, or an instruction uid (all critical operands at that
        instruction).  Sites with no analyzable node (constants, or no
        analyzed config) are trivially defined.
        """
        engine = self.engine(config)
        if engine is None:
            return True
        return all(
            engine.is_defined(node)
            for node in self._site_nodes(site, config)
        )

    def explain(
        self, site: Site, config: Optional[str] = None
    ) -> Optional[List[FlowStep]]:
        """How an undefined value reaches ``site``: the shortest
        realizable F-path, found by backward slicing (demand engine);
        ``None`` when the site is defined.

        The path search always uses k-limited call strings (the
        explanation semantics of :mod:`repro.vfg.explain`), even when
        the analysis resolver is ``"summary"``.
        """
        engine = self.engine(config)
        if engine is None:
            return None
        if engine.resolver != "callstring":
            picked = self._pick_config(config)
            key = f"{picked}/explain"
            if key not in self._engines:
                self._engines[key] = DemandEngine(
                    self.results[picked].vfg,
                    context_depth=max(self.context_depth, 1),
                )
            engine = self._engines[key]
        for node in self._site_nodes(site, config):
            steps = explain_undefined_demand(engine, self.module, node)
            if steps is not None:
                return steps
        return None

    def query_stats(self, config: Optional[str] = None) -> Optional[QueryStats]:
        """Accumulated :class:`QueryStats` of ``config``'s engine, or
        ``None`` if no query has forced an engine yet."""
        picked = self._pick_config(config)
        if picked is None or picked not in self._engines:
            return None
        return self._engines[picked].stats


def analyze(
    *,
    source: Optional[str] = None,
    module: Optional[Module] = None,
    name: str = "module",
    level: str = "O0+IM",
    configs: Optional[Sequence[str]] = None,
    heap_cloning: bool = True,
    semi_strong: bool = True,
    use_reference_solver: bool = False,
    options: Optional[AnalysisOptions] = None,
) -> Analysis:
    """Optimize, analyze and instrument a program under every config.

    Exactly one of ``source`` (TinyC text, compiled as ``name``) or
    ``module`` (an already-compiled IR module) must be given.  All
    arguments are keyword-only.

    ``options`` (:class:`repro.options.AnalysisOptions`) sets the
    definedness options of every configuration: ``demand=True``
    resolves Γ demand-driven (backward slicing per node,
    :mod:`repro.vfg.demand`), including Opt II's re-resolution —
    bit-identical plans, different cost profile; ``resolver`` and
    ``context_depth`` pick the context-matching discipline; ``config``
    analyzes that one configuration when ``configs`` is not given.
    :meth:`Analysis.query` / :meth:`Analysis.explain` are demand-driven
    regardless of ``demand``.
    """
    if (source is None) == (module is None):
        raise ValueError("pass exactly one of source= or module=")
    opts = options if options is not None else AnalysisOptions()
    demand = bool(opts.demand)
    resolver = opts.resolver or "callstring"
    context_depth = 1 if opts.context_depth is None else opts.context_depth
    if configs is None and opts.config is not None:
        configs = [opts.config]
    if module is None:
        with TRACE.span("parse", module=name):
            module = compile_source(source, name)

    with TRACE.span("analyze", level=level):
        with TRACE.span("opt_pipeline", level=level):
            run_pipeline(module, level)
        with TRACE.span("verify"):
            verify_module(module)
        prepared = prepare_module(
            module,
            heap_cloning=heap_cloning,
            use_reference_solver=use_reference_solver,
        )
        wanted = list(configs) if configs else list(CONFIG_ORDER)
        plans: Dict[str, InstrumentationPlan] = {}
        results: Dict[str, UsherResult] = {}
        base_configs = {
            "usher_tl": UsherConfig.tl(),
            "usher_tl_at": UsherConfig.tl_at(),
            "usher_opt1": UsherConfig.opt_i(),
            "usher": UsherConfig.full(),
            "usher_ext": UsherConfig.extended(),
        }
        for config_name in wanted:
            if config_name == "msan":
                with TRACE.span("config", config="msan"):
                    plans[config_name] = run_msan(prepared)
                continue
            config = replace(
                base_configs[config_name],
                semi_strong=semi_strong,
                context_depth=context_depth,
                resolver=resolver,
                demand=demand,
            )
            with TRACE.span("config", config=config_name):
                result = run_usher(prepared, config)
            results[config_name] = result
            plans[config_name] = result.plan
    return Analysis(
        module,
        prepared,
        plans,
        results,
        level,
        context_depth=context_depth,
        resolver=resolver,
    )
