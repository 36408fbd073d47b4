"""The Usher driver: configurations, pipeline, results (Figure 3).

Typical use::

    prepared = prepare_module(module)           # pointer analysis + memory SSA
    result = run_usher(prepared, UsherConfig.full())
    msan = run_msan(prepared)

``prepare_module`` runs phases 1-2 of Figure 3 once.  The
:class:`PreparedModule` then builds each distinct VFG (phase 3) once
and shares it, read-only, across the configurations that ask for the
same graph; likewise the eager definedness resolution (phase 4) of each
graph.  Each configuration optionally applies the VFG-based
optimizations (phase 5 — Opt I/Opt II; Opt II rewires a private copy)
and generates guided instrumentation.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from repro.ir.module import Module
from repro.analysis.andersen import PointerResult, analyze_pointers
from repro.analysis.solverstats import SolverStats
from repro.analysis.callgraph import CallGraph
from repro.analysis.modref import ModRefResult
from repro.core.instrument import GuidedStats, build_guided_plan
from repro.core.msan import build_msan_plan
from repro.core.opt2 import Opt2Stats, redundant_check_elimination
from repro.core.plan import InstrumentationPlan
from repro.memssa import build_memory_ssa
from repro.obs.trace import TRACE
from repro.vfg.builder import build_vfg
from repro.vfg.definedness import Definedness
from repro.vfg.graph import VFG
from repro.vfg.tabulation import resolve_gamma


def resolve_for_config(vfg: VFG, config: "UsherConfig") -> Definedness:
    """Run the configuration's definedness resolver."""
    return resolve_gamma(vfg, config.resolver, config.context_depth)


@dataclass(frozen=True)
class UsherConfig:
    """One analysis configuration (the four variants of §4.5).

    Attributes:
        name: Display name.
        address_taken: Analyze address-taken variables (False = Usher_TL).
        opt1: Apply value-flow simplification (§3.5.1).
        opt2: Apply redundant check elimination (§3.5.2).
        semi_strong: Enable the semi-strong update rule (ablation knob).
        context_depth: Call-string depth for definedness resolution
            (the paper uses 1).  Ignored by the summary resolver.
        resolver: ``"callstring"`` (the paper's k-limited matching) or
            ``"summary"`` (fully context-sensitive tabulation,
            :mod:`repro.vfg.tabulation`).
        array_init: Enable the array initialization-loop analysis
            (an extension beyond the paper, from its stated future
            work — see :mod:`repro.vfg.arrayinit`).
        opt2_interproc: Extend Opt II's dominance reasoning across
            function boundaries (extension beyond the paper).
    """

    name: str = "usher"
    address_taken: bool = True
    opt1: bool = False
    opt2: bool = False
    semi_strong: bool = True
    context_depth: int = 1
    resolver: str = "callstring"
    array_init: bool = False
    opt2_interproc: bool = False

    @classmethod
    def tl(cls) -> "UsherConfig":
        """Usher_TL: top-level variables only, no VFG optimizations."""
        return cls(name="usher_tl", address_taken=False)

    @classmethod
    def tl_at(cls) -> "UsherConfig":
        """Usher_TL+AT: also analyzes address-taken variables."""
        return cls(name="usher_tl_at")

    @classmethod
    def opt_i(cls) -> "UsherConfig":
        """Usher_OptI: Usher_TL+AT plus value-flow simplification."""
        return cls(name="usher_opt1", opt1=True)

    @classmethod
    def full(cls) -> "UsherConfig":
        """Usher: both VFG-based optimizations enabled."""
        return cls(name="usher", opt1=True, opt2=True)

    @classmethod
    def extended(cls) -> "UsherConfig":
        """Usher plus every beyond-paper extension: the array
        initialization-loop analysis and interprocedural Opt II."""
        return cls(
            name="usher_ext",
            opt1=True,
            opt2=True,
            array_init=True,
            opt2_interproc=True,
        )

    def with_name(self, name: str) -> "UsherConfig":
        return replace(self, name=name)


@dataclass
class PreparedModule:
    """A module with phases 1-2 of Figure 3 done (shared by configs)."""

    module: Module
    pointers: PointerResult
    callgraph: CallGraph
    modref: ModRefResult
    prepare_seconds: float
    #: Built VFGs by :func:`_graph_key`; shared read-only by configs.
    _vfgs: Dict[Tuple[bool, bool, bool], VFG] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    #: Eager Γ by (graph key, resolver, context depth).
    _gammas: Dict[tuple, Definedness] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def solver_stats(self) -> Optional[SolverStats]:
        """Constraint-solver profile of the pointer-analysis phase."""
        return self.pointers.solver_stats

    def vfg(self, config: UsherConfig) -> VFG:
        """The VFG ``config`` analyzes, built on first request.

        Configurations with the same :func:`_graph_key` get the same
        object; no consumer may mutate it (Opt II rewires a copy)."""
        key = _graph_key(config)
        vfg = self._vfgs.get(key)
        if vfg is None:
            with TRACE.span("vfg.build", config=config.name):
                vfg = build_vfg(
                    self.module,
                    self.pointers,
                    self.callgraph,
                    self.modref,
                    address_taken=config.address_taken,
                    semi_strong=config.semi_strong,
                    array_init=config.array_init,
                )
            self._vfgs[key] = vfg
        return vfg

    def gamma(self, config: UsherConfig) -> Definedness:
        """Γ of ``config``'s VFG, without Opt II, computed once per
        graph, resolver and context depth."""
        key = (_graph_key(config), config.resolver, config.context_depth)
        gamma = self._gammas.get(key)
        if gamma is None:
            gamma = resolve_for_config(self.vfg(config), config)
            self._gammas[key] = gamma
        return gamma


def _graph_key(config: UsherConfig) -> Tuple[bool, bool, bool]:
    """The :func:`build_vfg` arguments that ``config`` sets: configs
    with equal keys analyze identical graphs."""
    return (config.address_taken, config.semi_strong, config.array_init)


@dataclass
class UsherResult:
    """Everything a configuration run produces."""

    config: UsherConfig
    plan: InstrumentationPlan
    vfg: VFG
    gamma: Definedness
    guided_stats: GuidedStats
    opt2_stats: Optional[Opt2Stats]
    analysis_seconds: float

    @property
    def static_propagations(self) -> int:
        return self.plan.count_propagations()

    @property
    def static_checks(self) -> int:
        return self.plan.count_checks()


def prepare_module(
    module: Module,
    heap_cloning: bool = True,
    use_reference_solver: bool = False,
) -> PreparedModule:
    """Run pointer analysis, mod/ref and memory-SSA construction.

    ``use_reference_solver`` swaps in the naive
    :class:`~repro.analysis.andersen.ReferenceSolver` (the escape hatch
    for differential debugging); results are identical, only slower.
    """
    started = time.perf_counter()
    with TRACE.span("prepare"):
        pointers = analyze_pointers(
            module,
            heap_cloning=heap_cloning,
            use_reference=use_reference_solver,
        )
        with TRACE.span("callgraph"):
            callgraph = CallGraph(module, pointers)
        with TRACE.span("modref"):
            modref = ModRefResult(module, pointers, callgraph)
        with TRACE.span("memssa"):
            build_memory_ssa(module, pointers, modref)
    return PreparedModule(
        module, pointers, callgraph, modref, time.perf_counter() - started
    )


def run_usher(prepared: PreparedModule, config: UsherConfig) -> UsherResult:
    """Phases 3-5 of Figure 3 under ``config``.

    The VFG (and, without Opt II, the eager Γ) comes from ``prepared``'s
    memo, so configurations that analyze the same graph share one build
    and ``UsherResult.vfg`` may be the same object across results."""
    started = time.perf_counter()
    if config.resolver not in ("callstring", "summary"):
        raise ValueError(f"unknown resolver {config.resolver!r}")
    vfg = prepared.vfg(config)
    opt2_stats: Optional[Opt2Stats] = None
    if config.opt2:
        # Opt II re-resolves Γ on its rewired scratch graph; resolving
        # the pristine VFG first would be pure waste.
        with TRACE.span("opt2", config=config.name):
            gamma, opt2_stats = redundant_check_elimination(
                prepared.module,
                vfg,
                prepared.callgraph,
                config.context_depth,
                resolver=config.resolver,
                interprocedural=config.opt2_interproc,
            )
    else:
        with TRACE.span("gamma.resolve", config=config.name,
                        resolver=config.resolver):
            gamma = prepared.gamma(config)
    with TRACE.span("instrument", config=config.name, opt1=config.opt1):
        plan, guided_stats = build_guided_plan(
            prepared.module,
            vfg,
            gamma,
            prepared.callgraph,
            opt1=config.opt1,
            name=config.name,
        )
    return UsherResult(
        config=config,
        plan=plan,
        vfg=vfg,
        gamma=gamma,
        guided_stats=guided_stats,
        opt2_stats=opt2_stats,
        analysis_seconds=time.perf_counter() - started,
    )


def run_msan(prepared: PreparedModule) -> InstrumentationPlan:
    """The MSan-style full-instrumentation baseline."""
    return build_msan_plan(prepared.module)


def run_all_configs(prepared: PreparedModule) -> Dict[str, UsherResult]:
    """The four configurations of §4.5, keyed by name."""
    results: Dict[str, UsherResult] = {}
    for config in (
        UsherConfig.tl(),
        UsherConfig.tl_at(),
        UsherConfig.opt_i(),
        UsherConfig.full(),
    ):
        results[config.name] = run_usher(prepared, config)
    return results
