"""Resident analysis sessions.

An :class:`AnalysisSession` holds one module under one configuration
between queries: the canonical pre-pipeline text of every function, the
analyzed (memory-SSA) module, and the analysis result.
:meth:`AnalysisSession.update` replaces one function body and
re-analyzes the whole module cold — reparse, optimization pipeline,
verifier, then :func:`repro.core.usher.prepare_module` + ``run_usher``
on that freshly built module — exactly the one-shot pipeline of
Figure 3.  No copy of the module is kept: the post-pipeline module
without memory SSA (:attr:`AnalysisSession.pristine`) is rebuilt from
the texts on first read in a generation.

Updates are cold on purpose: a warm-start design (cached constraint
tapes, a warm-restarted solver, carried demand memos) cost about 2.4x
a cold analysis of the same module.  ``docs/service.md`` has the
measurement and the incremental route worth taking instead.

Identifier stability across edits comes from a uid transplant: the new
module's instructions are re-assigned the uids of textually identical
instructions of the previous generation (whole function, else a
prefix/suffix match), and only genuinely new instructions get fresh
uids.  Each rebuild keeps a per-function snapshot of the printed
post-pipeline instructions and their uids for the next one to match
against.  The differential suite pins every ``update()`` result —
points-to sets, instrumentation plans, Γ verdicts — identical to a
cold ``prepare_module`` + ``run_usher`` of the same module.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.ir.module import Module
from repro.ir.parser import parse_ir
from repro.ir.printer import function_to_str, module_to_str
from repro.ir.verifier import verify_module
from repro.opt import run_pipeline
from repro.analysis.andersen import PointerResult
from repro.obs.trace import TRACE
from repro.core.usher import (
    PreparedModule,
    UsherConfig,
    UsherResult,
    prepare_module,
    run_msan,
    run_usher,
)
from repro.core.plan import InstrumentationPlan
from repro.options import AnalysisOptions
from repro.tinyc import compile_source
from repro.vfg.demand import DemandEngine
from repro.vfg.explain import FlowStep, explain_check_site
from repro.vfg.graph import VFG

__all__ = ["AnalysisSession", "UpdateStats", "plan_signature"]

#: The named configurations a session can run (``msan`` is a plan, not
#: an analysis — see :meth:`AnalysisSession.msan_plan`).
_BASE_CONFIGS = {
    "usher_tl": UsherConfig.tl,
    "usher_tl_at": UsherConfig.tl_at,
    "usher_opt1": UsherConfig.opt_i,
    "usher": UsherConfig.full,
    "usher_ext": UsherConfig.extended,
}


# ----------------------------------------------------------------------
# Structural signatures
# ----------------------------------------------------------------------
def plan_signature(plan: InstrumentationPlan):
    """A structural, comparable signature of an instrumentation plan.

    :class:`InstrumentationPlan` has no ``__eq__``; the differential
    suite compares these instead — entry ops per function and pre/post
    shadow ops per instruction uid, all stringified.
    """
    return (
        {
            fname: tuple(str(op) for op in ops)
            for fname, ops in plan.entry_ops.items()
        },
        {
            uid: (
                tuple(str(op) for op in iops.pre),
                tuple(str(op) for op in iops.post),
            )
            for uid, iops in plan.ops.items()
        },
    )


#: Per function: the printed post-pipeline instructions and their uids.
Snapshot = Dict[str, Tuple[List[str], List[int]]]


# ----------------------------------------------------------------------
# Update statistics
# ----------------------------------------------------------------------
@dataclass
class UpdateStats:
    """What one :meth:`AnalysisSession.update` (or the initial build)
    cost."""

    function: Optional[str]
    mode: str  #: ``initial`` | ``rebuild``
    generation: int
    update_seconds: float

    @property
    def memos_carried(self) -> int:
        """Always 0; read by ``usherbench/run.py``."""
        return 0

    @property
    def memos_dropped(self) -> int:
        """Always 0; read by ``usherbench/run.py``."""
        return 0

    @property
    def dirty_fraction(self) -> float:
        """Always 1.0 (the whole module is re-analyzed); read by
        ``usherbench/run.py``."""
        return 1.0

    def as_dict(self) -> Dict:
        return asdict(self)


# ----------------------------------------------------------------------
# The session
# ----------------------------------------------------------------------
class AnalysisSession:
    """A resident analysis of one module under one configuration.

    Construct with :meth:`from_source` (TinyC) or :meth:`from_ir`;
    edit with :meth:`update`; query with :meth:`query_sites` /
    :meth:`explain`.  All results are bit-identical to a cold analysis
    of the session's current module.  The constructor takes ownership
    of ``module``: the pipeline and the analysis run on it in place.
    """

    def __init__(
        self,
        module: Module,
        name: str = "module",
        options: Optional[AnalysisOptions] = None,
        usher_config: Optional[UsherConfig] = None,
        level: str = "O0+IM",
    ) -> None:
        self.name = name
        self._level = level
        self._config = self._resolve_config(
            options if options is not None else AnalysisOptions(),
            usher_config,
        )

        # Source of truth: canonical pre-pipeline texts.  The printed
        # post-pipeline module is not parseable (memory-SSA φs), so the
        # session reassembles and re-lowers from these on every update.
        self._header = self._globals_header(module)
        self._fn_texts: Dict[str, str] = {
            fname: function_to_str(fn)
            for fname, fn in module.functions.items()
        }

        #: The last rebuild's post-pipeline instructions and uids.
        self._snapshot: Optional[Snapshot] = None
        #: Derived from the texts on first read; dropped by a rebuild.
        self._pristine: Optional[Module] = None
        self._prepared: Optional[PreparedModule] = None
        self._result: Optional[UsherResult] = None

        self._explain_cache: Optional[Tuple[int, DemandEngine]] = None

        self.generation = 0
        self.last_update: Optional[UpdateStats] = None
        self._rebuild(module, edited=None)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_source(
        cls,
        source: str,
        name: str = "module",
        options: Optional[AnalysisOptions] = None,
        usher_config: Optional[UsherConfig] = None,
        level: str = "O0+IM",
    ) -> "AnalysisSession":
        return cls(
            compile_source(source, name),
            name=name,
            options=options,
            usher_config=usher_config,
            level=level,
        )

    @classmethod
    def from_ir(
        cls,
        text: str,
        name: str = "module",
        options: Optional[AnalysisOptions] = None,
        usher_config: Optional[UsherConfig] = None,
        level: str = "O0+IM",
    ) -> "AnalysisSession":
        return cls(
            parse_ir(text),
            name=name,
            options=options,
            usher_config=usher_config,
            level=level,
        )

    @staticmethod
    def _resolve_config(
        options: AnalysisOptions, usher_config: Optional[UsherConfig]
    ) -> UsherConfig:
        overrides: Dict = {}
        if usher_config is not None:
            config = usher_config
        else:
            name = options.config or "usher"
            factory = _BASE_CONFIGS.get(name)
            if factory is None:
                raise ValueError(
                    f"unknown session config {name!r} (msan is a plan — "
                    f"use AnalysisSession.msan_plan())"
                )
            config = factory()
        if options.resolver is not None:
            overrides["resolver"] = options.resolver
        if options.context_depth is not None:
            overrides["context_depth"] = options.context_depth
        return replace(config, **overrides)

    @staticmethod
    def _globals_header(module: Module) -> str:
        shell = Module(module.name)
        shell.globals = module.globals
        return module_to_str(shell).rstrip("\n")

    # -- public surface -------------------------------------------------
    @property
    def prepared(self) -> PreparedModule:
        assert self._prepared is not None
        return self._prepared

    @property
    def module(self) -> Module:
        return self.prepared.module

    @property
    def pristine(self) -> Module:
        """The post-pipeline module *without* memory-SSA annotations —
        deep-copy it to feed a cold ``prepare_module`` oracle.

        Derived on the first read in a generation — the committed
        texts through the same parse, pipeline and verifier as an
        update, with the generation's uids restored by position — and
        cached until the next update.  ``Instr.line`` is not carried.
        """
        if self._pristine is None:
            assert self._snapshot is not None
            module = parse_ir(self._module_text(self._fn_texts))
            run_pipeline(module, self._level)
            verify_module(module)
            for fname, fn in module.functions.items():
                texts, uids = self._snapshot[fname]
                instrs = list(fn.instructions())
                if [str(instr) for instr in instrs] != texts:
                    raise RuntimeError(
                        f"pristine {fname!r} differs from the analyzed module"
                    )
                for instr, uid in zip(instrs, uids):
                    instr.uid = uid
            module.assign_uids()
            self._pristine = module
        return self._pristine

    @property
    def config(self) -> UsherConfig:
        return self._config

    @property
    def result(self) -> UsherResult:
        assert self._result is not None
        return self._result

    @property
    def plan(self) -> InstrumentationPlan:
        return self.result.plan

    @property
    def vfg(self) -> VFG:
        return self.result.vfg

    @property
    def gamma(self):
        return self.result.gamma

    @property
    def pointers(self) -> PointerResult:
        return self.prepared.pointers

    def function_names(self) -> List[str]:
        return list(self._fn_texts)

    def function_text(self, fname: str) -> str:
        """The canonical pre-pipeline IR text of one function — the
        shape :meth:`update` accepts back."""
        return self._fn_texts[fname]

    def msan_plan(self) -> InstrumentationPlan:
        return run_msan(self.prepared)

    def update(self, function_name: str, new_body: str) -> UpdateStats:
        """Replace ``function_name``'s body and re-analyze the module.

        ``new_body`` is the function's new pre-pipeline IR text (the
        dialect :meth:`function_text` returns).  Raises ``KeyError``
        for unknown functions and ``ValueError`` if the replacement
        renames the function, changes the module's function set or
        declares globals.  An update that raises (a parse or verifier
        error included) leaves the session unchanged.
        """
        if function_name not in self._fn_texts:
            raise KeyError(f"unknown function {function_name!r}")
        candidate = dict(self._fn_texts)
        candidate[function_name] = new_body.strip("\n")
        with TRACE.span("ir.parse"):
            module = parse_ir(self._module_text(candidate))
        if set(module.functions) != set(self._fn_texts):
            raise ValueError(
                "update() must keep the module's function set: "
                f"got {sorted(module.functions)}"
            )
        if self._globals_header(module) != self._header:
            raise ValueError(
                "update() must keep the module's globals: "
                f"got {sorted(module.globals)}"
            )
        # Every other text is already canonical.
        candidate[function_name] = function_to_str(
            module.functions[function_name]
        )
        stats = self._rebuild(module, edited=function_name)
        self._fn_texts = candidate
        return stats

    def query_sites(
        self, uids: Optional[Iterable[int]] = None
    ) -> Dict[int, bool]:
        """Definedness verdict per check site of the session's VFG,
        keyed by instruction uid (AND-folded over the site's operands).

        Verdicts mirror the session's Γ exactly — under Opt II they are
        answered on the rewired scratch graph, like a cold ``analyze``.
        """
        gamma = self.gamma
        wanted = set(uids) if uids is not None else None
        verdicts: Dict[int, bool] = {}
        with TRACE.span("service.query", session=self.name):
            for site in self.vfg.check_sites:
                if wanted is not None and site.instr_uid not in wanted:
                    continue
                ok = gamma.is_defined(site.node)
                verdicts[site.instr_uid] = verdicts.get(site.instr_uid, True) and ok
        return verdicts

    def explain(
        self, instr_uid: int, max_steps: int = 50
    ) -> Optional[List[FlowStep]]:
        """A shortest undefined-value flow chain into ``instr_uid``'s
        first ⊥ operand, or ``None`` when every operand is defined."""
        return explain_check_site(
            self.vfg,
            self.module,
            instr_uid,
            engine=self._explain_engine(),
        )

    def stats(self) -> Dict:
        """A JSON-safe snapshot of the session's state and last update."""
        solver_stats = self.prepared.solver_stats
        payload = {
            "name": self.name,
            "generation": self.generation,
            "config": self._config.name,
            "resolver": self._config.resolver,
            "functions": len(self._fn_texts),
            "check_sites": len(self.vfg.check_sites),
            "vfg_nodes": self.vfg.num_nodes,
            "vfg_edges": self.vfg.num_edges,
        }
        if solver_stats is not None:
            payload["solver"] = {
                "pops": solver_stats.pops,
                "facts_propagated": solver_stats.facts_propagated,
                "solve_passes": solver_stats.solve_passes,
            }
        if self.last_update is not None:
            payload["last_update"] = self.last_update.as_dict()
        return payload

    # -- rebuild pipeline -----------------------------------------------
    def _module_text(self, texts: Dict[str, str]) -> str:
        return "\n\n".join([self._header] + list(texts.values()))

    def _rebuild(
        self, pre_module: Module, edited: Optional[str]
    ) -> UpdateStats:
        with TRACE.span(
            "session.update", session=self.name, function=edited or ""
        ):
            return self._rebuild_traced(pre_module, edited)

    def _rebuild_traced(
        self, module: Module, edited: Optional[str]
    ) -> UpdateStats:
        started = time.perf_counter()
        with TRACE.span("opt_pipeline", level=self._level):
            run_pipeline(module, self._level)
        with TRACE.span("verify"):
            verify_module(module)
        snapshot = _transplant_uids(module, self._snapshot)
        prepared = prepare_module(module)
        result = run_usher(prepared, self._config)

        # Commit only once every phase has succeeded, so a failing
        # edit leaves the session as it was.
        self._snapshot = snapshot
        self._pristine = None
        self._prepared = prepared
        self._result = result
        if edited is not None:
            self.generation += 1
        stats = UpdateStats(
            function=edited,
            mode="initial" if edited is None else "rebuild",
            generation=self.generation,
            update_seconds=time.perf_counter() - started,
        )
        self.last_update = stats
        return stats

    # -- query-side engines ----------------------------------------------
    def _explain_engine(self) -> DemandEngine:
        if (
            self._explain_cache is not None
            and self._explain_cache[0] == self.generation
        ):
            return self._explain_cache[1]
        engine = DemandEngine(
            self.vfg,
            context_depth=max(1, self._config.context_depth),
            resolver="callstring",
        )
        self._explain_cache = (self.generation, engine)
        return engine


# ----------------------------------------------------------------------
# uid transplantation
# ----------------------------------------------------------------------
def _transplant_uids(module: Module, old: Optional[Snapshot]) -> Snapshot:
    """Re-assign the previous generation's uids to textually matching
    instructions of ``module``; return ``module``'s snapshot.

    Per function, the longest common prefix and (non-overlapping)
    suffix of the printed instruction streams keep their uids and the
    middle gets fresh ones, so an unchanged function keeps all of them.
    ``Module.assign_uids`` then fills every unmatched instruction with
    ids above the transplanted maximum — uid stability is what keeps
    plan comparisons and the uids a client holds (``query_sites``,
    ``explain``) aligned across edits.  With no previous snapshot (the
    initial build) the uids are left as they are.
    """
    printed = {}
    for name, fn in module.functions.items():
        instrs = list(fn.instructions())
        texts = [str(instr) for instr in instrs]
        printed[name] = (instrs, texts)
        if old is None:
            continue
        for instr in instrs:
            instr.uid = -1
        old_texts, old_uids = old[name]
        limit = min(len(texts), len(old_texts))
        prefix = 0
        while prefix < limit and texts[prefix] == old_texts[prefix]:
            instrs[prefix].uid = old_uids[prefix]
            prefix += 1
        suffix = 0
        while (
            suffix < limit - prefix
            and texts[-1 - suffix] == old_texts[-1 - suffix]
        ):
            instrs[-1 - suffix].uid = old_uids[-1 - suffix]
            suffix += 1
    if old is not None:
        module.assign_uids()
    return {
        name: (texts, [instr.uid for instr in instrs])
        for name, (instrs, texts) in printed.items()
    }
