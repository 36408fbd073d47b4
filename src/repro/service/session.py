"""Resident analysis sessions with incremental re-analysis.

An :class:`AnalysisSession` holds everything the one-shot pipeline
throws away between :func:`repro.api.analyze` calls: the parsed module,
the points-to solver (with its Pearce–Kelly order and solved bitsets),
the per-function constraint *tapes*, the VFG, and the demand engine's
memo table.  :meth:`AnalysisSession.update` replaces one function body
and re-analyzes incrementally:

* **Constraint tapes** — constraint generation is cached per function
  as a :class:`repro.analysis.shardgen.ShardResult` op tape, keyed by a
  fingerprint of the function's own text (with uids) plus everything a
  tape bakes in from outside the function: the formal parameter lists
  of direct callees and the bodies of transitively inlined allocation
  wrappers.  Only fingerprint-dirty functions are re-collected.
* **Warm solving** — when the edit only *adds* constraints for the
  dirty functions (the common grow-a-function case), the dirty tapes
  are replayed into the existing :class:`DeltaSolver`: the worklist is
  seeded from exactly the touched nodes and the solver restarts from
  its previous fixpoint, reusing the Pearce–Kelly topological order and
  every already-solved points-to set.  A monotone restart from the old
  least fixpoint under a superset constraint system reaches exactly the
  new least fixpoint, so the result is bit-identical to a cold solve.
  Otherwise the solver is rebuilt — still from cached tapes, so
  constraint generation is only paid for the dirty functions.
* **Memo carryover** — every demand-engine verdict records the set of
  functions whose VFG slice its search explored (its *closure*).  After
  an update, per-function fingerprints of the new VFG identify the
  dirty functions and only verdicts whose closure intersects them are
  dropped; the rest are re-primed into the fresh engine.

Identifier stability across edits comes from a uid transplant: the new
module's instructions are re-assigned the uids of textually identical
instructions in the previous module (whole function, else a
prefix/suffix match), and only genuinely new instructions get fresh
uids.  The differential suite pins every ``update()`` result —
points-to sets, instrumentation plans, Γ verdicts — bit-identical to a
cold :func:`repro.core.usher.prepare_module` + ``run_usher`` of the
same module.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.ir import instructions as ins
from repro.ir.module import Module
from repro.ir.parser import parse_ir
from repro.ir.printer import function_to_str, module_to_str
from repro.ir.verifier import verify_module
from repro.opt import run_pipeline
from repro.analysis import shardgen
from repro.analysis.andersen import (
    DeltaSolver,
    PointerResult,
    _recursive_functions,
)
from repro.analysis.callgraph import CallGraph
from repro.analysis.memobjects import function_object, global_object
from repro.analysis.modref import ModRefResult
from repro.analysis.parallel import fork_available, resolve_jobs
from repro.analysis.solverstats import SolverStats
from repro.analysis.tiers import resolve_tier
from repro.obs.registry import REGISTRY
from repro.obs.trace import TRACE
from repro.core.usher import (
    PreparedModule,
    UsherConfig,
    UsherResult,
    run_msan,
)
from repro.core.instrument import build_guided_plan
from repro.core.opt2 import redundant_check_elimination
from repro.core.plan import InstrumentationPlan
from repro.memssa import build_memory_ssa
from repro.options import AnalysisOptions
from repro.tinyc import compile_source
from repro.vfg.demand import DemandEngine, LazyDefinedness, State
from repro.vfg.explain import FlowStep, explain_check_site
from repro.vfg.graph import Node, Root, VFG

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

#: Closure bucket for nodes without a home function (the Usher_TL
#: summary memory node).  It is also a fingerprint bucket, so dirtiness
#: through summarized memory invalidates exactly the entries that
#: touched it.
_MEM_BUCKET = "<MEM>"


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


def _node_bucket(node: Optional[Node]) -> Optional[str]:
    """The invalidation bucket a VFG node belongs to: its function, the
    shared memory bucket for function-less nodes, ``None`` for roots
    (which exist in every graph and carry no program content)."""
    if node is None or isinstance(node, Root):
        return None
    func = getattr(node, "func", None)
    return _MEM_BUCKET if func is None else func


def _vfg_fingerprints(vfg: VFG) -> Dict[str, FrozenSet]:
    """Per-bucket structural fingerprints of a VFG.

    Every node, edge and check site is attributed to the bucket(s) of
    its endpoints, so two graphs agree on a bucket iff no node, edge or
    check site touching that bucket's function changed.  Memo closures
    are sets of buckets; an entry stays valid iff all its buckets'
    fingerprints are unchanged.
    """
    per: Dict[str, Set] = {}

    def note(bucket: Optional[str], item) -> None:
        if bucket is not None:
            per.setdefault(bucket, set()).add(item)

    for node in vfg.nodes():
        note(_node_bucket(node), ("node", node))
    for edge in vfg.edges():
        item = ("edge", edge.src, edge.dst, edge.kind, edge.callsite)
        note(_node_bucket(edge.src), item)
        note(_node_bucket(edge.dst), item)
    for site in vfg.check_sites:
        item = ("site", site.instr_uid, site.node, site.operand)
        note(site.func, item)
        note(_node_bucket(site.node), item)
    return {bucket: frozenset(items) for bucket, items in per.items()}


def _rewired_fingerprints(
    fingerprints: Dict[str, FrozenSet], base: VFG, scratch: VFG
) -> Dict[str, FrozenSet]:
    """:func:`_vfg_fingerprints` of ``scratch``, a :meth:`VFG.copy` of
    ``base`` whose edges Opt II rewired (its check sites are
    ``base``'s), derived from ``base``'s ``fingerprints``: only the
    buckets touched by added or removed edges and by new nodes are
    rebuilt."""
    added, removed = scratch.edge_changes(base)
    patched: Dict[str, Set] = {}

    def items_of(bucket: Optional[str]) -> Set:
        if bucket is None:
            return set()
        items = patched.get(bucket)
        if items is None:
            items = patched[bucket] = set(fingerprints.get(bucket, ()))
        return items

    for node in scratch.nodes()[base.num_nodes:]:
        items_of(_node_bucket(node)).add(("node", node))
    for src, dst, kind, callsite in removed:
        item = ("edge", src, dst, kind, callsite)
        items_of(_node_bucket(src)).discard(item)
        items_of(_node_bucket(dst)).discard(item)
    for src, dst, kind, callsite in added:
        item = ("edge", src, dst, kind, callsite)
        items_of(_node_bucket(src)).add(item)
        items_of(_node_bucket(dst)).add(item)
    result = dict(fingerprints)
    for bucket, items in patched.items():
        if items:
            result[bucket] = frozenset(items)
        else:
            result.pop(bucket, None)
    return result


def _dirty_buckets(
    old: Dict[str, FrozenSet], new: Dict[str, FrozenSet]
) -> Set[str]:
    return {
        bucket
        for bucket in set(old) | set(new)
        if old.get(bucket) != new.get(bucket)
    }


def _copy_module(module: Module) -> Module:
    """A deep copy of ``module``.  The IR defines no copy or pickle
    hooks, so a pickle round trip copies exactly what
    ``copy.deepcopy`` would, at a third of its cost."""
    return pickle.loads(pickle.dumps(module, pickle.HIGHEST_PROTOCOL))


# ----------------------------------------------------------------------
# Closure-tracked demand engine
# ----------------------------------------------------------------------
class _ObservedMemo(dict):
    """A memo dict that records which entries each query reads and
    writes.  :class:`repro.vfg.demand.DemandEngine` touches its memo
    only through ``.get`` and item assignment, so hooking those two
    (plus ``__getitem__``/``__contains__`` for safety) observes every
    dependency.  ``dict.update`` deliberately bypasses the hooks: bulk
    merges (parallel query joins, priming) carry no read/write record.
    """

    def __init__(self) -> None:
        super().__init__()
        self.reads: Set = set()
        self.writes: Set = set()

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is not None:
            self.reads.add(key)
        return value

    def __getitem__(self, key):
        value = super().__getitem__(key)
        self.reads.add(key)
        return value

    def __contains__(self, key) -> bool:
        present = super().__contains__(key)
        if present:
            self.reads.add(key)
        return present

    def __setitem__(self, key, value) -> None:
        self.writes.add(key)
        super().__setitem__(key, value)

    def flush(self) -> Tuple[Set, Set]:
        reads, writes = self.reads, self.writes
        self.reads, self.writes = set(), set()
        return reads, writes


class _SessionEngine(DemandEngine):
    """A demand engine whose verdicts carry invalidation closures.

    After every query the states written by the search are assigned a
    *closure*: the buckets of all written states' nodes, unioned with
    the closures of every memo entry the search read (memo splices and
    ⊤-prunes make the verdict depend on those entries' own closures —
    including re-written entries, whose previous closure still supports
    the new verdict).  A ``None`` closure means "unknown provenance"
    (e.g. the entry arrived through a closure-blind bulk merge) and is
    never carried across updates.
    """

    def __init__(
        self,
        vfg: VFG,
        context_depth: int = 1,
        resolver: str = "callstring",
    ) -> None:
        super().__init__(vfg, context_depth=context_depth, resolver=resolver)
        self._memo = _ObservedMemo()
        self.closures: Dict[State, Optional[FrozenSet[str]]] = {}

    def prime(
        self,
        entries: Dict[State, bool],
        closures: Dict[State, FrozenSet[str]],
    ) -> None:
        """Install carried-over verdicts (closure-blind bulk merge on
        the memo, explicit closures alongside)."""
        dict.update(self._memo, entries)
        self.closures.update(closures)

    def is_bottom(self, node: Optional[Node]) -> bool:
        self._memo.flush()
        verdict = super().is_bottom(node)
        self._note_closures()
        return verdict

    def find_bottom_chain(self, node: Optional[Node]):
        self._memo.flush()
        chain = super().find_bottom_chain(node)
        self._note_closures()
        return chain

    def _note_closures(self) -> None:
        reads, writes = self._memo.flush()
        if not writes:
            return
        buckets: Set[str] = set()
        unknown = False
        for state in writes:
            bucket = _node_bucket(state[0])
            if bucket is not None:
                buckets.add(bucket)
        for state in reads:
            prior = self.closures.get(state)
            if prior is None:
                unknown = True
                break
            buckets |= prior
        closure = None if unknown else frozenset(buckets)
        for state in writes:
            self.closures[state] = closure


@dataclass
class _MemoBank:
    """One carried demand engine plus the fingerprints of its graph."""

    engine: _SessionEngine
    fingerprints: Dict[str, FrozenSet]


# ----------------------------------------------------------------------
# Tape fingerprints and replay solvers
# ----------------------------------------------------------------------
def _tape_fingerprint(
    module: Module,
    fname: str,
    wrappers: FrozenSet[str],
    recursive: Set[str],
):
    """Everything a function's constraint tape depends on.

    A tape bakes in, beyond the function's own instructions (and uids):
    the bodies of transitively reached allocation wrappers (their
    constraints are cloned into the caller's tape per call site) and
    the formal parameter lists of non-wrapper direct callees (argument
    binding emits ``copy(actual, PVar(callee, formal))``).
    """
    visited: Dict[str, Tuple] = {}
    externs: Dict[str, Tuple] = {}
    stack = [fname]
    while stack:
        name = stack.pop()
        if name in visited:
            continue
        fn = module.functions.get(name)
        if fn is None:
            continue
        visited[name] = (
            tuple(fn.params),
            function_to_str(fn, show_uids=True),
        )
        for instr in fn.instructions():
            if not isinstance(instr, ins.Call):
                continue
            callee = instr.callee
            if not isinstance(callee, str):
                continue
            if callee in wrappers and callee not in recursive:
                stack.append(callee)
            elif callee not in visited:
                callee_fn = module.functions.get(callee)
                externs[callee] = (
                    tuple(callee_fn.params) if callee_fn is not None else (),
                    callee in wrappers,
                )
    return (
        tuple(sorted((name,) + entry for name, entry in visited.items())),
        tuple(
            sorted(
                (name, params, wrapped)
                for name, (params, wrapped) in externs.items()
            )
        ),
    )


def _collect_tape(
    module: Module,
    wrappers: FrozenSet[str],
    recursive: Set[str],
    fname: str,
):
    """Generate one function's constraint tape in-process."""
    collector = shardgen._collector_class()(
        module, frozenset(wrappers), set(recursive), [fname]
    )
    return collector.result_shard


def _normalized_ops(shard) -> Set[Tuple]:
    """A shard's op tape as a set of symbol-level tuples, comparable
    across collector instances (symbols are value objects)."""
    syms = shard.syms
    from repro.analysis.andersen import OP_GEP, OP_ICALL

    out: Set[Tuple] = set()
    for op in shard.ops:
        kind = op[0]
        if kind == OP_GEP:
            out.add((kind, syms[op[1]], syms[op[2]], op[3]))
        elif kind == OP_ICALL:
            out.add(
                (
                    kind,
                    syms[op[1]],
                    op[2],
                    tuple(syms[a] if a >= 0 else None for a in op[3]),
                    syms[op[4]] if op[4] >= 0 else None,
                )
            )
        else:
            out.add((kind, syms[op[1]], syms[op[2]]))
    return out


class _TapeSolver(DeltaSolver):
    """A :class:`DeltaSolver` seeded from cached per-function tapes.

    Replaying the tapes in module order reproduces exactly the
    constraint stream the serial generator would emit: every solver add
    is idempotent, duplicate wrapper-clone ops (each per-function
    collector re-derives shared clones) first occur at the same stream
    position as serially, and ``alloc_objects`` dedupes append-if-absent
    — so the solver state, including list orders, matches a cold build.
    """

    def __init__(
        self,
        module: Module,
        wrappers: FrozenSet[str],
        tapes: Sequence,
        stats: SolverStats,
        recursive: Set[str],
        schedule: str,
        lazy: bool,
        storage: str = "int",
    ) -> None:
        self._session_tapes = list(tapes)
        super().__init__(
            module,
            wrappers,
            stats=stats,
            jobs=1,
            recursive=recursive,
            schedule=schedule,
            lazy=lazy,
            storage=storage,
        )

    def _seed(self) -> None:
        for glob in self.module.globals.values():
            self.global_objects[glob.name] = global_object(
                glob.name, glob.initialized, glob.size, glob.is_array
            )
        for name in self.module.functions:
            self.function_objects[name] = function_object(name)
        self._merge_shards(self._session_tapes)


# ----------------------------------------------------------------------
# Update statistics
# ----------------------------------------------------------------------
@dataclass
class UpdateStats:
    """What one :meth:`AnalysisSession.update` (or the initial build)
    cost and reused."""

    function: Optional[str]
    mode: str  #: ``initial`` | ``warm`` | ``rebuild``
    generation: int
    dirty_functions: Tuple[str, ...]
    dirty_nodes: int
    total_nodes: int
    tapes_reused: int
    tapes_regenerated: int
    memos_carried: int
    memos_dropped: int
    update_seconds: float

    @property
    def dirty_fraction(self) -> float:
        return self.dirty_nodes / self.total_nodes if self.total_nodes else 0.0

    def as_dict(self) -> Dict:
        return {
            "function": self.function,
            "mode": self.mode,
            "generation": self.generation,
            "dirty_functions": sorted(self.dirty_functions),
            "dirty_nodes": self.dirty_nodes,
            "total_nodes": self.total_nodes,
            "dirty_fraction": self.dirty_fraction,
            "tapes_reused": self.tapes_reused,
            "tapes_regenerated": self.tapes_regenerated,
            "memos_carried": self.memos_carried,
            "memos_dropped": self.memos_dropped,
            "update_seconds": self.update_seconds,
        }


# ----------------------------------------------------------------------
# The session
# ----------------------------------------------------------------------
class AnalysisSession:
    """A resident analysis of one module under one configuration.

    Construct with :meth:`from_source` (TinyC) or :meth:`from_ir`;
    edit with :meth:`update`; query with :meth:`query_sites` /
    :meth:`explain`.  All results are bit-identical to a cold analysis
    of the session's current module.
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
        opts = options if options is not None else AnalysisOptions()
        self._options = opts
        self._tier = resolve_tier(opts.tier)
        self._schedule = opts.schedule or "wave"
        # Deferred: "auto" resolves against each rebuild's module size.
        self._storage = opts.storage
        self._jobs = opts.jobs
        self._config = self._resolve_config(opts, usher_config)

        # Source of truth: canonical pre-pipeline texts.  The printed
        # post-pipeline module is not parseable (memory-SSA φs), so the
        # session reassembles and re-lowers from these on every update.
        self._header = self._globals_header(module)
        self._fn_texts: Dict[str, str] = {
            fname: function_to_str(fn)
            for fname, fn in module.functions.items()
        }

        #: post-pipeline, never memory-SSA'd — what the solvers index.
        self._pristine: Optional[Module] = None
        self._prepared: Optional[PreparedModule] = None
        self._result: Optional[UsherResult] = None

        # Incremental state.
        self._base_tapes: Dict[str, Tuple[Tuple, object]] = {}
        self._refined_tapes: Dict[str, Tuple[Tuple, object]] = {}
        self._base_solver: Optional[DeltaSolver] = None
        self._refined_solver: Optional[DeltaSolver] = None
        self._refined_wrappers: Optional[FrozenSet[str]] = None
        self._recursive: Optional[Set[str]] = None
        self._banks: Dict[str, _MemoBank] = {}
        self._main_fps: Optional[Dict[str, FrozenSet]] = None
        self._memos_carried = 0
        self._memos_dropped = 0
        self._explain_cache: Optional[Tuple[int, _SessionEngine]] = None
        self._query_pool = None
        self._query_pool_gen = -1

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
        overrides: Dict = {"jobs": 1}
        if usher_config is not None:
            config = usher_config
            if options.demand is not None:
                overrides["demand"] = options.demand
        else:
            name = options.config or "usher"
            factory = _BASE_CONFIGS.get(name)
            if factory is None:
                raise ValueError(
                    f"unknown session config {name!r} (msan is a plan — "
                    f"use AnalysisSession.msan_plan())"
                )
            config = factory()
            # Sessions default to demand-driven Γ: that is what memo
            # carryover accelerates.  Verdicts are identical either way.
            overrides["demand"] = (
                True if options.demand is None else options.demand
            )
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
        deep-copy it to feed a cold ``prepare_module`` oracle."""
        assert self._pristine is not None
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
        """Replace ``function_name``'s body and re-analyze incrementally.

        ``new_body`` is the function's new pre-pipeline IR text (the
        dialect :meth:`function_text` returns).  Raises ``KeyError``
        for unknown functions and ``ValueError`` if the replacement
        renames the function or changes the module's function set.
        """
        if function_name not in self._fn_texts:
            raise KeyError(f"unknown function {function_name!r}")
        candidate = dict(self._fn_texts)
        candidate[function_name] = new_body.strip("\n")
        text = "\n\n".join([self._header] + list(candidate.values()))
        module = parse_ir(text)
        if set(module.functions) != set(self._fn_texts):
            raise ValueError(
                "update() must keep the module's function set: "
                f"got {sorted(module.functions)}"
            )
        self._fn_texts = {
            fname: function_to_str(fn)
            for fname, fn in module.functions.items()
        }
        return self._rebuild(module, edited=function_name)

    def query_sites(
        self,
        uids: Optional[Iterable[int]] = None,
        jobs: Optional[int] = None,
    ) -> Dict[int, bool]:
        """Definedness verdict per check site of the session's VFG,
        keyed by instruction uid (AND-folded over the site's operands).

        Verdicts mirror the session's Γ exactly — under Opt II they are
        answered on the rewired scratch graph, like a cold ``analyze``.
        ``jobs`` (explicit > session options > ``REPRO_JOBS`` > serial)
        fans the batch across the session's resident worker pool —
        forked once per generation and reused for every later batch.
        Verdicts are identical regardless of ``jobs``.
        """
        gamma = self.gamma
        # Demand configurations answer through the carried engine (and
        # can fan out); eager Γ is a finished map — lookups are free.
        engine = gamma.engine if isinstance(gamma, LazyDefinedness) else None
        wanted = set(uids) if uids is not None else None
        site_list = (
            engine.vfg.check_sites
            if engine is not None
            else self.vfg.check_sites
        )
        sites = [
            (index, site)
            for index, site in enumerate(site_list)
            if wanted is None or site.instr_uid in wanted
        ]
        if jobs is None:
            jobs = self._jobs
        effective = min(resolve_jobs(jobs), len(sites))
        if engine is not None and effective > 1 and fork_available():
            pool = self._ensure_query_pool(effective, engine)
            if pool is not None:
                verdicts = pool.query_sites([index for index, _ in sites])
                if verdicts is not None:
                    return verdicts
        verdicts: Dict[int, bool] = {}
        for _index, site in sites:
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
            "tier": self._tier,
            "storage": (
                solver_stats.storage if solver_stats is not None else "int"
            ),
            "resolver": self._config.resolver,
            "demand": self._config.demand,
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

    def close(self) -> None:
        """Shut down the resident worker pool (if any)."""
        if self._query_pool is not None:
            self._query_pool.shutdown()
            self._query_pool = None

    def __enter__(self) -> "AnalysisSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- rebuild pipeline -----------------------------------------------
    def _rebuild(
        self, pre_module: Module, edited: Optional[str]
    ) -> UpdateStats:
        with TRACE.span(
            "session.update",
            session=self.name,
            function=edited or "",
            tier=self._tier,
        ):
            return self._rebuild_traced(pre_module, edited)

    def _rebuild_traced(
        self, pre_module: Module, edited: Optional[str]
    ) -> UpdateStats:
        started = time.perf_counter()
        module = pre_module
        run_pipeline(module, self._level)
        verify_module(module)
        if self._pristine is not None:
            _transplant_uids(module, self._pristine)
        self._pristine = module

        prepare_started = time.perf_counter()
        tape_pool = self._tape_pool_for(module)
        try:
            pointers, mode, reused, regenerated = self._pointer_pass(
                module, tape_pool
            )
        finally:
            if tape_pool is not None:
                tape_pool.shutdown()
        working = _copy_module(module)
        callgraph = CallGraph(working, pointers)
        modref = ModRefResult(working, pointers, callgraph)
        build_memory_ssa(working, pointers, modref)
        self._prepared = PreparedModule(
            working,
            pointers,
            callgraph,
            modref,
            time.perf_counter() - prepare_started,
        )

        self._memos_carried = 0
        self._memos_dropped = 0
        dirty_buckets, dirty_nodes, total_nodes = self._run_config()
        self._explain_cache = None
        if self._query_pool is not None:
            self._query_pool.shutdown()
            self._query_pool = None

        if edited is None:
            mode = "initial"
        else:
            self.generation += 1
        stats = UpdateStats(
            function=edited,
            mode=mode,
            generation=self.generation,
            dirty_functions=tuple(sorted(dirty_buckets)),
            dirty_nodes=dirty_nodes,
            total_nodes=total_nodes,
            tapes_reused=reused,
            tapes_regenerated=regenerated,
            memos_carried=self._memos_carried,
            memos_dropped=self._memos_dropped,
            update_seconds=time.perf_counter() - started,
        )
        self.last_update = stats
        REGISTRY.record_update(
            stats, session=self.name, tier=self._tier
        )
        return stats

    def _tape_pool_for(self, module: Module):
        jobs = resolve_jobs(self._jobs) if self._jobs is not None else 1
        if jobs < 2 or len(module.functions) < 2 or not fork_available():
            return None
        from repro.service.pool import ResidentPool

        pool = ResidentPool(jobs, module=module)
        try:
            pool.start()
        except OSError:
            return None
        return pool

    # -- pointer pass ----------------------------------------------------
    def _pointer_pass(
        self, module: Module, tape_pool
    ) -> Tuple[PointerResult, str, int, int]:
        recursive = _recursive_functions(module)
        if self._recursive is not None and recursive != self._recursive:
            # Recursion changes reshape constraint generation globally
            # (wrapper eligibility, clone instantiation): drop all
            # caches rather than reason about the blast radius.
            self._base_tapes.clear()
            self._refined_tapes.clear()
            self._base_solver = None
            self._refined_solver = None
            self._refined_wrappers = None
        first_round = self._recursive is None
        self._recursive = recursive
        counters = {"reused": 0, "regenerated": 0}

        base, base_mode = self._run_solver_pass(
            module,
            frozenset(),
            self._base_tapes,
            self._base_solver,
            recursive,
            counters,
            tape_pool,
        )
        self._base_solver = base
        base.force_wrapper_candidates()
        with base.stats.phase("wrappers"):
            wrappers = frozenset(base.detect_wrappers())
        if not wrappers:
            self._refined_solver = None
            self._refined_tapes.clear()
            self._refined_wrappers = None
            base.force_all()
            result = base.result()
            modes = [base_mode]
        else:
            if wrappers != self._refined_wrappers:
                self._refined_tapes.clear()
                self._refined_solver = None
            self._refined_wrappers = wrappers
            refined, refined_mode = self._run_solver_pass(
                module,
                wrappers,
                self._refined_tapes,
                self._refined_solver,
                recursive,
                counters,
                tape_pool,
            )
            self._refined_solver = refined
            refined.force_all()
            result = refined.result()
            result.wrappers = set(wrappers)
            modes = [base_mode, refined_mode]
        if first_round:
            mode = "initial"
        elif all(m == "warm" for m in modes):
            mode = "warm"
        else:
            mode = "rebuild"
        return result, mode, counters["reused"], counters["regenerated"]

    def _run_solver_pass(
        self,
        module: Module,
        wrappers: FrozenSet[str],
        cache: Dict[str, Tuple[Tuple, object]],
        prev_solver: Optional[DeltaSolver],
        recursive: Set[str],
        counters: Dict[str, int],
        tape_pool,
    ) -> Tuple[DeltaSolver, str]:
        tapes: List = []
        dirty: List[Tuple[str, Optional[object], object]] = []
        missing: List[str] = []
        for fname in module.functions:
            fingerprint = _tape_fingerprint(module, fname, wrappers, recursive)
            cached = cache.get(fname)
            if cached is not None and cached[0] == fingerprint:
                tapes.append(cached[1])
                counters["reused"] += 1
            else:
                tapes.append((fname, fingerprint, cached))
                missing.append(fname)
        if missing:
            fresh = self._collect_tapes(
                module, wrappers, recursive, missing, tape_pool
            )
            for index, entry in enumerate(tapes):
                if not isinstance(entry, tuple) or len(entry) != 3:
                    continue
                fname, fingerprint, cached = entry
                shard = fresh[fname]
                cache[fname] = (fingerprint, shard)
                tapes[index] = shard
                dirty.append(
                    (fname, cached[1] if cached is not None else None, shard)
                )
                counters["regenerated"] += 1

        if prev_solver is not None and self._warm_eligible(
            prev_solver, module, recursive, dirty
        ):
            return (
                self._warm_solve(prev_solver, module, recursive, dirty, tapes),
                "warm",
            )
        from repro.analysis.bitsets import resolve_storage

        module_ops = sum(
            1
            for function in module.functions.values()
            for _ in function.instructions()
        )
        storage = resolve_storage(self._storage, ops=module_ops)
        stats = SolverStats(
            solver=DeltaSolver.kind,
            schedule=self._schedule,
            tier=self._tier,
            storage=storage,
        )
        solver = _TapeSolver(
            module,
            frozenset(wrappers),
            tapes,
            stats,
            set(recursive),
            self._schedule,
            self._tier == "lazy",
            storage,
        )
        if self._tier == "unified":
            from repro.analysis.unify import presolve_unify

            presolve_unify(solver)
        solver.solve()
        return solver, "rebuild"

    def _collect_tapes(
        self,
        module: Module,
        wrappers: FrozenSet[str],
        recursive: Set[str],
        names: List[str],
        tape_pool,
    ) -> Dict[str, object]:
        if tape_pool is not None and len(names) > 1:
            shards = tape_pool.collect_tapes(names, wrappers, recursive)
            if shards is not None:
                return shards
        return {
            fname: _collect_tape(module, wrappers, recursive, fname)
            for fname in names
        }

    @staticmethod
    def _warm_eligible(
        solver: DeltaSolver,
        module: Module,
        recursive: Set[str],
        dirty: List[Tuple[str, Optional[object], object]],
    ) -> bool:
        # A warm restart is exact only when the new constraint system
        # is a superset of the old one (monotone restart from the old
        # LFP) and nothing the solver resolved dynamically went stale:
        # the function set and every signature must be unchanged
        # (indirect-call binding reads formals from the live module)
        # and every dirty tape must only add ops.
        if solver._lazy and not solver._complete:
            # A partially forced lazy solver cannot absorb new
            # constraints through its slice bookkeeping; rebuild.
            return False
        old_module = solver.module
        if set(old_module.functions) != set(module.functions):
            return False
        for name, fn in module.functions.items():
            if tuple(fn.params) != tuple(old_module.functions[name].params):
                return False
        if set(recursive) != set(solver._recursive):
            return False
        for _fname, old_shard, new_shard in dirty:
            if old_shard is None:
                return False
            if not _normalized_ops(old_shard) <= _normalized_ops(new_shard):
                return False
        return True

    @staticmethod
    def _warm_solve(
        solver: DeltaSolver,
        module: Module,
        recursive: Set[str],
        dirty: List[Tuple[str, Optional[object], object]],
        all_tapes: List,
    ) -> DeltaSolver:
        with solver.stats.phase("constraints"):
            for _fname, _old, new_shard in dirty:
                solver._replay_shard(new_shard)
        # Generation-side tables are rebuilt from all tapes in module
        # order so list orders match a cold build; ``call_targets`` is
        # only union-merged — its dynamically bound entries derive from
        # old points-to facts, all of which the cold solve rediscovers.
        solver.alloc_objects = {}
        solver.clone_base = {}
        solver._instantiated = set()
        for shard in all_tapes:
            for uid, targets in shard.call_targets.items():
                solver.call_targets.setdefault(uid, set()).update(targets)
            solver.clone_base.update(shard.clone_base)
            solver._instantiated.update(shard.instantiated)
            for uid, objs in shard.alloc_objects.items():
                known = solver.alloc_objects.setdefault(uid, [])
                for obj in objs:
                    if obj not in known:
                        known.append(obj)
        solver.module = module
        solver._recursive = set(recursive)
        solver.solve()
        return solver

    # -- configuration run ----------------------------------------------
    def _run_config(self) -> Tuple[Set[str], int, int]:
        config = self._config
        prepared = self.prepared
        started = time.perf_counter()
        vfg = prepared.vfg(config)
        fingerprints = _vfg_fingerprints(vfg)
        if self._main_fps is None:
            dirty = set(fingerprints)
        else:
            dirty = _dirty_buckets(self._main_fps, fingerprints)
        dirty_nodes = sum(
            1 for node in vfg.nodes() if _node_bucket(node) in dirty
        )
        total_nodes = vfg.num_nodes
        self._main_fps = fingerprints

        opt2_stats = None
        if config.opt2:
            factory = (
                partial(self._opt2_engine_factory, vfg, fingerprints)
                if config.demand
                else None
            )
            gamma, opt2_stats = redundant_check_elimination(
                prepared.module,
                vfg,
                prepared.callgraph,
                config.context_depth,
                resolver=config.resolver,
                interprocedural=config.opt2_interproc,
                demand=config.demand,
                jobs=config.jobs,
                engine_factory=factory,
            )
        elif config.demand:
            engine = self._carry_bank("main", vfg, fingerprints)
            engine.query_sites(vfg.check_sites, jobs=config.jobs)
            gamma = engine.gamma()
        else:
            gamma = prepared.gamma(config)
        plan, guided_stats = build_guided_plan(
            prepared.module,
            vfg,
            gamma,
            prepared.callgraph,
            opt1=config.opt1,
            name=config.name,
        )
        self._result = UsherResult(
            config=config,
            plan=plan,
            vfg=vfg,
            gamma=gamma,
            guided_stats=guided_stats,
            opt2_stats=opt2_stats,
            analysis_seconds=time.perf_counter() - started,
        )
        return dirty, dirty_nodes, total_nodes

    def _opt2_engine_factory(
        self, base: VFG, base_fps: Dict[str, FrozenSet], scratch: VFG
    ) -> _SessionEngine:
        return self._carry_bank(
            "opt2", scratch, _rewired_fingerprints(base_fps, base, scratch)
        )

    def _carry_bank(
        self,
        bank: str,
        vfg: VFG,
        fingerprints: Dict[str, FrozenSet],
        resolver: Optional[str] = None,
        context_depth: Optional[int] = None,
    ) -> _SessionEngine:
        resolver = resolver or self._config.resolver
        if context_depth is None:
            context_depth = self._config.context_depth
        engine = _SessionEngine(
            vfg, context_depth=context_depth, resolver=resolver
        )
        old = self._banks.get(bank)
        if old is not None and resolver == "callstring":
            dirty = _dirty_buckets(old.fingerprints, fingerprints)
            carried: Dict[State, bool] = {}
            closures: Dict[State, FrozenSet[str]] = {}
            for state, verdict in old.engine._memo.items():
                closure = old.engine.closures.get(state)
                if closure is not None and not (closure & dirty):
                    carried[state] = verdict
                    closures[state] = closure
            engine.prime(carried, closures)
            self._memos_carried += len(carried)
            self._memos_dropped += len(old.engine._memo) - len(carried)
        elif old is not None:
            self._memos_dropped += len(old.engine._memo)
        self._banks[bank] = _MemoBank(engine, fingerprints)
        return engine

    # -- query-side engines ----------------------------------------------
    def _explain_engine(self) -> _SessionEngine:
        if (
            self._explain_cache is not None
            and self._explain_cache[0] == self.generation
        ):
            return self._explain_cache[1]
        assert self._main_fps is not None
        engine = self._carry_bank(
            "explain",
            self.vfg,
            self._main_fps,
            resolver="callstring",
            context_depth=max(1, self._config.context_depth),
        )
        self._explain_cache = (self.generation, engine)
        return engine

    def _ensure_query_pool(self, jobs: int, engine: _SessionEngine):
        if (
            self._query_pool is not None
            and self._query_pool_gen == self.generation
            and self._query_pool.jobs >= jobs
        ):
            return self._query_pool
        if self._query_pool is not None:
            self._query_pool.shutdown()
            self._query_pool = None
        from repro.service.pool import ResidentPool

        pool = ResidentPool(jobs, engine=engine)
        try:
            pool.start()
        except OSError:
            return None
        self._query_pool = pool
        self._query_pool_gen = self.generation
        return pool


# ----------------------------------------------------------------------
# uid transplantation
# ----------------------------------------------------------------------
def _transplant_uids(module: Module, old: Module) -> None:
    """Re-assign the previous module's uids to textually matching
    instructions of the new one.

    Per function: identical text copies uids positionally; otherwise
    the longest common prefix and (non-overlapping) suffix of the
    instruction streams keep their uids and the middle gets fresh ones.
    ``Module.assign_uids`` then fills every unmatched instruction with
    ids above the transplanted maximum — uid stability is what keeps
    tape fingerprints, memo closures and plan comparisons aligned
    across edits.
    """
    for fn in module.functions.values():
        for instr in fn.instructions():
            instr.uid = -1
    for name, fn_new in module.functions.items():
        fn_old = old.functions.get(name)
        if fn_old is None:
            continue
        new_instrs = list(fn_new.instructions())
        old_instrs = list(fn_old.instructions())
        if function_to_str(fn_new) == function_to_str(fn_old):
            for instr_new, instr_old in zip(new_instrs, old_instrs):
                instr_new.uid = instr_old.uid
            continue
        new_texts = [str(instr) for instr in new_instrs]
        old_texts = [str(instr) for instr in old_instrs]
        limit = min(len(new_texts), len(old_texts))
        prefix = 0
        while prefix < limit and new_texts[prefix] == old_texts[prefix]:
            new_instrs[prefix].uid = old_instrs[prefix].uid
            prefix += 1
        suffix = 0
        while (
            suffix < limit - prefix
            and new_texts[-1 - suffix] == old_texts[-1 - suffix]
        ):
            new_instrs[-1 - suffix].uid = old_instrs[-1 - suffix].uid
            suffix += 1
    module.assign_uids()
