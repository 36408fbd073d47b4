"""Demand-driven definedness: answer Γ for one node by VFG slicing.

Whole-program resolution (:func:`repro.vfg.definedness.resolve_definedness`)
walks forward from the F root and labels every node it reaches — the
right tool when Γ is needed for the entire graph, wasteful when only a
handful of check sites matter (``repro check --explain``, on-demand DOT
coloring, Opt II's re-resolution).  This module answers the single-node
question by *backward* slicing from the queried node toward the roots,
in the style of Sui & Xue's demand-driven value-flow refinement: only
the queried node's backward slice is ever visited, the search stops the
moment a realizable ⊥-path is found, and per-(node, context) verdicts
are memoized and shared across successive queries.

Both resolvers are supported and both are *bit-identical* to their
whole-program oracle (differentially tested):

* ``callstring`` — k-limited call strings (§3.3, the paper's setting is
  k = 1).  A backward step must compute the exact *preimage* of the
  forward transition :func:`~repro.vfg.definedness.step_context`.
  Because the forward push truncates at depth k, the preimage of a call
  edge is not a single context but a *set* of them; backward states
  therefore carry a context **constraint** ``(frames, open)``: the set
  of forward call strings beginning with ``frames`` (any suffix up to
  depth k when ``open``, exactly ``frames`` otherwise).  Every backward
  edge maps a constraint to the exact preimage constraints, so a
  backward path from the query to ``(F, constraint ∋ ())`` exists iff a
  forward realizable path exists — the verdicts match the oracle
  exactly, state by state.

* ``summary`` — unbounded context via the tabulation summaries of
  :mod:`repro.vfg.tabulation`.  A realizable forward path is
  phase 0 (intra/ret/summary edges) then phase 1 (intra/call/summary);
  the demand query runs the same automaton backward from the target and
  accepts at ``(F, phase 0)``.  Summaries are computed once per engine
  and reused by every query.

Memoization policy (what makes batched queries cheap):

* a search that *succeeds* marks every state on the discovered ⊥-path
  (it can reach an accepting state) — and may splice into a previously
  memoized ⊥ state mid-search;
* a search that *exhausts* marks every visited state ⊤ — exhaustion
  means the entire backward closure of each visited state was explored
  and contained no accepting state;
* states already memoized ⊤ are pruned, states memoized ⊥ end the
  search immediately.

Engine invalidation is by construction: an engine captures one VFG and
its memo is valid only for that graph's edge set.  Opt II, which
rewires edges on a scratch copy, builds a *fresh* engine for the
scratch graph (see :func:`repro.core.opt2.redundant_check_elimination`)
rather than mutating a queried one.
"""

from __future__ import annotations

import time
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.solverstats import QueryStats
from repro.obs.trace import TRACE
from repro.vfg.definedness import Definedness, step_context
from repro.vfg.graph import BOT, CALL, INTRA, RET, CheckSite, Edge, Node, Root, VFG

Context = Tuple[int, ...]
#: A backward context constraint: (frames, open).  Denotes the forward
#: call strings that start with ``frames`` — any completion up to the
#: engine depth when ``open`` is True, exactly ``frames`` otherwise.
Constraint = Tuple[Context, bool]
#: A backward search state.  ``callstring``: (node, frames, open);
#: ``summary``: (node, phase).
State = Tuple

#: The initial constraint of every query: any forward context at all.
ANY: Constraint = ((), True)


def _call_preimages(
    frames: Context, open_: bool, callsite: Optional[int], depth: int
) -> List[Constraint]:
    """Constraints on ctx' with ``step_context(ctx', CALL, cs) ∈ S``.

    Forward, a call edge maps ctx' to ``((cs,) + ctx')[:depth]`` — the
    result always begins with ``cs`` and has length ≥ 1.
    """
    if not frames:
        # S is either exactly {()} (closed: no preimage, results are
        # never empty) or every context (open: every ctx' qualifies).
        return [ANY] if open_ else []
    if frames[0] != callsite:
        return []
    if not open_ and len(frames) < depth:
        # No truncation happened: ctx' is exactly the popped frames.
        return [(frames[1:], False)]
    # Truncation may have dropped one frame of ctx' (len(frames) == depth)
    # or S was open anyway: any completion of the popped frames.
    return [(frames[1:], True)]


def _ret_preimages(
    frames: Context, open_: bool, callsite: Optional[int], depth: int
) -> List[Constraint]:
    """Constraints on ctx' with ``step_context(ctx', RET, cs) ∈ S``.

    Forward, a return edge maps ``()`` to ``()`` (truncated string, any
    return allowed) and ``(cs,) + t`` to ``t``; other contexts are
    unrealizable.
    """
    out: List[Constraint] = []
    if len(frames) + 1 <= depth:
        out.append(((callsite,) + frames, open_))
    if not frames:
        # The empty forward context survives any return unchanged.
        out.append(((), False))
    return out


class DemandEngine:
    """Backward-slicing definedness oracle for one VFG.

    Answers ``Γ(node)`` per query, memoizing verdicts across queries.
    ``resolver`` selects the context-matching discipline; verdicts are
    bit-identical to the matching whole-program resolver.
    """

    def __init__(
        self,
        vfg: VFG,
        context_depth: int = 1,
        resolver: str = "callstring",
        stats: Optional[QueryStats] = None,
    ) -> None:
        if resolver not in ("callstring", "summary"):
            raise ValueError(f"unknown resolver {resolver!r}")
        if resolver == "callstring" and context_depth < 0:
            raise ValueError("context_depth must be >= 0")
        self.vfg = vfg
        self.resolver = resolver
        self.context_depth = -1 if resolver == "summary" else context_depth
        self.stats = stats or QueryStats(
            resolver=resolver,
            context_depth=self.context_depth,
            graph_nodes=vfg.num_nodes,
        )
        #: state -> verdict (True = a realizable ⊥-path exists through it)
        self._memo: Dict[State, bool] = {}
        #: summary mode: reverse summary edges, built lazily once.
        self._rev_summaries: Optional[Dict[Node, List[Node]]] = None

    # -- public surface ------------------------------------------------
    def is_bottom(self, node: Optional[Node]) -> bool:
        """Γ(node) = ⊥?  Mirrors the oracle: constants (``None``) and
        the roots themselves are never ⊥."""
        if node is None or isinstance(node, Root):
            return False
        started = time.perf_counter()
        if TRACE.enabled:
            with TRACE.span("demand.query") as span:
                verdict, states, nodes, memo_hit, cutoff = self._search(
                    self._start_states(node)
                )
                span.tag(bottom=verdict, states=states, memo_hit=memo_hit)
        else:
            verdict, states, nodes, memo_hit, cutoff = self._search(
                self._start_states(node)
            )
        self.stats.note_query(
            bottom=verdict,
            states=states,
            nodes=nodes,
            memo_hit=memo_hit,
            early_cutoff=cutoff,
            seconds=time.perf_counter() - started,
        )
        self.stats.memo_entries = len(self._memo)
        return verdict

    def is_defined(self, node: Optional[Node]) -> bool:
        return not self.is_bottom(node)

    def query_nodes(self, nodes: Iterable[Optional[Node]]) -> Dict[Node, bool]:
        """Batched mode: Γ for many nodes, sharing one memo table.

        Returns ``{node: is_defined}``; ``None`` entries are skipped
        (constants are trivially defined).
        """
        verdicts: Dict[Node, bool] = {}
        for node in nodes:
            if node is None:
                continue
            verdicts[node] = self.is_defined(node)
        return verdicts

    def query_sites(self, sites: Sequence[CheckSite]) -> Dict[int, bool]:
        """Γ per check site, keyed by instruction uid: an instruction is
        "defined" iff every checked operand node is ⊤."""
        sites = list(sites)
        with TRACE.span("demand.query_sites", sites=len(sites)):
            verdicts: Dict[int, bool] = {}
            for site in sites:
                ok = self.is_defined(site.node)
                verdicts[site.instr_uid] = (
                    verdicts.get(site.instr_uid, True) and ok
                )
            return verdicts

    def gamma(self) -> "LazyDefinedness":
        """A :class:`Definedness`-compatible lazy view over this engine."""
        return LazyDefinedness(self)

    def find_bottom_chain(
        self, node: Optional[Node]
    ) -> Optional[List[Tuple[Node, Optional[Edge]]]]:
        """A shortest realizable F → ``node`` chain, or ``None`` if ⊤.

        Each element is ``(node, edge taken into it)`` in forward
        order, the F root first — the shape
        :func:`repro.vfg.explain.steps_from_chain` renders.  Only the
        backward slice of ``node`` is explored; ⊤-memoized states prune
        the search (sound: they lie on no ⊥-path), ⊥-memoized states
        are *not* spliced so the returned chain is complete and
        shortest.  Callstring mode only (summary-mode paths hop over
        summary edges, which are not concrete value flows).
        """
        if self.resolver != "callstring":
            raise ValueError("find_bottom_chain requires the callstring resolver")
        if node is None or isinstance(node, Root):
            return None
        from collections import deque

        started = time.perf_counter()
        start_states = self._start_states(node)
        parents: Dict[State, Tuple[Optional[State], Optional[Edge]]] = {
            s: (None, None) for s in start_states
        }
        queue = deque(start_states)
        touched: Set[Node] = set()
        expanded = 0
        goal: Optional[State] = None
        while queue:
            state = queue.popleft()
            expanded += 1
            touched.add(state[0])
            if self._accepting(state):
                goal = state
                break
            for pred, edge in self._predecessors(state):
                # ⊤-memoized states lie on no ⊥-path: prune.  ⊥-memoized
                # states are NOT spliced — the BFS must run through to F
                # so the chain is complete and shortest.
                if self._memo.get(pred) is False or pred in parents:
                    continue
                parents[pred] = (state, edge)
                queue.append(pred)
        if goal is not None:
            current2: Optional[State] = goal
            while current2 is not None:
                self._memo[current2] = True
                current2 = parents[current2][0]
        else:
            for state in parents:
                self._memo[state] = False
        self.stats.note_query(
            bottom=goal is not None,
            states=expanded,
            nodes=len(touched),
            memo_hit=False,
            early_cutoff=goal is not None and bool(queue),
            seconds=time.perf_counter() - started,
        )
        self.stats.memo_entries = len(self._memo)
        if goal is None:
            return None
        # The backward parent chain goal → query start *is* the forward
        # F → node path: walk it and emit (node, incoming edge) pairs.
        chain: List[Tuple[Node, Optional[Edge]]] = []
        current: Optional[State] = goal
        incoming: Optional[Edge] = None
        while current is not None:
            chain.append((current[0], incoming))
            nxt, edge = parents[current]
            incoming = edge
            current = nxt
        return chain

    # -- search core ---------------------------------------------------
    def _start_states(self, node: Node) -> List[State]:
        if self.resolver == "callstring":
            return [(node, ANY[0], ANY[1])]
        return [(node, 1), (node, 0)]

    def _accepting(self, state: State) -> bool:
        if self.resolver == "callstring":
            node, frames, _open = state
            return node == BOT and not frames
        return state == (BOT, 0)

    def _predecessors(self, state: State):
        """Backward expansion: exact preimages across incoming edges."""
        if self.resolver == "callstring":
            node, frames, open_ = state
            depth = self.context_depth
            for edge in self.vfg.deps_of(node):
                if depth == 0 or edge.kind == INTRA:
                    yield (edge.src, frames, open_), edge
                elif edge.kind == CALL:
                    for f, o in _call_preimages(
                        frames, open_, edge.callsite, depth
                    ):
                        yield (edge.src, f, o), edge
                elif edge.kind == RET:
                    for f, o in _ret_preimages(
                        frames, open_, edge.callsite, depth
                    ):
                        yield (edge.src, f, o), edge
            return
        # Summary mode: reversed two-phase automaton.
        node, phase = state
        for edge in self.vfg.deps_of(node):
            if edge.kind == INTRA:
                yield (edge.src, phase), edge
            elif edge.kind == RET:
                if phase == 0:
                    yield (edge.src, 0), edge
            elif edge.kind == CALL:
                if phase == 1:
                    yield (edge.src, 0), edge
                    yield (edge.src, 1), edge
        for src in self._reverse_summaries().get(node, ()):
            yield (src, phase), None

    def _reverse_summaries(self) -> Dict[Node, List[Node]]:
        if self._rev_summaries is None:
            from repro.vfg.tabulation import compute_summaries

            rev: Dict[Node, List[Node]] = {}
            for src, targets in compute_summaries(self.vfg).items():
                for dst in targets:
                    rev.setdefault(dst, []).append(src)
            self._rev_summaries = rev
        return self._rev_summaries

    def _search(
        self, starts: List[State]
    ) -> Tuple[bool, int, int, bool, bool]:
        """Memoized backward reachability to an accepting (F) state.

        Returns ``(verdict, states_expanded, nodes_touched, memo_hit,
        early_cutoff)``.
        """
        memo = self._memo
        known = [memo.get(s) for s in starts]
        if any(v is True for v in known):
            return True, 0, 0, True, False
        if all(v is False for v in known):
            return False, 0, 0, True, False

        parents: Dict[State, Optional[State]] = {}
        work: List[State] = []
        for state in starts:
            if memo.get(state) is False:
                continue
            parents[state] = None
            work.append(state)
        touched: Set[Node] = set()
        expanded = 0
        goal: Optional[State] = None
        while work:
            state = work.pop()
            verdict = memo.get(state)
            if verdict is True:
                goal = state  # splice into a previously proven ⊥-path
                break
            expanded += 1
            touched.add(state[0])
            if self._accepting(state):
                goal = state
                break
            for pred, _edge in self._predecessors(state):
                if pred in parents or memo.get(pred) is False:
                    continue
                parents[pred] = state
                work.append(pred)
        if goal is not None:
            # Everything on the chain from the query down to the goal
            # can reach an accepting state: memoize ⊥.
            current: Optional[State] = goal
            while current is not None:
                memo[current] = True
                current = parents[current]
            return True, expanded, len(touched), False, bool(work)
        # Exhausted: the whole explored closure is ⊥-free.
        for state in parents:
            memo[state] = False
        return False, expanded, len(touched), False, False


class LazyDefinedness(Definedness):
    """A Γ that resolves nodes on demand through a :class:`DemandEngine`.

    Drop-in for :class:`~repro.vfg.definedness.Definedness` wherever
    only ``is_defined``/``gamma`` are consumed (guided instrumentation,
    DOT coloring).  ``bottom_nodes``/``count_bottom`` force the full
    graph through the engine (memoized, so no worse than one whole
    resolution) — prefer the eager resolvers when the full ⊥ set is the
    point.
    """

    def __init__(self, engine: DemandEngine) -> None:
        super().__init__(set(), engine.context_depth)
        self.engine = engine
        self._forced = False

    def is_defined(self, node: Optional[Node]) -> bool:
        if self._forced:
            return super().is_defined(node)
        return self.engine.is_defined(node)

    @property
    def bottom_nodes(self) -> Set[Node]:
        self._force()
        return set(self._bottom)

    def count_bottom(self) -> int:
        self._force()
        return len(self._bottom)

    def _force(self) -> None:
        if self._forced:
            return
        for node in self.engine.vfg.nodes():
            if self.engine.is_bottom(node):
                self._bottom.add(node)
        self._forced = True


def resolve_definedness_demand(
    vfg: VFG,
    context_depth: int = 1,
    resolver: str = "callstring",
    warm_sites: bool = True,
) -> LazyDefinedness:
    """A lazy Γ over a fresh engine, optionally pre-answering every
    check site (the batched mode Opt II and ``run_usher`` use)."""
    engine = DemandEngine(vfg, context_depth=context_depth, resolver=resolver)
    if warm_sites:
        engine.query_sites(vfg.check_sites)
    return engine.gamma()
