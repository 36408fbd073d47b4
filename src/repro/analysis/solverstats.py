"""Observability for the analysis engines (solver + demand queries).

:class:`SolverStats` counts the work the Andersen constraint solver
actually performs — worklist pops, facts offered along edges, novel
facts inserted, SCCs collapsed by online cycle elimination — and
records wall time per phase.  One instance is threaded through every
solver pass of a single
:func:`repro.analysis.andersen.analyze_pointers` call (the wrapper
pre-pass and the heap-cloned re-run accumulate into the same object)
and is surfaced on :class:`~repro.analysis.andersen.PointerResult`, the
harness report and the ``repro`` CLI.

The distinction between *propagated* and *added* facts is the whole
story of difference propagation: a naive solver re-offers a node's full
points-to set on every pop, so ``facts_propagated`` dwarfs
``facts_added``; the delta solver offers each fact along each edge
once, so the two counters stay within a small factor of each other.

:class:`QueryStats` is the same idea for the demand-driven definedness
engine (:mod:`repro.vfg.demand`): per-query latency, states and
distinct VFG nodes visited, memo hits and early ⊥-terminations.  The
headline figure is ``peak_nodes_visited`` against ``graph_nodes`` —
a demand query that touches a small fraction of the graph is the whole
point of slicing instead of resolving Γ for every node.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator

from repro.obs.trace import TRACE


@dataclass
class SolverStats:
    """Work counters and phase timings for one pointer-analysis run.

    Attributes:
        solver: ``"delta"`` or ``"reference"``.
        solve_passes: Number of ``solve()`` fixpoints run (2 with heap
            cloning: the wrapper-detection pre-pass plus the re-run).
        pops: Worklist pops that did propagation work.
        waves: Propagation waves executed (delta solver only).
        peak_wave_width: Most nodes popped in a single wave.
        wave_reoffers_avoided: Deltas merged into a node still pending
            later in the current wave — each one a pop (and a re-offer
            of that node's delta) a FIFO loop would have risked.
        facts_propagated: Facts offered along constraint edges (the
            solver's raw propagation volume — the figure difference
            propagation shrinks).
        facts_added: Facts newly inserted into a points-to set.
        copy_edges: Distinct copy edges added to the constraint graph
            (counted at insertion, before any collapsing).
        live_copy_edges: Distinct representative-level copy edges left
            when solving finished — what cycle collapse actually shrank
            the graph to.
        icall_bindings: Distinct (call site, callee) pairs bound for
            indirect calls.
        sccs_collapsed: Copy-edge SCCs collapsed onto a representative.
        scc_nodes_merged: Total nodes folded into representatives.
        pk_reorders: Pearce–Kelly reorder operations performed to keep
            the incremental topological order valid as copy edges
            landed during solving.
        peak_worklist: High-water mark of the worklist.
        bytes_pts: Bytes of the points-to bitsets at finalize (dense
            limb bytes summed over live union-find representatives; max
            across solve passes).  ``tests/data/opt2_pins.json`` pins
            it exactly per module.
        peak_rss: Process peak resident set size in bytes
            (``ru_maxrss``) observed at finalize.
        phase_seconds: Wall time per phase (``constraints``, ``solve``,
            ``wrappers``, ``finalize``), accumulated across passes.
    """

    solver: str = "delta"
    solve_passes: int = 0
    pops: int = 0
    waves: int = 0
    peak_wave_width: int = 0
    wave_reoffers_avoided: int = 0
    facts_propagated: int = 0
    facts_added: int = 0
    copy_edges: int = 0
    live_copy_edges: int = 0
    icall_bindings: int = 0
    sccs_collapsed: int = 0
    scc_nodes_merged: int = 0
    pk_reorders: int = 0
    peak_worklist: int = 0
    bytes_pts: int = 0
    peak_rss: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate wall time of the enclosed block under ``name``.

        When tracing is enabled the block also becomes a span, so
        every ``stats.phase(...)`` site (constraint generation, solve,
        wrappers, finalize) shows up in the trace tree for free.
        """
        span = TRACE.span(name) if TRACE.enabled else None
        if span is not None:
            span.__enter__()
        started = time.perf_counter()
        try:
            yield
        finally:
            self.phase_seconds[name] = self.phase_seconds.get(name, 0.0) + (
                time.perf_counter() - started
            )
            if span is not None:
                span.__exit__(None, None, None)

    def note_worklist(self, size: int) -> None:
        if size > self.peak_worklist:
            self.peak_worklist = size

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (used by the benchmark trajectory)."""
        return {
            "solver": self.solver,
            "solve_passes": self.solve_passes,
            "pops": self.pops,
            "waves": self.waves,
            "peak_wave_width": self.peak_wave_width,
            "wave_reoffers_avoided": self.wave_reoffers_avoided,
            "facts_propagated": self.facts_propagated,
            "facts_added": self.facts_added,
            "copy_edges": self.copy_edges,
            "live_copy_edges": self.live_copy_edges,
            "icall_bindings": self.icall_bindings,
            "sccs_collapsed": self.sccs_collapsed,
            "scc_nodes_merged": self.scc_nodes_merged,
            "pk_reorders": self.pk_reorders,
            "peak_worklist": self.peak_worklist,
            "bytes_pts": self.bytes_pts,
            "peak_rss": self.peak_rss,
            "phase_seconds": {
                name: round(seconds, 6)
                for name, seconds in sorted(self.phase_seconds.items())
            },
            "total_seconds": round(self.total_seconds, 6),
        }

    def merge(self, other: "SolverStats") -> None:
        """Fold ``other``'s counters into this instance."""
        self.solve_passes += other.solve_passes
        self.pops += other.pops
        self.waves += other.waves
        self.peak_wave_width = max(self.peak_wave_width, other.peak_wave_width)
        self.wave_reoffers_avoided += other.wave_reoffers_avoided
        self.facts_propagated += other.facts_propagated
        self.facts_added += other.facts_added
        self.copy_edges += other.copy_edges
        self.live_copy_edges = max(
            self.live_copy_edges, other.live_copy_edges
        )
        self.icall_bindings += other.icall_bindings
        self.sccs_collapsed += other.sccs_collapsed
        self.scc_nodes_merged += other.scc_nodes_merged
        self.pk_reorders += other.pk_reorders
        self.peak_worklist = max(self.peak_worklist, other.peak_worklist)
        self.bytes_pts = max(self.bytes_pts, other.bytes_pts)
        self.peak_rss = max(self.peak_rss, other.peak_rss)
        for name, seconds in other.phase_seconds.items():
            self.phase_seconds[name] = (
                self.phase_seconds.get(name, 0.0) + seconds
            )

    def format_summary(self) -> str:
        """Multi-line human-readable profile (CLI / harness report)."""
        lines = [
            f"solver profile ({self.solver}, "
            f"{self.solve_passes} solve pass(es)):",
            f"  pops              {self.pops:>10d}",
        ]
        if self.waves:
            lines.append(
                f"  waves             {self.waves:>10d} "
                f"(peak width {self.peak_wave_width}, "
                f"{self.wave_reoffers_avoided} re-offers avoided, "
                f"{self.pk_reorders} PK reorders)"
            )
        lines += [
            f"  facts propagated  {self.facts_propagated:>10d}",
            f"  facts added       {self.facts_added:>10d}",
            f"  copy edges        {self.copy_edges:>10d} "
            f"({self.live_copy_edges} live post-solve)",
            f"  icall bindings    {self.icall_bindings:>10d}",
            f"  SCCs collapsed    {self.sccs_collapsed:>10d} "
            f"({self.scc_nodes_merged} nodes merged)",
            f"  peak worklist     {self.peak_worklist:>10d}",
        ]
        known = ("constraints", "solve", "wrappers", "finalize")
        for name in known + tuple(
            sorted(n for n in self.phase_seconds if n not in known)
        ):
            if name in self.phase_seconds:
                lines.append(
                    f"  {name + ' time':<18s}{self.phase_seconds[name]:>9.4f}s"
                )
        lines.append(f"  total time        {self.total_seconds:>9.4f}s")
        return "\n".join(lines)

    def format_memory_summary(self) -> str:
        """Human-readable memory profile (``repro check --mem-stats``)."""
        return "\n".join(
            [
                "memory profile:",
                f"  points-to bytes   {self.bytes_pts:>12,d}",
                f"  peak RSS          {self.peak_rss:>12,d}"
                f"  ({self.peak_rss / (1024 * 1024):.1f} MiB)",
            ]
        )


@dataclass
class QueryStats:
    """Work counters for one demand-driven definedness engine.

    Attributes:
        resolver: ``"callstring"`` or ``"summary"``.
        context_depth: Call-string depth (``-1`` for the summary mode).
        graph_nodes: Node count of the queried VFG (the denominator of
            the visited-fraction headline figure).
        queries: Definedness queries answered.
        bottom_verdicts: Queries that resolved ⊥ (maybe-undefined).
        memo_hits: Queries answered straight from the memo table,
            without visiting a single state.
        states_visited: (node, context) search states expanded, summed
            over all queries.
        nodes_visited: Distinct VFG nodes touched, summed per query.
        peak_nodes_visited: Largest single-query distinct-node count.
        early_cutoffs: Searches stopped the moment a ⊥-path was found
            (as opposed to exhausting the backward slice).
        memo_entries: Current size of the engine's verdict memo.
        query_seconds: Total wall time spent answering queries.
        max_query_seconds: Slowest single query.
    """

    resolver: str = "callstring"
    context_depth: int = 1
    graph_nodes: int = 0
    queries: int = 0
    bottom_verdicts: int = 0
    memo_hits: int = 0
    states_visited: int = 0
    nodes_visited: int = 0
    peak_nodes_visited: int = 0
    early_cutoffs: int = 0
    memo_entries: int = 0
    query_seconds: float = 0.0
    max_query_seconds: float = 0.0

    def note_query(
        self,
        *,
        bottom: bool,
        states: int,
        nodes: int,
        memo_hit: bool,
        early_cutoff: bool,
        seconds: float,
    ) -> None:
        """Record one answered query."""
        self.queries += 1
        if bottom:
            self.bottom_verdicts += 1
        if memo_hit:
            self.memo_hits += 1
        if early_cutoff:
            self.early_cutoffs += 1
        self.states_visited += states
        self.nodes_visited += nodes
        if nodes > self.peak_nodes_visited:
            self.peak_nodes_visited = nodes
        self.query_seconds += seconds
        if seconds > self.max_query_seconds:
            self.max_query_seconds = seconds

    @property
    def peak_visited_fraction(self) -> float:
        """Largest single-query share of the graph actually visited."""
        if not self.graph_nodes:
            return 0.0
        return self.peak_nodes_visited / self.graph_nodes

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (used by the benchmark trajectory)."""
        return {
            "resolver": self.resolver,
            "context_depth": self.context_depth,
            "graph_nodes": self.graph_nodes,
            "queries": self.queries,
            "bottom_verdicts": self.bottom_verdicts,
            "memo_hits": self.memo_hits,
            "states_visited": self.states_visited,
            "nodes_visited": self.nodes_visited,
            "peak_nodes_visited": self.peak_nodes_visited,
            "peak_visited_fraction": round(self.peak_visited_fraction, 6),
            "early_cutoffs": self.early_cutoffs,
            "memo_entries": self.memo_entries,
            "query_seconds": round(self.query_seconds, 6),
            "max_query_seconds": round(self.max_query_seconds, 6),
        }

    def merge(self, other: "QueryStats") -> None:
        """Fold ``other``'s counters into this instance."""
        self.queries += other.queries
        self.bottom_verdicts += other.bottom_verdicts
        self.memo_hits += other.memo_hits
        self.states_visited += other.states_visited
        self.nodes_visited += other.nodes_visited
        self.peak_nodes_visited = max(
            self.peak_nodes_visited, other.peak_nodes_visited
        )
        self.early_cutoffs += other.early_cutoffs
        self.memo_entries = max(self.memo_entries, other.memo_entries)
        self.graph_nodes = max(self.graph_nodes, other.graph_nodes)
        self.query_seconds += other.query_seconds
        self.max_query_seconds = max(
            self.max_query_seconds, other.max_query_seconds
        )

    def format_summary(self) -> str:
        """Multi-line human-readable profile (CLI / harness report)."""
        depth = "∞" if self.context_depth < 0 else str(self.context_depth)
        lines = [
            f"demand-query profile ({self.resolver}, depth {depth}, "
            f"{self.graph_nodes} VFG nodes):",
            f"  queries           {self.queries:>10d} "
            f"({self.bottom_verdicts} ⊥, {self.memo_hits} memo hits)",
            f"  states visited    {self.states_visited:>10d}",
            f"  nodes visited     {self.nodes_visited:>10d} "
            f"(peak {self.peak_nodes_visited}, "
            f"{100 * self.peak_visited_fraction:.1f}% of graph)",
            f"  early ⊥ cutoffs   {self.early_cutoffs:>10d}",
            f"  memo entries      {self.memo_entries:>10d}",
            f"  query time        {self.query_seconds:>9.4f}s "
            f"(max {self.max_query_seconds:.4f}s)",
        ]
        return "\n".join(lines)
