"""Value-flow graph representation (§3.2).

Nodes are SSA definitions — top-level variable versions and
address-taken location versions — plus the two roots ⊤ (``TOP``,
"defined") and F (``BOT``, "undefined").  An edge ``src → dst`` means
the *value flows* from ``src`` into ``dst`` (``dst`` data-depends on
``src``; the paper draws the same edge in the dependence direction).

Interprocedural edges carry their call site and a kind (``"call"`` /
``"ret"``) so that definedness resolution can match them
context-sensitively (§3.3).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from repro.analysis.memobjects import MemLoc

INTRA = "intra"
CALL = "call"
RET = "ret"


@dataclass(frozen=True)
class Root:
    """A VFG root: ``T`` (defined) or ``F`` (undefined)."""

    name: str

    def __str__(self) -> str:
        return self.name


TOP = Root("T")
BOT = Root("F")


@dataclass(frozen=True)
class TopNode:
    """The definition of top-level SSA variable ``name.version`` in
    ``func``."""

    func: str
    name: str
    version: int

    def __post_init__(self) -> None:
        # Hash once: the value the generated ``__hash__`` would return.
        object.__setattr__(
            self, "_hash", hash((self.func, self.name, self.version))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor, so the hash is recomputed
        # under the unpickling process's hash seed.
        return (TopNode, (self.func, self.name, self.version))

    def __str__(self) -> str:
        return f"{self.func}::{self.name}.{self.version}"


@dataclass(frozen=True)
class MemNode:
    """The definition of version ``version`` of address-taken location
    ``loc`` within ``func``'s memory SSA."""

    func: str
    loc: MemLoc
    version: int

    def __post_init__(self) -> None:
        # Hash once (see TopNode).
        object.__setattr__(
            self, "_hash", hash((self.func, self.loc, self.version))
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (MemNode, (self.func, self.loc, self.version))

    def __str__(self) -> str:
        return f"{self.func}::[{self.loc}].{self.version}"


@dataclass(frozen=True)
class SummaryNode:
    """The single conflated memory node used by the top-level-only
    configuration (Usher_TL), where address-taken variables are not
    analyzed: every load may read it, every store/allocation writes it."""

    name: str = "MEM"

    def __str__(self) -> str:
        return self.name


MEM_SUMMARY = SummaryNode()

Node = Union[Root, TopNode, MemNode, SummaryNode]


@dataclass(frozen=True)
class Edge:
    """A value-flow edge ``src → dst``."""

    src: Node
    dst: Node
    kind: str = INTRA
    callsite: Optional[int] = None

    def __str__(self) -> str:
        tag = f" [{self.kind}@{self.callsite}]" if self.kind != INTRA else ""
        return f"{self.src} -> {self.dst}{tag}"


@dataclass
class CheckSite:
    """A critical operation's use of a value (Definition 1).

    ``node`` is the VFG node of the used SSA definition; ``None`` when
    the operand is a constant (always defined, never checked).
    """

    instr_uid: int
    func: str
    node: Optional[Node]
    operand: str


@dataclass
class VFGStats:
    """Build statistics feeding Table 1."""

    stores_total: int = 0
    stores_strong: int = 0
    stores_singleton_weak: int = 0
    semi_strong_applied: int = 0
    heap_alloc_sites: int = 0
    array_init_cuts: int = 0


#: Edge-kind codes in the flat edge columns.
_KIND_CODES = {INTRA: 0, CALL: 1, RET: 2}
_KIND_FROM_CODE = (INTRA, CALL, RET)
#: ``callsite`` column value for intraprocedural edges.
_NO_CALLSITE = -1
#: ``kind`` column value of a tombstoned (removed) edge row.
_DEAD = -1
#: Words per edge row: ``[src nid, dst nid, kind code, callsite]``.
_ROW = 4


class VFG:
    """The whole-program value-flow graph, stored struct-of-arrays.

    Nodes are interned to dense integer ids; edges live as fixed-width
    rows ``[src nid, dst nid, kind code, callsite]`` in one flat
    ``array("q")``, with per-node adjacency as lists of row indices.
    :class:`Edge` objects are materialized lazily (and cached per row)
    only when a traversal asks for them, so a million-edge graph costs
    four machine words per edge plus its interned node objects — not a
    million Python tuples.

    ``remove_edge`` tombstones the row (kind code ``-1``); the arena is
    append-only and a dead row stays in both adjacency lists, where
    every iteration skips it, so removal costs O(1) however large the
    endpoints' fan-out (⊤'s out-list spans the whole program).  All
    public iteration orders match the previous object-graph
    representation: ``deps_of`` / ``flows_of`` are in per-node insertion
    order and ``edges()`` groups by destination in first-seen order.

    Whole-graph algorithms (Γ resolution, Opt II, the must-flow-from
    closure) traverse by id through :meth:`node_id`, :meth:`node_table`,
    :meth:`rows_into` / :meth:`rows_out_of` and :meth:`def_columns`,
    which build no :class:`Edge` and hash no node along the way.
    """

    def __init__(self, address_taken: bool = True) -> None:
        self.address_taken = address_taken
        #: node interning: object -> dense id, id -> object
        self._node_ids: Dict[Node, int] = {}
        self._node_list: List[Node] = []
        #: edge rows, _ROW words each, append-only
        self._columns = array("q")
        #: the live row's words ``(src nid, dst nid, kind code,
        #: callsite)`` -> row index (dedupe + removal); int keys hash
        #: cheaply
        self._edge_ids: Dict[Tuple[int, int, int, int], int] = {}
        #: row index -> materialized Edge (lazy)
        self._edge_cache: Dict[int, Edge] = {}
        #: node id -> in-/out-edge row indices (dead rows included),
        #: insertion order
        self._deps: Dict[int, List[int]] = {}
        self._flows: Dict[int, List[int]] = {}
        self.check_sites: List[CheckSite] = []
        #: node -> (defining instruction uid, def kind tag); write it
        #: through :meth:`record_def`, which keeps :meth:`def_columns`
        #: current
        self.def_site: Dict[Node, Tuple[Optional[int], str]] = {}
        self._def_columns: Optional[Tuple[list, list]] = None
        self.stats = VFGStats()

    # ------------------------------------------------------------------
    def _edge(self, eid: int) -> Edge:
        edge = self._edge_cache.get(eid)
        if edge is None:
            words = self._columns
            base = eid * _ROW
            callsite = words[base + 3]
            edge = Edge(
                self._node_list[words[base]],
                self._node_list[words[base + 1]],
                _KIND_FROM_CODE[words[base + 2]],
                None if callsite == _NO_CALLSITE else callsite,
            )
            self._edge_cache[eid] = edge
        return edge

    def _live(self, eids: List[int]) -> List[int]:
        """``eids`` without the tombstoned rows."""
        words = self._columns
        return [eid for eid in eids if words[eid * _ROW + 2] != _DEAD]

    def _kill(self, eid: int) -> None:
        """Tombstone live row ``eid``; it stays in the adjacency lists."""
        words = self._columns
        base = eid * _ROW
        del self._edge_ids[tuple(words[base:base + _ROW])]
        words[base + 2] = _DEAD
        self._edge_cache.pop(eid, None)

    # ------------------------------------------------------------------
    def add_edge(
        self,
        src: Node,
        dst: Node,
        kind: str = INTRA,
        callsite: Optional[int] = None,
    ) -> None:
        ids = self._node_ids
        sid = ids.get(src)
        did = ids.get(dst)
        fresh = sid is None or did is None
        if fresh:
            table = self._node_list
            if sid is None:
                sid = ids[src] = len(table)
                table.append(src)
            if did is None:
                did = ids.get(dst)  # a new self-loop interned it above
                if did is None:
                    did = ids[dst] = len(table)
                    table.append(dst)
        key = (
            sid,
            did,
            _KIND_CODES[kind],
            _NO_CALLSITE if callsite is None else callsite,
        )
        words = self._columns
        eid = len(words) // _ROW
        if self._edge_ids.setdefault(key, eid) != eid:
            return  # already present
        words.extend(key)
        if fresh:
            self._deps.setdefault(did, []).append(eid)
            self._flows.setdefault(sid, []).append(eid)
            self._deps.setdefault(sid, [])
            self._flows.setdefault(did, [])
        else:
            self._deps[did].append(eid)
            self._flows[sid].append(eid)

    def remove_edge(self, edge: Edge) -> None:
        sid = self._node_ids.get(edge.src)
        did = self._node_ids.get(edge.dst)
        if sid is None or did is None:
            return
        key = (
            sid,
            did,
            _KIND_CODES[edge.kind],
            _NO_CALLSITE if edge.callsite is None else edge.callsite,
        )
        eid = self._edge_ids.get(key)
        if eid is not None:
            self._kill(eid)

    def remove_edges_between(self, src: Node, dst: Node) -> int:
        """Remove every ``src → dst`` edge (any kind / callsite).

        Works directly on the edge rows — no :class:`Edge` objects are
        materialized — and returns the number removed.
        """
        sid = self._node_ids.get(src)
        did = self._node_ids.get(dst)
        if sid is None or did is None:
            return 0
        return self.remove_rows_into(did, (sid,))

    def remove_rows_into(self, nid: int, srcs) -> int:
        """Remove every live edge into node id ``nid`` whose source id
        is in ``srcs``; returns the number removed."""
        words = self._columns
        removed = 0
        for eid in self._deps.get(nid, ()):
            base = eid * _ROW
            if words[base + 2] != _DEAD and words[base] in srcs:
                self._kill(eid)
                removed += 1
        return removed

    def deps_of(self, node: Node) -> List[Edge]:
        """Edges into ``node`` (the values it depends on)."""
        nid = self._node_ids.get(node)
        if nid is None:
            return []
        return [self._edge(eid) for eid in self._live(self._deps[nid])]

    def flows_of(self, node: Node) -> List[Edge]:
        """Edges out of ``node`` (the nodes its value flows into)."""
        nid = self._node_ids.get(node)
        if nid is None:
            return []
        return [self._edge(eid) for eid in self._live(self._flows[nid])]

    def nodes(self) -> Iterable[Node]:
        return list(self._node_list)

    def edges(self) -> Iterable[Edge]:
        for eids in self._deps.values():
            for eid in self._live(eids):
                yield self._edge(eid)

    @property
    def num_nodes(self) -> int:
        return len(self._node_list)

    @property
    def num_edges(self) -> int:
        return len(self._edge_ids)

    def record_def(self, node: Node, instr_uid: Optional[int], kind: str) -> None:
        self.def_site[node] = (instr_uid, kind)
        self._def_columns = None

    # ------------------------------------------------------------------
    # Id-level access
    # ------------------------------------------------------------------
    def node_id(self, node: Node) -> Optional[int]:
        """``node``'s dense id, or ``None`` when no edge touches it."""
        return self._node_ids.get(node)

    def node_table(self) -> List[Node]:
        """The interned nodes, indexed by id.  The graph's own list:
        read it, never mutate it."""
        return self._node_list

    def rows_into(self, nid: int) -> List[Tuple[int, int, str, Optional[int]]]:
        """The live edges into node id ``nid`` as ``(src id, dst id,
        kind, callsite)`` rows, in :meth:`deps_of` order."""
        return self._rows(self._deps.get(nid, ()))

    def rows_out_of(self, nid: int) -> List[Tuple[int, int, str, Optional[int]]]:
        """The live edges out of node id ``nid``, in :meth:`flows_of`
        order (see :meth:`rows_into`)."""
        return self._rows(self._flows.get(nid, ()))

    def _rows(self, eids) -> List[Tuple[int, int, str, Optional[int]]]:
        words = self._columns
        rows = []
        for eid in eids:
            base = eid * _ROW
            code = words[base + 2]
            if code != _DEAD:
                callsite = words[base + 3]
                rows.append((
                    words[base],
                    words[base + 1],
                    _KIND_FROM_CODE[code],
                    None if callsite == _NO_CALLSITE else callsite,
                ))
        return rows

    def def_columns(self) -> Tuple[List[Optional[int]], List[Optional[str]]]:
        """``(uids, kinds)``: :attr:`def_site` as two lists indexed by
        node id (``None`` for a node without a recorded definition).

        Built once and kept until a definition is recorded or a node
        interned; read them, never mutate them."""
        columns = self._def_columns
        if columns is None or len(columns[0]) != len(self._node_list):
            uids: List[Optional[int]] = [None] * len(self._node_list)
            kinds: List[Optional[str]] = [None] * len(self._node_list)
            ids = self._node_ids
            for node, (uid, kind) in self.def_site.items():
                nid = ids.get(node)
                if nid is not None:
                    uids[nid] = uid
                    kinds[nid] = kind
            columns = self._def_columns = (uids, kinds)
        return columns

    # ------------------------------------------------------------------
    def copy(self) -> "VFG":
        """A structural copy sharing node objects (for Opt II, which
        rewires edges on a scratch copy before re-resolving Γ).

        Struct-of-arrays makes this four bulk copies — node table,
        edge arena, two adjacency maps — instead of re-adding every
        edge through the interning path.
        """
        clone = VFG(self.address_taken)
        clone._node_ids = dict(self._node_ids)
        clone._node_list = list(self._node_list)
        clone._columns = array("q", self._columns)
        clone._edge_ids = dict(self._edge_ids)
        clone._deps = {nid: list(eids) for nid, eids in self._deps.items()}
        clone._flows = {nid: list(eids) for nid, eids in self._flows.items()}
        clone.check_sites = list(self.check_sites)
        clone.def_site = dict(self.def_site)
        clone._def_columns = self._def_columns
        clone.stats = self.stats
        return clone
