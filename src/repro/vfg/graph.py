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
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import sub
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

    # Slotted by hand (``dataclass(slots=True)`` needs Python 3.10): a
    # graph holds one node object per definition, and a ``__dict__``
    # would be most of each one's size.
    __slots__ = ("func", "name", "version", "_hash")

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

    __slots__ = ("func", "loc", "version", "_hash")  # see TopNode

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


#: Words per edge row: ``[src nid, dst nid, kind code, callsite]``.
#: A row is named by the index of its first word in the flat columns
#: (:meth:`VFG.columns`); readers decode ``words[row + 0..3]``.
_ROW = 4
#: Kind codes (a row's third word) and the kind each stands for.
INTRA_CODE, CALL_CODE, RET_CODE = 0, 1, 2
KIND_OF_CODE = (INTRA, CALL, RET)
_KIND_CODES = {INTRA: INTRA_CODE, CALL: CALL_CODE, RET: RET_CODE}
#: ``callsite`` word of a row without a call site (intraprocedural).
NO_CALLSITE = -1
#: Kind code of a tombstoned (removed) row; never in a CSR index.
_DEAD = -1
#: Bits per node id in a packed dedupe key (:func:`_edge_key`).
_ID_BITS = 32

#: A decoded edge row: ``(src id, dst id, kind, callsite)``.
Row = Tuple[int, int, str, Optional[int]]

#: ``(in offsets, in rows, out offsets, out rows)``: both directions of
#: a graph's live rows in compressed sparse row (CSR) form; node ``n``'s
#: rows in a direction are ``rows[offsets[n]:offsets[n + 1]]``.
Adjacency = Tuple[array, array, array, array]


def _edge_key(sid: int, did: int, code: int, callsite: int) -> int:
    """An edge row's words packed into one int, the dedupe index's key.
    Node ids take ``_ID_BITS`` each; the kind code and the callsite sit
    above them, so an intraprocedural row's key is ``did << _ID_BITS |
    sid`` (:meth:`VFG.add_edge` inlines that case)."""
    return (
        ((callsite + 1) << 2 | code) << (2 * _ID_BITS)
        | did << _ID_BITS
        | sid
    )


def _csr(
    words: array, slots: Iterable[int], field: int, num_nodes: int
) -> Tuple[array, array]:
    """``(offsets, rows)``: the rows whose word ``field`` (a node id)
    sits at index ``slots`` of ``words``, grouped by that node.  A
    counting pass gives the offsets; a stable sort of the slots by node
    id (C-level, about half the cost of a Python placement loop) puts
    each node's rows in row order."""
    counts = array("q", [0]) * (num_nodes + 1)
    for slot in slots:
        counts[words[slot] + 1] += 1
    rows = sorted(slots, key=words.__getitem__)
    return (
        array("q", accumulate(counts)),
        array("q", map(sub, rows, repeat(field)) if field else rows),
    )


def _rows(words: array, rows) -> List[Row]:
    """``rows`` of the flat ``words`` as ``(src id, dst id, kind,
    callsite)`` tuples."""
    out = []
    for row in rows:
        callsite = words[row + 3]
        out.append((
            words[row],
            words[row + 1],
            KIND_OF_CODE[words[row + 2]],
            None if callsite == NO_CALLSITE else callsite,
        ))
    return out


class DefSites(Mapping):
    """A sealed graph's :attr:`VFG.def_site`: node -> ``(defining
    instruction uid, def kind tag)``, read from the id-indexed columns
    :meth:`VFG.def_columns` returns, plus a side dict for the defined
    nodes no edge touches.  Read-only."""

    __slots__ = ("_ids", "_table", "_uids", "_kinds", "_lone", "_size")

    def __init__(self, ids, table, uids, kinds, lone, size: int) -> None:
        self._ids = ids
        self._table = table
        self._uids = uids
        self._kinds = kinds
        self._lone = lone
        self._size = size

    def get(self, node, default=None):
        nid = self._ids.get(node)
        if nid is None:
            return self._lone.get(node, default)
        kind = self._kinds[nid]
        if kind is None:
            return default
        return (self._uids[nid], kind)

    def __getitem__(self, node):
        site = self.get(node)
        if site is None:
            raise KeyError(node)
        return site

    def __contains__(self, node) -> bool:
        return self.get(node) is not None

    def __iter__(self):
        table = self._table
        for nid, kind in enumerate(self._kinds):
            if kind is not None:
                yield table[nid]
        yield from self._lone

    def __len__(self) -> int:
        return self._size


class VFG:
    """The whole-program value-flow graph, stored struct-of-arrays.

    Nodes are interned to dense integer ids; edges live as fixed-width
    rows ``[src nid, dst nid, kind code, callsite]`` in one flat
    ``array("q")``.  :class:`Edge` objects are materialized lazily (and
    cached per row) only when a traversal asks for them, so a
    million-edge graph costs a few machine words per edge plus its
    interned node objects — not a million Python tuples.

    While the graph is built it holds only the rows, the node
    interning, a dedupe index (one packed int per live row) and the
    first-seen order of edge destinations; no per-node list.
    ``remove_edge`` tombstones the row (kind code ``-1``) and drops it
    from the index.  :meth:`seal` indexes the live rows into two
    compressed sparse row (CSR) indexes, one per direction, each an
    offsets array plus an array of rows (:data:`Adjacency`): a counting
    pass gives the offsets, a stable sort by node id places the rows.
    An unsealed graph that is read builds the same indexes lazily and
    drops them at its next edit.  All public iteration orders match
    the previous object-graph representation: ``deps_of`` / ``flows_of``
    are in per-node insertion order and ``edges()`` groups by
    destination in first-seen order.

    Whole-graph algorithms (Γ resolution, Opt II, the must-flow-from
    closure, guided instrumentation) traverse by id through
    :meth:`node_id`, :meth:`node_table`, :meth:`def_columns` and the
    traversal accessor :meth:`row_ids_into` / :meth:`row_ids_out_of`,
    decoding only the words of :meth:`columns` they need; they build no
    :class:`Edge`, no row tuple and hash no node along the way.  Those
    reads are also all a :class:`VFGOverlay` offers, so the same
    algorithms run on Opt II's rewired view.

    The builder seals every graph it returns: the dedupe index is
    dropped, the definitions move into the id-indexed
    :meth:`def_columns` (:attr:`def_site` becomes a read-only
    :class:`DefSites` view of them), and any further edge mutation or
    :meth:`record_def` raises, because one built graph is shared by
    every configuration that analyzes it.
    """

    def __init__(self, address_taken: bool = True) -> None:
        self.address_taken = address_taken
        #: node interning: object -> dense id, id -> object
        self._node_ids: Dict[Node, int] = {}
        self._node_list: List[Node] = []
        #: node ids in the order they were first seen, a new edge's
        #: destination before its source: :meth:`edges` groups by it
        self._deps_order = array("q")
        #: edge rows, _ROW words each, append-only
        self._columns = array("q")
        #: the live row's packed words (:func:`_edge_key`) -> the row
        #: (its first word's index; dedupe + removal).  ``None`` once
        #: sealed.
        self._edge_ids: Optional[Dict[int, int]] = {}
        #: the live edge count, kept when :meth:`seal` drops the index
        self._sealed_edges = 0
        #: the CSR indexes of the live rows; ``None`` while stale
        self._adjacency: Optional[Adjacency] = None
        #: row -> materialized Edge (lazy)
        self._edge_cache: Dict[int, Edge] = {}
        self.check_sites: List[CheckSite] = []
        #: node -> (defining instruction uid, def kind tag); write it
        #: through :meth:`record_def`, which keeps :meth:`def_columns`
        #: current.  A :class:`DefSites` view once sealed.
        self.def_site: Mapping[Node, Tuple[Optional[int], str]] = {}
        self._def_columns: Optional[Tuple[list, list]] = None
        self.stats = VFGStats()

    # ------------------------------------------------------------------
    def _edge(self, row: int) -> Edge:
        edge = self._edge_cache.get(row)
        if edge is None:
            words = self._columns
            callsite = words[row + 3]
            edge = Edge(
                self._node_list[words[row]],
                self._node_list[words[row + 1]],
                KIND_OF_CODE[words[row + 2]],
                None if callsite == NO_CALLSITE else callsite,
            )
            self._edge_cache[row] = edge
        return edge

    def _index(self) -> Dict[int, int]:
        """The dedupe index; raises once the graph is sealed."""
        edge_ids = self._edge_ids
        if edge_ids is None:
            raise RuntimeError(
                "the VFG is sealed: a built graph is shared and read-only"
            )
        return edge_ids

    def adjacency(self) -> Adjacency:
        """Both CSR indexes of the live rows (:data:`Adjacency`), in
        per-node insertion order.  Fixed once the graph is sealed; on
        an unsealed graph, valid until its next edit.  Read them,
        never mutate them."""
        adjacency = self._adjacency
        if adjacency is None:
            words = self._columns
            count = len(self._node_list)
            if self.num_edges * _ROW == len(words):
                srcs: Iterable[int] = range(0, len(words), _ROW)
                dsts: Iterable[int] = range(1, len(words), _ROW)
            else:  # skip the tombstoned rows
                srcs = [
                    row for row in range(0, len(words), _ROW)
                    if words[row + 2] != _DEAD
                ]
                dsts = [row + 1 for row in srcs]
            adjacency = self._adjacency = (
                _csr(words, dsts, 1, count) + _csr(words, srcs, 0, count)
            )
        return adjacency

    def seal(self) -> None:
        """Make the graph read-only.  Index the live rows
        (:meth:`adjacency`), drop the dedupe index and keep only the
        edge count, and move :attr:`def_site` into the id-indexed
        columns :meth:`def_columns` returns.  Every later
        :meth:`add_edge`, :meth:`remove_edge`,
        :meth:`remove_edges_between` or :meth:`record_def` raises
        ``RuntimeError``."""
        if self._edge_ids is None:
            return
        self._sealed_edges = len(self._edge_ids)
        self._edge_ids = None
        self.adjacency()
        ids = self._node_ids
        uids: List[Optional[int]] = [None] * len(self._node_list)
        kinds: List[Optional[str]] = [None] * len(self._node_list)
        lone = {}
        defs = self.def_site
        for node, site in defs.items():
            nid = ids.get(node)
            if nid is None:
                lone[node] = site
            else:
                uids[nid], kinds[nid] = site
        self._def_columns = (uids, kinds)
        self.def_site = DefSites(
            ids, self._node_list, uids, kinds, lone, len(defs)
        )

    def _kill(self, row: int) -> None:
        """Tombstone live ``row``."""
        words = self._columns
        del self._index()[_edge_key(*words[row:row + _ROW])]
        words[row + 2] = _DEAD
        self._edge_cache.pop(row, None)
        self._adjacency = None

    def _intern(
        self, src: Node, dst: Node, sid: Optional[int], did: Optional[int]
    ) -> Tuple[int, int]:
        """Intern the endpoints of a new edge whose ids (``None`` when
        new) are ``sid`` and ``did``: ``(src id, dst id)``."""
        ids = self._node_ids
        table = self._node_list
        order = self._deps_order
        if len(table) + 2 > 1 << _ID_BITS:
            raise OverflowError("too many VFG nodes for the packed edge key")
        if sid is None:
            sid = ids[src] = len(table)
            table.append(src)
            if did is None:
                did = ids.get(dst)  # a new self-loop interned it above
                if did is None:
                    did = ids[dst] = len(table)
                    table.append(dst)
                    order.append(did)
            order.append(sid)
        else:
            did = ids[dst] = len(table)
            table.append(dst)
            order.append(did)
        return sid, did

    # ------------------------------------------------------------------
    def add_edge(
        self,
        src: Node,
        dst: Node,
        kind: str = INTRA,
        callsite: Optional[int] = None,
    ) -> None:
        edge_ids = self._edge_ids
        if edge_ids is None:
            self._index()  # raises: a sealed graph's edges are fixed
        ids = self._node_ids
        sid = ids.get(src)
        did = ids.get(dst)
        if sid is None or did is None:
            sid, did = self._intern(src, dst, sid, did)
        words = self._columns
        row = len(words)
        if callsite is None and kind == INTRA:
            # _edge_key of an intraprocedural row, inlined: this is the
            # build's hottest call.
            code, callsite = INTRA_CODE, NO_CALLSITE
            key = did << _ID_BITS | sid
        else:
            code = _KIND_CODES[kind]
            if callsite is None:
                callsite = NO_CALLSITE
            key = _edge_key(sid, did, code, callsite)
        if edge_ids.setdefault(key, row) != row:
            return  # already present
        words.extend((sid, did, code, callsite))
        self._adjacency = None

    def remove_edge(self, edge: Edge) -> None:
        edge_ids = self._index()
        sid = self._node_ids.get(edge.src)
        did = self._node_ids.get(edge.dst)
        if sid is None or did is None:
            return
        row = edge_ids.get(_edge_key(
            sid,
            did,
            _KIND_CODES[edge.kind],
            NO_CALLSITE if edge.callsite is None else edge.callsite,
        ))
        if row is not None:
            self._kill(row)

    def remove_edges_between(self, src: Node, dst: Node) -> int:
        """Remove every ``src → dst`` edge (any kind / callsite).

        Works directly on the edge rows — no :class:`Edge` objects are
        materialized — and returns the number removed.
        """
        self._index()
        sid = self._node_ids.get(src)
        did = self._node_ids.get(dst)
        if sid is None or did is None:
            return 0
        words = self._columns
        doomed = [
            row for row in range(0, len(words), _ROW)
            if words[row + 1] == did
            and words[row] == sid
            and words[row + 2] != _DEAD
        ]
        for row in doomed:
            self._kill(row)
        return len(doomed)

    def deps_of(self, node: Node) -> List[Edge]:
        """Edges into ``node`` (the values it depends on)."""
        nid = self._node_ids.get(node)
        if nid is None:
            return []
        offsets, rows, _, _ = self.adjacency()
        return [self._edge(row) for row in rows[offsets[nid]:offsets[nid + 1]]]

    def flows_of(self, node: Node) -> List[Edge]:
        """Edges out of ``node`` (the nodes its value flows into)."""
        nid = self._node_ids.get(node)
        if nid is None:
            return []
        _, _, offsets, rows = self.adjacency()
        return [self._edge(row) for row in rows[offsets[nid]:offsets[nid + 1]]]

    def nodes(self) -> Iterable[Node]:
        return list(self._node_list)

    def deps_order(self) -> array:
        """Node ids in first-seen order, a new edge's destination
        before its source (the grouping order of :meth:`edges`).  Read
        it, never mutate it."""
        return self._deps_order

    def edges(self) -> Iterable[Edge]:
        offsets, rows, _, _ = self.adjacency()
        for nid in self._deps_order:
            for row in rows[offsets[nid]:offsets[nid + 1]]:
                yield self._edge(row)

    @property
    def num_nodes(self) -> int:
        return len(self._node_list)

    @property
    def num_edges(self) -> int:
        if self._edge_ids is None:
            return self._sealed_edges
        return len(self._edge_ids)

    def record_def(
        self, node: Node, instr_uid: Optional[int], kind: str
    ) -> None:
        if self._edge_ids is None:
            self._index()  # raises: a sealed graph's definitions are fixed
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

    def columns(self) -> array:
        """The flat edge rows, ``_ROW`` words each: ``src id, dst id,
        kind code`` (:data:`KIND_OF_CODE`) ``, callsite``
        (:data:`NO_CALLSITE` for none).  Tombstoned rows stay in it.
        Read it, never mutate it."""
        return self._columns

    def row_ids_into(self, nid: int):
        """The live rows into node id ``nid``, in :meth:`deps_of`
        order, each named by its first word's index in
        :meth:`columns`.  The traversal accessor: Γ, Opt II and the
        closure decode only the words they need, building no tuple."""
        offsets, rows, _, _ = self._adjacency or self.adjacency()
        try:
            return rows[offsets[nid]:offsets[nid + 1]]
        except IndexError:
            return []

    def row_ids_out_of(self, nid: int):
        """The live rows out of node id ``nid``, in :meth:`flows_of`
        order (see :meth:`row_ids_into`)."""
        _, _, offsets, rows = self._adjacency or self.adjacency()
        try:
            return rows[offsets[nid]:offsets[nid + 1]]
        except IndexError:
            return []

    def rows_into(self, nid: int) -> List[Row]:
        """The live edges into node id ``nid`` as ``(src id, dst id,
        kind, callsite)`` rows, in :meth:`deps_of` order."""
        return _rows(self._columns, self.row_ids_into(nid))

    def rows_out_of(self, nid: int) -> List[Row]:
        """The live edges out of node id ``nid``, in :meth:`flows_of`
        order (see :meth:`rows_into`)."""
        return _rows(self._columns, self.row_ids_out_of(nid))

    def def_columns(self) -> Tuple[List[Optional[int]], List[Optional[str]]]:
        """``(uids, kinds)``: :attr:`def_site` as two lists indexed by
        node id (``None`` for a node without a recorded definition).

        A sealed graph's only store of its definitions; an unsealed
        one builds them once and keeps them until a definition is
        recorded or a node interned.  Read them, never mutate them."""
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


class VFGOverlay:
    """Opt II's rewired view of a shared, sealed :class:`VFG`.

    Algorithm 1 only removes consumer edges and adds ``⊤ → r`` edges,
    so the rewired graph is the base minus some rows plus some fresh ⊤
    edges.  The overlay records exactly that — the removed rows and an
    insertion-ordered map from each node given a fresh ⊤ edge to that
    edge's row — and never writes the base.  It reads the base's rows
    through their CSR indexes (:meth:`VFG.adjacency`) and appends its
    fresh rows to its own copy of the base's columns, so a reader
    decodes every row the same way.  It offers the base's id-level
    reads (:meth:`node_id`, :meth:`node_table`, :meth:`def_columns`,
    :meth:`columns`, :meth:`row_ids_into`, :meth:`row_ids_out_of`,
    :meth:`rows_into`, :meth:`rows_out_of`) and answers them as a
    mutable copy of the base would after the same edits, order
    included:

    - a fresh ``⊤ → r`` row reads as appended last to both ⊤'s
      out-list and ``r``'s in-list;
    - :meth:`redirect_to_top` is a no-op while a live ``⊤ → r`` row
      exists, and a removed then re-added one moves to the end;
    - the first redirect interns ⊤ (as the next id) when the base has
      no ⊤ node.
    """

    def __init__(self, base: VFG) -> None:
        self.base = base
        self._words = array("q", base.columns())
        self._in_offsets, self._in_rows, self._out_offsets, self._out_rows = (
            base.adjacency()
        )
        #: the base rows removed in the view
        self._removed: Set[int] = set()
        #: node id -> its fresh ``⊤ → r`` row, in row order
        self._top_to: Dict[int, int] = {}
        self._top = base.node_id(TOP)
        self._table = base.node_table()
        self._def_columns: Optional[Tuple[list, list]] = None

    def node_id(self, node: Node) -> Optional[int]:
        nid = self.base.node_id(node)
        if nid is None and node == TOP:
            return self._top
        return nid

    def node_table(self) -> List[Node]:
        return self._table

    @property
    def num_nodes(self) -> int:
        return len(self._table)

    def def_columns(self) -> Tuple[List[Optional[int]], List[Optional[str]]]:
        if self._def_columns is not None:
            return self._def_columns
        return self.base.def_columns()

    def columns(self) -> array:
        return self._words

    def _base_rows_into(self, nid: int):
        """The base's rows into ``nid``, removed ones included."""
        offsets = self._in_offsets
        try:
            return self._in_rows[offsets[nid]:offsets[nid + 1]]
        except IndexError:
            return []  # the ⊤ the view interned

    def row_ids_into(self, nid: int):
        rows = self._base_rows_into(nid)
        removed = self._removed
        if removed:
            rows = [row for row in rows if row not in removed]
        fresh = self._top_to.get(nid)
        if fresh is not None:
            rows.append(fresh)
        return rows

    def row_ids_out_of(self, nid: int):
        offsets = self._out_offsets
        try:
            rows = self._out_rows[offsets[nid]:offsets[nid + 1]]
        except IndexError:
            rows = []  # the ⊤ the view interned
        removed = self._removed
        if removed:
            rows = [row for row in rows if row not in removed]
        if nid == self._top:
            rows.extend(self._top_to.values())
        return rows

    def rows_into(self, nid: int) -> List[Row]:
        return _rows(self._words, self.row_ids_into(nid))

    def rows_out_of(self, nid: int) -> List[Row]:
        return _rows(self._words, self.row_ids_out_of(nid))

    def edges(self) -> Iterable[Edge]:
        """The view's edges, grouped by destination like
        :meth:`VFG.edges`."""
        table = self._table
        for nid in self.base.deps_order():
            for src, dst, kind, callsite in self.rows_into(nid):
                yield Edge(table[src], table[dst], kind, callsite)

    # ------------------------------------------------------------------
    def remove_rows_into(self, nid: int, srcs) -> int:
        """Remove every live edge into node id ``nid`` whose source id
        is in ``srcs``; returns the number removed."""
        words = self._words
        removed = self._removed
        doomed = [
            row for row in self._base_rows_into(nid)
            if words[row] in srcs and row not in removed
        ]
        removed.update(doomed)
        count = len(doomed)
        if nid in self._top_to and self._top in srcs:
            del self._top_to[nid]
            count += 1
        return count

    def redirect_to_top(self, nid: int) -> None:
        """Add ``⊤ → nid`` (intraprocedural) unless a live one exists."""
        top = self._top
        words = self._words
        if top is None:
            top = self._top = len(self._table)
            self._table = self._table + [TOP]
            uids, kinds = self.base.def_columns()
            uid, kind = self.base.def_site.get(TOP, (None, None))
            self._def_columns = (uids + [uid], kinds + [kind])
        elif nid in self._top_to:
            return
        else:
            removed = self._removed
            for row in self._base_rows_into(nid):
                if (
                    words[row] == top
                    and words[row + 2] == INTRA_CODE
                    and words[row + 3] == NO_CALLSITE
                    and row not in removed
                ):
                    return
        self._top_to[nid] = len(words)
        words.extend((top, nid, INTRA_CODE, NO_CALLSITE))


#: What Γ resolution, the must-flow-from closure and Opt II read: a
#: built graph or Opt II's rewired view of one (the id-level reads).
GraphView = Union[VFG, VFGOverlay]
