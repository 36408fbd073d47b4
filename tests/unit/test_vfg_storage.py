"""The VFG's storage: flat edge rows while it is built, compressed
sparse row (CSR) adjacency and one definition store once sealed.

Sealing changes only how a graph holds its edges and definitions,
never what it reads back: every read, order included, is the same
before and after :meth:`VFG.seal` and matches a plain list of the live
edges.  A built graph holds no Python list per node, and its node
objects carry no ``__dict__``.
"""

from __future__ import annotations

import copy
import pickle
from array import array

from hypothesis import given, settings, strategies as st

from repro.analysis.memobjects import MemLoc, MemObject
from repro.vfg.graph import (
    BOT, CALL, INTRA, RET, TOP, DefSites, Edge, MemNode, TopNode, VFG,
)
from repro.workloads import BY_NAME

NODES = [TOP, BOT] + [TopNode("f", f"v{i}", 1) for i in range(7)]
KINDS = ((INTRA, None), (CALL, 11), (RET, 11), (CALL, 12), (RET, 12))

#: One edge (src index, dst index, kind index): self-loops, duplicates
#: and pairs of endpoints that are both new all occur.
edge_spec = st.tuples(
    st.integers(0, len(NODES) - 1),
    st.integers(0, len(NODES) - 1),
    st.integers(0, len(KINDS) - 1),
)
#: One definition: (node index, uid, kind tag).
def_spec = st.tuples(
    st.integers(0, len(NODES) - 1),
    st.one_of(st.none(), st.integers(0, 50)),
    st.sampled_from(["copy", "load", "param", "undef"]),
)


def edge(spec):
    src, dst, kind = spec
    return (NODES[src], NODES[dst]) + KINDS[kind]


def observe(vfg: VFG) -> dict:
    """Every read a caller can make, order included."""
    nodes = list(vfg.nodes())
    ids = range(vfg.num_nodes)
    return {
        "nodes": nodes,
        "ids": [vfg.node_id(node) for node in nodes],
        "edges": list(vfg.edges()),
        "num_edges": vfg.num_edges,
        "deps": [vfg.deps_of(node) for node in NODES],
        "flows": [vfg.flows_of(node) for node in NODES],
        "rows_into": [vfg.rows_into(nid) for nid in ids],
        "rows_out_of": [vfg.rows_out_of(nid) for nid in ids],
        "def_site": dict(vfg.def_site),
        "def_site_reads": [vfg.def_site.get(node) for node in NODES],
        "def_columns": vfg.def_columns(),
    }


def naive(edges, removed_pairs):
    """The live edges as a plain list, insertion order, duplicates and
    removed ``(src, dst)`` pairs dropped."""
    live = []
    for e in edges:
        if e not in live and e[:2] not in removed_pairs:
            live.append(e)
    return [Edge(*e) for e in live]


scenario = st.tuples(
    st.lists(edge_spec, max_size=30),
    st.lists(def_spec, max_size=10),
    st.lists(st.tuples(st.integers(0, len(NODES) - 1),
                       st.integers(0, len(NODES) - 1)), max_size=3),
)


@given(scenario)
@settings(max_examples=200, deadline=None)
def test_sealing_changes_no_read(case):
    specs, defs, between = case
    edges = [edge(s) for s in specs]
    vfg = VFG()
    for e in edges:
        vfg.add_edge(*e)
    for index, uid, kind in defs:
        vfg.record_def(NODES[index], uid, kind)
    removed = set()
    for src, dst in between:
        vfg.remove_edges_between(NODES[src], NODES[dst])
        removed.add((NODES[src], NODES[dst]))
    before = observe(vfg)
    vfg.seal()
    assert observe(vfg) == before
    assert isinstance(vfg.def_site, DefSites)
    # The reads match a plain list of the live edges.
    live = naive(edges, removed)
    assert vfg.num_edges == len(live)
    for node in NODES:
        assert vfg.deps_of(node) == [e for e in live if e.dst == node]
        assert vfg.flows_of(node) == [e for e in live if e.src == node]
    first_seen = []
    for e in edges:  # a new edge's destination before its source
        for node in (e[1], e[0]):
            if node not in first_seen:
                first_seen.append(node)
    grouped = [e for node in first_seen for e in live if e.dst == node]
    assert list(vfg.edges()) == grouped


def test_both_new_endpoints_group_the_destination_first():
    a, b, c = NODES[2], NODES[3], NODES[4]
    vfg = VFG()
    vfg.add_edge(a, b)  # both new: b's group comes first
    vfg.add_edge(c, a, CALL, 7)
    vfg.add_edge(b, b)
    vfg.add_edge(a, b)  # a duplicate
    vfg.seal()
    assert [e.dst for e in vfg.edges()] == [b, b, a]
    assert [vfg.node_id(n) for n in (a, b, c)] == [0, 1, 2]
    assert vfg.rows_out_of(0) == [(0, 1, INTRA, None)]
    assert vfg.rows_into(0) == [(2, 0, CALL, 7)]
    assert vfg.num_edges == 3


def _lists_held(vfg: VFG) -> int:
    """Lists the graph holds directly or one container deep."""
    count = 0
    for value in vars(vfg).values():
        if isinstance(value, dict):
            children = list(value.values())
        elif isinstance(value, (list, tuple)):
            children = value
        else:
            continue
        count += sum(isinstance(child, list) for child in children)
    return count


def test_a_built_graph_holds_no_list_per_node():
    from repro.api import analyze

    analysis = analyze(
        source=BY_NAME["176.gcc"].source(0.25), name="gcc",
        configs=["usher_tl", "usher_tl_at"],
    )
    for config in ("usher_tl", "usher_tl_at"):
        vfg = analysis.results[config].vfg
        assert vfg.num_nodes > 100
        # The def columns are the only lists; adjacency is arrays.
        assert _lists_held(vfg) == 2
        assert all(isinstance(part, array) for part in vfg.adjacency())


def test_nodes_are_slotted_and_survive_copy_and_pickle():
    loc = MemLoc(MemObject("g", "global"), 0)
    for node in (TopNode("f", "x", 3), MemNode("f", loc, 2)):
        assert not hasattr(node, "__dict__")
        for clone in (copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert clone == node and hash(clone) == hash(node)
            assert {clone: 1}[node] == 1


def test_a_defined_node_without_edges_reads_back():
    a, b, lone = NODES[2], NODES[3], NODES[4]
    vfg = VFG()
    vfg.add_edge(a, b)
    vfg.record_def(b, 7, "copy")
    vfg.record_def(lone, 9, "load")
    vfg.seal()
    assert vfg.node_id(lone) is None
    assert vfg.def_site[lone] == (9, "load")
    assert vfg.def_site.get(lone) == (9, "load")
    assert lone in vfg.def_site and a not in vfg.def_site
    assert dict(vfg.def_site) == {b: (7, "copy"), lone: (9, "load")}
    assert len(vfg.def_site) == 2


def test_the_suite_keeps_its_edge_free_definition():
    from repro.api import analyze

    analysis = analyze(
        source=BY_NAME["176.gcc"].source(0.25), name="gcc",
        configs=["usher_tl_at"],
    )
    vfg = analysis.results["usher_tl_at"].vfg
    lone = [n for n in vfg.def_site if vfg.node_id(n) is None]
    assert [str(n) for n in lone] == ["run_pass::%t46.1"]
    assert vfg.def_site[lone[0]] == (71, "load")
