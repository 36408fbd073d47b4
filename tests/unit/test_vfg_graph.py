"""Tombstoned edge removal in the VFG's struct-of-arrays storage.

``remove_edge`` / ``remove_edges_between`` mark the row dead and leave
it in both adjacency lists.  Every observable must still match a graph
built without the removed edges, order included: ``deps_of``,
``flows_of``, ``edges()``, ``num_edges``, the id-level rows, ``copy()``
and ``edge_changes()``.  Re-adding a removed edge must behave like adding it anew.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.vfg.graph import BOT, CALL, INTRA, RET, TOP, Edge, TopNode, VFG

NODES = [TOP, BOT] + [TopNode("f", f"v{i}", 1) for i in range(6)]
KINDS = ((INTRA, None), (CALL, 11), (RET, 11), (CALL, 12))

#: One edge: (src index, dst index, kind index).  ⊤ is never a source,
#: so no random edge or removed pair touches the spine.
edge_spec = st.tuples(
    st.integers(1, len(NODES) - 1),
    st.integers(2, len(NODES) - 1),
    st.integers(0, len(KINDS) - 1),
)


def edge(spec):
    src, dst, kind = spec
    return (NODES[src], NODES[dst]) + KINDS[kind]


def build(edges) -> VFG:
    """A graph whose node order is fixed up front by a spine of edges
    out of ⊤ into every other node, then ``edges``."""
    vfg = VFG()
    for node in NODES[1:]:
        vfg.add_edge(TOP, node)
    for e in edges:
        vfg.add_edge(*e)
    return vfg


def observe(vfg: VFG) -> dict:
    """Everything order-sensitive a caller can read off a graph."""
    ids = {node: vfg.node_id(node) for node in vfg.nodes()}
    return {
        "nodes": list(vfg.nodes()),
        "edges": list(vfg.edges()),
        "num_edges": vfg.num_edges,
        "deps": {n: vfg.deps_of(n) for n in vfg.nodes()},
        "flows": {n: vfg.flows_of(n) for n in vfg.nodes()},
        "rows_into": {n: vfg.rows_into(i) for n, i in ids.items()},
        "rows_out_of": {n: vfg.rows_out_of(i) for n, i in ids.items()},
    }


def remove(vfg: VFG, removed, between) -> None:
    for e in removed:
        vfg.remove_edge(Edge(*e))
    for src, dst in between:
        vfg.remove_edges_between(src, dst)


def survivors(edges, removed, between):
    gone = set(removed)
    pairs = set(between)
    return [e for e in edges if e not in gone and e[:2] not in pairs]


scenario = st.lists(edge_spec, max_size=25).flatmap(
    lambda specs: st.tuples(
        st.just([edge(s) for s in specs]),
        st.lists(st.sampled_from([edge(s) for s in specs]), max_size=6)
        if specs
        else st.just([]),
        st.lists(st.sampled_from([edge(s)[:2] for s in specs]), max_size=3)
        if specs
        else st.just([]),
    )
)


@given(scenario)
@settings(max_examples=150, deadline=None)
def test_removal_matches_a_graph_built_without_the_edges(case):
    edges, removed, between = case
    vfg = build(edges)
    remove(vfg, removed, between)
    expected = build(survivors(edges, removed, between))
    assert observe(vfg) == observe(expected)
    assert observe(vfg.copy()) == observe(expected)


@given(scenario)
@settings(max_examples=150, deadline=None)
def test_edge_changes_of_a_rewired_copy(case):
    edges, removed, between = case
    base = build(edges)
    scratch = base.copy()
    remove(scratch, removed, between)
    added, dropped = scratch.edge_changes(base)
    assert added == []
    kept = set(survivors(edges, removed, between))
    assert set(dropped) == set(edges) - kept
    # The base graph is untouched by its copy's removals.
    assert observe(base) == observe(build(edges))


@given(scenario)
@settings(max_examples=150, deadline=None)
def test_readding_a_removed_edge(case):
    edges, removed, between = case
    vfg = build(edges)
    remove(vfg, removed, between)
    kept = survivors(edges, removed, between)
    readd = [e for e in dict.fromkeys(edges) if e not in kept]
    for e in readd:
        vfg.add_edge(*e)
    # A re-added edge goes to the end of its endpoints' lists.
    assert observe(vfg) == observe(build(kept + readd))


def test_remove_edges_between_counts_every_kind():
    a, b = NODES[2], NODES[3]
    vfg = build([(a, b, CALL, 11), (a, b, INTRA, None), (b, a, INTRA, None)])
    assert vfg.remove_edges_between(a, b) == 2
    assert vfg.remove_edges_between(a, b) == 0
    assert [e.src for e in vfg.deps_of(b)] == [TOP]
    assert [e.dst for e in vfg.flows_of(b)] == [a]
    assert vfg.num_edges == len(NODES)  # the spine plus b -> a


def test_removing_a_missing_edge_is_a_no_op():
    vfg = build([])
    before = observe(vfg)
    vfg.remove_edge(Edge(NODES[7], NODES[2]))
    vfg.remove_edge(Edge(TopNode("g", "absent", 1), NODES[2]))
    assert vfg.remove_edges_between(NODES[7], NODES[2]) == 0
    assert observe(vfg) == before
