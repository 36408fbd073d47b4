"""Tombstoned edge removal, sealing and Opt II's overlay over the VFG's
struct-of-arrays storage.

``remove_edge`` / ``remove_edges_between`` mark the row dead and drop
it from the adjacency the graph reads.  Every observable must still
match a graph built without the removed edges, order included:
``deps_of``, ``flows_of``, ``edges()``, ``num_edges`` and the id-level
rows.  Re-adding a removed edge must behave like adding it anew.

A :class:`VFGOverlay` over a sealed graph must read exactly like that
graph with the same rows removed and the same ``⊤ → r`` edges added
through the mutating API (the rewiring Opt II once did on a copy),
while the sealed base stays untouched.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.vfg.graph import (
    BOT, CALL, INTRA, RET, TOP, Edge, TopNode, VFG, VFGOverlay,
)
from repro.vfg.tabulation import resolve_gamma

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


def test_a_sealed_graph_refuses_mutation():
    vfg = build([(NODES[2], NODES[3], INTRA, None)])
    before = observe(vfg)
    vfg.seal()
    assert observe(vfg) == before  # num_edges survives the dropped index
    with pytest.raises(RuntimeError, match="sealed"):
        vfg.add_edge(NODES[3], NODES[4])
    with pytest.raises(RuntimeError, match="sealed"):
        vfg.remove_edge(Edge(NODES[2], NODES[3]))
    with pytest.raises(RuntimeError, match="sealed"):
        vfg.remove_edges_between(NODES[2], NODES[3])
    assert observe(vfg) == before


# ----------------------------------------------------------------------
# VFGOverlay
# ----------------------------------------------------------------------
def view(graph) -> dict:
    """Everything order-sensitive the id-level reads return."""
    ids = range(len(graph.node_table()))
    return {
        "nodes": list(graph.node_table()),
        "edges": list(graph.edges()),
        "rows_into": [graph.rows_into(i) for i in ids],
        "rows_out_of": [graph.rows_out_of(i) for i in ids],
        "def_columns": graph.def_columns(),
        "top": graph.node_id(TOP),
    }


#: One rewiring step: remove the rows into a node from a set of source
#: indices (⊤ included), or redirect a node to ⊤.
rewire_op = st.one_of(
    st.tuples(
        st.just("remove"),
        st.integers(1, len(NODES) - 1),
        st.frozensets(st.integers(0, len(NODES) - 1), max_size=4),
    ),
    st.tuples(st.just("redirect"), st.integers(1, len(NODES) - 1)),
)


def rewire(edges, ops):
    """``(sealed base, overlay, mutated copy, removal counts)`` after
    ``ops``: the overlay takes them through its own API, the copy
    through ``remove_edges_between`` / ``add_edge(TOP, r)``."""
    base = build(edges)
    base.seal()
    overlay = VFGOverlay(base)
    copy = build(edges)
    counts = []
    for op in ops:
        if op[0] == "remove":
            dst, srcs = NODES[op[1]], [NODES[i] for i in sorted(op[2])]
            got = overlay.remove_rows_into(
                base.node_id(dst), {base.node_id(n) for n in srcs}
            )
            want = sum(copy.remove_edges_between(n, dst) for n in srcs)
            counts.append((got, want))
        else:
            overlay.redirect_to_top(base.node_id(NODES[op[1]]))
            copy.add_edge(TOP, NODES[op[1]])
    return base, overlay, copy, counts


@given(st.lists(edge_spec, max_size=20), st.lists(rewire_op, max_size=12))
@settings(max_examples=200, deadline=None)
def test_overlay_reads_like_the_rewired_graph(specs, ops):
    edges = [edge(s) for s in specs]
    base, overlay, copy, counts = rewire(edges, ops)
    assert view(overlay) == view(copy)
    assert all(got == want for got, want in counts)
    for resolver in ("callstring", "summary"):
        assert (
            resolve_gamma(overlay, resolver).bottom_nodes
            == resolve_gamma(copy, resolver).bottom_nodes
        )
    # The base is read, never written.
    assert observe(base) == observe(build(edges))


def test_redirect_is_a_no_op_while_a_live_top_edge_exists():
    a, b = NODES[2], NODES[3]
    base = build([(a, b, INTRA, None)])
    base.seal()
    overlay = VFGOverlay(base)
    b_id, top = base.node_id(b), base.node_id(TOP)
    overlay.redirect_to_top(b_id)  # the spine's ⊤ → b is live
    assert view(overlay) == view(base)
    # Removed, the spine row is replaced by a fresh one appended last.
    assert overlay.remove_rows_into(b_id, {top}) == 1
    overlay.redirect_to_top(b_id)
    overlay.redirect_to_top(b_id)
    assert overlay.rows_into(b_id)[-1] == (top, b_id, INTRA, None)
    assert overlay.rows_out_of(top)[-1] == (top, b_id, INTRA, None)
    assert len(overlay.rows_into(b_id)) == len(base.rows_into(b_id))


def test_first_redirect_interns_top_when_the_base_has_none():
    a, b = NODES[2], NODES[3]
    edges = [(BOT, a, INTRA, None), (a, b, INTRA, None)]
    base = VFG()
    for e in edges:
        base.add_edge(*e)
    base.record_def(b, 7, "copy")
    copy = VFG()
    for e in edges:
        copy.add_edge(*e)
    copy.record_def(b, 7, "copy")
    base.seal()
    overlay = VFGOverlay(base)
    assert overlay.node_id(TOP) is None
    b_id = base.node_id(b)
    assert overlay.remove_rows_into(b_id, {base.node_id(a)}) == 1
    overlay.redirect_to_top(b_id)
    copy.remove_edges_between(a, b)
    copy.add_edge(TOP, b)
    assert overlay.node_id(TOP) == base.num_nodes == 3
    assert view(overlay) == view(copy)
    assert resolve_gamma(overlay).bottom_nodes == {a}
    assert base.node_id(TOP) is None and len(base.node_table()) == 3
