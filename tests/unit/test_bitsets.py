"""Unit and property tests for the solver's points-to bitsets.

The :class:`~repro.analysis.andersen.DeltaSolver` stores every
points-to set as a dense Python int over MemLoc bit indices (lids):
int ``0`` is the empty set, so ``if bits:`` is the emptiness test,
members enumerate low-bit-first, and the memory profile counts each
live set's limb footprint.  The helpers are checked against plain
Python sets as the oracle.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis.andersen import DeltaSolver, _popcount
from tests.helpers import random_module

_lid_sets = st.sets(st.integers(min_value=0, max_value=200_000), max_size=60)


def _to_int(lids):
    bits = 0
    for lid in lids:
        bits |= 1 << lid
    return bits


def _solved(seed=5):
    solver = DeltaSolver(random_module(seed), wrappers=frozenset())
    solver.solve()
    return solver


class TestAlgebraAgainstIntOracle:
    @given(a=_lid_sets)
    @settings(max_examples=60, deadline=None)
    def test_count_and_iteration_ascend(self, a):
        bits = _to_int(a)
        assert _popcount(bits) == len(a)
        assert list(DeltaSolver._iter_lids(bits)) == sorted(a)

    def test_iteration_matches_int_order(self):
        # The solver's determinism rests on this: MemLocs come out in
        # ascending bit order, the order every consumer iterates in.
        solver = _solved()
        seen = 0
        for bits in solver._bits:
            lids = list(solver._iter_lids(bits))
            assert lids == sorted(lids)
            assert list(solver._iter_locs(bits)) == [
                solver._locs[lid] for lid in lids
            ]
            seen += bool(lids)
        assert seen, "the module should produce some points-to facts"

    def test_empty_sentinel_is_int_zero(self):
        # Empty sets are int 0, never None, so `if bits:` and `|=` work
        # on every node.
        solver = _solved()
        assert all(isinstance(bits, int) for bits in solver._bits)
        assert 0 in solver._bits
        assert _popcount(0) == 0
        assert list(DeltaSolver._iter_lids(0)) == []


class TestPackedSizeAccounting:
    def test_int_mode_is_limb_footprint(self):
        solver = _solved()
        solver.result()
        live = [
            bits
            for nid, bits in enumerate(solver._bits)
            if solver._parent[nid] == nid
        ]
        expected = sum((bits.bit_length() + 7) // 8 for bits in live)
        assert expected > 0
        assert solver.stats.bytes_pts == expected
