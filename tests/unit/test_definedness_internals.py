"""Unit tests for definedness resolution internals (§3.3)."""

import pytest

from repro.vfg.definedness import Definedness, resolve_definedness, step_context
from repro.vfg.graph import BOT, CALL, INTRA, RET, TOP, TopNode, VFG


class TestStepFunction:
    def test_intra_keeps_context(self):
        assert step_context((1, 2), INTRA, None, 2) == (1, 2)

    def test_call_pushes(self):
        assert step_context((), CALL, 7, 1) == (7,)
        assert step_context((3,), CALL, 7, 2) == (7, 3)

    def test_call_truncates_at_depth(self):
        assert step_context((3,), CALL, 7, 1) == (7,)
        assert step_context((3, 4), CALL, 7, 2) == (7, 3)

    def test_matching_return_pops(self):
        assert step_context((7,), RET, 7, 1) == ()
        assert step_context((7, 3), RET, 7, 2) == (3,)

    def test_mismatched_return_blocked(self):
        assert step_context((7,), RET, 8, 1) is None

    def test_empty_context_allows_any_return(self):
        # Sound: a truncated call string may return anywhere.
        assert step_context((), RET, 8, 1) == ()

    def test_depth_zero_is_context_insensitive(self):
        assert step_context((), CALL, 7, 0) == ()
        assert step_context((), RET, 7, 0) == ()

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            resolve_definedness(VFG(), context_depth=-1)


class TestResolution:
    def _chain(self):
        """F -> a -> b; T -> c."""
        vfg = VFG()
        a = TopNode("f", "a", 1)
        b = TopNode("f", "b", 1)
        c = TopNode("f", "c", 1)
        vfg.add_edge(BOT, a)
        vfg.add_edge(a, b)
        vfg.add_edge(TOP, c)
        return vfg, a, b, c

    def test_transitive_reachability(self):
        vfg, a, b, c = self._chain()
        gamma = resolve_definedness(vfg)
        assert not gamma.is_defined(a)
        assert not gamma.is_defined(b)
        assert gamma.is_defined(c)

    def test_roots_not_reported_bottom(self):
        vfg, *_ = self._chain()
        gamma = resolve_definedness(vfg)
        assert BOT not in gamma.bottom_nodes

    def test_constants_always_defined(self):
        vfg, *_ = self._chain()
        gamma = resolve_definedness(vfg)
        assert gamma.is_defined(None)
        assert gamma.gamma(None) == "⊤"

    def test_unreachable_return_edge_blocks_flow(self):
        # F enters g at call site 1 but the return to call site 2 is an
        # unrealizable path.
        vfg = VFG()
        arg1 = TopNode("caller", "bad", 1)
        formal = TopNode("g", "p", 1)
        ret = TopNode("g", "r", 1)
        out2 = TopNode("caller", "clean", 1)
        vfg.add_edge(BOT, arg1)
        vfg.add_edge(arg1, formal, CALL, 1)
        vfg.add_edge(formal, ret)
        vfg.add_edge(ret, out2, RET, 2)
        gamma1 = resolve_definedness(vfg, context_depth=1)
        assert gamma1.is_defined(out2)
        gamma0 = resolve_definedness(vfg, context_depth=0)
        assert not gamma0.is_defined(out2)

    def test_cycle_terminates(self):
        vfg = VFG()
        a = TopNode("f", "a", 1)
        b = TopNode("f", "b", 1)
        vfg.add_edge(BOT, a)
        vfg.add_edge(a, b)
        vfg.add_edge(b, a)
        gamma = resolve_definedness(vfg)
        assert not gamma.is_defined(a) and not gamma.is_defined(b)

    def test_count_bottom(self):
        vfg, a, b, c = self._chain()
        gamma = resolve_definedness(vfg)
        assert gamma.count_bottom() == 2
