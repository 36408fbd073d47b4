"""Differential suite: ``AnalysisSession.update()`` vs cold analysis.

The incremental contract is absolute: after any sequence of updates,
the session's points-to sets, instrumentation plan and Γ verdicts must
be *bit-identical* to a from-scratch ``prepare_module`` + ``run_usher``
of the session's current module — whether the update warm-started the
solver or rebuilt, whatever fraction of the memo tables was carried.
The incremental machinery is allowed to be faster, never allowed to be
different.
"""

import copy

import pytest

from repro.core import prepare_module, run_usher
from repro.options import AnalysisOptions
from repro.service import AnalysisSession, plan_signature
from repro.workloads import GeneratorParams, generate_program

PROGRAM = """
def leaf(p) {
  var t = *p + 1;
  return t;
}
def helper(p, q) {
  var a;
  if (*p > 2) { a = leaf(q); }
  return a;
}
def classify(v) {
  var bin;
  var cell = malloc(1);
  *cell = v;
  if (v < 5) { bin = helper(cell, cell); }
  return bin;
}
def main() {
  var b = classify(9);
  var c = classify(1);
  if (b + c) { output(1); }
  return 0;
}
"""


def _const_edit(session, fname):
    """Insert a fresh constant assignment after the function's first
    label — a definedness-neutral edit that keeps the constraint set a
    superset (the warm-solve path)."""
    lines = session.function_text(fname).splitlines()
    for index, line in enumerate(lines):
        if line.rstrip().endswith(":"):
            lines.insert(index + 1, "    %__e0 := 0")
            break
    return "\n".join(lines)


def _cold_oracle(session):
    """From-scratch analysis of the session's current module."""
    prepared = prepare_module(copy.deepcopy(session.pristine))
    result = run_usher(prepared, session.config)
    verdicts = {}
    for site in result.vfg.check_sites:
        ok = result.gamma.is_defined(site.node)
        verdicts[site.instr_uid] = verdicts.get(site.instr_uid, True) and ok
    return prepared, result, verdicts


def _assert_bit_identical(session):
    cold_prep, cold, cold_verdicts = _cold_oracle(session)
    assert session.pointers.pts == cold_prep.pointers.pts
    assert plan_signature(session.plan) == plan_signature(cold.plan)
    assert session.query_sites() == cold_verdicts


class TestBitIdentityAcrossTiers:
    def test_initial_and_per_function_edits(self):
        session = AnalysisSession.from_source(PROGRAM, name="prog")
        _assert_bit_identical(session)
        for fname in session.function_names():
            stats = session.update(fname, _const_edit(session, fname))
            assert stats.function == fname
            assert stats.generation == session.generation
            _assert_bit_identical(session)

    def test_non_opt2_config(self):
        session = AnalysisSession.from_source(
            PROGRAM,
            name="prog",
            options=AnalysisOptions(config="usher_tl"),
        )
        _assert_bit_identical(session)
        session.update("classify", _const_edit(session, "classify"))
        _assert_bit_identical(session)

    def test_identity_update_is_warm(self):
        session = AnalysisSession.from_source(PROGRAM, name="prog")
        stats = session.update("leaf", session.function_text("leaf"))
        assert stats.mode == "warm"
        assert stats.dirty_nodes == 0
        _assert_bit_identical(session)


class TestIncrementalityBounds:
    def test_single_function_edit_on_factor8_corpus(self):
        source = generate_program(11, GeneratorParams().scaled(8))
        session = AnalysisSession.from_source(source, name="gen11")
        target = session.function_names()[0]
        stats = session.update(target, _const_edit(session, target))
        assert stats.mode == "warm", "a const append must warm-start"
        assert stats.total_nodes > 0
        assert stats.dirty_fraction < 0.20, (
            f"single-function edit dirtied {stats.dirty_fraction:.1%} "
            f"of the VFG ({stats.dirty_nodes}/{stats.total_nodes} nodes)"
        )
        assert stats.memos_carried > 0, (
            "clean-bucket demand memos must survive the update"
        )
        _assert_bit_identical(session)


class TestUpdateValidation:
    def test_unknown_function(self):
        session = AnalysisSession.from_source(PROGRAM, name="prog")
        with pytest.raises(KeyError):
            session.update("nope", "def nope() {\nentry:\n    ret 0\n}")

    def test_rename_rejected(self):
        session = AnalysisSession.from_source(PROGRAM, name="prog")
        renamed = session.function_text("leaf").replace(
            "def leaf", "def sprout", 1
        )
        with pytest.raises(ValueError):
            session.update("leaf", renamed)

    def test_generation_counts_updates(self):
        session = AnalysisSession.from_source(PROGRAM, name="prog")
        assert session.generation == 0
        session.update("leaf", _const_edit(session, "leaf"))
        session.update("main", _const_edit(session, "main"))
        assert session.generation == 2
        assert session.last_update.function == "main"
