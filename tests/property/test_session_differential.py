"""Differential suite: ``AnalysisSession.update()`` vs cold analysis.

The contract is absolute: after any sequence of updates, the session's
points-to sets, instrumentation plan and Γ verdicts must be
*bit-identical* to a from-scratch ``prepare_module`` + ``run_usher``
of the session's current module, and every function an edit left
textually unchanged keeps its instruction uids.  The session's
``pristine`` module, derived on demand, is checked against the module
it analyzed after every step.
"""

import copy
import random
import re

import pytest

from repro.core import prepare_module, run_usher
from repro.ir.parser import IRParseError
from repro.ir.printer import function_to_str
from repro.ir.verifier import VerificationError
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


_STORE = re.compile(r"^\s+\*%\S+ := ")


def _const_edit(session, fname, serial=0):
    """Insert a fresh constant assignment after the function's first
    label — a definedness-neutral edit."""
    lines = session.function_text(fname).splitlines()
    for index, line in enumerate(lines):
        if line.rstrip().endswith(":"):
            lines.insert(index + 1, f"    %__e{serial} := 0")
            break
    return "\n".join(lines)


def _store_deletion(session, fname, rng):
    """Delete one seeded store of ``fname`` (``None`` if it has none)
    — a shrinking edit that can change points-to facts and plans."""
    lines = session.function_text(fname).splitlines()
    stores = [i for i, line in enumerate(lines) if _STORE.match(line)]
    if not stores:
        return None
    del lines[rng.choice(stores)]
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
    _assert_pristine_contract(session)
    cold_prep, cold, cold_verdicts = _cold_oracle(session)
    assert session.pointers.pts == cold_prep.pointers.pts
    assert plan_signature(session.plan) == plan_signature(cold.plan)
    assert session.query_sites() == cold_verdicts


def _assert_pristine_contract(session):
    """``pristine`` is the analyzed module without memory SSA: its own
    object, cached per generation, and free to read."""
    signature = plan_signature(session.plan)
    generation = session.generation
    pristine = session.pristine
    assert session.pristine is pristine
    assert pristine is not session.module
    assert pristine.name == session.module.name
    analyzed = {i.uid: i for i in session.module.instructions()}
    for fname, fn in pristine.functions.items():
        for block in fn.blocks:
            assert not block.mem_phis
            for instr in block.instrs:
                assert not instr.mus and not instr.chis
                twin = analyzed[instr.uid]
                assert type(twin) is type(instr)
                assert twin.block.function.name == fname
    assert plan_signature(session.plan) == signature
    assert session.generation == generation


def _snapshot(session):
    """Post-pipeline text and instruction uids of every function."""
    return {
        fname: (function_to_str(fn), [i.uid for i in fn.instructions()])
        for fname, fn in session.pristine.functions.items()
    }


def _assert_untouched_uids_kept(before, after):
    """Functions whose post-pipeline text an edit left alone keep
    their uids; returns how many such functions there were."""
    kept = 0
    for fname, (text, uids) in before.items():
        if after[fname][0] == text:
            assert after[fname][1] == uids, fname
            kept += 1
    return kept


def _apply(session, step):
    """Apply one ``(kind, function, body)`` step and check it against
    the cold oracle and the uid contract."""
    kind, fname, body = step
    before = _snapshot(session)
    generation = session.generation
    stats = session.update(fname, body)
    assert (stats.function, stats.mode) == (fname, "rebuild")
    assert stats.generation == session.generation == generation + 1
    _assert_bit_identical(session)
    after = _snapshot(session)
    kept = _assert_untouched_uids_kept(before, after)
    if kind == "identity":
        assert after == before
    return kept


def _random_steps(session, rng, count):
    """``count`` seeded edits: constant inserts, store deletions and
    identity edits on seeded functions."""
    for serial in range(count):
        kind = rng.choice(("const", "store", "identity"))
        fname = rng.choice(session.function_names())
        if kind == "store":
            body = _store_deletion(session, fname, rng)
            if body is None:
                kind = "identity"
        if kind == "const":
            body = _const_edit(session, fname, serial)
        elif kind == "identity":
            body = session.function_text(fname)
        yield kind, fname, body


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
        _apply(session, ("const", "classify", _const_edit(session, "classify")))
        for step in _random_steps(session, random.Random(7), 6):
            _apply(session, step)


class TestEditSequences:
    """Seeded edit sequences, checked against cold analysis after
    every step."""

    @pytest.mark.parametrize("seed", range(4))
    def test_program_sequence(self, seed):
        session = AnalysisSession.from_source(PROGRAM, name="prog")
        rng = random.Random(seed)
        # An identity edit of a leaf changes nothing, uids included.
        _apply(session, ("identity", "leaf", session.function_text("leaf")))
        for step in _random_steps(session, rng, 8):
            _apply(session, step)

    def test_factor8_corpus_sequence(self):
        source = generate_program(11, GeneratorParams().scaled(8))
        session = AnalysisSession.from_source(source, name="gen11")
        target = session.function_names()[0]
        # A single constant insert keeps every other function's uids.
        kept = _apply(
            session, ("const", target, _const_edit(session, target))
        )
        assert kept == len(session.function_names()) - 1
        for step in _random_steps(session, random.Random(11), 5):
            _apply(session, step)


class TestInlinedModule:
    """The pipeline inlines ``apply`` (a function-pointer parameter)
    into ``main``; the inlined names must not shift between rebuilds."""

    SOURCE = """
    def apply(f, x) { return f(x); }
    def inc(v) { var w = v + 1; return w; }
    def main() { var a = apply(inc, 1); var b; if (a > 1) { b = apply(inc, a); } output(b); return 0; }
    """

    def test_untouched_inlined_caller_keeps_its_uids(self):
        session = AnalysisSession.from_source(self.SOURCE, name="inl")
        _assert_bit_identical(session)
        assert any(
            ".inl" in block.label
            for block in session.pristine.functions["main"].blocks
        )
        kept = _apply(session, ("const", "inc", _const_edit(session, "inc")))
        assert kept == len(session.function_names()) - 1
        for step in _random_steps(session, random.Random(3), 4):
            _apply(session, step)


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

    def test_module_name_survives_updates(self):
        session = AnalysisSession.from_source(PROGRAM, name="gen-f2")
        assert session.module.name == session.pristine.name == "gen-f2"
        session.update("leaf", _const_edit(session, "leaf"))
        assert session.module.name == session.pristine.name == "gen-f2"

    def test_declared_global_rejected(self):
        session = AnalysisSession.from_source(PROGRAM, name="prog")
        session.update("leaf", _const_edit(session, "leaf"))
        texts = {f: session.function_text(f) for f in session.function_names()}
        signature = plan_signature(session.plan)
        generation, last = session.generation, session.last_update
        body = "global zz (init=F)\n" + session.function_text("main")
        with pytest.raises(ValueError, match="globals"):
            session.update("main", body)
        assert {
            f: session.function_text(f) for f in session.function_names()
        } == texts
        assert plan_signature(session.plan) == signature
        assert session.generation == generation
        assert session.last_update is last
        assert "zz" not in session.module.globals

    def test_unparseable_update_leaves_the_session_unchanged(self):
        session = AnalysisSession.from_source(PROGRAM, name="prog")
        session.update("leaf", _const_edit(session, "leaf"))
        texts = {f: session.function_text(f) for f in session.function_names()}
        signature = plan_signature(session.plan)
        generation, last = session.generation, session.last_update
        lines = session.function_text("main").splitlines()
        ret = next(i for i, line in enumerate(lines) if "ret " in line)
        # An instruction after the block's terminator.
        lines.insert(ret + 1, "    zz := 1")
        with pytest.raises(IRParseError, match="already has a terminator"):
            session.update("main", "\n".join(lines))
        assert {
            f: session.function_text(f) for f in session.function_names()
        } == texts
        assert plan_signature(session.plan) == signature
        assert session.generation == generation
        assert session.last_update is last

    def test_generation_counts_updates(self):
        session = AnalysisSession.from_source(PROGRAM, name="prog")
        assert session.generation == 0
        session.update("leaf", _const_edit(session, "leaf"))
        session.update("main", _const_edit(session, "main"))
        assert session.generation == 2
        assert session.last_update.function == "main"

    def test_failed_update_leaves_the_session_unchanged(self):
        session = AnalysisSession.from_source(PROGRAM, name="prog")
        session.update("leaf", _const_edit(session, "leaf"))
        text = session.function_text("main")
        signature = plan_signature(session.plan)
        generation, last = session.generation, session.last_update
        # Parses, but its last block has no terminator.
        broken = "\n".join(
            line for line in text.splitlines()
            if not line.lstrip().startswith("ret ")
        )
        with pytest.raises(VerificationError):
            session.update("main", broken)
        assert session.function_text("main") == text
        assert plan_signature(session.plan) == signature
        assert session.generation == generation
        assert session.last_update is last
        # A later valid update of any function goes through.
        stats = session.update("classify", _const_edit(session, "classify"))
        assert stats.generation == generation + 1
        _assert_bit_identical(session)
