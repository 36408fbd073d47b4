"""Session bookkeeping shortcuts must equal the work they skip.

``AnalysisSession`` derives the fingerprints of Opt II's rewired
scratch graph from the main graph's (only the rewired edges' buckets
change) and copies the post-pipeline module with a pickle round trip.
These tests pin both to the full computation they replace.
"""

import copy

import pytest

from repro.core import UsherConfig
from repro.ir.printer import module_to_str
from repro.service import AnalysisSession
from repro.service import session as session_mod
from repro.vfg.graph import INTRA, TOP
from repro.workloads import GeneratorParams, generate_program
from tests.helpers import prepared_random


def test_edge_changes_lists_rewired_edges():
    vfg = prepared_random(3).vfg(UsherConfig.tl_at())
    scratch = vfg.copy()
    gone = next(
        e for e in vfg.edges()
        if all(d.src != TOP for d in vfg.deps_of(e.dst))
    )
    scratch.remove_edge(gone)
    scratch.add_edge(TOP, gone.dst)
    added, removed = scratch.edge_changes(vfg)
    assert removed == [(gone.src, gone.dst, gone.kind, gone.callsite)]
    assert added == [(TOP, gone.dst, INTRA, None)]
    assert vfg.copy().edge_changes(vfg) == ([], [])


def test_edge_changes_rejects_a_foreign_base():
    vfg = prepared_random(3).vfg(UsherConfig.tl_at())
    other = prepared_random(5).vfg(UsherConfig.tl_at())
    with pytest.raises(ValueError):
        vfg.edge_changes(other)


def _shrink_edit(session):
    """Delete the first store of the first function that has one."""
    for fname in session.function_names():
        lines = session.function_text(fname).splitlines()
        for index, line in enumerate(lines):
            if line.lstrip().startswith("*%") and " := " in line:
                del lines[index]
                return fname, "\n".join(lines)
    raise AssertionError("no store to delete")


def test_rewired_fingerprints_equal_a_full_recount(monkeypatch):
    derived = session_mod._rewired_fingerprints
    checked = []

    def recount(fingerprints, base, scratch):
        got = derived(fingerprints, base, scratch)
        assert got == session_mod._vfg_fingerprints(scratch)
        checked.append(got != fingerprints)
        return got

    monkeypatch.setattr(session_mod, "_rewired_fingerprints", recount)
    source = generate_program(11, GeneratorParams().scaled(2))
    session = AnalysisSession.from_source(source, name="gen11")
    for fname in session.function_names()[:3]:
        lines = session.function_text(fname).splitlines()
        label = next(i for i, line in enumerate(lines) if line.rstrip().endswith(":"))
        lines.insert(label + 1, "    %__fp := 0")
        session.update(fname, "\n".join(lines))
    session.update(*_shrink_edit(session))
    assert len(checked) == 5  # the open and every update ran Opt II
    assert any(checked), "Opt II rewired nothing; the patch went untested"


def test_module_copy_matches_deepcopy():
    session = AnalysisSession.from_source(
        generate_program(11, GeneratorParams().scaled(2)), name="gen11"
    )
    pristine = session.pristine
    copied = session_mod._copy_module(pristine)
    reference = copy.deepcopy(pristine)
    assert module_to_str(copied) == module_to_str(reference)
    assert [i.uid for i in copied.instructions()] == [
        i.uid for i in reference.instructions()
    ]
    shared = {id(i) for i in pristine.instructions()}
    assert not any(id(i) in shared for i in copied.instructions())
    for fn in copied.functions.values():
        for block in fn.blocks:
            assert block.function is fn
            assert all(instr.block is block for instr in block.instrs)
    assert module_to_str(pristine) == module_to_str(copied)
