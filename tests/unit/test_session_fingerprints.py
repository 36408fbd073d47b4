"""The session's module copy must equal the work it skips.

``AnalysisSession`` copies the post-pipeline module with a pickle
round trip instead of ``copy.deepcopy``; this pins the two together.
"""

import copy

from repro.ir.printer import module_to_str
from repro.service import AnalysisSession
from repro.service import session as session_mod
from repro.workloads import GeneratorParams, generate_program


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
