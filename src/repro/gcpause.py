"""Pausing CPython's cyclic garbage collector around analysis work.

Everything :func:`repro.api.analyze`, the runs and
:class:`repro.service.session.AnalysisSession` create is freed by
reference counting alone: the IR's parent links are weak
(:attr:`repro.ir.instructions.Instr.block`,
:attr:`repro.ir.function.Block.function`) and no analysis builds a
recursive closure.  The cyclic collector would only rescan the
long-lived IR, VFG and shadow state on every few hundred allocations,
so those entry points run with it paused.
``tests/unit/test_reference_cycles.py`` keeps that safe: it fails if
the work leaves any cyclic garbage behind.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def collector_paused() -> Iterator[None]:
    """Disable the cyclic collector for the body, then re-enable it only
    if it was enabled on entry.  Nested pauses and a caller that
    disabled the collector itself keep their state.  Also usable as a
    decorator (``@collector_paused()``)."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
