"""Per-layer self time, measured from outside the program.

Each layer's public entry point is wrapped at the module attribute its
caller looks it up under, so a traced run follows whatever path
``analyze()`` and ``AnalysisSession`` actually take and no file under
``src/`` changes.  The program's own ``TRACE`` stays disabled.

A wrapper keeps a stack of open calls: a call's self time is its
duration minus the time of the wrapped calls it made (its child spans).
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

from repro import api
from repro.core import usher
from repro.service import session

#: The clock of every benchmark time: CPU time (user + system) of this
#: process.  The benchmark runs serially in one process, so this is the
#: time its work takes; wall time on a shared machine also counts the
#: time other processes held the CPU, and swings far more between runs.
CLOCK = time.process_time

_API = (
    ("compile_source", "tinyc.compile"),
    ("run_pipeline", "opt.pipeline"),
    ("verify_module", "ir.verify"),
    ("prepare_module", "analysis.prepare"),
    ("run_msan", "core.msan"),
    ("run_native", "runtime.native"),
    ("run_instrumented", "runtime.instrumented"),
)

_STATIC = (
    ("analyze_pointers", "analysis.pointers"),
    ("CallGraph", "analysis.callgraph"),
    ("ModRefResult", "analysis.modref"),
    ("build_memory_ssa", "memssa.build"),
    ("build_vfg", "vfg.build"),
    ("resolve_for_config", "vfg.gamma"),
    ("redundant_check_elimination", "core.opt2"),
    ("build_guided_plan", "core.instrument"),
    ("parse_ir", "ir.parse"),
    # The session re-runs the pipeline and the verifier on every update.
    ("run_pipeline", "opt.pipeline"),
    ("verify_module", "ir.verify"),
)

#: (owner, attribute, span name) for every wrapped entry point.  Names
#: an owner does not define are skipped.
ENTRY_POINTS = (
    [(api, attr, span) for attr, span in _API]
    + [(owner, attr, span) for owner in (usher, session) for attr, span in _STATIC]
    + [
        (session.AnalysisSession, "update", "service.update"),
        (session.AnalysisSession, "query_sites", "service.query"),
    ]
)


class Hooks:
    """Call counts, self time and total time per span name."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self._open: List[List[float]] = []

    def wrap(self, fn, name: str):
        clock = CLOCK

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            self.calls[name] += 1
            children = [0.0]
            self._open.append(children)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - started
                self._open.pop()
                self.self_s[name] += duration - children[0]
                self.total_s[name] += duration
                if self._open:
                    self._open[-1][0] += duration

        return timed


@contextmanager
def installed(hooks: Optional[Hooks]) -> Iterator[Optional[Hooks]]:
    """Wrap every entry point for the enclosed block (``None``: no-op)."""
    if hooks is None:
        yield None
        return
    saved = []
    for owner, attr, span in ENTRY_POINTS:
        original = owner.__dict__.get(attr)
        if original is None:
            continue
        saved.append((owner, attr, original))
        setattr(owner, attr, hooks.wrap(original, span))
    try:
        yield hooks
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
