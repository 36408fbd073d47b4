"""Observability: span tracing (see ``docs/observability.md``).

:mod:`repro.obs.trace` records hierarchical in-process spans of every
pipeline phase (``TRACE.span("vfg.build", ...)``), exportable as
Chrome trace-event JSON (``repro check --trace out.json``, load in
``chrome://tracing`` / Perfetto) or a rendered tree (``repro report
--sections trace``).  Disabled tracing is a no-op behind a single
attribute check.
"""

from repro.obs.trace import (
    TRACE,
    SpanRecord,
    Tracer,
    trace,
    traced,
    validate_chrome_trace,
)

__all__ = [
    "TRACE",
    "SpanRecord",
    "Tracer",
    "trace",
    "traced",
    "validate_chrome_trace",
]
