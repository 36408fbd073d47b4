"""Unified observability: span tracing, a stats registry, metrics.

Three zero-dependency pillars (see ``docs/observability.md``):

- :mod:`repro.obs.trace` — hierarchical in-process span tracing of
  every pipeline phase (``TRACE.span("vfg.build", ...)``), exportable
  as Chrome trace-event JSON (``repro check --trace out.json``, load in
  ``chrome://tracing`` / Perfetto) or a rendered tree (``repro report
  --sections trace``).  Disabled tracing is a no-op behind a single
  attribute check.
- :mod:`repro.obs.registry` — the :class:`StatsRegistry` every
  ``*Stats`` dataclass (solver, query, update, Opt II, VFG) registers
  into under one shared schema, plus the single JSONL writer behind
  every benchmark log (``tools/diff_solver_stats.py`` gates its rows).
- :mod:`repro.obs.metrics` — Prometheus-style counters, gauges and
  latency histograms rendered in the text exposition format; ``repro
  serve`` scrapes them at ``GET /metrics``.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
)
from repro.obs.registry import (
    REGISTRY,
    StatRecord,
    StatsRegistry,
    append_jsonl,
    write_stats_row,
)
from repro.obs.trace import (
    TRACE,
    SpanRecord,
    Tracer,
    trace,
    traced,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_prometheus_text",
    "REGISTRY",
    "StatRecord",
    "StatsRegistry",
    "append_jsonl",
    "write_stats_row",
    "TRACE",
    "SpanRecord",
    "Tracer",
    "trace",
    "traced",
    "validate_chrome_trace",
]
