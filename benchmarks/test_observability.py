"""Benchmark: the tracing layer's overhead and trace completeness.

Two gates keep the observability layer honest:

- **Disabled tracing is free.**  With :data:`repro.obs.trace.TRACE`
  disabled, every span site in the pipeline either short-circuits on
  ``TRACE.enabled`` or receives the shared no-op span.  The gate
  measures the per-call cost of a *disabled* span (the worst case —
  most hot sites never even call it), multiplies by the number of
  spans an enabled run records, and requires the product to stay
  under 2% of the untraced wall time on the heavy workload.  Timing
  the product instead of diffing two noisy end-to-end runs keeps the
  gate deterministic on loaded CI machines.

- **The trace covers every phase.**  One traced factor-16 end-to-end
  analysis must emit schema-valid Chrome trace-event JSON whose spans
  include parsing, constraint generation, solving (with per-wave
  spans), VFG construction, Opt I, Opt II and demand queries.
"""

import json
import time
import timeit

from repro.api import analyze
from repro.obs.trace import TRACE, validate_chrome_trace
from repro.workloads import GeneratorParams, generate_program

SEED = 11
FACTOR = 16

#: Phases the factor-16 trace must cover (ISSUE acceptance list).
REQUIRED_SPANS = (
    "parse",
    "constraints",
    "solve",
    "wave",
    "vfg.build",
    "opt1",
    "opt2",
    "demand.query",
)


def heavy_source() -> str:
    return generate_program(SEED, GeneratorParams().scaled(FACTOR))


def run_heavy(source: str):
    """Analyze, run under ``usher`` and explain every warning, as
    ``repro check --explain`` does: the explanations are the demand
    queries."""
    analysis = analyze(source=source, name=f"gen{SEED}")
    for uid in sorted(analysis.run("usher").warning_set()):
        analysis.explain(uid, config="usher")
    return analysis


class TestDisabledOverhead:
    def test_disabled_tracing_under_2_percent(self):
        source = heavy_source()
        assert not TRACE.enabled

        # Untraced wall time: min of three, the standard noise filter.
        walls = []
        for _ in range(3):
            started = time.perf_counter()
            run_heavy(source)
            walls.append(time.perf_counter() - started)
        disabled_wall = min(walls)

        # How many span sites one traced run actually hits.
        with TRACE.capture():
            run_heavy(source)
            n_spans = len(TRACE.events)
        assert n_spans > 0

        # Per-call cost of a *disabled* span — the worst-case price a
        # span site pays when tracing is off (guarded hot sites pay
        # only the ``TRACE.enabled`` attribute read, which is less).
        calls = 10_000
        per_call = (
            timeit.timeit(
                lambda: TRACE.span("bench", config="usher"),
                number=calls,
            )
            / calls
        )

        overhead = n_spans * per_call
        budget = 0.02 * disabled_wall
        assert overhead < budget, (
            f"{n_spans} spans x {per_call * 1e9:.0f}ns/disabled-span = "
            f"{overhead:.4f}s would exceed 2% of the untraced "
            f"{disabled_wall:.2f}s wall"
        )


class TestTraceCompleteness:
    def test_factor16_chrome_trace_covers_phases(self, tmp_path):
        out = tmp_path / "trace.json"
        with TRACE.capture():
            run_heavy(heavy_source())
            names = {span.name for span in TRACE.events}
            written = TRACE.write_chrome_trace(out)
        missing = [name for name in REQUIRED_SPANS if name not in names]
        assert not missing, f"trace lacks phase span(s): {missing}"

        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == written
        assert written == len(
            [e for e in payload["traceEvents"] if e["ph"] == "X"]
        )
