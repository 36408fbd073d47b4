"""Benchmark of the Usher reproduction: one command, three workloads.

Run from the repository root::

    python3 usherbench/run.py --workload paper-suite --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no hooks installed.
``--trace 1`` measures half the time with no hooks, then the same
number of passes with timing hooks, and reports the per-layer metrics
(self time per layer, layer counters, tracing overhead).

Metric names and units are the ones ``BENCHMARK.json`` declares.
Human-readable ``name value unit`` lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every output check
passed, 1 when one failed and 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"

#: Knobs that would move a number off the default path.
REFUSED_ENV = ("REPRO_JOBS", "REPRO_TIER", "REPRO_STORAGE")
SETUP_REPEATS = 9

#: The per-layer timing metrics: metric -> (span, Hooks table).
LAYER_TIMES = {
    "tinyc.compile_s": ("tinyc.compile", "self_s"),
    "opt.pipeline_s": ("opt.pipeline", "self_s"),
    "ir.verify_s": ("ir.verify", "self_s"),
    "ir.parse_s": ("ir.parse", "self_s"),
    "analysis.pointers_s": ("analysis.pointers", "self_s"),
    "analysis.callgraph_s": ("analysis.callgraph", "self_s"),
    "analysis.modref_s": ("analysis.modref", "self_s"),
    "memssa.build_s": ("memssa.build", "self_s"),
    "vfg.build_s": ("vfg.build", "self_s"),
    "vfg.gamma_s": ("vfg.gamma", "self_s"),
    "core.opt2_s": ("core.opt2", "self_s"),
    "core.instrument_s": ("core.instrument", "self_s"),
    "core.msan_s": ("core.msan", "self_s"),
    "runtime.native_s": ("runtime.native", "self_s"),
    "runtime.instrumented_s": ("runtime.instrumented", "self_s"),
    "service.update_s": ("service.update", "total_s"),
    "service.query_s": ("service.query", "self_s"),
    # Update time not covered by a wrapped layer call.
    "service.bookkeeping_s": ("service.update", "self_s"),
}

#: End-to-end figures only some workloads have; reported per layer.
SPECIFIC = (
    "execute_s", "update_p50_ms", "update_p90_ms", "update_warm_p50_ms",
    "update_rebuild_p50_ms", "usher_slowdown_gmean_pct", "failed_frac",
)

#: Counters read off the program's outputs; they must not move between
#: the untraced and the traced half.
DETERMINISTIC = (
    "checks", "propagations", "steps", "shadow_reads", "dyn_checks",
    "vfg_nodes", "vfg_edges",
)


def metric_units(kind: str) -> dict:
    """``name -> unit`` of BENCHMARK.json's ``end_to_end`` or
    ``per_layer`` metrics, in their declared order."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


def median(values):
    return statistics.median(values) if values else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def slowdown_gmean_pct(percents):
    """Geometric mean of the slowdown factors ``1 + pct/100``, in percent
    (a program with no shadow work has factor 1, not a zero to log)."""
    logs = [math.log1p(pct / 100.0) for pct in percents]
    return 100.0 * math.expm1(sum(logs) / len(logs))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def module_median(passes, part: int) -> float:
    """Sum over modules of each module's median time across passes
    (``part`` 0: analysis, 1: execution; ``None``: both)."""
    names = passes[0]["by_module"]
    return sum(
        median([
            sum(p["by_module"][name]) if part is None else p["by_module"][name][part]
            for p in passes
            if name in p["by_module"]
        ])
        for name in names
    )


def workload_metrics(run, session: bool) -> dict:
    """The end-to-end figures of one measurement; ``None`` where the
    workload has no such figure."""
    passes = run.passes
    latencies = run.extra.get("latencies_ms", [])
    paths = [u.mode for u in run.extra.get("updates", [])]
    if session:
        analyze = median(run.extra["cold_s"])
        items = run.extra["open_items"]
        pass_s = median([p["cpu"] for p in passes])
    else:
        analyze = module_median(passes, 0)
        items = median([p["checks"] + p["propagations"] for p in passes])
        pass_s = module_median(passes, None)
    deciles = statistics.quantiles(latencies, n=10) if len(latencies) > 1 else None

    def path_p50(mode):
        """Median latency of the edits that took the session's ``mode`` path."""
        if not latencies:
            return None
        return median([ms for ms, path in zip(latencies, paths) if path == mode])

    return {
        "analyze_s": analyze,
        "pass_s": pass_s,
        "usher_items": items,
        "execute_s": module_median(passes, 1) if "execute" in passes[0] else None,
        "update_p50_ms": median(latencies) if latencies else None,
        "update_p90_ms": deciles[8] if deciles else None,
        "update_warm_p50_ms": path_p50("warm"),
        "update_rebuild_p50_ms": path_p50("rebuild"),
        "usher_slowdown_gmean_pct": slowdown_gmean_pct(passes[0]["slowdowns"]) if "slowdowns" in passes[0] else None,
        "failed_frac": ratio(run.failed, run.attempted),
    }


def counters(run, session: bool) -> dict:
    """One pass's deterministic counters (session: the final state)."""
    if session:
        final_checks, final_props = run.extra["final"]
        nodes, edges = run.extra["final_vfg"]
        return {
            "checks": final_checks,
            "propagations": final_props,
            "vfg_nodes": nodes,
            "vfg_edges": edges,
        }
    return run.passes[0]


def layer_metrics(plain, traced, session: bool) -> dict:
    """Per-layer metrics: times and call counts from the traced half,
    counters from its outputs, end-to-end figures and throughput from
    the untraced half."""
    metrics = {}
    for name, (span, table) in LAYER_TIMES.items():
        metrics[name] = median([getattr(h, table).get(span, 0.0) for h in traced.hooks])
    counts = counters(traced, session)
    builds = sum(h.calls["vfg.build"] for h in traced.hooks)
    if session:
        updates = traced.extra["updates"]
        carried = sum(u.memos_carried for u in updates)
        dropped = sum(u.memos_dropped for u in updates)
        redirected, processed = traced.extra["final_opt2"]
        metrics.update({
            "analysis.pops": traced.extra["open_pops"],
            "analysis.facts_propagated": traced.extra["open_facts"],
            "vfg.build_calls": ratio(builds, len(updates)),
            "core.opt2_redirect_ratio": ratio(redirected, processed),
            "service.rebuild_share": ratio(sum(u.mode == "rebuild" for u in updates), len(updates)),
            "service.memo_carry_ratio": ratio(carried, carried + dropped),
            "service.dirty_fraction": ratio(sum(u.dirty_fraction for u in updates), len(updates)),
        })
    else:
        metrics.update({
            "analysis.pops": counts["pops"],
            "analysis.facts_propagated": counts["facts_propagated"],
            "vfg.build_calls": ratio(builds, counts["modules"] * len(traced.passes)),
            "core.opt2_redirect_ratio": ratio(counts["redirected"], counts["sites_processed"]),
            "service.rebuild_share": 0.0,
            "service.memo_carry_ratio": 0.0,
            "service.dirty_fraction": 0.0,
        })
    e2e = workload_metrics(plain, session)
    metrics.update({
        "vfg.nodes": counts["vfg_nodes"],
        "vfg.edges": counts["vfg_edges"],
        "core.checks": counts["checks"],
        "core.propagations": counts["propagations"],
        "runtime.steps": counts.get("steps", 0),
        "runtime.steps_per_s": ratio(counts.get("steps", 0), e2e["execute_s"]),
        "runtime.shadow_reads": counts.get("shadow_reads", 0),
        "runtime.dyn_checks": counts.get("dyn_checks", 0),
        "bench.trace_overhead_frac": ratio(
            median([p["cpu"] for p in traced.passes]),
            median([p["cpu"] for p in plain.passes]),
        ) - 1.0,
    })
    for name in SPECIFIC:
        metrics[name] = e2e[name] or 0.0
    return metrics


def children_cpu_s() -> float:
    used = resource.getrusage(resource.RUSAGE_CHILDREN)
    return used.ru_utime + used.ru_stime


def fresh_import_s() -> float:
    """CPU time of a fresh interpreter importing the whole pipeline."""
    before = children_cpu_s()
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path[:0] = {[str(SRC), str(HERE)]!r}; "
         "import workloads"],
        check=True,
    )
    return children_cpu_s() - before


def measure_workload(name: str, seed: int, seconds: float, trace: bool):
    """Set up and measure one workload: ``(metrics, runs)``.

    Untraced, the metrics are the end-to-end ones; the workload-specific
    figures are printed as they are measured.  Traced, half the time
    runs with no hooks and then as many passes again with timing hooks;
    the metrics are the per-layer ones.
    """
    import layers
    import workloads

    workload = workloads.WORKLOADS[name]()
    session = name == "session-edits"
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = layers.CLOCK()
        state = workload.setup(seed)
        setups.append(layers.CLOCK() - t0 + fresh_import_s())

    if not trace:
        run = workloads.measure(workload, state, seconds=seconds)
        figures = workload_metrics(run, session)
        units = metric_units("per_layer")
        for figure in SPECIFIC:
            if figures[figure] is not None:
                print(f"{figure} {figures[figure]:.6g} {units[figure]}")
        metrics = {
            "setup_s": median(setups),
            "analyze_s": figures["analyze_s"],
            "pass_s": figures["pass_s"],
            "usher_items": figures["usher_items"],
            "peak_rss_mb": peak_rss_mb(),
        }
        return metrics, [run]

    plain = workloads.measure(workload, state, seconds=seconds / 2)
    traced = workloads.measure(workload, state, passes=len(plain.passes), traced=True)
    before, after = counters(plain, session), counters(traced, session)
    plain.operation("trace determinism", lambda: [
        f"{key}: untraced {before.get(key)} vs traced {after.get(key)}"
        for key in DETERMINISTIC
        if before.get(key) != after.get(key)
    ])
    return layer_metrics(plain, traced, session), [plain, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=False)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-pins", action="store_true",
        help="recompute pins.json (per-module plan counts) and exit",
    )
    args = parser.parse_args(argv)

    refused = [var for var in REFUSED_ENV if var in os.environ]
    if refused:
        print(f"error: unset {', '.join(refused)}: the benchmark measures "
              "the default configuration only", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads

    if args.write_pins:
        text = json.dumps(workloads.pin_all(), indent=1)
        # One [checks, propagations] pair per line.
        text = re.sub(r"\[\s+(\d+),\s+(\d+)\s+\]", r"[\1, \2]", text)
        workloads.PINS.write_text(text + "\n")
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"error: --workload must be one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    metrics, runs = measure_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    units = metric_units("per_layer" if args.trace else "end_to_end")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    for r in runs:
        for problem in r.problems[:20]:
            print(f"check failed: {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
