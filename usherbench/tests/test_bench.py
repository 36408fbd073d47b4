"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest usherbench/tests -q

They take about two minutes: the traced split is checked on one traced
pass of every workload.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from repro.oracle.faults import corrupt_plan  # noqa: E402


@pytest.fixture(scope="module")
def traced():
    """One untraced and one traced pass of every workload."""
    return {
        name: run.measure_workload(name, seed=3, seconds=0.01, trace=True)
        for name in workloads.WORKLOADS
    }


def drop_bug_check(analysis, native):
    """Drop usher_tl's check of every true bug (an exact-contract config)."""
    bugs = native.true_bug_set()
    if bugs:
        analysis.plans["usher_tl"] = corrupt_plan(
            analysis.plans["usher_tl"], "drop-check", label=min(bugs)
        )


def parser_pass(suite):
    state = suite.setup(seed=1)
    state["modules"] = [m for m in state["modules"] if m[0] == "197.parser"]
    return workloads.measure(suite, state, passes=1)


def test_planted_fault_raises_failed_frac():
    clean = parser_pass(workloads.PaperSuite())
    assert (clean.attempted, clean.failed) == (1, 0), clean.problems
    faulty = parser_pass(workloads.PaperSuite(fault=drop_bug_check))
    assert run.workload_metrics(faulty, session=False)["failed_frac"] > 0
    assert any("usher_tl: missed" in p for p in faulty.problems)


def test_traced_runs_pass_every_check(traced):
    for name, (_, runs) in traced.items():
        assert all(r.failed == 0 for r in runs), (name, [r.problems for r in runs])


def test_every_layer_time_is_measured_somewhere(traced):
    for metric in run.LAYER_TIMES:
        assert any(m[metric] > 0 for m, _ in traced.values()), metric


def test_paper_suite_is_runtime_dominated(traced):
    metrics, (_, trace_run) = traced["paper-suite"]
    spent = run.median([p["cpu"] for p in trace_run.passes])
    runtime = metrics["runtime.native_s"] + metrics["runtime.instrumented_s"]
    assert runtime >= 0.75 * spent


def test_static_large_is_opt2_and_vfg_dominated(traced):
    metrics, (_, trace_run) = traced["static-large"]
    analysis = run.median([p["analyze"] for p in trace_run.passes])
    assert metrics["core.opt2_s"] + metrics["vfg.build_s"] >= 0.6 * analysis
    assert metrics["runtime.native_s"] == metrics["runtime.instrumented_s"] == 0


def test_reports_what_benchmark_json_declares(traced):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    for metrics, _ in traced.values():
        assert set(metrics) == set(run.metric_units("per_layer"))


def test_session_passes_start_from_the_opened_module(traced):
    _, (plain, trace_run) = traced["session-edits"]
    # Every pass reopens the session, so the same pass index makes the
    # same edits and reaches the same plan whatever ran before it.
    assert plain.extra["final"] == trace_run.extra["final"]
    modes = [u.mode for u in trace_run.extra["updates"]]
    assert len(modes) == workloads.EDITS_PER_PASS * len(trace_run.passes)
    assert set(modes) <= {"warm", "rebuild"}


@pytest.mark.parametrize("var", run.REFUSED_ENV)
def test_refuses_knob_environment(monkeypatch, var):
    monkeypatch.setenv(var, "1")
    assert run.main(["--workload", "paper-suite", "--seconds", "1"]) == 2


def test_fails_cleanly_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "paper-suite",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
