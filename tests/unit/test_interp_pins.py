"""Interpreter equivalence pins: the exact report of every paper-suite run.

Every row of ``tests/data/interp_pins.json`` records, for one of the 19
SPEC-shaped programs at scale 0.25, the :class:`ExecutionReport` of its
native run and of its run under each ``CONFIG_ORDER`` plan: step and
native-op counts, the shadow event counters, the exit value, a digest
of the outputs, and the warned and truly-undefined uids in execution
order.  Any change to the interpreter's execution engine must reproduce
every row exactly.

Regenerate (only for a change that is meant to alter execution)::

    PYTHONPATH=src python tests/unit/test_interp_pins.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.api import CONFIG_ORDER, analyze
from repro.runtime import ExecutionReport
from repro.workloads import ALL_WORKLOADS

PINS = Path(__file__).resolve().parents[1] / "data" / "interp_pins.json"

#: Input scale of the SPEC-shaped programs.
SUITE_SCALE = 0.25


def report_row(report: ExecutionReport) -> dict:
    """Everything an execution engine change must keep identical."""
    outputs = ",".join(map(str, report.outputs)).encode()
    return {
        "steps": report.steps,
        "native_ops": report.native_ops,
        "events": report.events.as_dict(),
        "exit_value": report.exit_value,
        "outputs": [len(report.outputs), hashlib.sha256(outputs).hexdigest()[:16]],
        "warnings": list(report.warnings),
        "true_undefined_uses": list(report.true_undefined_uses),
    }


def interp_rows(name: str, source: str) -> dict:
    """The native run's and every paper config's run's report row."""
    analysis = analyze(source=source, name=name)
    rows = {"native": report_row(analysis.run_native())}
    for config in CONFIG_ORDER:
        rows[config] = report_row(analysis.run(config))
    return rows


def _pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.mark.parametrize(
    "workload", [pytest.param(w, id=w.name) for w in ALL_WORKLOADS]
)
def test_interpreter_matches_pins(workload):
    assert interp_rows(workload.name, workload.source(SUITE_SCALE)) == _pins()[
        workload.name
    ]


def test_pins_cover_every_run():
    pins = _pins()
    assert sorted(pins) == sorted(w.name for w in ALL_WORKLOADS)
    assert all(sorted(rows) == sorted(("native",) + CONFIG_ORDER) for rows in pins.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/unit/test_interp_pins.py --write")
    pins = {
        w.name: interp_rows(w.name, w.source(SUITE_SCALE)) for w in ALL_WORKLOADS
    }
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, pins.values()))} runs of {len(pins)} workloads to {PINS}")
