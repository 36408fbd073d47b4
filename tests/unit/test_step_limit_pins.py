"""Step-limit outcome pins: what every budget does to a few tiny runs.

Every row of ``tests/data/step_limit_pins.json`` records, for one small
TinyC program run natively and under the ``msan`` and ``usher`` plans,
the outcome of the run at each ``max_steps`` from 1 up to one past the
first budget at which the run no longer exceeds the limit.  An outcome
is the exception's type and message (``StepLimitExceeded``,
``RuntimeFault`` or ``ShadowProtocolError``), or the full report row of
a finished run.  The programs together cover a call with
``RelayOut``/``RelayIn`` ops, a loop whose head φ carries a
``PhiShadow`` post-op, ``Check`` pre-ops on a load and on a branch,
entry ops, and a load through a junk pointer after a few iterations —
every place the engine counts a step.  A fourth run uses the ``msan``
plan without the writes of its first check's shadow, so that check's
pre-op faults: its step is counted after its instruction's, which pins
where a faulting pre-op meets the limit.  Any change to the execution
engine must reproduce every outcome exactly.

Outcomes are run-length encoded as ``[count, outcome]`` pairs; a step
limit's message names the budget, stored as ``{max_steps}``.

Regenerate (only for a change that is meant to alter execution)::

    PYTHONPATH=src:. python tests/unit/test_step_limit_pins.py --write
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

from repro.api import analyze
from repro.core.plan import Check, InstrumentationPlan
from repro.runtime import (
    RuntimeFault,
    ShadowProtocolError,
    StepLimitExceeded,
    run_instrumented,
    run_native,
)
from tests.unit.test_interp_pins import report_row

PINS = Path(__file__).resolve().parents[1] / "data" / "step_limit_pins.json"

#: The plans each program also runs under (besides natively).
PLANS = ("msan", "usher")
#: The run whose first check reads a shadow nothing wrote.
UNWRITTEN = "msan_unwritten_check"

PROGRAMS = {
    # Relay ops around both calls, entry ops, a Check
    # pre-op on the output of a partly undefined sum.
    "call": """
def add(a, b) { return a + b; }
def main() {
  var x;
  var s = add(1, 2);
  var t = add(s, x);
  output(t);
  return s;
}
""",
    # A callee whose loop-head φs carry PhiShadow post-ops and whose
    # loads of a partly written array are checked.
    "callee_loop": """
def sum(p, n) {
  var i = 0, s = 0;
  while (i < n) { s = s + p[i]; i = i + 1; }
  return s;
}
def main() {
  var a[3];
  a[0] = 1;
  a[1] = 2;
  var t = sum(a, 3);
  if (t) { output(t); }
  return 0;
}
""",
    # An undefined accumulator through a loop φ, Check pre-ops on
    # the array load and on both branches.
    "loop": """
def main() {
  var i = 0, s;
  var a[3];
  while (i < 3) { s = s + a[i]; i = i + 1; }
  if (s) { output(1); }
  output(s);
  return 0;
}
""",
    # A few loop iterations, then a load through a junk pointer.
    "junk": """
def main() {
  var i = 0;
  while (i < 3) { i = i + 1; }
  var p = 5;
  return p[0];
}
""",
}


def outcome(run, max_steps: int):
    """What ``run(max_steps)`` does: an exception or a report row."""
    try:
        report = run(max_steps)
    except StepLimitExceeded as exc:
        message = str(exc).replace(f" {max_steps} ", " {max_steps} ")
        return ["StepLimitExceeded", message]
    except (RuntimeFault, ShadowProtocolError) as exc:
        return [type(exc).__name__, str(exc)]
    return {"report": report_row(report)}


def outcomes(run) -> list:
    """Run-length encoded outcomes for ``max_steps`` = 1, 2, …, up to
    one past the first budget the run does not exceed."""
    encoded: list = []
    max_steps, stopped = 1, False
    while True:
        result = outcome(run, max_steps)
        if encoded and encoded[-1][1] == result:
            encoded[-1][0] += 1
        else:
            encoded.append([1, result])
        if stopped:
            return encoded
        stopped = not (isinstance(result, list) and result[0] == "StepLimitExceeded")
        max_steps += 1


def unwritten_check(plan: InstrumentationPlan) -> InstrumentationPlan:
    """A copy of ``plan`` without any write of the shadow its first
    check reads."""
    plan = copy.deepcopy(plan)
    first = next(
        op for uid in sorted(plan.ops) for op in plan.ops[uid].pre if isinstance(op, Check)
    )
    op_lists = list(plan.entry_ops.values())
    for ops in plan.ops.values():
        op_lists += [ops.pre, ops.post]
    for ops in op_lists:
        ops[:] = [op for op in ops if getattr(op, "dst", None) != first.operand]
    return plan


def limit_rows(name: str, source: str) -> dict:
    analysis = analyze(source=source, name=name, configs=list(PLANS))
    module = analysis.module
    plans = {config: analysis.plans[config] for config in PLANS}
    plans[UNWRITTEN] = unwritten_check(plans["msan"])
    rows = {"native": outcomes(lambda n: run_native(module, max_steps=n))}
    for config, plan in plans.items():
        rows[config] = outcomes(
            lambda n, plan=plan: run_instrumented(module, plan, max_steps=n)
        )
    return rows


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_step_limit_outcomes_match_pins(name):
    pins = json.loads(PINS.read_text())
    assert limit_rows(name, PROGRAMS[name]) == pins[name]


def test_pins_cover_every_program():
    pins = json.loads(PINS.read_text())
    assert sorted(pins) == sorted(PROGRAMS)
    runs = sorted(("native", UNWRITTEN) + PLANS)
    assert all(sorted(rows) == runs for rows in pins.values())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src:. python tests/unit/test_step_limit_pins.py --write")
    pins = {name: limit_rows(name, source) for name, source in PROGRAMS.items()}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, pins.values()))} runs of {len(pins)} programs to {PINS}")
