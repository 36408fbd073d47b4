"""Opt II equivalence pins: Algorithm 1's statistics and refined Γ.

Every row of ``tests/data/opt2_pins.json`` records, for one module and
one setting of ``opt2_interproc``, the :class:`Opt2Stats` counters, the
number of ⊥ nodes in the re-resolved Γ and the ``usher`` plan's check
and propagation counts.  Each module also pins its pointer solver's
work (``pops``, ``facts_propagated``, ``bytes_pts``).  The modules are the 19 SPEC-shaped programs
at scale 0.25 plus two generated modules (seed 11: pointer-heavy
factor 8 and plain factor 16).  Any change to Opt II's traversal must
reproduce every row exactly.

Regenerate (only for a change that is meant to alter Opt II's result)::

    PYTHONPATH=src python tests/unit/test_opt2_pins.py --write
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.api import analyze
from repro.core import UsherConfig, run_usher
from repro.workloads import ALL_WORKLOADS, GeneratorParams, generate_program

PINS = Path(__file__).resolve().parents[1] / "data" / "opt2_pins.json"

#: Input scale of the SPEC-shaped programs.
SUITE_SCALE = 0.25
#: (name, generator seed, factor, pointer-heavy) of the generated modules.
GENERATED = (("heavy-f8", 11, 8, True), ("plain-f16", 11, 16, False))


def module_sources():
    for workload in ALL_WORKLOADS:
        yield workload.name, workload.source(SUITE_SCALE)
    for name, seed, factor, heavy in GENERATED:
        params = GeneratorParams().scaled(factor)
        yield name, generate_program(seed, params.pointer_heavy() if heavy else params)


def opt2_rows(name: str, source: str) -> dict:
    """Opt II's observable result on one module, interprocedural off/on,
    and the pointer solver's work on it."""
    analysis = analyze(source=source, name=name, configs=["usher"])
    solver = analysis.prepared.solver_stats
    interproc = run_usher(
        analysis.prepared,
        replace(UsherConfig.full(), name="usher_interproc", opt2_interproc=True),
    )
    rows = {}
    for key, result in (
        ("intra", analysis.results["usher"]),
        ("interproc", interproc),
    ):
        rows[key] = {
            **result.opt2_stats.as_dict(),
            "bottom_nodes": result.gamma.count_bottom(),
            "checks": result.static_checks,
            "propagations": result.static_propagations,
        }
    rows["solver"] = {
        "bytes_pts": solver.bytes_pts,
        "facts_propagated": solver.facts_propagated,
        "pops": solver.pops,
    }
    return rows


def _pins() -> dict:
    return json.loads(PINS.read_text())


@pytest.mark.parametrize(
    "name,source", [pytest.param(*pair, id=pair[0]) for pair in module_sources()]
)
def test_opt2_matches_pins(name, source):
    assert opt2_rows(name, source) == _pins()[name]


def test_pins_cover_every_module():
    assert sorted(_pins()) == sorted(name for name, _ in module_sources())


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/unit/test_opt2_pins.py --write")
    pins = {name: opt2_rows(name, source) for name, source in module_sources()}
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(pins)} modules to {PINS}")
