"""Graph orders that must not move with ``PYTHONHASHSEED``.

The builder roots F at every version-0 node in first-use order, so F's
out-edges — and with them the shortest explanation chain chosen among
equal-length ties — are the same in every process.  The check runs the
same analysis in child processes under different hash seeds and
compares F's ``flows_of`` order and every explanation, as text.

The reference pointer solver walks its points-to sets and copy edges
in insertion order, so its work counters are the same in every
process too.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

#: Prints F's out-edges and every check site's explanation under the
#: three configs that build distinct TL / TL+AT graphs.
_PROBE = """
from repro.api import analyze
from repro.vfg.graph import BOT
from repro.workloads import BY_NAME, GeneratorParams, generate_program
sources = {
    "heavy": generate_program(11, GeneratorParams().scaled(2).pointer_heavy()),
    "plain": generate_program(11, GeneratorParams().scaled(4)),
    "gcc": BY_NAME["176.gcc"].source(0.25),
}
for name, source in sources.items():
    analysis = analyze(source=source, name=name)
    for config in ("usher_tl", "usher_tl_at", "usher"):
        vfg = analysis.results[config].vfg
        print(name, config, [str(e.dst) for e in vfg.flows_of(BOT)])
        for site in vfg.check_sites:
            if site.node is not None:
                print(site.instr_uid, analysis.explain(site, config))
"""


def _probe(seed: str, probe: str = _PROBE) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        env=env,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_root_edges_and_explanations_ignore_the_hash_seed():
    first = _probe("0")
    assert first.count("\n") > 100  # sites were explained
    assert _probe("7") == first


#: Prints the reference solver's work counters on pointer-heavy modules.
_SOLVER_PROBE = """
from repro.analysis import analyze_pointers
from repro.tinyc import compile_source
from repro.workloads import GeneratorParams, generate_program
for seed, factor in ((11, 2), (11, 8), (5, 6)):
    params = GeneratorParams().scaled(factor).pointer_heavy()
    module = compile_source(generate_program(seed, params), f"heavy{seed}")
    stats = analyze_pointers(module, use_reference=True).solver_stats
    print(seed, factor, stats.pops, stats.facts_propagated, stats.facts_added)
"""


def test_reference_solver_work_ignores_the_hash_seed():
    runs = [_probe(seed, _SOLVER_PROBE) for seed in ("0", "1", "7")]
    assert runs[0].count("\n") == 3
    assert runs[1] == runs[0] and runs[2] == runs[0]
