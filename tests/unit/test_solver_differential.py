"""Differential testing of the two constraint solvers.

The :class:`~repro.analysis.andersen.DeltaSolver` (difference
propagation + online cycle elimination over interned bitsets) must
produce bit-for-bit identical results to the naive
:class:`~repro.analysis.andersen.ReferenceSolver` on every input:
identical points-to sets, call targets and detected allocation
wrappers.  The corpus is the bundled SPEC-shaped workloads plus a
spread of generated programs, including the pointer-heavy variant
whose hub cells and copy cycles exercise SCC collapsing.
"""

import pytest

from repro.analysis import analyze_pointers
from repro.opt import run_pipeline
from repro.tinyc import compile_source
from repro.workloads import WORKLOADS
from repro.workloads.generator import GeneratorParams, generate_program

WORKLOADS_BY_NAME = {w.name: w for w in WORKLOADS}


def _normalize(result):
    """Hashable snapshot of everything both solvers must agree on."""
    return (
        {node: frozenset(locs) for node, locs in result.pts.items()},
        {uid: frozenset(t) for uid, t in result.call_targets.items()},
        frozenset(result.wrappers),
    )


def assert_solvers_agree(module):
    delta = analyze_pointers(module, use_reference=False)
    reference = analyze_pointers(module, use_reference=True)
    assert _normalize(delta) == _normalize(reference)
    assert delta.solver_stats is not None
    assert delta.solver_stats.solver == "delta"
    assert reference.solver_stats.solver == "reference"


@pytest.mark.parametrize("name", sorted(WORKLOADS_BY_NAME))
def test_workload_solvers_agree(name):
    module = compile_source(WORKLOADS_BY_NAME[name].source(0.1), name)
    run_pipeline(module, "O0+IM")
    assert_solvers_agree(module)


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("heavy", [False, True])
def test_generated_solvers_agree(seed, heavy):
    params = GeneratorParams()
    if heavy:
        params = params.pointer_heavy()
    module = compile_source(generate_program(seed, params), f"gen{seed}")
    assert_solvers_agree(module)


def test_generated_scaled_heavy_solvers_agree():
    """A larger pointer-heavy instance actually collapses SCCs."""
    params = GeneratorParams().scaled(3).pointer_heavy()
    module = compile_source(generate_program(5, params), "gen-heavy")
    delta = analyze_pointers(module, use_reference=False)
    reference = analyze_pointers(module, use_reference=True)
    assert _normalize(delta) == _normalize(reference)
    stats = delta.solver_stats
    assert stats.sccs_collapsed > 0
    assert stats.scc_nodes_merged >= stats.sccs_collapsed
    # The whole point of difference propagation: the delta solver's
    # propagation volume stays near its insertion volume while the
    # reference re-offers full sets on every pop.
    ref = reference.solver_stats
    assert stats.facts_propagated < ref.facts_propagated


def test_solver_stats_phases_recorded():
    module = compile_source(
        "def main() { var p = malloc(1); *p = 1; return *p; }"
    )
    stats = analyze_pointers(module).solver_stats
    assert set(stats.phase_seconds) >= {"constraints", "solve", "finalize"}
    assert stats.total_seconds >= 0.0
    assert stats.solver == "delta"


RECURSIVE_FP_CYCLE = """
global sel;
def f(x) {
  var fp = f;
  if (x) { return fp(x - 1); }
  return 0;
}
def g(x) {
  var fp = g;
  if (x) { return fp(x - 1); }
  return 1;
}
def main() {
  var fp2 = f;
  if (sel) { fp2 = g; }
  return fp2(1);
}
"""


class TestIndirectCallRebindGuard:
    def test_recursive_function_pointer_cycle_terminates(self):
        """A function calling itself through a function pointer must not
        re-bind (and hence re-touch) the same (callee, call site) pair
        forever."""
        module = compile_source(RECURSIVE_FP_CYCLE)
        result = analyze_pointers(module)
        assert "f" in {
            t for ts in result.call_targets.values() for t in ts
        }

    @pytest.mark.parametrize("use_reference", [False, True])
    def test_each_callee_bound_once_per_call_site(self, use_reference):
        module = compile_source(RECURSIVE_FP_CYCLE)
        result = analyze_pointers(module, use_reference=use_reference)
        stats = result.solver_stats
        # Three indirect call sites: f's (binds f), g's (binds g) and
        # main's (binds both f and g).  Each (site, callee) pair must be
        # bound exactly once across all solve passes.
        assert stats.icall_bindings == 4
        indirect = {
            uid: ts for uid, ts in result.call_targets.items() if len(ts) >= 1
        }
        assert sum(len(ts) for ts in indirect.values()) >= 4
