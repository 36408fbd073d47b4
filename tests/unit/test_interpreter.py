"""Unit tests for the shadow-memory interpreter."""

import copy

import pytest

from repro.core import build_msan_plan
from repro.core.plan import (
    RelayOut,
    SetShadowMem,
    SetShadowVar,
    StoreShadow,
)
from repro.ir import instructions as ins
from repro.runtime import (
    DEFAULT_COST_MODEL,
    CostModel,
    Interpreter,
    RuntimeFault,
    ShadowProtocolError,
    StepLimitExceeded,
    run_instrumented,
    run_native,
)
from repro.obs import TRACE
from repro.tinyc import compile_source
from tests.helpers import analyzed


def run(source, **kwargs):
    return run_native(compile_source(source), **kwargs)


class TestSemantics:
    def test_arithmetic(self):
        assert run("def main() { return 2 + 3 * 4; }").exit_value == 14

    def test_division_by_zero_is_zero(self):
        assert run("def main() { var z = 0; return 7 / z; }").exit_value == 0
        assert run("def main() { var z = 0; return 7 % z; }").exit_value == 0

    def test_64bit_wraparound(self):
        source = "def main() { var x = 1 << 63; return x < 0; }"
        assert run(source).exit_value == 1

    def test_memory_roundtrip(self):
        source = """
        def main() {
          var p = malloc(3);
          p[0] = 10; p[1] = 20; p[2] = 30;
          return p[0] + p[1] + p[2];
        }
        """
        assert run(source).exit_value == 60

    def test_out_of_range_index_clamps(self):
        source = """
        def main() {
          var a[4];
          a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 9;
          return a[99];
        }
        """
        assert run(source).exit_value == 9  # clamped to the last cell

    def test_global_default_initialized(self):
        assert run("global g; def main() { return g; }").exit_value == 0
        assert not run("global g; def main() { output(g); return g; }").true_undefined_uses

    def test_uninit_global_flagged_by_oracle(self):
        report = run("global uninit g; def main() { output(g); return 0; }")
        assert report.true_undefined_uses

    def test_outputs_collected_in_order(self):
        report = run("def main() { output(1); output(2); output(3); return 0; }")
        assert report.outputs == [1, 2, 3]

    def test_recursion(self):
        source = """
        def fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
        def main() { return fib(10); }
        """
        assert run(source).exit_value == 55


class TestOracle:
    def test_undefined_scalar_use_detected(self):
        report = run(
            "def main() { var x; if (0) { x = 1; } output(x); return 0; }"
        )
        assert report.true_undefined_uses

    def test_undefined_heap_read_detected(self):
        report = run(
            "def main() { var p = malloc(2); p[0] = 1; output(p[1]); return 0; }"
        )
        assert report.true_undefined_uses

    def test_calloc_is_defined(self):
        report = run(
            "def main() { var p = calloc(2); output(p[1]); return 0; }"
        )
        assert not report.true_undefined_uses

    def test_undefinedness_propagates_through_arithmetic(self):
        report = run(
            """
            def main() {
              var x;
              var y = x + 1;
              var z = y * 2;
              if (z) { output(1); }
              return 0;
            }
            """
        )
        assert report.true_undefined_uses

    def test_overwrite_cures_undefinedness(self):
        report = run(
            "def main() { var x; x = 5; output(x); return 0; }"
        )
        assert not report.true_undefined_uses


class TestLimits:
    def test_step_limit(self):
        source = """
        def main() {
          var i = 0, s = 0;
          while (i < 100000) { s = s + 1; i = i + 1; }
          return s;
        }
        """
        with pytest.raises(StepLimitExceeded):
            run_native(compile_source(source), max_steps=100)

    def test_stack_overflow_fault(self):
        source = """
        def spin(n) { return spin(n + 1); }
        def main() { return spin(0); }
        """
        with pytest.raises(RuntimeFault):
            run(source)


def limit_outcome(run, max_steps):
    """The exception type ``run(max_steps=...)`` raises, or ``None``."""
    try:
        run(max_steps=max_steps)
    except (StepLimitExceeded, RuntimeFault) as exc:
        return type(exc)
    return None


class TestStepLimitBoundary:
    LOOP = """
    def main() {
      var i = 0, s = 0;
      while (i < 20) { s = s + i; i = i + 1; }
      output(s);
      return s;
    }
    """

    def test_native_limit_is_exact(self):
        module = compile_source(self.LOOP)
        steps = run_native(module).steps
        assert run_native(module, max_steps=steps).steps == steps
        with pytest.raises(StepLimitExceeded):
            run_native(module, max_steps=steps - 1)

    def test_instrumented_limit_is_exact(self):
        prepared = analyzed(self.LOOP)
        plan = build_msan_plan(prepared.module)
        report = run_instrumented(prepared.module, plan)
        assert report.steps > report.native_ops  # shadow ops are steps too
        again = run_instrumented(prepared.module, plan, max_steps=report.steps)
        assert again.steps == report.steps
        with pytest.raises(StepLimitExceeded):
            run_instrumented(prepared.module, plan, max_steps=report.steps - 1)

    def test_fault_inside_the_budget_is_the_fault(self):
        # A few loop iterations, then a load through a junk pointer.
        source = """
        def main() {
          var i = 0;
          while (i < 3) { i = i + 1; }
          var p = 5;
          return p[0];
        }
        """
        module = compile_source(source)
        assert not any(isinstance(i, ins.Phi) for i in module.instructions())
        # Without φs every step is a traced instruction, the faulting
        # load last.
        interp = Interpreter(module)
        interp.trace_limit = 10_000
        with pytest.raises(RuntimeFault, match="unmapped address"):
            interp.run()
        fault_step = len(interp.trace_log)
        assert fault_step > 10
        outcomes = [
            limit_outcome(lambda **kw: run_native(module, **kw), n)
            for n in range(1, fault_step + 5)
        ]
        assert outcomes == [StepLimitExceeded] * (fault_step - 1) + [RuntimeFault] * 5


def dropped(plan, kind, **fields):
    """A copy of ``plan`` without its first ``kind`` op matching ``fields``."""
    plan = copy.deepcopy(plan)
    lists = list(plan.entry_ops.values())
    for instr_ops in plan.ops.values():
        lists += [instr_ops.pre, instr_ops.post]
    for ops in lists:
        for op in ops:
            if isinstance(op, kind) and all(
                getattr(op, k) == v for k, v in fields.items()
            ):
                ops.remove(op)
                return plan
    raise AssertionError(f"no {kind.__name__} op {fields} in the plan")


class TestShadowProtocol:
    HEAP = """
    def main() {
      var p = malloc(2);
      p[0] = 5;
      var x = p[0];
      output(x);
      return 0;
    }
    """
    CALL = """
    def f(a) { return a + 1; }
    def main() { var x = f(3); output(x); return 0; }
    """

    def test_dropped_set_shadow_var(self):
        prepared = analyzed(self.HEAP)
        plan = build_msan_plan(prepared.module)
        run_instrumented(prepared.module, plan)
        broken = dropped(plan, SetShadowVar)
        with pytest.raises(ShadowProtocolError, match="read before any write in main"):
            run_instrumented(prepared.module, broken)

    def test_dropped_store_shadow(self):
        # Without the allocation's poisoning, the store is the only
        # writer of the loaded cell's shadow.
        prepared = analyzed(self.HEAP)
        plan = dropped(build_msan_plan(prepared.module), SetShadowMem)
        assert not run_instrumented(prepared.module, plan).warnings
        broken = dropped(plan, StoreShadow)
        with pytest.raises(ShadowProtocolError, match="shadow memory at .* read before"):
            run_instrumented(prepared.module, broken)

    def test_dropped_relay_out(self):
        prepared = analyzed(self.CALL)
        plan = build_msan_plan(prepared.module)
        run_instrumented(prepared.module, plan)
        broken = dropped(plan, RelayOut, slot=0)
        with pytest.raises(ShadowProtocolError, match=r"σ_g\[0\] read before write"):
            run_instrumented(prepared.module, broken)

    def test_unset_pointer(self):
        prepared = analyzed(self.HEAP)
        plan = build_msan_plan(prepared.module)
        plan.add_entry("main", SetShadowMem(("nowhere", 1), literal=True))
        with pytest.raises(ShadowProtocolError, match="unset pointer nowhere.1"):
            run_instrumented(prepared.module, plan)


class TestShadowMachine:
    def test_full_instrumentation_matches_oracle(self):
        source = """
        def main() {
          var x;
          if (0) { x = 1; }
          var p = malloc(2);
          p[0] = x;
          if (p[1] > 0) { output(1); } else { output(2); }
          output(p[0]);
          return 0;
        }
        """
        prepared = analyzed(source)
        plan = build_msan_plan(prepared.module)
        report = run_instrumented(prepared.module, plan)
        assert report.warning_set() == report.true_bug_set()

    def test_instrumentation_preserves_semantics(self):
        source = """
        def main() {
          var i = 0, s = 0;
          while (i < 8) { s = s + i; i = i + 1; }
          output(s);
          return 0;
        }
        """
        prepared = analyzed(source)
        native = run_native(prepared.module)
        instrumented = run_instrumented(
            prepared.module, build_msan_plan(prepared.module)
        )
        assert instrumented.outputs == native.outputs
        assert instrumented.exit_value == native.exit_value
        assert instrumented.native_ops == native.native_ops

    def test_events_counted(self):
        prepared = analyzed("def main() { var x = 1; output(x); return 0; }")
        report = run_instrumented(prepared.module, build_msan_plan(prepared.module))
        assert report.events.shadow_writes > 0
        assert report.events.checks >= 1


class TestCostModel:
    def test_zero_events_zero_slowdown(self):
        prepared = analyzed("def main() { return 0; }")
        report = run_native(prepared.module)
        assert DEFAULT_COST_MODEL.slowdown_percent(report) == 0.0

    def test_slowdown_is_linear_in_costs(self):
        prepared = analyzed("def main() { var x = 1; output(x + 2); return 0; }")
        report = run_instrumented(prepared.module, build_msan_plan(prepared.module))
        base = CostModel(1.0, 1.0, 1.0).slowdown_percent(report)
        doubled = CostModel(2.0, 2.0, 2.0).slowdown_percent(report)
        assert doubled == pytest.approx(2 * base)

    def test_more_instrumentation_costs_more(self):
        source = "def main() { var x; if (0) { x = 1; } output(x); return 0; }"
        prepared = analyzed(source)
        from repro.core import UsherConfig, run_usher

        msan = run_instrumented(prepared.module, build_msan_plan(prepared.module))
        usher = run_instrumented(
            prepared.module, run_usher(prepared, UsherConfig.full()).plan
        )
        assert DEFAULT_COST_MODEL.slowdown_percent(
            usher
        ) <= DEFAULT_COST_MODEL.slowdown_percent(msan)


class TestInstrumentedTracing:
    SOURCE = """
    def main() {
      var p = malloc(2);
      var i = 0;
      while (i < 2) { p[i] = i; i = i + 1; }
      output(p[1]);
      return 0;
    }
    """

    def _run(self, plan):
        prepared = self.prepared
        interp = Interpreter(prepared.module, plan=plan)
        interp.trace_limit = 9
        interp.trace_memory = True
        interp.run()
        return interp

    def test_trace_log_and_memory_under_a_plan(self):
        self.prepared = analyzed(self.SOURCE)
        native = self._run(None)
        instrumented = self._run(build_msan_plan(self.prepared.module))
        assert len(instrumented.trace_log) == 9
        assert all(line.startswith("main: ") for line in instrumented.trace_log)
        # Shadow operations are steps, not traced instructions.
        assert instrumented.trace_log == native.trace_log
        assert instrumented.mem_accesses
        assert instrumented.mem_accesses == native.mem_accesses
        origins = set().union(*instrumented.mem_accesses.values())
        assert {kind for kind, _ in origins} == {"alloc"}


class TestRunSpans:
    def test_runs_record_spans_tagged_with_steps(self):
        prepared = analyzed("def main() { var x = 1; output(x); return 0; }")
        plan = build_msan_plan(prepared.module)
        with TRACE.capture():
            native = run_native(prepared.module)
            instrumented = run_instrumented(prepared.module, plan)
            spans = [(e.name, e.tags) for e in TRACE.events]
        assert spans == [
            ("run.native", {"steps": native.steps}),
            ("run.instrumented", {"plan": plan.name, "steps": instrumented.steps}),
        ]
