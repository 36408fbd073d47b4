"""Unit tests for the interpreter's memory model."""

import pytest

from repro.runtime import Interpreter, RuntimeFault, run_native
from repro.tinyc import compile_source


def run(source, **kwargs):
    return run_native(compile_source(source), **kwargs)


class TestAllocationLayout:
    def test_objects_do_not_overlap(self):
        source = """
        def main() {
          var a = calloc(3);
          var b = calloc(3);
          a[0] = 1; a[1] = 2; a[2] = 3;
          b[0] = 10; b[1] = 20; b[2] = 30;
          return a[0] + a[1] + a[2] + b[0] + b[1] + b[2];
        }
        """
        assert run(source).exit_value == 66

    def test_red_zone_clamps_between_objects(self):
        # a[5] on a 3-cell record clamps to a[2] — it never bleeds into b.
        source = """
        def main() {
          var a = calloc(3);
          var b = calloc(1);
          *b = 99;
          a[5] = 7;
          return *b;
        }
        """
        assert run(source).exit_value == 99

    def test_fresh_cells_per_allocation(self):
        source = """
        def mk() { return malloc(1); }
        def main() {
          var p = mk();
          var q = mk();
          *p = 1;
          *q = 2;
          return *p + *q;
        }
        """
        assert run(source).exit_value == 3

    def test_stack_frames_are_isolated(self):
        source = """
        def leaf(v) {
          var local[2];
          local[0] = v;
          local[1] = v * 2;
          return local[0] + local[1];
        }
        def main() {
          return leaf(1) + leaf(10);
        }
        """
        assert run(source).exit_value == 33

    def test_aliasing_through_two_pointers(self):
        source = """
        def main() {
          var p = calloc(1);
          var q = p;
          *p = 5;
          *q = *q + 1;
          return *p;
        }
        """
        assert run(source).exit_value == 6


class TestMemoryBudget:
    def test_oversized_array_faults_before_touching_cells(self):
        source = "def main() { var a[100000000000]; return 0; }"
        with pytest.raises(RuntimeFault, match="memory budget"):
            run(source)

    def test_budget_counts_every_allocation_of_the_run(self, monkeypatch):
        from repro.runtime import interpreter

        monkeypatch.setattr(interpreter, "MAX_CELLS", 64)
        source = """
        def main() {
          var i = 0;
          while (i < %d) { var p = calloc(8); p[0] = i; i = i + 1; }
          return i;
        }
        """
        # Nothing is freed: each 8-cell object takes 9 addresses with
        # its red zone, so three fit and ten cannot.
        assert run(source % 3).exit_value == 3
        with pytest.raises(RuntimeFault, match="64-cell memory budget"):
            run(source % 10)


class TestPointerFaults:
    def test_deref_of_integer_faults(self):
        source = """
        def main() {
          var p = 12345;
          return *p;
        }
        """
        with pytest.raises(RuntimeFault, match="unmapped"):
            run(source)

    def test_indirect_call_of_non_function_faults(self):
        source = """
        def main() {
          var f = 7;
          return f();
        }
        """
        with pytest.raises(RuntimeFault, match="non-function"):
            run(source)

    def test_gep_on_junk_pointer_is_total_until_deref(self):
        # Address arithmetic on garbage must not fault by itself.
        source = """
        def main() {
          var p = 500;
          var q = &p;          // wait: &p of a local — use aggregates
          return 0;
        }
        """
        # Simpler: gep through an integer; never dereferenced.
        source = """
        def shift(base) { return 0; }
        def main() {
          var junk = 999;
          var a[2];
          a[junk] = 1;         // index clamps inside a valid object
          return a[1];
        }
        """
        assert run(source).exit_value == 1


class TestGlobalsAtRuntime:
    def test_globals_zero_initialized(self):
        assert run("global g; def main() { return g + 7; }").exit_value == 7

    def test_global_array_cells_independent(self):
        source = """
        global t[3];
        def main() {
          t[0] = 1; t[1] = 2; t[2] = 4;
          return t[0] + t[1] + t[2];
        }
        """
        assert run(source).exit_value == 7

    def test_global_visible_across_functions(self):
        source = """
        global counter;
        def tick() { counter = counter + 1; return counter; }
        def main() { tick(); tick(); return tick(); }
        """
        assert run(source).exit_value == 3


class TestTraceMode:
    def test_trace_collects_bounded_log(self):
        module = compile_source(
            "def main() { var i = 0; while (i < 50) { i = i + 1; } return i; }"
        )
        interp = Interpreter(module)
        interp.trace_limit = 7
        interp.run()
        assert len(interp.trace_log) == 7
        assert all(line.startswith("main: ") for line in interp.trace_log)

    def test_trace_off_by_default(self):
        module = compile_source("def main() { return 1; }")
        interp = Interpreter(module)
        interp.run()
        assert interp.trace_log == []
