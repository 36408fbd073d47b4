"""Edge-case tests for the function-pointer-argument inliner."""

from repro.ir import instructions as ins
from repro.ir import module_to_str, verify_module
from repro.opt import functions_with_fp_params, inline_call_sites, inline_fp_functions
from repro.runtime import run_native
from repro.tinyc import compile_source


def compile_(source):
    module = compile_source(source)
    return module


class TestDetection:
    def test_direct_indirect_use_detected(self):
        module = compile_(
            """
            def apply(f) { return f(1); }
            def id(x) { return x; }
            def main() { return apply(id); }
            """
        )
        assert functions_with_fp_params(module) == {"apply"}

    def test_fp_through_local_copy_detected(self):
        module = compile_(
            """
            def apply(f) { var g = f; return g(1); }
            def id(x) { return x; }
            def main() { return apply(id); }
            """
        )
        assert "apply" in functions_with_fp_params(module)

    def test_scalar_only_function_not_detected(self):
        module = compile_(
            """
            def plus(a, b) { return a + b; }
            def main() { return plus(1, 2); }
            """
        )
        assert functions_with_fp_params(module) == set()


class TestInlining:
    def test_call_in_branch(self):
        module = compile_(
            """
            def apply(f, x) { return f(x); }
            def inc(v) { return v + 1; }
            def main() {
              var r;
              if (1) { r = apply(inc, 10); } else { r = apply(inc, 20); }
              return r;
            }
            """
        )
        inline_fp_functions(module)
        verify_module(module)
        assert run_native(module).exit_value == 11

    def test_multiple_returns_in_callee(self):
        module = compile_(
            """
            def pick(f, x) {
              if (x > 5) { return f(x); }
              return f(0 - x);
            }
            def neg(v) { return 0 - v; }
            def main() { return pick(neg, 3) + pick(neg, 7); }
            """
        )
        inline_fp_functions(module)
        verify_module(module)
        # pick(neg,3): neg(3... x>5 false → f(-(3)) → neg(-3)=3; pick(neg,7): neg(7)=-7
        assert run_native(module).exit_value == 3 - 7

    def test_nested_fp_functions_inline_iteratively(self):
        module = compile_(
            """
            def inner(f, x) { return f(x); }
            def outer(f, x) { return inner(f, x) + 1; }
            def id(v) { return v; }
            def main() { return outer(id, 40); }
            """
        )
        count = inline_fp_functions(module)
        assert count >= 2
        verify_module(module)
        assert run_native(module).exit_value == 41

    def test_loops_in_inlined_callee(self):
        module = compile_(
            """
            def sum_upto(f, n) {
              var s = 0, i = 0;
              while (i < n) { s = s + f(i); i = i + 1; }
              return s;
            }
            def dbl(v) { return v * 2; }
            def main() { return sum_upto(dbl, 4); }
            """
        )
        inline_fp_functions(module)
        verify_module(module)
        assert run_native(module).exit_value == 12

    def test_inline_discarded_result(self):
        module = compile_(
            """
            global g;
            def bump(f) { g = f(g); return 0; }
            def inc(v) { return v + 1; }
            def main() { bump(inc); bump(inc); return g; }
            """
        )
        inline_fp_functions(module)
        verify_module(module)
        assert run_native(module).exit_value == 2

    def test_explicit_target_inlining(self):
        module = compile_(
            """
            def helper(a) { return a * 3; }
            def main() { return helper(5); }
            """
        )
        count = inline_call_sites(module, {"helper"})
        assert count == 1
        calls = [
            i
            for i in module.functions["main"].instructions()
            if isinstance(i, ins.Call)
        ]
        assert not calls
        assert run_native(module).exit_value == 15

    def test_inlined_allocations_get_fresh_objects(self):
        module = compile_(
            """
            def cellify(f) {
              var c = malloc(1);
              *c = f(1);
              return *c;
            }
            def id(v) { return v; }
            def main() { return cellify(id) + cellify(id); }
            """
        )
        inline_fp_functions(module)
        verify_module(module)
        alloc_names = [
            i.obj_name
            for i in module.functions["main"].instructions()
            if isinstance(i, ins.Alloc) and i.kind == "heap"
        ]
        assert len(alloc_names) == 2
        assert len(set(alloc_names)) == 2  # distinct object names
        assert run_native(module).exit_value == 2


class TestTags:
    SOURCE = """
        def apply(f, x) { return f(x); }
        def inc(v) { return v + 1; }
        def twice(v) { return v * 2; }
        def main() { var a = apply(inc, 1); var b = twice(a); return apply(inc, b); }
        """

    def test_tags_depend_on_the_module_alone(self):
        first = compile_(self.SOURCE)
        inline_fp_functions(first)
        # Inlining elsewhere in the process does not shift the tags.
        inline_fp_functions(compile_(self.SOURCE))
        second = compile_(self.SOURCE)
        inline_fp_functions(second)
        assert module_to_str(first) == module_to_str(second)
        assert "cont.inl1" in module_to_str(first)

    def test_tags_skip_the_ones_a_module_holds(self):
        module = compile_(self.SOURCE)
        assert inline_call_sites(module, {"apply"}) == 2
        assert inline_call_sites(module, {"twice"}) == 1
        printed = module_to_str(module)
        assert "cont.inl2" in printed and "cont.inl3" in printed
        verify_module(module)
        assert run_native(module).exit_value == 5
