"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``check FILE``   — compile, analyze and execute a TinyC program under
  a chosen instrumentation configuration; report undefined-value uses
  with source lines (a sanitizer-style workflow).
- ``run FILE``     — execute natively (no instrumentation).
- ``ir FILE``      — dump the IR at a chosen pipeline stage.
- ``vfg FILE``     — export the value-flow graph as GraphViz DOT, with
  definedness coloring.
- ``sweep``        — regenerate the paper's figures on the bundled
  SPEC-shaped workloads.
- ``report``       — regenerate the *entire* evaluation as one markdown
  document (the source of EXPERIMENTS.md's numbers).
- ``fuzz``         — differential soundness fuzzing: diff every
  configuration's warnings against the native ground truth over
  generated (or supplied) modules, minimizing any divergence to a
  small reproducer (see :mod:`repro.oracle`).
- ``serve``        — resident analysis service: a localhost HTTP/JSON
  endpoint over long-lived :class:`repro.service.AnalysisSession`
  objects, re-analyzed after each edit (see :mod:`repro.service`).
- ``promote``      — validate oracle-minimized ``.ir`` reproducers and
  add them to the permanent corpus with their pinned warning sets
  (see :mod:`repro.workloads.corpus`).

``check`` turns its ``--config`` flag into one
:class:`repro.options.AnalysisOptions` record.

Exit codes (``docs/api.md``): 0 success, 1 findings (``check``
warnings, ``fuzz`` divergences), 2 invalid input (including a
reproducer ``promote`` refuses), 70 an internal error; ``run``
forwards the program's exit value.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time
from typing import List, Optional

from repro.api import CONFIG_ORDER, MAX_STEPS, analyze
from repro.ir import module_to_str, verify_module
from repro.opt import OPT_LEVELS, run_pipeline
from repro.options import options_from_args
from repro.runtime import DEFAULT_COST_MODEL, RuntimeFault, run_native
from repro.tinyc import LoweringError, TinyCSyntaxError, compile_source


#: Exit code of an internal error (sysexits ``EX_SOFTWARE``).
EX_SOFTWARE = 70


class UsageError(Exception):
    """Invalid command-line input: one-line message, exit code 2."""


def _read(path: str) -> str:
    """The text of an input file; an unreadable one — missing, a
    directory, not UTF-8 — is a usage error, not a traceback."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as error:
        reason = error.strerror or error
    except UnicodeDecodeError as error:
        reason = f"not UTF-8 text ({error.reason})"
    raise UsageError(f"cannot read {path}: {reason}")


def _parse_seeds(spec: str) -> List[int]:
    """Seed list syntax: ``A:B`` (half-open), single ``N``, commas mix."""
    seeds: List[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo_text, hi_text = part.split(":", 1)
            if not (lo_text.lstrip("-").isdigit() and hi_text.lstrip("-").isdigit()):
                raise UsageError(f"invalid seed range {part!r} (expected A:B)")
            lo, hi = int(lo_text), int(hi_text)
            if lo < 0 or hi < lo:
                raise UsageError(f"invalid seed range {part!r} (expected 0 <= A <= B)")
            seeds.extend(range(lo, hi))
        elif part.isdigit():
            seeds.append(int(part))
        else:
            raise UsageError(f"invalid seed {part!r} (expected an integer or A:B)")
    if not seeds:
        raise UsageError(f"empty seed specification {spec!r}")
    return seeds


def _parse_budget(spec: "Optional[str]") -> "Optional[float]":
    """Budget syntax: seconds (``120``/``120s``) or minutes (``2m``)."""
    if spec is None:
        return None
    text = spec.strip().lower()
    scale = 1.0
    if text.endswith("s"):
        text = text[:-1]
    elif text.endswith("m"):
        text, scale = text[:-1], 60.0
    try:
        seconds = float(text) * scale
    except ValueError:
        raise UsageError(
            f"invalid budget {spec!r} (expected e.g. 120s or 2m)"
        ) from None
    if seconds <= 0:
        raise UsageError(f"invalid budget {spec!r} (must be positive)")
    return seconds


def _format_warning(analysis, uid: int) -> str:
    instr = analysis.module.instr_by_uid()[uid]
    func = instr.block.function.name if instr.block else "?"
    line = f"line {instr.line}" if instr.line is not None else "<unknown line>"
    return f"  {line}, in {func}(): use of undefined value at `{instr}`"


def cmd_check(args: argparse.Namespace) -> int:
    tracing = getattr(args, "trace", None)
    if not tracing:
        return _check(args)
    from repro.obs import TRACE

    TRACE.clear()
    TRACE.enable()
    try:
        return _check(args)
    finally:
        TRACE.disable()
        spans = TRACE.write_chrome_trace(tracing)
        print(f"trace: wrote {spans} span(s) to {tracing}")


def _check(args: argparse.Namespace) -> int:
    analysis = analyze(
        source=_read(args.file),
        name=args.file,
        level=args.level,
        configs=[args.config],
        options=options_from_args(args),
    )
    plan = analysis.plans[args.config]
    if args.solver_stats:
        stats = analysis.prepared.solver_stats
        if stats is not None:
            print(stats.format_summary())
        else:
            print(
                "no solver stats recorded for this run (the pointer-"
                "analysis phase did not produce a profile)"
            )
        print()
    if args.mem_stats:
        stats = analysis.prepared.solver_stats
        if stats is not None:
            print(stats.format_memory_summary())
        else:
            print(
                "no memory stats recorded for this run (the pointer-"
                "analysis phase did not produce a profile)"
            )
        print()
    if args.show_plan:
        print(f"instrumentation plan ({plan.describe()}):")
        by_uid = analysis.module.instr_by_uid()
        for func, ops in sorted(plan.entry_ops.items()):
            for op in ops:
                print(f"  entry of {func}(): {op}")
        for uid in sorted(plan.ops):
            for op in plan.ops[uid].pre + plan.ops[uid].post:
                print(f"  at `{by_uid[uid]}`: {op}")
        print()
    analysis.max_steps = MAX_STEPS
    try:
        report = analysis.run(args.config)
    except RuntimeFault as fault:
        print(f"runtime fault: {fault}", file=sys.stderr)
        return 2
    slowdown = DEFAULT_COST_MODEL.slowdown_percent(report)
    print(
        f"{args.file}: {report.native_ops} ops executed, "
        f"{plan.count_propagations()} static shadow propagations, "
        f"{plan.count_checks()} static checks, "
        f"modelled slowdown {slowdown:.1f}%"
    )
    if report.outputs:
        print(f"program output: {report.outputs}")
    warnings = sorted(report.warning_set())
    status = 0
    if warnings:
        print(f"\n{len(warnings)} use(s) of undefined values detected:")
        for uid in warnings:
            print(_format_warning(analysis, uid))
        if args.explain:
            _explain_warnings(analysis, args.config, warnings)
        status = 1
    else:
        print("no uses of undefined values detected")
    return status


def _explain_warnings(analysis, config: str, warnings) -> None:
    """Trace each warning back to F along one shared flow tree."""
    explain_config = config if config in analysis.results else None
    for uid in warnings:
        steps = analysis.explain(uid, config=explain_config)
        if steps is None:
            continue
        print(f"\nhow the undefined value reaches uid {uid}:")
        for step in steps:
            print(step.render())


def cmd_run(args: argparse.Namespace) -> int:
    from repro.runtime import Interpreter

    module = compile_source(_read(args.file), args.file)
    run_pipeline(module, args.level)
    interp = Interpreter(module, max_steps=MAX_STEPS)
    interp.trace_limit = args.trace
    try:
        try:
            report = interp.run()
        finally:
            # A failed run's trace leads up to its fault or step limit.
            for line in interp.trace_log:
                print(f"trace: {line}")
    except RuntimeFault as fault:
        print(f"runtime fault: {fault}", file=sys.stderr)
        return 2
    for value in report.outputs:
        print(value)
    return report.exit_value or 0


def cmd_ir(args: argparse.Namespace) -> int:
    module = compile_source(_read(args.file), args.file)
    run_pipeline(module, args.level)
    verify_module(module)
    if args.ssa:
        from repro.core import prepare_module

        prepare_module(module)
    print(module_to_str(module, show_uids=args.uids))
    return 0


def cmd_vfg(args: argparse.Namespace) -> int:
    from repro.core import UsherConfig, prepare_module, run_usher
    from repro.vfg.dot import vfg_to_dot

    module = compile_source(_read(args.file), args.file)
    run_pipeline(module, args.level)
    prepared = prepare_module(module)
    result = run_usher(prepared, UsherConfig.tl_at())
    dot = vfg_to_dot(
        result.vfg,
        result.gamma,
        only_function=args.function,
        max_nodes=args.max_nodes,
    )
    if args.solver_stats:
        stats = prepared.solver_stats
        if stats is not None:
            print(stats.format_summary(), file=sys.stderr)
        else:
            print(
                "no solver stats recorded for this run (the pointer-"
                "analysis phase did not produce a profile)",
                file=sys.stderr,
            )
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(dot)
        print(f"wrote {args.output}")
    else:
        print(dot)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.harness import (
        build_figure10,
        build_figure11,
        format_figure10,
        format_figure11,
    )

    figure10 = build_figure10(scale=args.scale, level=args.level)
    print(format_figure10(figure10))
    print()
    print(format_figure11(build_figure11(scale=args.scale, level=args.level)))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.harness.report import build_report

    text = build_report(scale=args.scale, sections=args.sections or None)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.oracle import build_config_matrix, run_campaign

    matrix = build_config_matrix(
        [c for c in args.configs.split(",") if c.strip()]
    )
    seeds = _parse_seeds(args.seeds) if args.seeds else []
    if not seeds and not args.module:
        raise UsageError("nothing to fuzz: give --seeds and/or --module")
    budget = _parse_budget(args.budget)
    texts = {}
    for path in args.module or []:
        text = _read(path)
        # Validate at the boundary: a malformed supplied module is a
        # usage error, not a campaign crash to triage.
        from repro.ir.parser import parse_ir

        parse_ir(text)
        texts[path.rsplit("/", 1)[-1]] = text
    out_path = args.out
    if out_path is None:
        stamp = time.strftime("%Y%m%d_%H%M%S")
        out_path = f"benchmarks/results/fuzz_{stamp}.jsonl"
    say = (lambda message: None) if args.quiet else print
    result = run_campaign(
        seeds,
        matrix,
        budget_seconds=budget,
        minimize=args.minimize,
        minimize_evals=args.minimize_evals,
        out_path=out_path,
        reproducer_dir=args.reproducers,
        texts=texts or None,
        log=say,
        via_session=args.via_session,
    )
    configs = ", ".join(spec for spec, _ in matrix)
    print(
        f"fuzz: {len(result.cases)}/{result.seeds_requested + len(texts)} "
        f"cases examined ({result.skipped} skipped) under [{configs}]"
        + (" — budget exhausted" if result.budget_exhausted else "")
    )
    print(f"results: {result.out_path}")
    buckets = result.bucket_counts()
    if not buckets:
        print("no divergences: every configuration honored its contract")
        return 0
    print(f"{len(result.divergent)} divergent case(s):")
    for (config, kind), count in sorted(buckets.items()):
        print(f"  {config}/{kind}: {count}")
    for case in result.divergent:
        for path in case.reproducers:
            print(f"  reproducer: {path}")
    return 1


def cmd_promote(args: argparse.Namespace) -> int:
    from repro.workloads.corpus import promote

    promote(args.files, corpus_dir=args.corpus_dir, dry_run=args.dry_run)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    server = serve(host=args.host, port=args.port)
    host, port = server.server_address[:2]
    print(f"repro serve listening on http://{host}:{port}", flush=True)
    # SIGTERM stops the server like Ctrl-C does: a clean exit 0.
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        server.server_close()
    return 0


def _interrupt(signum, frame) -> None:
    raise KeyboardInterrupt


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Usher: value-flow-guided detection of undefined values",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="analyze + execute with detection")
    check.add_argument("file")
    check.add_argument("--config", default="usher", choices=list(CONFIG_ORDER))
    check.add_argument("--level", default="O0+IM", choices=list(OPT_LEVELS))
    check.add_argument("--show-plan", action="store_true")
    check.add_argument("--solver-stats", action="store_true",
                       help="print the constraint-solver work profile "
                            "(pops, propagated facts, collapsed SCCs, "
                            "phase timings)")
    check.add_argument("--mem-stats", action="store_true",
                       help="print the solver memory profile (points-to "
                            "bitset bytes, peak RSS)")
    check.add_argument("--explain", action="store_true",
                       help="trace each warning's undefined value back "
                            "to its origin (a shortest realizable "
                            "value-flow path from F)")
    check.add_argument("--trace", default=None, metavar="PATH",
                       help="capture a span trace of the whole command "
                            "(TinyC compile, constraint gen, per-wave "
                            "solve, VFG build, Opt I/II, Γ resolution, the "
                            "instrumented run, the --explain search) and "
                            "write it as Chrome trace-event JSON "
                            "(load in chrome://tracing or Perfetto)")
    check.set_defaults(func=cmd_check)

    run = sub.add_parser("run", help="execute natively")
    run.add_argument("file")
    run.add_argument("--level", default="O0+IM", choices=list(OPT_LEVELS))
    run.add_argument("--trace", type=int, default=0, metavar="N",
                     help="print the first N executed instructions")
    run.set_defaults(func=cmd_run)

    ir = sub.add_parser("ir", help="dump the IR")
    ir.add_argument("file")
    ir.add_argument("--level", default="O0+IM", choices=list(OPT_LEVELS))
    ir.add_argument("--ssa", action="store_true", help="run memory SSA first")
    ir.add_argument("--uids", action="store_true", help="show instruction ids")
    ir.set_defaults(func=cmd_ir)

    vfg = sub.add_parser("vfg", help="export the VFG as GraphViz DOT")
    vfg.add_argument("file")
    vfg.add_argument("--level", default="O0+IM", choices=list(OPT_LEVELS))
    vfg.add_argument("--function", default=None,
                     help="restrict to one function")
    vfg.add_argument("--max-nodes", type=int, default=400)
    vfg.add_argument("--solver-stats", action="store_true",
                     help="print the constraint-solver work profile to "
                          "stderr (pops, propagated facts, collapsed "
                          "SCCs, phase timings); the profile comes from "
                          "the pointer-analysis phase this command "
                          "always runs")
    vfg.add_argument("-o", "--output", default=None)
    vfg.set_defaults(func=cmd_vfg)

    sweep = sub.add_parser("sweep", help="regenerate Figures 10/11")
    sweep.add_argument("--scale", type=float, default=0.25)
    sweep.add_argument("--level", default="O0+IM", choices=list(OPT_LEVELS))
    sweep.set_defaults(func=cmd_sweep)

    report = sub.add_parser("report", help="full experiment report (markdown)")
    report.add_argument("--scale", type=float, default=0.5)
    report.add_argument("-o", "--output", default=None)
    report.add_argument(
        "--sections",
        nargs="*",
        choices=["table1", "figure10", "figure11", "opt_levels",
                 "ablation", "warner", "extension", "solver", "trace"],
        default=None,
    )
    report.set_defaults(func=cmd_report)

    fuzz = sub.add_parser(
        "fuzz", help="differential soundness fuzzing with minimization"
    )
    fuzz.add_argument("--seeds", default="0:50", metavar="A:B",
                      help="corpus seeds: a half-open range A:B, single "
                           "integers, or a comma mix (default 0:50)")
    fuzz.add_argument("--configs", default="tl,tl_at,opt_i,full",
                      metavar="LIST",
                      help="comma list of configurations to diff; base "
                           "names msan,tl,tl_at,opt_i,full,ext with the "
                           "resolver suffix @summary or @callstring")
    fuzz.add_argument("--budget", default=None, metavar="TIME",
                      help="wall-clock budget for the whole campaign, "
                           "e.g. 120s or 5m (default: unbounded)")
    fuzz.add_argument("--minimize", action="store_true",
                      help="shrink each divergence with ddmin and emit "
                           "a self-contained .ir reproducer")
    fuzz.add_argument("--minimize-evals", type=int, default=400,
                      metavar="N",
                      help="predicate-evaluation cap per minimization")
    fuzz.add_argument("--module", action="append", metavar="FILE",
                      help="also examine a printed-IR module (repeatable; "
                           "the format `repro ir` emits and reproducers "
                           "are stored in)")
    fuzz.add_argument("--out", default=None, metavar="PATH",
                      help="JSONL results path (default: "
                           "benchmarks/results/fuzz_<stamp>.jsonl)")
    fuzz.add_argument("--reproducers",
                      default="benchmarks/results/reproducers",
                      metavar="DIR",
                      help="directory for minimized reproducers")
    fuzz.add_argument("--via-session", action="store_true",
                      help="route every examined case through the "
                           "resident AnalysisSession API (open + "
                           "update) instead of one-shot "
                           "analysis; a verdict difference between the "
                           "two paths is exactly what the campaign "
                           "exists to catch")
    fuzz.add_argument("--quiet", action="store_true",
                      help="suppress per-case progress lines")
    fuzz.set_defaults(func=cmd_fuzz)

    promote = sub.add_parser(
        "promote",
        help="add oracle-minimized .ir reproducers to the permanent corpus",
    )
    promote.add_argument("files", nargs="+", metavar="FILE.ir",
                         help="reproducers to validate and pin (each is "
                              "named by its file stem)")
    promote.add_argument("--dry-run", action="store_true",
                         help="validate only; leave the corpus unchanged")
    promote.add_argument("--corpus-dir", default=None, metavar="DIR",
                         help="corpus directory (default: tests/data/corpus "
                              "of the checkout)")
    promote.set_defaults(func=cmd_promote)

    serve_p = sub.add_parser(
        "serve", help="resident analysis service (localhost HTTP/JSON)"
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=0, metavar="N",
                         help="TCP port; 0 picks a free port and prints it "
                              "(default 0)")
    serve_p.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.ir.parser import IRParseError
    from repro.ir.verifier import VerificationError
    from repro.oracle.differ import UnknownConfigError
    from repro.runtime import StepLimitExceeded
    from repro.workloads.corpus import CorpusError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (TinyCSyntaxError, LoweringError) as error:
        print(f"compile error: {error}", file=sys.stderr)
        return 2
    except (UsageError, UnknownConfigError, CorpusError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (IRParseError, VerificationError) as error:
        print(f"invalid module: {error}", file=sys.stderr)
        return 2
    except StepLimitExceeded as error:
        print(
            f"error: step limit reached, the program may not terminate ({error})",
            file=sys.stderr,
        )
        return 2
    except RuntimeFault as fault:
        print(f"runtime fault: {fault}", file=sys.stderr)
        return 2
    except Exception as error:
        # A crash is not "warnings found" (1) or bad input (2).
        message = " ".join(str(error).split())
        print(f"internal error: {type(error).__name__}: {message}",
              file=sys.stderr)
        return EX_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
