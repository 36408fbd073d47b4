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
  objects with incremental re-analysis (see :mod:`repro.service`).
- ``bench``        — the scenario-factory matrix orchestrator: run a
  declarative workload × config matrix across a crash-isolated process
  pool, write schema-stamped rows to a JSONL log, diff against a
  committed baseline, and promote oracle-minimized reproducers into
  the permanent corpus (see :mod:`repro.bench`).

``check`` and ``serve`` turn their ``--demand`` / ``--config`` flags
into one :class:`repro.options.AnalysisOptions` record.
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
    source = _read(args.file)
    tracing = getattr(args, "trace", None)
    if tracing:
        from repro.obs import TRACE

        TRACE.clear()
        TRACE.enable()
    try:
        analysis = analyze(
            source=source,
            name=args.file,
            level=args.level,
            configs=[args.config],
            options=options_from_args(args),
        )
    finally:
        if tracing:
            TRACE.disable()
            spans = TRACE.write_chrome_trace(tracing)
            print(f"trace: wrote {spans} span(s) to {tracing}")
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
    if args.query_stats:
        _print_query_stats(analysis, args.config)
    return status


def _explain_warnings(analysis, config: str, warnings) -> None:
    """Trace each warning back to F, demand-driven: only the warned
    sites' backward slices are visited, never the whole VFG."""
    explain_config = config if config in analysis.results else None
    for uid in warnings:
        steps = analysis.explain(uid, config=explain_config)
        if steps is None:
            continue
        print(f"\nhow the undefined value reaches uid {uid}:")
        for step in steps:
            print(step.render())


def _print_query_stats(analysis, config: str) -> None:
    """Profile of every demand engine this run touched: the Γ
    resolution's (with --demand) and the --explain queries'."""
    result = analysis.results.get(config)
    printed = False
    if result is not None and result.query_stats is not None:
        print()
        print(result.query_stats.format_summary())
        printed = True
    stats = analysis.query_stats(config if config in analysis.results else None)
    if stats is not None:
        print()
        print(stats.format_summary())
        printed = True
    if not printed:
        print("\nno demand queries were issued (nothing to profile)")


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
    if args.demand:
        # On-demand coloring: build the VFG but resolve Γ only for the
        # nodes actually rendered (with --function, a fraction of the
        # graph), via the backward-slicing demand engine.
        from repro.vfg.builder import build_vfg
        from repro.vfg.demand import DemandEngine

        vfg = build_vfg(
            prepared.module,
            prepared.pointers,
            prepared.callgraph,
            prepared.modref,
        )
        engine = DemandEngine(vfg)
        gamma = engine.gamma()
    else:
        result = run_usher(prepared, UsherConfig.tl_at())
        vfg, gamma, engine = result.vfg, result.gamma, None
    dot = vfg_to_dot(
        vfg,
        gamma,
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
    if args.query_stats:
        if engine is not None:
            print(engine.stats.format_summary(), file=sys.stderr)
        else:
            print(
                "no demand queries were issued (nothing to profile; "
                "re-run with --demand to resolve definedness through "
                "the demand engine)",
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


def _bench_workload_names(spec: str, corpus_dir) -> List[str]:
    """Resolve the ``--workloads`` argument: ``all`` (registry +
    corpus), ``spec`` (the 19 generated programs), ``corpus`` (bred
    seeds only), or an explicit comma list of names."""
    from repro.workloads import ALL_WORKLOADS
    from repro.workloads.corpus import corpus_names

    named = {
        "all": [w.name for w in ALL_WORKLOADS] + corpus_names(corpus_dir),
        "spec": [w.name for w in ALL_WORKLOADS],
        "corpus": corpus_names(corpus_dir),
    }
    if spec in named:
        return named[spec]
    return [part.strip() for part in spec.split(",") if part.strip()]


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        MatrixSpec,
        diff_rows,
        format_bench_report,
        load_rows,
        promote,
        run_matrix,
        write_rows,
    )

    say = (lambda message: None) if args.quiet else print
    if args.promote:
        promoted = promote(
            args.promote,
            corpus_dir=args.corpus_dir,
            dry_run=args.dry_run,
            log=say,
        )
        verb = "validated" if args.dry_run else "promoted"
        print(f"bench: {verb} {len(promoted)} reproducer(s)")
        return 0
    workloads = _bench_workload_names(args.workloads, args.corpus_dir)
    spec = MatrixSpec.from_args(
        workloads=workloads, configs=args.configs, scale=args.scale
    )
    cells = spec.expand()
    pool = args.pool
    if pool == 0:
        import os as _os

        pool = max(1, min(4, (_os.cpu_count() or 2) - 1))
    say(
        f"bench: {len(cells)} cell(s) "
        f"({len(spec.workloads)} workloads x {len(spec.configs)} "
        f"configs), pool={pool}, scale={spec.scale:g}"
    )
    if args.dry_run:
        for cell in cells:
            print(f"  {cell.name}")
        return 0
    rows = run_matrix(
        cells,
        pool=pool,
        timeout=args.timeout,
        corpus_dir=args.corpus_dir,
        log=say,
    )
    written = write_rows(args.out, rows)
    errors = [row for row in written if row.get("status") != "ok"]
    print(
        f"bench: {len(written)} row(s) -> {args.out} "
        f"({len(written) - len(errors)} ok, {len(errors)} error)"
    )
    if args.report:
        text = format_bench_report(written)
        with open(args.report, "w") as handle:
            handle.write(text)
        print(f"report: wrote {args.report}")
    status = 1 if errors else 0
    if args.baseline:
        problems, compared = diff_rows(written, load_rows(args.baseline))
        if problems:
            print(
                f"baseline: {len(problems)} regression(s) against "
                f"{args.baseline}:"
            )
            for problem in problems:
                print(f"  {problem}")
            status = 1
        else:
            print(
                f"baseline: {compared} cell(s) match {args.baseline}"
            )
    return status


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.server import serve

    server = serve(
        host=args.host, port=args.port, options=options_from_args(args)
    )
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


def _add_demand_flag(parser) -> None:
    parser.add_argument(
        "--demand",
        action="store_true",
        help="resolve definedness demand-driven (backward VFG slicing) "
        "instead of whole-program reachability; identical verdicts",
    )


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
                            "to its origin (demand-driven: only the "
                            "warned sites' backward slices are visited)")
    check.add_argument("--query-stats", action="store_true",
                       help="print the demand-query work profile "
                            "(states/nodes visited, memo hits, latency); "
                            "requires a demand engine to have run "
                            "(--demand or --explain), otherwise explains "
                            "that nothing was profiled")
    check.add_argument("--trace", default=None, metavar="PATH",
                       help="capture a span trace of the whole static "
                            "pipeline (parse, constraint gen, per-wave "
                            "solve, VFG build, Opt I/II, demand queries) "
                            "and write it as Chrome trace-event JSON "
                            "(load in chrome://tracing or Perfetto)")
    _add_demand_flag(check)
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
    vfg.add_argument("--demand", action="store_true",
                     help="color definedness on demand (resolve only "
                          "the rendered nodes by backward slicing)")
    vfg.add_argument("--solver-stats", action="store_true",
                     help="print the constraint-solver work profile to "
                          "stderr (pops, propagated facts, collapsed "
                          "SCCs, phase timings); the profile comes from "
                          "the pointer-analysis phase this command "
                          "always runs")
    vfg.add_argument("--query-stats", action="store_true",
                     help="print the demand-query work profile to "
                          "stderr; requires the demand engine (--demand) "
                          "to have run, otherwise explains that nothing "
                          "was profiled")
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
                           "names msan,tl,tl_at,opt_i,full,ext with "
                           "variant suffixes @summary (resolver) and "
                           "+demand")
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
                           "incremental update) instead of from-scratch "
                           "analysis; a verdict difference between the "
                           "two paths is exactly what the campaign "
                           "exists to catch")
    fuzz.add_argument("--quiet", action="store_true",
                      help="suppress per-case progress lines")
    fuzz.set_defaults(func=cmd_fuzz)

    bench = sub.add_parser(
        "bench",
        help="matrix benchmark orchestrator with baselines and corpus "
             "promotion",
    )
    bench.add_argument("--workloads", default="all", metavar="LIST",
                       help="comma list of workload / corpus-seed names, "
                            "or: all (registry + corpus, the default), "
                            "spec (the 19 generated programs), corpus "
                            "(bred seeds only)")
    bench.add_argument("--configs", default="tl,tl_at,opt_i,full",
                       metavar="LIST",
                       help="comma list of configurations "
                            "(msan,tl,tl_at,opt_i,full,ext); default "
                            "tl,tl_at,opt_i,full")
    bench.add_argument("--scale", type=float, default=0.1,
                       help="workload scale factor (default 0.1; corpus "
                            "seeds are fixed-size and ignore it)")
    bench.add_argument("--pool", type=int, default=0, metavar="N",
                       help="concurrent cell worker processes; 0 = auto "
                            "(default), 1 = in-process serial")
    bench.add_argument("--timeout", type=float, default=300.0,
                       metavar="SECONDS",
                       help="per-cell wall-clock budget in process mode "
                            "(default 300); an overrunning cell becomes "
                            "an error row and the run continues")
    bench.add_argument("--out", default="benchmarks/results/bench_stats.jsonl",
                       metavar="PATH",
                       help="JSONL row log (appended; default "
                            "benchmarks/results/bench_stats.jsonl)")
    bench.add_argument("--baseline", default=None, metavar="PATH",
                       help="diff this run against a committed baseline "
                            "JSONL; exact gates on status/warned_uids/"
                            "checks/propagations, 2x ratio gates on "
                            "solver work; any regression exits 1")
    bench.add_argument("--report", default=None, metavar="PATH",
                       help="also write the markdown report "
                            "(Table-1/Figure-10-style aggregation)")
    bench.add_argument("--promote", action="append", metavar="FILE",
                       help="promote an oracle-minimized .ir reproducer "
                            "into the permanent corpus (repeatable; "
                            "validates, pins its warned sets, updates "
                            "the manifest; no matrix runs)")
    bench.add_argument("--corpus-dir", default=None, metavar="DIR",
                       help="corpus directory override (default: "
                            "tests/data/corpus of the checkout)")
    bench.add_argument("--dry-run", action="store_true",
                       help="with --promote: validate only; otherwise: "
                            "list the expanded cells without running")
    bench.add_argument("--quiet", action="store_true",
                       help="suppress per-cell progress lines")
    bench.set_defaults(func=cmd_bench)

    serve_p = sub.add_parser(
        "serve", help="resident analysis service (localhost HTTP/JSON)"
    )
    serve_p.add_argument("--host", default="127.0.0.1",
                         help="bind address (default 127.0.0.1)")
    serve_p.add_argument("--port", type=int, default=0, metavar="N",
                         help="TCP port; 0 picks a free port and prints it "
                              "(default 0)")
    _add_demand_flag(serve_p)
    serve_p.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.bench.matrix import BenchSpecError
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
    except (UsageError, UnknownConfigError, BenchSpecError,
            CorpusError) as error:
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


if __name__ == "__main__":
    sys.exit(main())
