"""Fuzzing campaigns: generate → diff → minimize → triage.

The harness drives the differ over generated TinyC programs (or any
printed-IR text), within a seed list and an optional wall-clock
budget.  Each divergence is triaged into a bucket ``(config, kind)``;
with minimization enabled the offending module is shrunk with
:func:`repro.oracle.minimize.minimize_ir` under the predicate "this
exact bucket still diverges" and written out as a self-contained
``.ir`` reproducer.  Results stream to JSONL under
``benchmarks/results`` so campaigns are comparable across commits.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core import prepare_module, run_msan, run_usher
from repro.ir.printer import module_to_str
from repro.opt import run_pipeline
from repro.oracle.differ import Divergence, diff_config
from repro.oracle.minimize import MinimizationResult, count_instructions, minimize_ir
from repro.runtime import RuntimeFault, StepLimitExceeded, run_native
from repro.tinyc import compile_source
from repro.workloads import GeneratorParams, generate_program

#: Generator parameters of the standard fuzz corpus — matches the
#: property suites' `prepared_random`, so seed numbers are comparable
#: across the fuzzers and the regression tests.
FUZZ_PARAMS = GeneratorParams(uninit_prob=0.3, call_prob=0.6)

#: The optimization pipeline applied before analysis.
FUZZ_PIPELINE = "O0+IM"

#: A hook mapping (config spec, prepared, plan) -> plan, used to plant
#: faults for oracle self-tests.
PlanHook = Callable[[str, object, object], object]


@dataclass
class CaseResult:
    """One examined module."""

    name: str
    seed: "Optional[int]"
    status: str  # ok | divergent | skipped
    divergences: "List[Divergence]" = field(default_factory=list)
    minimized: "Dict[str, int]" = field(default_factory=dict)
    reproducers: "List[str]" = field(default_factory=list)
    detail: str = ""


@dataclass
class CampaignResult:
    """Outcome of one :func:`run_campaign`."""

    cases: "List[CaseResult]" = field(default_factory=list)
    out_path: "Optional[str]" = None
    budget_exhausted: bool = False
    seeds_requested: int = 0

    @property
    def divergent(self) -> "List[CaseResult]":
        return [c for c in self.cases if c.status == "divergent"]

    @property
    def skipped(self) -> int:
        return sum(1 for c in self.cases if c.status == "skipped")

    def bucket_counts(self) -> "Dict[Tuple[str, str], int]":
        buckets: "Dict[Tuple[str, str], int]" = {}
        for case in self.divergent:
            for div in case.divergences:
                key = (div.config, div.kind)
                buckets[key] = buckets.get(key, 0) + 1
        return buckets


def _prepare_text(text: str, name: str):
    """Parse printed IR, run the standard pipeline, prepare for Usher."""
    from repro.ir.parser import parse_ir

    module = parse_ir(text)
    module.name = name
    run_pipeline(module, FUZZ_PIPELINE)
    return prepare_module(module)


def examine_text(
    text: str,
    name: str,
    matrix,
    plan_hook: "Optional[PlanHook]" = None,
    via_session: bool = False,
) -> "Tuple[str, List[Divergence]]":
    """Diff one printed-IR module against the matrix.

    With ``via_session=True`` every configuration is analyzed through an
    incrementally updated :class:`repro.service.session.AnalysisSession`
    instead of the one-shot pipeline — same diff against native ground
    truth, so a session-core bug shows up as a divergence.

    Returns ``(status, divergences)`` with status ``ok`` /
    ``divergent`` / ``skipped`` (native run exceeded the step limit or
    faulted — pathological inputs carry no soundness signal).
    """
    if via_session:
        return _examine_via_session(text, name, matrix, plan_hook)
    prepared = _prepare_text(text, name)
    try:
        native = run_native(prepared.module)
    except (StepLimitExceeded, RuntimeFault):
        return "skipped", []
    divergences: "List[Divergence]" = []
    for spec, config in matrix:
        if config is None:
            plan = run_msan(prepared)
        else:
            plan = run_usher(prepared, config).plan
        if plan_hook is not None:
            plan = plan_hook(spec, prepared, plan)
        divergences.extend(diff_config(prepared, native, spec, config, plan=plan))
    return ("divergent" if divergences else "ok"), divergences


def _examine_via_session(
    text: str, name: str, matrix, plan_hook
) -> "Tuple[str, List[Divergence]]":
    """Examine through resident sessions: open, apply a semantics-
    preserving single-function edit (a dead constant copy after the
    entry label), incrementally re-analyze, then diff the *updated*
    session's plan against native execution of the session's own
    module.  Exercises the tape cache, warm solver restart, uid
    transplant and memo carryover on every corpus program."""
    from repro.service.session import AnalysisSession

    divergences: "List[Divergence]" = []
    for spec, config in matrix:
        session = AnalysisSession.from_ir(text, name, usher_config=config)
        fname = session.function_names()[0]
        lines = session.function_text(fname).splitlines()
        for index, line in enumerate(lines):
            if line.endswith(":"):
                lines.insert(index + 1, "    %__svc0 := 0")
                break
        session.update(fname, "\n".join(lines))
        prepared = session.prepared
        try:
            native = run_native(prepared.module)
        except (StepLimitExceeded, RuntimeFault):
            return "skipped", []
        plan = run_msan(prepared) if config is None else session.plan
        if plan_hook is not None:
            plan = plan_hook(spec, prepared, plan)
        divergences.extend(
            diff_config(prepared, native, spec, config, plan=plan)
        )
    return ("divergent" if divergences else "ok"), divergences


def _bucket_predicate(matrix, bucket, plan_hook, via_session=False):
    """Minimization predicate: the module still diverges in ``bucket``."""
    spec_wanted, kind_wanted = bucket

    def predicate(module) -> bool:
        text = module_to_str(module)
        status, divergences = examine_text(
            text, "minimize-candidate", matrix, plan_hook,
            via_session=via_session,
        )
        return status == "divergent" and any(
            d.config == spec_wanted and d.kind == kind_wanted
            for d in divergences
        )

    return predicate


def seed_text(seed: int, params: "Optional[GeneratorParams]" = None) -> str:
    """The printed pre-analysis IR of one generated corpus program."""
    source = generate_program(seed, params or FUZZ_PARAMS)
    module = compile_source(source, f"seed{seed}")
    return module_to_str(module)


def _reproducer_path(directory: Path, name: str, bucket) -> Path:
    spec, kind = bucket
    safe = spec.replace("@", "-").replace("+", "-")
    return directory / f"{name}_{safe}_{kind}.ir"


def _emit_reproducer(
    path: Path, text: str, bucket, divergence: Divergence, origin: str
) -> None:
    spec, kind = bucket
    header = "\n".join(
        [
            f"; soundness-oracle reproducer: {kind} divergence under {spec}",
            f"; origin: {origin}",
            f"; warned={list(divergence.warned)} "
            f"ground-truth={list(divergence.expected)}",
            "; replay: repro fuzz --module " + path.name + " --configs " + spec,
            "",
        ]
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(header + text.rstrip() + "\n")


def run_campaign(
    seeds: "Iterable[int]",
    matrix,
    params: "Optional[GeneratorParams]" = None,
    budget_seconds: "Optional[float]" = None,
    minimize: bool = False,
    minimize_evals: int = 400,
    out_path: "Optional[str]" = None,
    reproducer_dir: "Optional[str]" = None,
    plan_hook: "Optional[PlanHook]" = None,
    texts: "Optional[Dict[str, str]]" = None,
    log: "Optional[Callable[[str], None]]" = None,
    via_session: bool = False,
) -> CampaignResult:
    """Run a differential fuzzing campaign.

    ``seeds`` drive the corpus generator (``params`` defaults to
    :data:`FUZZ_PARAMS`); ``texts`` adds supplied printed-IR modules
    (name → text) examined before the seeds.  The wall-clock budget,
    when given, bounds the whole campaign including minimization.  With
    ``via_session=True`` every case routes through an edited resident
    :class:`repro.service.session.AnalysisSession` (see
    :func:`examine_text`) — the campaign then certifies the session's
    incremental re-analysis against native ground truth.  Results
    stream to ``out_path`` as JSONL (one record per case plus a
    trailing summary) when provided; minimized reproducers land in
    ``reproducer_dir``.
    """
    t0 = time.monotonic()

    def time_left() -> "Optional[float]":
        if budget_seconds is None:
            return None
        return budget_seconds - (time.monotonic() - t0)

    def say(message: str) -> None:
        if log is not None:
            log(message)

    result = CampaignResult()
    seed_list = list(seeds)
    result.seeds_requested = len(seed_list)
    repro_dir = Path(reproducer_dir) if reproducer_dir else None
    records: "List[dict]" = []

    work: "List[Tuple[str, Optional[int], str]]" = []
    for name, text in (texts or {}).items():
        work.append((name, None, text))
    for seed in seed_list:
        work.append((f"seed{seed}", seed, ""))

    from repro.obs.trace import TRACE

    for name, seed, text in work:
        left = time_left()
        if left is not None and left <= 0:
            result.budget_exhausted = True
            say(f"budget exhausted before {name}")
            break
        if seed is not None:
            text = seed_text(seed, params)
        case = CaseResult(name=name, seed=seed, status="ok")
        span = (
            TRACE.span("fuzz.case", case=name, seed=seed)
            if TRACE.enabled
            else None
        )
        if span is not None:
            span.__enter__()
        try:
            case.status, case.divergences = examine_text(
                text, name, matrix, plan_hook, via_session=via_session
            )
        except Exception as exc:  # analysis crash: triage as its own kind
            case.status = "divergent"
            case.divergences = [
                Divergence("-", "crash", (), (), f"{type(exc).__name__}: {exc}")
            ]
        if case.status == "divergent":
            say(f"{name}: DIVERGENT — " + "; ".join(
                d.describe() for d in case.divergences
            ))
            if minimize and not any(
                d.kind == "crash" for d in case.divergences
            ):
                buckets = {(d.config, d.kind): d for d in case.divergences}
                for bucket, div in buckets.items():
                    left = time_left()
                    if left is not None and left <= 0:
                        result.budget_exhausted = True
                        break
                    try:
                        shrunk: MinimizationResult = minimize_ir(
                            text,
                            _bucket_predicate(
                                matrix, bucket, plan_hook,
                                via_session=via_session,
                            ),
                            max_evals=minimize_evals,
                            budget_seconds=left,
                        )
                    except ValueError:
                        continue  # not reproducible in isolation
                    case.minimized["/".join(bucket)] = shrunk.instructions
                    if repro_dir is not None:
                        path = _reproducer_path(repro_dir, name, bucket)
                        _emit_reproducer(path, shrunk.text, bucket, div, name)
                        case.reproducers.append(str(path))
                        say(
                            f"{name}: minimized {bucket} to "
                            f"{shrunk.instructions} instructions → {path}"
                        )
        elif case.status == "skipped":
            say(f"{name}: skipped (step limit / fault in native run)")
        if span is not None:
            span.tag(status=case.status)
            span.__exit__(None, None, None)
        result.cases.append(case)
        records.append(
            {
                "type": "case",
                "name": name,
                "seed": seed,
                "status": case.status,
                "divergences": [
                    {
                        "config": d.config,
                        "kind": d.kind,
                        "warned": list(d.warned),
                        "expected": list(d.expected),
                        "detail": d.detail,
                    }
                    for d in case.divergences
                ],
                "minimized": case.minimized,
                "reproducers": case.reproducers,
            }
        )

    records.append(
        {
            "type": "summary",
            "via_session": via_session,
            "cases": len(result.cases),
            "divergent": len(result.divergent),
            "skipped": result.skipped,
            "budget_exhausted": result.budget_exhausted,
            "buckets": {
                f"{c}/{k}": n for (c, k), n in result.bucket_counts().items()
            },
            "elapsed_seconds": round(time.monotonic() - t0, 3),
        }
    )
    if out_path is not None:
        from repro.obs.registry import append_jsonl

        path = Path(out_path)
        if path.exists():
            path.unlink()  # each campaign replaces the file wholesale
        for record in records:
            append_jsonl(path, record)
        result.out_path = str(path)
    return result


__all__ = [
    "FUZZ_PARAMS",
    "FUZZ_PIPELINE",
    "CampaignResult",
    "CaseResult",
    "examine_text",
    "run_campaign",
    "seed_text",
]
