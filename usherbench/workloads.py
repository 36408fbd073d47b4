"""The benchmark's three workloads and their output checks.

Every workload runs the default configuration (serial, ``tier=full``,
``storage=int``, ``schedule=wave``) in this one process.  A workload is
measured in *passes*; :func:`measure` repeats passes for a time budget
or a fixed count:

* ``paper-suite`` — one pass ``analyze()``s all 19 SPEC-shaped programs
  under the five paper configs, then runs each natively and under each
  of the five plans.
* ``static-large`` — one pass ``analyze()``s a pointer-heavy generated
  module (factor 8) and a plain one (factor 16); nothing executes.
* ``session-edits`` — one pass sends ``EDITS_PER_PASS`` seeded
  single-function edits to a freshly opened ``AnalysisSession``, each
  followed by ``query_sites()``.

The module sets are fixed, so every seed measures the same amount of
work: the seed orders the programs of each pass and draws the edits.
Every pass starts from the same state (the session is reopened, untimed,
before each pass), so a faster commit that runs more passes measures
the same kind of pass, not a module that has drifted further.  See
README.md for why each workload exists.
"""

from __future__ import annotations

import copy
import gc
import json
import random
import re
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro import api
from repro.core import prepare_module, run_usher
from repro.oracle.differ import EXACT_NAMES
from repro.service import AnalysisSession, plan_signature
from repro.workloads import ALL_WORKLOADS, GeneratorParams, generate_program

import layers

PINS = Path(__file__).with_name("pins.json")

#: Input scale of the paper suite's programs.
SUITE_SCALE = 0.25
#: (name, generator seed, factor, pointer-heavy) of the static-large modules.
STATIC_MODULES = (("heavy-f8", 11, 8, True), ("plain-f16", 11, 16, False))
#: (name, generator seed, factor) of the session-edits module.
SESSION_MODULE = ("gen-f2", 11, 2)
#: Edits in one session-edits pass.
EDITS_PER_PASS = 10
#: Store deletions among a pass's edits; the others insert a constant.
#: The blend is a choice, not measured traffic, so the latency of each
#: path the session takes (warm or rebuild) is also reported on its own.
SHRINK_EDITS = 3
#: Cold analyses of the opened module before each pass (median is
#: analyze_s); one takes ~0.1 s, so a run needs a few dozen.
COLD_PER_PASS = 3

#: analyze() config -> its oracle contract in repro.oracle.differ.
CONTRACT = {
    "msan": "msan",
    "usher_tl": "tl",
    "usher_tl_at": "tl_at",
    "usher_opt1": "opt_i",
    "usher": "full",
}

_STORE = re.compile(r"^\s+\*%\S+ := ")


@dataclass
class Run:
    """What one measurement recorded."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: One dict per pass: ``cpu``, ``analyze``, ``execute``, their
    #: split ``by_module`` and the pass's deterministic counts.
    passes: List[Dict] = field(default_factory=list)
    #: Per-pass hooks of a traced measurement.
    hooks: List[layers.Hooks] = field(default_factory=list)
    #: Workload-wide figures: latencies, cold analysis, final counts.
    extra: Dict = field(default_factory=dict)

    def operation(self, name: str, check: Callable[[], List[str]]) -> None:
        """Count one operation; record what its check found or raised."""
        self.attempted += 1
        try:
            found = check()
        except Exception as exc:  # any raise is a failed operation
            traceback.print_exc()
            found = [f"raised {type(exc).__name__}: {exc}"]
        if found:
            self.failed += 1
            self.problems.extend(f"{name}: {problem}" for problem in found)


def load_pins() -> Dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def plan_counts(plans) -> Dict[str, List[int]]:
    return {
        name: [plan.count_checks(), plan.count_propagations()]
        for name, plan in plans.items()
    }


def _pin_problems(pins: Dict, key: str, counts: Dict) -> List[str]:
    pinned = pins.get(key)
    if pinned is None:
        return [f"no pinned counts for {key}"]
    if pinned != counts:
        return [f"checks/propagations {counts} differ from pins {pinned}"]
    return []


def _analysis_counts(analysis, counts: Dict) -> None:
    """Add one module's deterministic static counts to ``counts``."""
    usher_plan = analysis.plans["usher"]
    counts["checks"] += usher_plan.count_checks()
    counts["propagations"] += usher_plan.count_propagations()
    stats = analysis.prepared.solver_stats
    counts["pops"] += stats.pops
    counts["facts_propagated"] += stats.facts_propagated
    for result in analysis.results.values():
        counts["vfg_nodes"] += result.vfg.num_nodes
        counts["vfg_edges"] += result.vfg.num_edges
        if result.opt2_stats is not None:
            counts["redirected"] += result.opt2_stats.redirected_nodes
            counts["sites_processed"] += result.opt2_stats.sites_processed
    counts["modules"] += 1


def _new_counts() -> Dict:
    return {
        key: 0
        for key in (
            "checks", "propagations", "pops", "facts_propagated",
            "vfg_nodes", "vfg_edges", "redirected", "sites_processed",
            "modules", "steps", "shadow_reads", "dyn_checks",
        )
    }


# ----------------------------------------------------------------------
# paper-suite and static-large
# ----------------------------------------------------------------------
def oracle_problems(has_true_bug: bool, native, reports) -> List[str]:
    """The repro.oracle.differ contract on already-made runs."""
    truth = native.true_bug_set()
    problems = []
    if bool(truth) != has_true_bug:
        problems.append(f"native run found true bugs {sorted(truth)}")
    for config, report in reports.items():
        warned = report.warning_set()
        if (report.outputs, report.exit_value) != (
            native.outputs, native.exit_value
        ):
            problems.append(f"{config}: outputs or exit value differ")
        if warned - truth:
            problems.append(f"{config}: spurious warnings {sorted(warned - truth)}")
        if CONTRACT[config] in EXACT_NAMES:
            if truth - warned:
                problems.append(f"{config}: missed {sorted(truth - warned)}")
        elif truth and not warned:
            problems.append(f"{config}: bug left undetected")
    return problems


class ModuleSet:
    """A fixed set of modules; one pass ``analyze()``s each of them and,
    with ``execute``, runs it natively and under each of the five plans."""

    name = ""
    execute = False
    min_passes = 1

    def __init__(self, fault: Optional[Callable] = None) -> None:
        #: ``fault(analysis, native)`` may corrupt plans before the runs.
        self.fault = fault

    def modules(self) -> List[Tuple[str, str, bool]]:
        """``(name, TinyC source, has a true bug)`` per module."""
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def setup(self, seed: int) -> Dict:
        modules = self.modules()
        self.warm_up()
        return {"seed": seed, "modules": modules, "pins": load_pins()}

    def reset(self, state: Dict, run: Run) -> None:
        pass

    def run_pass(self, state: Dict, index: int, run: Run) -> Dict:
        modules = list(state["modules"])
        random.Random(f"{state['seed']}/{index}").shuffle(modules)
        pins = state["pins"].get(self.name, {})
        counts = _new_counts()
        by_module: Dict[str, Tuple[float, float]] = {}
        slowdowns = []
        clock = layers.CLOCK
        started = clock()
        for name, source, has_true_bug in modules:
            def check(name=name, source=source, has_true_bug=has_true_bug):
                t0 = clock()
                analysis = api.analyze(source=source, name=name)
                t1 = t2 = clock()
                problems = _pin_problems(pins, name, plan_counts(analysis.plans))
                if self.execute:
                    native = analysis.run_native()
                    if self.fault is not None:
                        self.fault(analysis, native)
                    reports = {c: analysis.run(c) for c in api.CONFIG_ORDER}
                    t2 = clock()
                    problems += oracle_problems(has_true_bug, native, reports)
                    counts["steps"] += native.steps
                    for report in reports.values():
                        counts["steps"] += report.steps
                        counts["shadow_reads"] += report.events.shadow_reads
                        counts["dyn_checks"] += report.events.checks
                    slowdowns.append(analysis.slowdown("usher"))
                by_module[name] = (t1 - t0, t2 - t1)
                _analysis_counts(analysis, counts)
                return problems

            run.operation(name, check)
        measured = {
            "cpu": clock() - started,
            "analyze": sum(a for a, _ in by_module.values()),
            "by_module": by_module,
            **counts,
        }
        if self.execute:
            measured["execute"] = sum(e for _, e in by_module.values())
            measured["slowdowns"] = slowdowns
        return measured

    def finish(self, state: Dict, run: Run) -> None:
        pass


class PaperSuite(ModuleSet):
    name = "paper-suite"
    execute = True

    def modules(self):
        return [(w.name, w.source(SUITE_SCALE), w.has_true_bug) for w in ALL_WORKLOADS]

    def warm_up(self) -> None:
        warm = api.analyze(source=ALL_WORKLOADS[0].source(0.05), name="warm")
        warm.run_native()
        warm.run("usher")


def _generated(seed: int, factor: int, heavy: bool) -> str:
    params = GeneratorParams().scaled(factor)
    return generate_program(seed, params.pointer_heavy() if heavy else params)


class StaticLarge(ModuleSet):
    name = "static-large"

    def modules(self):
        return [
            (name, _generated(seed, factor, heavy), False)
            for name, seed, factor, heavy in STATIC_MODULES
        ]

    def warm_up(self) -> None:
        api.analyze(source=_generated(STATIC_MODULES[0][1], 1, True), name="warm")


# ----------------------------------------------------------------------
# session-edits
# ----------------------------------------------------------------------
def session_source() -> str:
    _, seed, factor = SESSION_MODULE
    return _generated(seed, factor, False)


def next_edit(session: AnalysisSession, rng: random.Random, serial: int, shrink: bool):
    """One seeded single-function edit: ``(function, new text, kind)``.

    A constant insert keeps the constraint set a superset (the warm
    path); deleting a store shrinks it (the rebuild path when the store
    fed the pointer analysis).
    """
    bodies = {f: session.function_text(f).splitlines() for f in session.function_names()}
    if shrink:
        stores = {
            f: [i for i, line in enumerate(lines) if _STORE.match(line)]
            for f, lines in bodies.items()
        }
        fname = rng.choice([f for f in bodies if stores[f]])
        lines = bodies[fname]
        del lines[rng.choice(stores[fname])]
        return fname, "\n".join(lines), "shrink"
    fname = rng.choice(list(bodies))
    lines = bodies[fname]
    label = next(i for i, line in enumerate(lines) if line.rstrip().endswith(":"))
    lines.insert(label + 1, f"    %__bench{serial} := 0")
    return fname, "\n".join(lines), "const"


def cold_verdicts(module, config):
    """A from-scratch analysis of a post-pipeline module (left intact):
    ``(seconds, result, verdicts)``."""
    module = copy.deepcopy(module)
    started = layers.CLOCK()
    result = run_usher(prepare_module(module), config)
    verdicts: Dict[int, bool] = {}
    for site in result.vfg.check_sites:
        ok = result.gamma.is_defined(site.node)
        verdicts[site.instr_uid] = verdicts.get(site.instr_uid, True) and ok
    return layers.CLOCK() - started, result, verdicts


class SessionEdits:
    name = "session-edits"
    #: At least 100 edits, so ten latencies lie beyond update_p90_ms.
    min_passes = 100 // EDITS_PER_PASS

    def setup(self, seed: int) -> Dict:
        source = session_source()
        opened = AnalysisSession.from_source(source, name=SESSION_MODULE[0])
        return {
            "seed": seed,
            "source": source,
            "pins": load_pins(),
            "opened": opened.pristine,
            "config": opened.config,
        }

    def reset(self, state: Dict, run: Run) -> None:
        """Open a fresh session, so every pass edits the module as opened,
        and time ``COLD_PER_PASS`` cold analyses of that module
        (analyze_s), so their samples spread over the run like the
        passes do."""
        state["session"] = AnalysisSession.from_source(
            state["source"], name=SESSION_MODULE[0]
        )
        cold = run.extra.setdefault("cold_s", [])
        for _ in range(COLD_PER_PASS):
            gc.collect()
            cold.append(cold_verdicts(state["opened"], state["config"])[0])

    def run_pass(self, state: Dict, index: int, run: Run) -> Dict:
        session = state["session"]
        if index == 0:
            # The open state is the one the pins describe.
            run.operation(
                "open",
                lambda: _pin_problems(
                    state["pins"].get(self.name, {}),
                    SESSION_MODULE[0],
                    plan_counts({"usher": session.plan}),
                ),
            )
            run.extra["open_items"] = (
                session.plan.count_checks() + session.plan.count_propagations()
            )
            run.extra["open_pops"] = session.prepared.solver_stats.pops
            run.extra["open_facts"] = session.prepared.solver_stats.facts_propagated
        latencies = run.extra.setdefault("latencies_ms", [])
        updates = run.extra.setdefault("updates", [])
        rng = random.Random(f"{state['seed']}/{index}")
        kinds = [True] * SHRINK_EDITS + [False] * (EDITS_PER_PASS - SHRINK_EDITS)
        rng.shuffle(kinds)
        clock = layers.CLOCK
        spent = 0.0
        for serial, shrink in enumerate(kinds):
            fname, text, kind = next_edit(session, rng, serial, shrink)

            def check(fname=fname, text=text):
                nonlocal spent
                started = clock()
                stats = session.update(fname, text)
                session.query_sites()
                elapsed = clock() - started
                spent += elapsed
                latencies.append(elapsed * 1000.0)
                updates.append(stats)
                return []

            run.operation(f"pass {index} edit {serial} ({kind} {fname})", check)
        return {"cpu": spent}

    def finish(self, state: Dict, run: Run) -> None:
        session = state["session"]

        def check():
            _, result, verdicts = cold_verdicts(session.pristine, session.config)
            problems = []
            if plan_signature(session.plan) != plan_signature(result.plan):
                problems.append("plan differs from a cold analysis")
            if session.query_sites() != verdicts:
                problems.append("query_sites() differs from a cold analysis")
            return problems

        run.operation("final state", check)
        run.extra["final"] = plan_counts({"usher": session.plan})["usher"]
        run.extra["final_vfg"] = (session.vfg.num_nodes, session.vfg.num_edges)
        opt2 = session.result.opt2_stats
        run.extra["final_opt2"] = (
            (opt2.redirected_nodes, opt2.sites_processed) if opt2 else (0, 0)
        )


WORKLOADS = {w.name: w for w in (PaperSuite, StaticLarge, SessionEdits)}


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
def measure(
    workload,
    state: Dict,
    seconds: Optional[float] = None,
    passes: Optional[int] = None,
    traced: bool = False,
) -> Run:
    """Run passes until ``seconds`` have gone (and at least the
    workload's ``min_passes``) or exactly ``passes`` of them.  Before
    each pass the workload is reset, untimed and untraced; ``traced``
    installs fresh timing hooks around each pass."""
    run = Run()
    started = time.perf_counter()
    index = 0
    while (
        index < passes
        if passes is not None
        else index < workload.min_passes
        or time.perf_counter() - started < seconds
    ):
        workload.reset(state, run)
        gc.collect()
        hooks = layers.Hooks() if traced else None
        with layers.installed(hooks):
            run.passes.append(workload.run_pass(state, index, run))
        if hooks is not None:
            run.hooks.append(hooks)
        index += 1
    workload.finish(state, run)
    return run


def pin_all() -> Dict:
    """Fresh per-module plan counts for every workload (pins.json)."""
    pins = {
        workload.name: {
            name: plan_counts(api.analyze(source=source, name=name).plans)
            for name, source, _ in workload.modules()
        }
        for workload in (PaperSuite(), StaticLarge())
    }
    session = AnalysisSession.from_source(session_source(), name=SESSION_MODULE[0])
    pins[SessionEdits.name] = {
        SESSION_MODULE[0]: plan_counts({"usher": session.plan})
    }
    return pins
