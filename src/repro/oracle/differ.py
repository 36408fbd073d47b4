"""Differential soundness checking of Usher configurations.

Each configuration carries a contract against the native interpreter's
ground truth (``ExecutionReport.true_bug_set()``):

* ``msan``, ``tl``, ``tl_at``, ``opt_i`` — *exact*: the warned uids
  must equal the true-bug uids.  Every check these plans emit receives
  a bit-precise shadow, and Γ-⊤ sites are statically proven defined,
  so both a spurious and a missing uid indicate a bug in the analysis
  or the instrumentation rules.
* ``full``, ``ext`` (Opt II on top) — *subset + detection*: Opt II
  deliberately suppresses dominated rippled reports, so warned ⊆ true
  bugs, and a buggy run must still warn at least once.  A spurious uid
  or a silently unreported buggy run is a divergence.

Every configuration must additionally be *transparent* (outputs and
exit value equal the native run's) and respect the shadow protocol
(no shadow read before its instrumentation item wrote it).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterable, List, Optional

from repro.core import PreparedModule, UsherConfig, run_msan, run_usher
from repro.runtime import (
    ExecutionReport,
    RuntimeFault,
    ShadowProtocolError,
    StepLimitExceeded,
    run_instrumented,
    run_native,
)

#: Short config names accepted by the oracle and ``repro fuzz``.
CONFIG_FACTORIES: "Dict[str, Callable[[], Optional[UsherConfig]]]" = {
    "msan": lambda: None,  # the full-instrumentation baseline
    "tl": UsherConfig.tl,
    "tl_at": UsherConfig.tl_at,
    "opt_i": UsherConfig.opt_i,
    "full": UsherConfig.full,
    "ext": UsherConfig.extended,
}

#: Configurations whose warned set must equal the ground truth exactly.
EXACT_NAMES = frozenset({"msan", "tl", "tl_at", "opt_i"})


class UnknownConfigError(ValueError):
    """An unrecognized configuration name was requested."""


@dataclass(frozen=True)
class Divergence:
    """One contract violation of one configuration on one module."""

    config: str
    kind: str  # spurious | missed | lost-detection | protocol | transparency
    warned: "tuple[int, ...]"
    expected: "tuple[int, ...]"
    detail: str = ""

    def describe(self) -> str:
        return (
            f"{self.config}: {self.kind} — warned {list(self.warned)}, "
            f"ground truth {list(self.expected)}"
            + (f" ({self.detail})" if self.detail else "")
        )


def build_config(name: str) -> "tuple[str, Optional[UsherConfig]]":
    """Resolve a config spec to ``(display_name, UsherConfig | None)``.

    ``None`` stands for the MSan baseline.  Specs compose variant
    suffixes onto a base name: ``full@summary`` switches the resolver,
    ``opt_i+demand`` resolves Γ demand-driven.  Raises
    :class:`UnknownConfigError` for anything else.
    """
    spec = name.strip()
    base = spec
    resolver: Optional[str] = None
    demand = False
    if "@" in base:
        base, resolver = base.split("@", 1)
    if base.endswith("+demand"):
        base, demand = base[: -len("+demand")], True
    factory = CONFIG_FACTORIES.get(base)
    if factory is None:
        known = ", ".join(sorted(CONFIG_FACTORIES))
        raise UnknownConfigError(
            f"unknown config {spec!r} (known: {known})"
        )
    config = factory()
    if config is None:
        if resolver or demand:
            raise UnknownConfigError(
                f"config {spec!r}: msan takes no variant suffixes"
            )
        return spec, None
    if resolver is not None:
        if resolver not in ("callstring", "summary"):
            raise UnknownConfigError(
                f"config {spec!r}: unknown resolver {resolver!r}"
            )
        config = replace(config, resolver=resolver)
    if demand:
        config = replace(config, demand=True)
    return spec, config


def build_config_matrix(
    names: "Iterable[str]",
) -> "List[tuple[str, Optional[UsherConfig]]]":
    """Resolve a list of config specs, preserving order, rejecting dups."""
    matrix: "List[tuple[str, Optional[UsherConfig]]]" = []
    seen = set()
    for name in names:
        spec, config = build_config(name)
        if spec in seen:
            raise UnknownConfigError(f"duplicate config {spec!r}")
        seen.add(spec)
        matrix.append((spec, config))
    return matrix


def _contract_base(spec: str) -> str:
    base = spec.split("@", 1)[0]
    if base.endswith("+demand"):
        base = base[: -len("+demand")]
    return base


def diff_config(
    prepared: PreparedModule,
    native: ExecutionReport,
    spec: str,
    config: "Optional[UsherConfig]",
    plan=None,
) -> "List[Divergence]":
    """Diff one configuration's run against the native ground truth.

    ``plan`` overrides the computed instrumentation plan — the fault
    injection hooks use this to hand in a deliberately corrupted plan.
    """
    if plan is None:
        if config is None:
            plan = run_msan(prepared)
        else:
            plan = run_usher(prepared, config).plan
    oracle = native.true_bug_set()
    expected = tuple(sorted(oracle))
    try:
        report = run_instrumented(prepared.module, plan)
    except ShadowProtocolError as exc:
        return [Divergence(spec, "protocol", (), expected, str(exc))]
    warned = report.warning_set()
    divergences: "List[Divergence]" = []
    if (
        report.outputs != native.outputs
        or report.exit_value != native.exit_value
    ):
        divergences.append(
            Divergence(
                spec,
                "transparency",
                tuple(sorted(warned)),
                expected,
                "outputs or exit value differ from the native run",
            )
        )
    spurious = warned - oracle
    if spurious:
        divergences.append(
            Divergence(spec, "spurious", tuple(sorted(warned)), expected)
        )
    if _contract_base(spec) in EXACT_NAMES:
        if oracle - warned:
            divergences.append(
                Divergence(spec, "missed", tuple(sorted(warned)), expected)
            )
    elif oracle and not warned:
        divergences.append(
            Divergence(
                spec, "lost-detection", (), expected,
                "buggy run left entirely unreported",
            )
        )
    return divergences


def diff_module(
    prepared: PreparedModule,
    matrix: "List[tuple[str, Optional[UsherConfig]]]",
    native: "Optional[ExecutionReport]" = None,
) -> "List[Divergence]":
    """Diff every configuration in ``matrix`` on one prepared module.

    Raises :class:`repro.runtime.StepLimitExceeded` /
    :class:`repro.runtime.RuntimeFault` from the *native* run so
    callers can skip pathological inputs; instrumented runs inherit
    the native verdict (a fault there that the native run did not hit
    would surface as a transparency divergence anyway).
    """
    if native is None:
        native = run_native(prepared.module)
    divergences: "List[Divergence]" = []
    for spec, config in matrix:
        divergences.extend(diff_config(prepared, native, spec, config))
    return divergences


__all__ = [
    "CONFIG_FACTORIES",
    "EXACT_NAMES",
    "UnknownConfigError",
    "Divergence",
    "build_config",
    "build_config_matrix",
    "diff_config",
    "diff_module",
    "RuntimeFault",
    "StepLimitExceeded",
]
