"""The consolidated analysis-options surface: one frozen record.

:class:`AnalysisOptions` is accepted everywhere an analysis is
configured — ``analyze(options=...)``,
:class:`repro.service.session.AnalysisSession` and ``repro serve``'s
``/open`` requests — so every entry point reads the same four fields
with the same validation.  A field left ``None`` keeps the entry
point's built-in default.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

#: Definedness resolvers accepted by ``AnalysisOptions.resolver``.
RESOLVERS = ("callstring", "summary")


@dataclass(frozen=True)
class AnalysisOptions:
    """Every analysis option in one immutable record.

    All fields default to ``None`` — "keep the entry point's default".
    Construction validates eagerly, so a typo'd resolver fails where it
    was written, not mid-analysis.

    Attributes:
        demand: Resolve Γ demand-driven (backward VFG slicing) instead
            of whole-program reachability; ``None`` keeps each entry
            point's default (``False`` for ``analyze()``, ``True`` for
            sessions).
        resolver: ``"callstring"`` or ``"summary"``.
        config: A configuration name (``usher``, ``usher_tl``, ...) for
            entry points that analyze one configuration — ``repro
            serve`` sessions and ``analyze()`` when ``configs=`` is not
            given.
        context_depth: Call-string depth for definedness resolution.
    """

    demand: Optional[bool] = None
    resolver: Optional[str] = None
    config: Optional[str] = None
    context_depth: Optional[int] = None

    def __post_init__(self) -> None:
        if self.demand is not None and not isinstance(self.demand, bool):
            raise ValueError(f"demand must be a bool or None, got {self.demand!r}")
        if self.resolver is not None and self.resolver not in RESOLVERS:
            known = ", ".join(RESOLVERS)
            raise ValueError(
                f"resolver must be one of {known}; got {self.resolver!r}"
            )
        if self.context_depth is not None and (
            not isinstance(self.context_depth, int) or self.context_depth < 0
        ):
            raise ValueError(
                f"context_depth must be a non-negative integer, "
                f"got {self.context_depth!r}"
            )

    # ------------------------------------------------------------------
    def merged(self, **overrides) -> "AnalysisOptions":
        """A copy with the non-``None`` ``overrides`` applied."""
        updates = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, **updates) if updates else self

    def as_dict(self) -> dict:
        """The non-``None`` fields, for JSON round-trips (``repro
        serve`` requests) and stats records."""
        return {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        }

    @classmethod
    def from_dict(cls, data: Optional[dict]) -> "AnalysisOptions":
        """Validated construction from a JSON-ish mapping; unknown keys
        are rejected (a typo'd option must not silently default)."""
        if not data:
            return cls()
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            names = ", ".join(sorted(unknown))
            raise ValueError(f"unknown analysis option(s): {names}")
        return cls(**data)


def options_from_args(args) -> AnalysisOptions:
    """Build an :class:`AnalysisOptions` from parsed CLI args (the
    ``--demand`` and ``--config`` flags of ``repro check`` / ``serve``)."""
    return AnalysisOptions(
        demand=True if getattr(args, "demand", None) else None,
        config=getattr(args, "config", None),
    )


__all__ = [
    "RESOLVERS",
    "AnalysisOptions",
    "options_from_args",
]
