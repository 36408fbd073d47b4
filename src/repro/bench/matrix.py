"""The declarative bench matrix: axes in, cells out.

A :class:`MatrixSpec` names two axes — workloads and configurations —
plus one scale factor, and :meth:`MatrixSpec.expand` takes the cross
product into an ordered, deduplicated list of :class:`Cell` records.
Everything here is pure data: no workload is rendered and no analysis
runs until the scheduler executes a cell, so a 500-cell matrix can be
validated, named and diffed for free.

Axis values are validated at construction (:class:`BenchSpecError`
with a one-line message): a typo'd config must fail where it was
written, not 40 cells into a run.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: Differ-style config spec -> ``analyze()`` configuration name.
SPEC_TO_CONFIG = {
    "msan": "msan",
    "tl": "usher_tl",
    "tl_at": "usher_tl_at",
    "opt_i": "usher_opt1",
    "full": "usher",
    "ext": "usher_ext",
}

#: The accepted configuration axis values, in presentation order.
CONFIG_SPECS = tuple(SPEC_TO_CONFIG)

#: The default configuration axis: the paper's four Usher columns.
DEFAULT_CONFIGS = ("tl", "tl_at", "opt_i", "full")

#: The solver setup every cell runs under, kept in cell names and rows
#: so baselines recorded when the solver had alternatives still match:
#: eager solving, int bitsets, wave scheduling, serial.
SOLVER_SETUP = {
    "tier": "full",
    "storage": "int",
    "schedule": "wave",
    "jobs": 1,
}


class BenchSpecError(ValueError):
    """An invalid bench matrix: unknown axis value, empty axis, ..."""


@dataclass(frozen=True)
class Cell:
    """One point of the matrix: a workload under one configuration.

    The :attr:`name` — ``164.gzip/tl/full/int/wave/j1`` — is the stable
    identity baselines and reports key on; its tail is the fixed
    :data:`SOLVER_SETUP`.  ``scale`` deliberately stays out of it (a run
    has one scale, recorded per row) so baselines survive
    scale-for-speed changes being caught *explicitly* by the diff, not
    silently by cells failing to match.
    """

    workload: str
    config: str
    scale: float

    @property
    def name(self) -> str:
        setup = SOLVER_SETUP
        return (
            f"{self.workload}/{self.config}/{setup['tier']}/"
            f"{setup['storage']}/{setup['schedule']}/j{setup['jobs']}"
        )

    @property
    def analysis_config(self) -> str:
        """The ``analyze()`` configuration name for this cell."""
        return SPEC_TO_CONFIG[self.config]

    def identity(self) -> dict:
        """The row fields that identify this cell in the JSONL log."""
        return {
            "cell": self.name,
            "workload": self.workload,
            "config": self.config,
            **SOLVER_SETUP,
            "scale": self.scale,
        }


def _check_axis(name: str, values: Sequence, allowed: Sequence) -> None:
    if not values:
        raise BenchSpecError(f"empty {name} axis")
    for value in values:
        if value not in allowed:
            known = ", ".join(str(a) for a in allowed)
            raise BenchSpecError(
                f"unknown {name} {value!r} (expected one of: {known})"
            )


@dataclass(frozen=True)
class MatrixSpec:
    """The declarative matrix: workloads, configurations and a scale.

    Workload names are carried opaquely — the scheduler resolves them
    against the workload registry and the corpus at execution time —
    but configurations validate eagerly.
    """

    workloads: Tuple[str, ...]
    configs: Tuple[str, ...] = DEFAULT_CONFIGS
    scale: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "configs", tuple(self.configs))
        if not self.workloads:
            raise BenchSpecError("empty workloads axis")
        for name in self.workloads:
            if not name or not isinstance(name, str):
                raise BenchSpecError(f"invalid workload name {name!r}")
        _check_axis("config", self.configs, CONFIG_SPECS)
        if not (isinstance(self.scale, (int, float)) and self.scale > 0):
            raise BenchSpecError(f"scale must be positive, got {self.scale!r}")

    def expand(self) -> List[Cell]:
        """The cross product as cells, workload-major, deduplicated.

        Repeated axis values (``--configs tl,tl``) collapse to their
        first occurrence; order is deterministic, so two expansions of
        the same spec enumerate identical lists — the property the
        resumable collector and the baseline diff rely on.
        """
        cells: List[Cell] = []
        seen = set()
        for workload, config in itertools.product(
            self.workloads, self.configs
        ):
            cell = Cell(workload, config, scale=self.scale)
            if cell.name not in seen:
                seen.add(cell.name)
                cells.append(cell)
        return cells

    @classmethod
    def from_args(
        cls,
        workloads: Sequence[str],
        configs: str = ",".join(DEFAULT_CONFIGS),
        scale: float = 1.0,
    ) -> "MatrixSpec":
        """Build a spec from the CLI's comma-separated axis strings."""
        return cls(
            workloads=tuple(workloads),
            configs=_split(configs, "configs"),
            scale=scale,
        )


def _split(text: str, axis: str) -> Tuple[str, ...]:
    values = tuple(part.strip() for part in text.split(",") if part.strip())
    if not values:
        raise BenchSpecError(f"empty {axis} axis: {text!r}")
    return values


__all__ = [
    "BenchSpecError",
    "CONFIG_SPECS",
    "Cell",
    "DEFAULT_CONFIGS",
    "MatrixSpec",
    "SOLVER_SETUP",
    "SPEC_TO_CONFIG",
]
