"""Unified stats registry and the single JSONL stats writer.

Every ``*Stats`` object the pipeline records — :class:`SolverStats`,
:class:`UpdateStats`, :class:`Opt2Stats`, :class:`VFGStats` — lands
here as a :class:`StatRecord` under one shared schema::

    stat      which family ("solver", "update", "opt2", "vfg")
    phase     the pipeline phase the numbers describe
    counters  the stats object's ``as_dict()`` (or field dict) payload
    wall_s    per-phase wall-clock seconds (``{phase: seconds}``)
    tags      run context: config / session / mode / ...

The in-process registry (:data:`REGISTRY`) is a bounded ring — a
long-lived ``repro serve`` records every update without growing
without bound — and :meth:`StatsRegistry.rows` snapshots it for
``/stats`` payloads or report sections.

File emission goes through exactly two functions: :func:`append_jsonl`
(one JSON object per line, append mode, parent dirs created) and
:func:`write_stats_row` (the benchmark-log row shape that
``tools/diff_solver_stats.py`` groups and gates).  Rows written here
carry ``"schema": "repro.stats/1"`` so the diff tool knows it may
apply the per-phase wall-clock gate; legacy rows without the marker
are still read but not wall-gated.
"""

from __future__ import annotations

import collections
import json
import os
import threading
from typing import Dict, List, Optional

__all__ = [
    "REGISTRY",
    "SCHEMA",
    "StatRecord",
    "StatsRegistry",
    "append_jsonl",
    "write_stats_row",
]

#: Marker stamped on every JSONL row the unified writer emits.
SCHEMA = "repro.stats/1"

#: Tag keys promoted out of ``extra`` into the shared ``tags`` dict.
_TAG_KEYS = ("tier", "storage", "schedule", "jobs", "mode", "opt")


class StatRecord:
    """One registered stats snapshot under the shared schema."""

    __slots__ = ("stat", "phase", "counters", "wall_s", "tags")

    def __init__(
        self,
        stat: str,
        phase: str,
        counters: Dict[str, object],
        wall_s: Optional[Dict[str, float]] = None,
        tags: Optional[Dict[str, object]] = None,
    ) -> None:
        self.stat = stat
        self.phase = phase
        self.counters = counters
        self.wall_s = wall_s or {}
        self.tags = tags or {}

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": SCHEMA,
            "stat": self.stat,
            "phase": self.phase,
            "counters": dict(self.counters),
            "wall_s": dict(self.wall_s),
            "tags": dict(self.tags),
        }

    def __repr__(self) -> str:
        return f"<stat {self.stat}/{self.phase} {len(self.counters)} counters>"


class StatsRegistry:
    """The bounded in-process registry all stats families report into.

    ``record_*`` adapters translate each legacy ``*Stats`` object into
    a :class:`StatRecord`; :meth:`record` is the generic entry.  The
    ring keeps the most recent ``maxlen`` records (default 1024) so a
    resident service never grows unbounded.
    """

    def __init__(self, maxlen: int = 1024) -> None:
        self._records: collections.deque = collections.deque(maxlen=maxlen)
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._records)

    def record(
        self,
        stat: str,
        phase: str,
        counters: Dict[str, object],
        wall_s: Optional[Dict[str, float]] = None,
        **tags,
    ) -> StatRecord:
        rec = StatRecord(stat, phase, dict(counters), wall_s, tags)
        with self._lock:
            self._records.append(rec)
        return rec

    # -- adapters for the four stats families --------------------------
    def record_solver(self, stats, **tags) -> StatRecord:
        """A :class:`repro.analysis.solverstats.SolverStats`."""
        counters = stats.as_dict()
        wall = dict(counters.pop("phase_seconds", {}) or {})
        counters.pop("elapsed", None)
        return self.record(
            "solver",
            "solve",
            counters,
            wall_s=wall,
            **tags,
        )

    def record_update(self, stats, **tags) -> StatRecord:
        """A :class:`repro.service.session.UpdateStats`."""
        counters = stats.as_dict()
        wall = {"update": counters.get("update_seconds", 0.0)}
        return self.record("update", "update", counters, wall_s=wall, **tags)

    def record_opt2(self, stats, **tags) -> StatRecord:
        """A :class:`repro.core.opt2.Opt2Stats`."""
        counters = stats if isinstance(stats, dict) else stats.as_dict()
        return self.record("opt2", "opt2", counters, **tags)

    def record_vfg(self, stats, **tags) -> StatRecord:
        """A :class:`repro.vfg.graph.VFGStats`."""
        counters = stats if isinstance(stats, dict) else stats.as_dict()
        return self.record("vfg", "vfg.build", counters, **tags)

    def record_bench(self, row: Dict[str, object], **tags) -> StatRecord:
        """One ``repro bench`` cell row (the flat shape
        :func:`write_stats_row` emits with ``kind="bench"``)."""
        counters = {
            k: v
            for k, v in row.items()
            if k not in ("schema", "tags", "kind")
        }
        merged = dict(row.get("tags") or {})
        merged.update(tags)
        wall = (
            {"cell": row["elapsed"]} if "elapsed" in row else None
        )
        return self.record(
            "bench", "bench.cell", counters, wall_s=wall, **merged
        )

    # -- consumption ---------------------------------------------------
    def rows(
        self, stat: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Dict[str, object]]:
        """A JSON-safe snapshot, newest last; filter by family."""
        with self._lock:
            records = list(self._records)
        if stat is not None:
            records = [r for r in records if r.stat == stat]
        if limit is not None:
            records = records[-limit:]
        return [r.as_dict() for r in records]

    def clear(self) -> None:
        with self._lock:
            self._records.clear()

    def write_jsonl(self, path: str, stat: Optional[str] = None) -> int:
        """Append the current snapshot to ``path``; returns row count."""
        rows = self.rows(stat=stat)
        for row in rows:
            append_jsonl(path, row)
        return len(rows)


#: The process-wide registry the pipeline reports into.
REGISTRY = StatsRegistry()


def append_jsonl(path: str, row: Dict[str, object]) -> None:
    """The single JSONL writer: one compact JSON object per line,
    append mode, parent directory created on demand."""
    parent = os.path.dirname(os.path.abspath(path))
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(row, sort_keys=True) + "\n")


def write_stats_row(
    path: str,
    benchmark: str,
    seed: int,
    factor: int,
    elapsed: Optional[float] = None,
    stats=None,
    **extra,
) -> Dict[str, object]:
    """Write one benchmark-log row in the shape
    ``tools/diff_solver_stats.py`` groups and gates.

    The row keeps the legacy flat layout — base fields, then ``extra``,
    then the stats object's ``as_dict()`` spread at top level — so
    existing group keys and metric gates keep working, and adds the
    ``"schema"`` marker plus a normalized ``tags`` dict so new tooling
    can key off the unified schema.  Returns the row written.
    """
    row: Dict[str, object] = {
        "schema": SCHEMA,
        "benchmark": benchmark,
        "seed": seed,
        "factor": factor,
    }
    if elapsed is not None:
        row["elapsed"] = round(elapsed, 6)
    row.update(extra)
    if stats is not None:
        payload = stats if isinstance(stats, dict) else stats.as_dict()
        for key, value in payload.items():
            row.setdefault(key, value)
    row["tags"] = {k: row[k] for k in _TAG_KEYS if k in row}
    append_jsonl(path, row)
    return row
