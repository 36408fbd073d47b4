"""Markdown aggregation of a bench sweep: the paper-style views.

Three tables over one run's rows:

- **static instrumentation** (Table-1-style): per workload, the check
  and propagation counts under each configuration;
- **modelled slowdown** (Figure-10/11-style): per workload, the cost
  model's slowdown percentage under each configuration;
- **cell wall-clock**: mean per-cell seconds for each configuration,
  shown when some (workload, config) pair ran more than once.

Detection results are bit-identical run to run, so the first two
tables take each (workload, config)'s first row; repeated runs show
up only in the wall-clock table.
"""

from __future__ import annotations

from typing import Dict, List

from repro.bench.matrix import CONFIG_SPECS


def _ordered_configs(rows: List[Dict]) -> List[str]:
    present = {row["config"] for row in rows}
    return [spec for spec in CONFIG_SPECS if spec in present]


def _first_by(rows: List[Dict]) -> Dict:
    first: Dict = {}
    for row in rows:
        first.setdefault((row["workload"], row["config"]), row)
    return first


def _table(header: List[str], body: List[List[str]]) -> List[str]:
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "|".join("---" for _ in header) + "|",
    ]
    lines.extend("| " + " | ".join(cells) + " |" for cells in body)
    return lines


def format_bench_report(rows: List[Dict]) -> str:
    """The full markdown report for one sweep's rows."""
    ok = [row for row in rows if row.get("status") == "ok"]
    errors = [row for row in rows if row.get("status") != "ok"]
    lines = [
        "# Bench matrix report",
        "",
        f"{len(rows)} cell(s): {len(ok)} ok, {len(errors)} error(s).",
        "",
    ]
    if ok:
        configs = _ordered_configs(ok)
        first = _first_by(ok)
        workloads = sorted({row["workload"] for row in ok})

        lines += ["## Static instrumentation (checks / propagations)", ""]
        body = []
        for workload in workloads:
            cells = [workload]
            for spec in configs:
                row = first.get((workload, spec))
                cells.append(
                    f"{row['checks']} / {row['propagations']}"
                    if row is not None and row.get("status") == "ok"
                    else "—"
                )
            body.append(cells)
        lines += _table(["workload"] + list(configs), body) + [""]

        lines += ["## Modelled slowdown (%)", ""]
        body = []
        for workload in workloads:
            cells = [workload]
            for spec in configs:
                row = first.get((workload, spec))
                cells.append(
                    f"{row['slowdown_percent']:.1f}"
                    if row is not None and row.get("status") == "ok"
                    else "—"
                )
            body.append(cells)
        lines += _table(["workload"] + list(configs), body) + [""]

        if len(ok) > len(first):
            lines += ["## Mean cell wall-clock (s)", ""]
            body = []
            for spec in configs:
                sample = [row["elapsed"] for row in ok if row["config"] == spec]
                body.append([spec, f"{sum(sample) / len(sample):.3f}"])
            lines += _table(["config", "seconds"], body) + [""]
    if errors:
        lines += ["## Errors", ""]
        lines += [
            f"- `{row['cell']}`: {row.get('error', 'unknown')}"
            for row in errors
        ]
        lines.append("")
    return "\n".join(lines)


__all__ = ["format_bench_report"]
