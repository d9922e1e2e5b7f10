"""Tabular rendering of experiment results, one row/series per figure.

The bench harness prints what the paper plots: grouped bars become rows of
numbers, with the benchmarks in the paper's order.  Everything here is
pure formatting over :class:`~repro.sim.results.SimResult` grids.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from ..sim.results import SimResult
from ..workloads.spec import BENCHMARK_ORDER

Grid = Dict[Tuple[str, str, str], SimResult]


def format_table(
    title: str,
    column_labels: Sequence[str],
    rows: Iterable[Tuple[str, Sequence[float]]],
    value_format: str = "{:8.3f}",
    row_header: str = "benchmark",
) -> str:
    """Render a simple fixed-width table.

    Columns are 12 characters wide, or one more than their label, so a
    long label never runs into the next column.
    """
    widths = [max(12, len(label) + 1) for label in column_labels]
    lines = [title, ""]
    header = f"{row_header:10s}" + "".join(
        f"{label:>{width}s}" for label, width in zip(column_labels, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for name, values in rows:
        cells = "".join(f"{value_format.format(v):>{width}s}"
                        for v, width in zip(values, widths))
        lines.append(f"{name:10s}{cells}")
    return "\n".join(lines)


def ipc_table(
    grid: Grid,
    schemes: Sequence[str],
    variant: str = "",
    title: str = "IPC",
    benchmarks: Sequence[str] = tuple(BENCHMARK_ORDER),
) -> str:
    rows = []
    for benchmark in benchmarks:
        rows.append(
            (benchmark,
             [grid[(benchmark, scheme, variant)].ipc for scheme in schemes])
        )
    return format_table(title, schemes, rows)


def relative_ipc_table(
    grid: Grid,
    schemes: Sequence[str],
    variant: str = "",
    baseline: str = "base",
    title: str = "IPC normalized to base",
    benchmarks: Sequence[str] = tuple(BENCHMARK_ORDER),
) -> str:
    rows = []
    for benchmark in benchmarks:
        base = grid[(benchmark, baseline, variant)]
        rows.append(
            (benchmark,
             [grid[(benchmark, scheme, variant)].ipc / base.ipc
              if base.ipc else 0.0
              for scheme in schemes])
        )
    return format_table(title, schemes, rows)


def metric_table(
    grid: Grid,
    schemes: Sequence[str],
    metric: Callable[[SimResult], float],
    variant: str = "",
    title: str = "metric",
    value_format: str = "{:8.3f}",
    benchmarks: Sequence[str] = tuple(BENCHMARK_ORDER),
) -> str:
    rows = []
    for benchmark in benchmarks:
        rows.append(
            (benchmark,
             [metric(grid[(benchmark, scheme, variant)]) for scheme in schemes])
        )
    return format_table(title, schemes, rows, value_format=value_format)


def series_table(
    title: str,
    series_labels: Sequence[str],
    per_benchmark: Dict[str, List[float]],
    value_format: str = "{:8.3f}",
    benchmarks: Sequence[str] = tuple(BENCHMARK_ORDER),
) -> str:
    rows = [(b, per_benchmark[b]) for b in benchmarks if b in per_benchmark]
    return format_table(title, series_labels, rows, value_format=value_format)


def sweep_ipc_table(report, title: str = "IPC") -> str:
    """Render a sweep's results as benchmarks x machine-variant columns.

    Columns are the distinct (scheme + non-default parameters) labels in
    the order the sweep declared them, so a figure sweep prints in the
    figure's own column order.  Takes a
    :class:`~repro.sim.sweep.runner.SweepReport`.
    """
    columns: List[str] = []
    values: Dict[Tuple[str, str], float] = {}
    row_names: List[str] = []
    for spec, result in report.results.items():
        label = spec.label()
        column = label.split("/", 1)[1] if "/" in label else "default"
        if column not in columns:
            columns.append(column)
        if spec.benchmark not in row_names:
            row_names.append(spec.benchmark)
        values[(spec.benchmark, column)] = result.ipc
    ordered_rows = [b for b in BENCHMARK_ORDER if b in row_names]
    ordered_rows += [b for b in row_names if b not in ordered_rows]
    rows = []
    for benchmark in ordered_rows:
        rows.append(
            (benchmark,
             [values.get((benchmark, column), float("nan"))
              for column in columns])
        )
    return format_table(title, columns, rows)
