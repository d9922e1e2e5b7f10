"""Result tables and the experiment registry."""

from .experiments import EXPERIMENTS, Experiment, experiment_index_markdown
from .perf import (
    PIPELINE,
    TRAJECTORY_DEFAULT,
    append_trajectory_row,
    compare_bench,
    host_fingerprint,
    load_trajectory,
    ratchet_bench,
    trajectory_baseline,
)
from .tables import (
    format_table,
    ipc_table,
    metric_table,
    relative_ipc_table,
    series_table,
    sweep_ipc_table,
)

__all__ = [
    "EXPERIMENTS",
    "Experiment",
    "PIPELINE",
    "TRAJECTORY_DEFAULT",
    "append_trajectory_row",
    "compare_bench",
    "host_fingerprint",
    "load_trajectory",
    "ratchet_bench",
    "trajectory_baseline",
    "experiment_index_markdown",
    "format_table",
    "ipc_table",
    "metric_table",
    "relative_ipc_table",
    "series_table",
    "sweep_ipc_table",
]
