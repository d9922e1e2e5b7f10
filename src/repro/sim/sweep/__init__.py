"""Sweep engine: declarative cells, parallel runner, tiered result store.

``grid`` keeps the original sequential :func:`run_grid` API; everything
else is the cell-based engine: :class:`CellSpec` (declarative cells),
:func:`cell_fingerprint` (content-addressed identity), the
:mod:`~repro.sim.sweep.store` tier hierarchy (:class:`DirectoryStore` as
the local L1 or a shareable L2, :class:`HttpStore` as a remote L2,
:class:`TieredStore` combining them), the cost-aware work-stealing
:mod:`~repro.sim.sweep.schedule`, :func:`run_cells` (deterministic
parallel execution), and the :mod:`~repro.sim.sweep.dispatch` work-lease
coordinator that spreads one sweep across machines
(:func:`run_distributed` + :func:`run_worker`).
"""

from .dispatch import (
    CoordinatorClient,
    CoordinatorError,
    LeaseBoard,
    run_distributed,
    run_worker,
)
from .figures import FIGURES, figure_cells
from .fingerprint import (
    CACHE_SCHEMA_VERSION,
    cell_fingerprint,
    config_from_dict,
    config_to_dict,
    warm_fingerprint,
)
from .grid import baseline_of, run_grid
from .runner import (
    CellOutcome,
    SweepReport,
    dedupe_cells,
    execute_cell,
    execute_group,
    resolve_jobs,
    results_grid,
    run_cells,
    warm_groups_of,
)
from .schedule import CostModel, WorkQueue, split_group
from .spec import (
    CELL_PARAMS,
    CellSpec,
    cell_param_defaults,
    spec_from_dict,
    spec_to_dict,
)
from .store import (
    DEFAULT_CACHE_DIR,
    STORE_ENV,
    DirectoryStore,
    Fetched,
    HttpStore,
    PruneReport,
    ResultStore,
    TieredStore,
    build_store,
    make_store_server,
    open_store,
    result_from_dict,
    result_to_dict,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "CELL_PARAMS",
    "CellOutcome",
    "CellSpec",
    "CoordinatorClient",
    "CoordinatorError",
    "CostModel",
    "DEFAULT_CACHE_DIR",
    "DirectoryStore",
    "FIGURES",
    "Fetched",
    "HttpStore",
    "LeaseBoard",
    "PruneReport",
    "ResultStore",
    "STORE_ENV",
    "SweepReport",
    "TieredStore",
    "WorkQueue",
    "baseline_of",
    "build_store",
    "cell_fingerprint",
    "cell_param_defaults",
    "config_from_dict",
    "config_to_dict",
    "dedupe_cells",
    "execute_cell",
    "execute_group",
    "figure_cells",
    "make_store_server",
    "open_store",
    "resolve_jobs",
    "result_from_dict",
    "result_to_dict",
    "results_grid",
    "run_cells",
    "run_distributed",
    "run_grid",
    "run_worker",
    "spec_from_dict",
    "spec_to_dict",
    "split_group",
    "warm_fingerprint",
    "warm_groups_of",
]
