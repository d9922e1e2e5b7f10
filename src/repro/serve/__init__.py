"""Multi-tenant integrity-verification service (the "tree forest").

The paper verifies one program's RAM; this package turns that into a
serving-scale system in the spirit of the follow-on literature
(batched-update integrity services):

* :mod:`repro.serve.forest` — :class:`TreeForest`, per-tenant
  :class:`~repro.hashtree.MemoryVerifier` lifecycle (create / attach /
  evict, per-tenant scheme and geometry);
* :mod:`repro.serve.batch` — :class:`ReadBatcher`, leader/follower
  request combining so concurrent reads touching overlapping tree paths
  share one verification walk (generalizing Section 5.9's speculative
  background checking);
* :mod:`repro.serve.service` — the HTTP front end and
  :class:`ServeClient`, both built from one route table over the shared
  transport of :mod:`repro.common.wire`;
* :mod:`repro.serve.loadgen` — the mixed-tenant load generator behind
  ``python -m repro loadgen`` (latency percentiles + amortization ratio
  into ``BENCH_serve.json``).
"""

from .batch import ReadBatcher
from .forest import Tenant, TenantConfig, TreeForest
from .loadgen import run_loadgen
from .service import ServeClient, ServeError, make_serve_server

__all__ = [
    "ReadBatcher",
    "ServeClient",
    "ServeError",
    "Tenant",
    "TenantConfig",
    "TreeForest",
    "make_serve_server",
    "run_loadgen",
]
