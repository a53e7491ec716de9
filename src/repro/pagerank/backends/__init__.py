"""Pluggable kernel backends for the per-iteration propagation step.

Every single-window solve (SpMV, weighted, Katz) performs the same inner
step each power iteration: gather per-source shares along the window's
packed active edges and reduce them per destination
(``segment_sum_ordered``).  This package factors that step behind a small
registry so the two *execution
strategies* — the flat NumPy pass and an optional numba-JIT
destination-partitioned pass (after Lakhotia et al.'s PCPM) — can be
swapped without touching the kernels, **bitwise-identical** by
construction.

``PagerankConfig.backend`` selects one (``"auto"`` asks the cost model);
:func:`resolve_backend` is the kernels' entry point.
"""

from repro.pagerank.backends.base import EdgePlan, KernelBackend
from repro.pagerank.backends.numpy_backend import NumpyBackend
from repro.pagerank.backends.numba_backend import NumbaBackend, numba_available
from repro.pagerank.backends.registry import (
    BACKEND_NAMES,
    backend_availability,
    create_backend,
    resolve_backend,
    validate_backend_name,
)

__all__ = [
    "BACKEND_NAMES",
    "EdgePlan",
    "KernelBackend",
    "NumbaBackend",
    "NumpyBackend",
    "backend_availability",
    "create_backend",
    "numba_available",
    "resolve_backend",
    "validate_backend_name",
]
