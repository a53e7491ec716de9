"""Backend registry and the kernels' ``backend="auto"`` resolution.

Mirrors the ``edge_path`` machinery: :func:`resolve_backend` turns
``PagerankConfig.backend`` into a concrete :class:`KernelBackend`
instance, asking :func:`repro.parallel.cost_model.choose_backend` when the
config says ``"auto"`` and the numba JIT is importable.  Without the JIT
there is one strategy to run, so ``"auto"`` is the flat numpy pass.

The two knobs compose: the kernels resolve ``edge_path`` first and hand
this module the edge count actually traversed per iteration (``nnz`` for
masked, ``|E_w|`` for compacted), so the backend decision prices the
structure the iteration will really stream.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import ValidationError
from repro.pagerank.backends.base import KernelBackend
from repro.pagerank.backends.numpy_backend import NumpyBackend
from repro.pagerank.backends.numba_backend import (
    DEFAULT_CACHE_BUDGET,
    NumbaBackend,
    numba_available,
)
from repro.pagerank.compaction import cost_model_estimate

__all__ = [
    "BACKEND_NAMES",
    "backend_availability",
    "create_backend",
    "resolve_backend",
    "validate_backend_name",
]

#: every name ``PagerankConfig.backend`` / ``run --backend`` accepts
BACKEND_NAMES = ("auto", "numpy", "numba")


def validate_backend_name(name: str) -> str:
    """Shared validation for the config and CLI surfaces."""
    if name not in BACKEND_NAMES:
        raise ValidationError(
            f"backend must be one of {BACKEND_NAMES}, got {name!r}"
        )
    return name


def create_backend(
    name: str, cache_budget: int = DEFAULT_CACHE_BUDGET
) -> KernelBackend:
    """Instantiate a concrete (non-``auto``) backend by registry name.

    ``"numba"`` is always constructible — without numba installed its
    plans transparently run the flat NumPy pass (the graceful degradation
    the tests pin down).
    """
    if name == "numpy":
        return NumpyBackend()
    if name == "numba":
        return NumbaBackend(cache_budget)
    raise ValidationError(
        f"cannot instantiate backend {name!r}; "
        f"concrete names are {BACKEND_NAMES[1:]}"
    )


def backend_availability() -> Dict[str, Tuple[bool, str]]:
    """``{name: (available, note)}`` for every concrete backend.

    The CLI ``backends`` subcommand renders this; ``numba`` reports
    availability of the JIT itself, with a note that the name still
    resolves (degraded) when the import fails.
    """
    has_numba = numba_available()
    return {
        "numpy": (True, "flat full-width gather/reduce (reference)"),
        "numba": (
            has_numba,
            "JIT-fused per-partition reduce "
            f"(default cache budget {DEFAULT_CACHE_BUDGET} B)"
            if has_numba
            else "numba not importable; degrades to the flat numpy pass",
        ),
    }


def resolve_backend(
    config,
    n_edges: int,
    n_vertices: int,
    iteration_hint: Optional[int] = None,
) -> KernelBackend:
    """Turn ``config.backend`` into a concrete backend instance.

    ``n_edges`` must be the per-iteration traversed edge count *after*
    the ``edge_path`` resolution.  ``"auto"`` asks the cost model with
    the iteration estimate ``resolve_edge_path`` uses
    (:func:`~repro.pagerank.compaction.cost_model_estimate`).  Without
    the JIT the partitioned plan has no fused reduce to amortize its
    binning, so ``"auto"`` resolves to ``"numpy"`` on JIT-less hosts
    without asking the model.
    """
    name = config.backend
    if name != "auto":
        return create_backend(name, config.cache_budget)
    if not numba_available():
        return NumpyBackend()
    cost_model, expected = cost_model_estimate(config, iteration_hint)
    strategy = cost_model.choose_backend(
        n_edges, n_vertices, expected, config.cache_budget
    )
    return create_backend(strategy, config.cache_budget)
