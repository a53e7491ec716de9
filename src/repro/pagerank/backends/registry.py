"""Backend registry and the kernels' ``backend="auto"`` resolution.

:func:`resolve_backend` turns ``PagerankConfig.backend`` into a concrete
:class:`KernelBackend` instance, asking
:func:`repro.parallel.cost_model.choose_backend` when the config says
``"auto"`` and the numba JIT is importable.  Without the JIT there is one
strategy to run, so ``"auto"`` is the flat numpy pass.  The kernels hand
it the window's packed active-edge count ``|E_w|``, the edges one
iteration streams, and the chain's iteration hint
(:func:`cost_model_estimate`).
"""

from __future__ import annotations

import logging
from typing import Dict, Optional, Tuple

from repro.errors import ValidationError
from repro.pagerank.backends.base import KernelBackend
from repro.pagerank.backends.numpy_backend import NumpyBackend
from repro.pagerank.backends.numba_backend import (
    DEFAULT_CACHE_BUDGET,
    NumbaBackend,
    numba_available,
)

__all__ = [
    "BACKEND_NAMES",
    "backend_availability",
    "cost_model_estimate",
    "create_backend",
    "resolve_backend",
    "validate_backend_name",
]

#: one-shot latch for the non-positive iteration_hint debug note (tests
#: reset it to observe the message again)
_NONPOSITIVE_HINT_NOTED = False

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


def cost_model_estimate(config, iteration_hint: Optional[int] = None):
    """``(cost_model, expected_iterations)`` for a ``backend="auto"``
    decision.

    The partitioned plan amortizes a one-off binning pass over the
    window's iterations, so the decision needs an iteration estimate:
    ``iteration_hint`` (typically the previous window of the chain, whose
    spectrum is nearly identical) when positive, otherwise a conservative
    default — either way capped by the config's iteration budget.

    A non-positive hint — a previous window that converged in zero
    iterations (empty window) or a driver that deliberately passes its
    raw counter — also falls back to the default, but *audibly*: a single
    debug-level note per process, because a chain that silently treats
    "converged instantly" as "no information" is hard to diagnose when
    the crossover lands on the wrong side.
    """
    # lazy import: repro.parallel pulls in the executor stack; the kernels
    # must stay importable without it at module-import time
    from repro.parallel import cost_model

    if iteration_hint is not None and iteration_hint > 0:
        return cost_model, min(iteration_hint, config.max_iterations)
    default = cost_model.DEFAULT_EXPECTED_ITERATIONS
    if iteration_hint is not None:
        global _NONPOSITIVE_HINT_NOTED
        if not _NONPOSITIVE_HINT_NOTED:
            _NONPOSITIVE_HINT_NOTED = True
            logging.getLogger(__name__).debug(
                "an 'auto' decision received iteration_hint=%d; "
                "falling back to DEFAULT_EXPECTED_ITERATIONS=%d (noted "
                "once per process)",
                iteration_hint, default,
            )
    return cost_model, min(config.max_iterations, default)


def resolve_backend(
    config,
    n_edges: int,
    n_vertices: int,
    iteration_hint: Optional[int] = None,
) -> KernelBackend:
    """Turn ``config.backend`` into a concrete backend instance.

    ``n_edges`` is the per-iteration traversed edge count (the window's
    packed active edges).  ``"auto"`` asks the cost model with the
    iteration estimate of :func:`cost_model_estimate`.  Without the JIT
    the partitioned plan has no fused reduce to amortize its binning, so
    ``"auto"`` resolves to ``"numpy"`` on JIT-less hosts without asking
    the model.
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
