"""Executor selection.

The runtime recognises four executors:

``serial``
    Plain loop in the calling thread.  Always supported; the reference
    against which the parallel executors must be bitwise-identical.
``thread``
    ``ThreadPoolExecutor`` (or :class:`repro.parallel.executor.
    ChunkedThreadExecutor` for chunked window fan-out).  NumPy kernels
    release the GIL, so this wins on real workloads with zero pickling.
``process``
    ``ProcessPoolExecutor`` with pickled task payloads.  Highest
    isolation, highest dispatch cost; ``value_sink`` is rejected because
    a closure cannot cross a process boundary.
``shared``
    Process pool over a POSIX shared-memory arena
    (:mod:`repro.parallel.shared_arena`): ~KB pickled handles instead of
    array payloads, and a parent-side drain thread that makes
    ``value_sink`` work under process execution.

Not every model can use every executor — streaming's warm-start chain is
inherently sequential — so each driver declares ``supported_executors``
and gates requests through :func:`require_executor`.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.errors import ValidationError

__all__ = ["EXECUTORS", "require_executor"]

#: every executor the runtime knows about, in increasing dispatch cost
EXECUTORS: Tuple[str, ...] = ("serial", "thread", "process", "shared")


def require_executor(
    executor: str, supported: Sequence[str], model: str
) -> str:
    """Validate ``executor`` against a model's dependence structure.

    Returns the executor unchanged when legal; raises
    :class:`~repro.errors.ValidationError` naming the model and its legal
    set otherwise, so the CLI surfaces an actionable message instead of a
    deep executor-specific failure.
    """
    if executor not in EXECUTORS:
        raise ValidationError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}"
        )
    if executor not in supported:
        raise ValidationError(
            f"model {model!r} supports executors {tuple(supported)}, "
            f"got {executor!r}"
        )
    return executor

