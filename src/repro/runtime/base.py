"""The ``ModelDriver`` protocol: the one contract every driver satisfies.

A model driver is anything that can run the paper's windowed-PageRank
computation end to end and produce a :class:`~repro.models.base.RunResult`.
The protocol pins the surface the CLI, the analysis layer, and the parity
tests rely on:

* ``model_name`` — stable identifier (``"offline"``, ``"streaming"``,
  ``"postmortem"``),
* ``supported_executors`` — the subset of
  :data:`repro.runtime.execution.EXECUTORS` the model's dependence
  structure permits,
* ``run(store_values=..., value_sink=..., progress=...)`` — the uniform
  entry point.  ``value_sink`` streams each window's vector as it is
  solved (a :data:`Sink`); ``progress`` is called as
  ``progress(done, total)``.

Drivers remain plain classes — the protocol is ``runtime_checkable`` so
tests can assert conformance without inheritance coupling.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol, Sequence, runtime_checkable

from repro.models.base import RunResult

__all__ = ["ModelDriver", "ProgressFn", "Sink", "record_run_metadata"]

#: the sink contract: ``sink(window_index, values, meta)``, invoked with
#: each window's solved vector (global vertex space) the moment it exists;
#: ``meta`` is the window's :class:`~repro.models.base.WindowResult`.  The
#: canonical sink is :meth:`repro.service.store.RankStoreWriter.
#: write_window`.  The ``"shared"`` executor calls it from a parent-side
#: drain thread, so a sink that shares state with the calling thread must
#: lock internally.
Sink = Callable[[int, object, object], None]

#: progress callback: ``progress(done, total)``, always invoked in the
#: calling thread (worker processes report through the parent).
ProgressFn = Callable[[int, int], None]


@runtime_checkable
class ModelDriver(Protocol):
    """Structural type for the four execution-model drivers."""

    model_name: str
    supported_executors: Sequence[str]

    def run(
        self,
        store_values: bool = True,
        *,
        value_sink: Optional[Sink] = None,
        progress: Optional[ProgressFn] = None,
    ) -> RunResult:
        """Solve every window; return the in-memory run summary."""
        ...


def record_run_metadata(
    result: RunResult, *, executor: str, n_workers: int, n_windows: int
) -> None:
    """Stamp the uniform runtime metadata every driver reports.

    One helper instead of four hand-rolled dict writes keeps the keys
    identical across models, which is what the comparison layer and the
    benchmark harness key on.
    """
    result.metadata["executor"] = executor
    result.metadata["n_workers"] = n_workers if executor != "serial" else 1
    result.metadata["n_windows"] = n_windows
