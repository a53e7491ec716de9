"""The driver context: one bundle of runtime policy for any model driver.

Every execution model answers the same three questions at run time —

* **where** does the work execute (``serial`` / ``thread`` / ``shared``,
  worker count)?
* **where** do solved vectors go (the chained value sinks of
  :mod:`repro.runtime.sinks`, in addition to the in-memory ``RunResult``)?
* **who** is told about progress and phase boundaries (``progress`` and
  ``trace`` hooks)?

:class:`DriverContext` carries the answers so the four drivers share one
contract instead of growing private keyword soup.  Models whose dependence
structure forbids an executor reject it at construction time via
:func:`repro.runtime.execution.require_executor` (streaming is inherently
sequential; offline and postmortem parallelize).

:class:`RunScope` / :data:`NULL_SCOPE` are the timing-and-work
accumulation half: a unit of driver work (a window, a chunk, a
multi-window chain) measures its phases into a scope, and the scope either
feeds a ``RunResult`` (:meth:`RunScope.merge_into`) or discards everything
(:data:`NULL_SCOPE` — the replacement for the old throwaway-``RunResult``
sentinel hack).
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional

from repro.pagerank.result import WorkStats
from repro.utils.timer import TimingAccumulator

from repro.runtime.sinks import Sink

__all__ = [
    "DriverContext",
    "ProgressFn",
    "TraceFn",
    "RunScope",
    "NULL_SCOPE",
]

#: progress callback: ``progress(windows_done, windows_total)``.  Parallel
#: executors may invoke it from worker threads (never from worker
#: *processes* — those report through the parent).
ProgressFn = Callable[[int, int], None]

#: tracing hook: ``trace(event, payload)`` with dot-separated event names
#: (``"build.done"``, ``"window.done"``, ``"run.done"``) and a small
#: JSON-able payload dict.
TraceFn = Callable[[str, Dict[str, object]], None]


class RunScope:
    """Accumulates phase timings and work counters for one unit of work.

    A scope is cheap and single-threaded by design: parallel executors
    give each worker its own scope and merge them into the shared
    ``RunResult`` afterwards, so no lock guards the hot path.
    """

    __slots__ = ("timings", "work")

    def __init__(
        self,
        timings: Optional[TimingAccumulator] = None,
        work: Optional[WorkStats] = None,
    ) -> None:
        self.timings = timings if timings is not None else TimingAccumulator()
        self.work = work if work is not None else WorkStats()

    @classmethod
    def into(cls, result) -> "RunScope":
        """A scope that accumulates directly into ``result``'s timers and
        work stats (the serial-execution fast path — no later merge)."""
        return cls(result.timings, result.work)

    def phase(self, name: str):
        """Context manager timing a block under ``name``."""
        return self.timings.phase(name)

    def add_work(self, stats: WorkStats) -> None:
        self.work.merge(stats)

    def merge_into(self, result) -> None:
        """Fold this scope's measurements into a ``RunResult``."""
        result.timings.merge(self.timings)
        result.work.merge(self.work)


class _NullScope:
    """A scope that measures nothing — the null object for callers that
    want a single window solved without bookkeeping."""

    __slots__ = ()

    def phase(self, name: str):
        return nullcontext()

    def add_work(self, stats: WorkStats) -> None:
        return None

    def merge_into(self, result) -> None:
        return None


#: shared no-op scope (stateless, safe to reuse everywhere)
NULL_SCOPE = _NullScope()


@dataclass(frozen=True)
class DriverContext:
    """Runtime policy shared by every model driver.

    Attributes
    ----------
    executor:
        ``"serial"``, ``"thread"`` or ``"shared"``.  Each
        driver validates the choice against its dependence structure
        (``supported_executors``) at construction.
    n_workers:
        Worker count for the non-serial executors.
    value_sink:
        Context-level sink, chained *before* any sink passed to
        ``run(value_sink=...)`` (see :func:`repro.runtime.sinks.chain_sinks`).
    progress:
        Default progress callback when ``run(progress=...)`` is omitted.
    trace:
        Phase-boundary hook; see :meth:`emit`.
    edge_path:
        Optional runtime override for
        :attr:`repro.pagerank.config.PagerankConfig.edge_path`
        (``"auto"``/``"masked"``/``"compacted"``).  ``None`` defers to the
        config — drivers apply the override by replacing their config's
        field, so kernels never consult the context directly.
    backend:
        Optional runtime override for
        :attr:`repro.pagerank.config.PagerankConfig.backend`
        (``"auto"``/``"numpy"``/``"numba"``), applied the same
        way as ``edge_path``.
    program:
        Optional vertex-program selection (a name in
        :data:`repro.programs.PROGRAMS`; see :mod:`repro.programs`).  ``None`` defers to the
        driver (whose default is the reference PageRank program); a
        driver-level ``program=`` argument wins over the context.
    """

    executor: str = "serial"
    n_workers: int = 4
    value_sink: Optional[Sink] = None
    progress: Optional[ProgressFn] = None
    trace: Optional[TraceFn] = None
    edge_path: Optional[str] = None
    backend: Optional[str] = None
    program: Optional[str] = None

    def __post_init__(self) -> None:
        from repro.errors import ValidationError
        from repro.runtime.execution import EXECUTORS

        if self.executor not in EXECUTORS:
            raise ValidationError(
                f"executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        if self.n_workers <= 0:
            raise ValidationError("n_workers must be > 0")
        if self.edge_path is not None:
            from repro.pagerank.compaction import validate_edge_path

            validate_edge_path(self.edge_path)
        if self.backend is not None:
            from repro.pagerank.backends import validate_backend_name

            validate_backend_name(self.backend)
        if self.program is not None:
            from repro.programs.registry import validate_program_name

            validate_program_name(self.program)

    # ------------------------------------------------------------------
    def with_execution(self, executor: str, n_workers: int) -> "DriverContext":
        """A copy with the execution half replaced (used by drivers whose
        options object owns the executor choice, e.g. postmortem)."""
        return replace(self, executor=executor, n_workers=n_workers)

    def emit(self, event: str, **payload: object) -> None:
        """Invoke the trace hook (no-op when none is configured).

        Trace failures propagate: a hook is part of the run, and hiding
        its errors would violate the project's silent-except rule.
        """
        if self.trace is not None:
            self.trace(event, payload)
