"""Executor selection and the one ordered task map.

The runtime recognises two executors:

``serial``
    Plain loop in the calling thread.  Always supported; the reference
    against which the parallel executor must be bitwise-identical.
``shared``
    Process pool over a POSIX shared-memory arena
    (:mod:`repro.parallel.shared_arena`): the event columns are published
    once (zero-copy when they are ``.tcsr``-mapped), tasks ship only small
    payloads, and a parent-side drain thread makes ``value_sink`` work
    under process execution.

Not every model can use every executor — streaming's warm-start chain is
inherently sequential — so each driver declares ``supported_executors``
and gates requests through :func:`require_executor`.  The models that
parallelize state their work once — the event set, a list of small
payloads and one module-level worker — and hand it to :func:`map_tasks`,
which is the only place that looks at the executor name.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.errors import ValidationError
from repro.events.event_set import TemporalEventSet

__all__ = ["EXECUTORS", "map_tasks", "require_executor"]

#: every executor the runtime knows about, in increasing dispatch cost
EXECUTORS: Tuple[str, ...] = ("serial", "shared")


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


def map_tasks(
    executor: str,
    events: TemporalEventSet,
    payloads: Sequence,
    worker: Callable,
    args: Tuple = (),
    *,
    consume: Callable[[object], None],
    n_workers: int = 1,
    value_sink: Optional[Callable] = None,
    source: object = None,
) -> Dict[str, object]:
    """Run ``worker(source, payload, index, sink, *args)`` once per
    payload and feed each return value to ``consume`` in payload order.

    ``serial`` (and any run of fewer than two tasks) calls the worker in
    this thread with ``source`` (default: ``events`` itself) and calls
    ``value_sink`` directly.  ``shared`` publishes ``events``' columns through
    :func:`repro.parallel.shared_arena.run_arena_tasks`; there ``source``
    is an event set over the attached columns, wrapped once per arena in
    each worker process, and ``sink`` ships vectors to ``value_sink`` in
    the parent.  ``worker`` must then be module-level (it is pickled by
    reference) and ``payloads``/``args`` picklable.

    Returns the arena's dispatch statistics for ``shared`` and an empty
    dict for ``serial``.
    """
    require_executor(executor, EXECUTORS, "task map")
    if source is None:
        source = events
    if executor == "serial" or len(payloads) < 2:
        for i, payload in enumerate(payloads):
            consume(worker(source, payload, i, value_sink, *args))
        return {}
    # resolved at call time, so wrappers set on the module attribute
    # (tracing) see the dispatch
    from repro.parallel import shared_arena

    results, stats = shared_arena.run_arena_tasks(
        {"src": events.src, "dst": events.dst, "time": events.time},
        payloads,
        _attached_worker,
        args=(worker, events.n_vertices) + tuple(args),
        n_workers=n_workers,
        value_sink=value_sink,
    )
    for result in results:
        consume(result)
    return stats


def _attached_worker(view, payload, index: int, sink, worker: Callable,
                     n_vertices: int, *args):
    """Arena entry point of :func:`map_tasks`: hand ``worker`` the event
    set over the attached columns, wrapped once per arena in this process
    (the parent validated the log; nothing is scanned again)."""
    events = view.memo.get("events")
    if events is None:
        events = view.memo["events"] = TemporalEventSet.from_validated(
            view.shared_view("src"),
            view.shared_view("dst"),
            view.shared_view("time"),
            n_vertices,
        )
    return worker(events, payload, index, sink, *args)
