"""Temporal event sets and the sliding-window model (paper Section 2.1).

A *temporal edge set* is a sequence of events ``(u, v, t)`` sorted by
non-decreasing timestamp.  A :class:`~repro.events.windows.WindowSpec`
turns it into the graph sequence ``G_i = G(T_i, T_i + delta)`` with
``T_i = T_0 + i * sw``.
"""

from repro.events.event_set import TemporalEventSet
from repro.events.windows import WindowSpec, Window
from repro.events.io import (
    load_events_tsv,
    save_events_tsv,
)

__all__ = [
    "TemporalEventSet",
    "WindowSpec",
    "Window",
    "load_events_tsv",
    "save_events_tsv",
]
