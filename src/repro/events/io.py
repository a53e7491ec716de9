"""Text serialization of temporal event sets.

TSV is the SNAP-style ``src\\tdst\\ttimestamp`` format the paper's
datasets ship in: human-readable and slow.  The binary event artifact is
the memory-mapped ``.tcsr`` log (:mod:`repro.graph.io`).
"""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from repro.errors import ValidationError
from repro.events.event_set import TemporalEventSet

__all__ = [
    "load_events_tsv",
    "save_events_tsv",
]

PathLike = Union[str, os.PathLike]


def save_events_tsv(events: TemporalEventSet, path: PathLike) -> None:
    """Write ``src dst time`` rows, one event per line."""
    data = np.column_stack([events.src, events.dst, events.time])
    np.savetxt(path, data, fmt="%d", delimiter="\t")


def load_events_tsv(path: PathLike, n_vertices=None) -> TemporalEventSet:
    """Read a SNAP-style ``src dst time`` file.

    Lines starting with ``#`` or ``%`` are treated as comments.  A file
    that is not integer text (a binary archive, say) raises
    :class:`~repro.errors.ValidationError`.
    """
    import warnings

    with warnings.catch_warnings():
        # an empty (comments-only) file is a valid empty event set
        warnings.filterwarnings(
            "ignore", message=".*input contained no data.*"
        )
        try:
            data = np.loadtxt(
                path, dtype=np.int64, comments=("#", "%"), ndmin=2
            )
        except ValueError as exc:  # UnicodeDecodeError is one too
            raise ValidationError(
                f"{path}: not `src dst time` integer text; event inputs "
                f"are .tsv text or a .tcsr event log ({exc})"
            ) from exc
    if data.size == 0:
        return TemporalEventSet([], [], [], n_vertices=n_vertices or 0)
    if data.shape[1] != 3:
        raise ValidationError(
            f"expected 3 columns (src, dst, time), got {data.shape[1]}"
        )
    return TemporalEventSet(
        data[:, 0], data[:, 1], data[:, 2], n_vertices=n_vertices
    )
