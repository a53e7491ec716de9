"""Vectorized segment reductions over CSR-style index pointers.

A *segment* is the half-open slice ``values[indptr[i]:indptr[i+1]]``.  These
reductions are the core primitive behind every SpMV/SpMM kernel in the
library: one PageRank iteration is exactly ``segment_sum`` of per-edge
contributions grouped by destination vertex.

``np.add.reduceat`` is the fastest pure-NumPy way to do this, but it has a
well-known wart: for an empty segment it *returns the element at the start
index* instead of the reduction identity, and it cannot handle a start index
equal to ``len(values)``.  :func:`segment_sum` repairs both cases so callers
get mathematically correct results for arbitrary (possibly empty, possibly
trailing-empty) segments.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ValidationError

__all__ = [
    "segment_sum",
    "segment_sum_ordered",
    "segment_count",
    "segment_max",
    "segment_min",
    "row_lengths",
    "lengths_to_indptr",
    "indptr_to_row_ids",
]


def _check_indptr(indptr: np.ndarray, n_values: int) -> np.ndarray:
    indptr = np.asarray(indptr)
    if indptr.ndim != 1 or indptr.size == 0:
        raise ValidationError("indptr must be a non-empty 1-D array")
    if indptr[0] != 0:
        raise ValidationError(f"indptr[0] must be 0, got {indptr[0]}")
    if indptr[-1] != n_values:
        raise ValidationError(
            f"indptr[-1] ({indptr[-1]}) must equal len(values) ({n_values})"
        )
    if np.any(np.diff(indptr) < 0):
        raise ValidationError("indptr must be non-decreasing")
    return indptr


def segment_sum(
    values: np.ndarray,
    indptr: np.ndarray,
    out: np.ndarray = None,
) -> np.ndarray:
    """Sum ``values`` within each CSR segment.

    Parameters
    ----------
    values:
        1-D array of length ``nnz``, or 2-D ``(nnz, k)`` array in which case
        each column is reduced independently (the SpMM case).
    indptr:
        CSR index pointer of length ``n_segments + 1`` with
        ``indptr[0] == 0`` and ``indptr[-1] == nnz``.
    out:
        Optional preallocated result array of shape
        ``(n_segments,) + values.shape[1:]`` and matching dtype — a
        :class:`~repro.pagerank.workspace.Workspace` buffer in the hot
        kernels.  Its contents are fully overwritten.

    Returns
    -------
    numpy.ndarray
        ``(n_segments,)`` or ``(n_segments, k)`` array of per-segment sums;
        empty segments sum to exactly ``0``.
    """
    values = np.asarray(values)
    indptr = _check_indptr(indptr, values.shape[0])
    n_seg = indptr.size - 1
    out_shape = (n_seg,) + values.shape[1:]
    if out is None:
        out = np.empty(out_shape, dtype=values.dtype)
    elif out.shape != out_shape or out.dtype != values.dtype:
        raise ValidationError(
            f"out must have shape {out_shape} and dtype "
            f"{values.dtype}, got {out.shape}/{out.dtype}"
        )
    nonempty = indptr[:-1] < indptr[1:]
    return _sum_nonempty(values, nonempty, indptr[:-1][nonempty], out)


def _sum_nonempty(
    values: np.ndarray,
    nonempty: np.ndarray,
    starts: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """The reduction behind :func:`segment_sum`, for an already-checked
    ``indptr``: ``nonempty`` is ``indptr[:-1] < indptr[1:]`` and ``starts``
    is ``indptr[:-1][nonempty]``.  An iterative solver computes both once
    per graph and calls this on every iteration.  ``out`` is overwritten.

    reduceat runs over only the non-empty segments: consecutive non-empty
    starts are exactly those segments' boundaries (empty segments have
    start == end, so skipping them leaves the spans intact).  This also
    avoids reduceat's inability to take a start index == len(values).
    """
    out.fill(0)
    if starts.size:
        out[nonempty] = np.add.reduceat(values, starts, axis=0)
    return out


def segment_sum_ordered(
    values: np.ndarray,
    row_ids: np.ndarray,
    n_rows: int,
    out: np.ndarray = None,
) -> np.ndarray:
    """Left-to-right sequential segment sum keyed by per-entry row ids.

    :func:`segment_sum` (``np.add.reduceat``) is the fastest reduction but
    its floating-point rounding depends on each segment's *length*: NumPy's
    add loop sums pairwise, so the reduction tree — and the low bits of the
    result — change when exact-zero entries are inserted or removed.
    ``np.bincount`` accumulates strictly sequentially in array order, which
    makes this variant **zero-insertion invariant**: dropping entries whose
    value is exactly ``0.0`` cannot change the result bitwise (``x + 0.0``
    is exact for every non-negative ``x``).  The PageRank kernels reduce
    with it so their packed active-edge pass is bitwise-identical to a
    masked pass over every stored event (the tests' oracle).

    Parameters
    ----------
    values:
        ``(nnz,)`` float contributions.
    row_ids:
        ``(nnz,)`` non-negative destination row per entry (need not be
        sorted; order only matters *within* a row).
    n_rows:
        Number of output rows.
    out:
        Optional ``(n_rows,)`` float64 result buffer, fully overwritten.
        ``np.bincount`` has no ``out=`` of its own, so its internal
        Θ(n_rows) allocation per call remains either way.
    """
    values = np.asarray(values)
    if values.shape != row_ids.shape:
        raise ValidationError(
            f"values and row_ids must agree on nnz, got "
            f"{values.shape} != {row_ids.shape}"
        )
    y = np.bincount(row_ids, weights=values, minlength=n_rows)
    if out is None:
        return y
    np.copyto(out, y)
    return out


def segment_count(
    mask: np.ndarray,
    indptr: np.ndarray,
    cast_buffer: np.ndarray = None,
) -> np.ndarray:
    """Count ``True`` entries of a boolean ``mask`` within each segment.

    ``cast_buffer`` optionally supplies a reusable int64 array of the
    mask's shape for the bool→int64 widening (otherwise a fresh array is
    allocated per call).
    """
    mask = np.asarray(mask)
    if mask.dtype != np.bool_:
        raise ValidationError("segment_count expects a boolean mask")
    if (
        cast_buffer is not None
        and cast_buffer.shape == mask.shape
        and cast_buffer.dtype == np.int64
    ):
        np.copyto(cast_buffer, mask)
        return segment_sum(cast_buffer, indptr)
    return segment_sum(mask.astype(np.int64), indptr)


def segment_max(values: np.ndarray, indptr: np.ndarray, empty_value=0):
    """Per-segment maximum; empty segments get ``empty_value``."""
    values = np.asarray(values)
    indptr = _check_indptr(indptr, values.shape[0])
    n_seg = indptr.size - 1
    out = np.full((n_seg,) + values.shape[1:], empty_value, dtype=values.dtype)
    if values.shape[0] == 0 or n_seg == 0:
        return out
    nonempty = indptr[:-1] < indptr[1:]
    if nonempty.any():
        out[nonempty] = np.maximum.reduceat(
            values, indptr[:-1][nonempty], axis=0
        )
    return out


def segment_min(values: np.ndarray, indptr: np.ndarray, empty_value=0):
    """Per-segment minimum; empty segments get ``empty_value``."""
    values = np.asarray(values)
    indptr = _check_indptr(indptr, values.shape[0])
    n_seg = indptr.size - 1
    out = np.full((n_seg,) + values.shape[1:], empty_value, dtype=values.dtype)
    if values.shape[0] == 0 or n_seg == 0:
        return out
    nonempty = indptr[:-1] < indptr[1:]
    if nonempty.any():
        out[nonempty] = np.minimum.reduceat(
            values, indptr[:-1][nonempty], axis=0
        )
    return out


def row_lengths(indptr: np.ndarray) -> np.ndarray:
    """Segment lengths ``indptr[i+1] - indptr[i]``."""
    indptr = np.asarray(indptr)
    if indptr.ndim != 1 or indptr.size == 0:
        raise ValidationError("indptr must be a non-empty 1-D array")
    return np.diff(indptr)


def lengths_to_indptr(lengths: np.ndarray) -> np.ndarray:
    """Build a CSR index pointer from per-segment lengths."""
    lengths = np.asarray(lengths)
    if lengths.ndim != 1:
        raise ValidationError("lengths must be 1-D")
    if lengths.size and lengths.min() < 0:
        raise ValidationError("lengths must be non-negative")
    indptr = np.zeros(lengths.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return indptr


def indptr_to_row_ids(indptr: np.ndarray) -> np.ndarray:
    """Expand a CSR index pointer into a per-entry row-id array.

    The inverse of grouping: ``row_ids[j] == i`` iff entry ``j`` lies in
    segment ``i``.  Vectorized via ``np.repeat``.
    """
    indptr = np.asarray(indptr)
    lengths = row_lengths(indptr)
    return np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
