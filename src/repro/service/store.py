"""The on-disk rank store: one postmortem run as a servable artifact.

Layout of a ``.rankstore`` file::

    offset 0    preamble (64 bytes, little-endian):
                  magic "RANKSTR1", version u32, flags u32,
                  n_windows u64, n_vertices u64,
                  matrix_offset u64, index_offset u64, index_len u64
    offset 64   the rank matrix: float32 or float64 (the dtype code),
                C-order, (n_windows, n_vertices)
    after it    the JSON index, running to the end of the file:
                per-window metadata columns (iterations, converged,
                residual, active counts), optional window intervals
                (t_start/t_end), model name, run metadata

The matrix sits at a fixed offset so readers ``np.memmap`` it directly —
opening a store costs one page of I/O regardless of how many windows it
holds — and so the writer can stream rows to their final location *before*
the variable-length index exists.  :class:`RankStoreWriter` therefore works
as a sink for the postmortem driver: each window's global vector is written
(seek + write, out of order allowed, thread-safe) the moment it is solved,
keeping peak memory at one row rather than the full matrix.
"""

from __future__ import annotations

import json
import os
import struct
from typing import Dict, List, Optional, Union

import numpy as np

from repro.errors import ValidationError
from repro.sanitize import (
    LOCK_RANK_STORE_WRITER,
    freeze_boundary,
    make_lock,
)
from repro.events.windows import WindowSpec
from repro.models.base import RunResult, WindowResult

__all__ = [
    "MAGIC",
    "RankStore",
    "RankStoreWriter",
    "intervals_containing",
    "write_store",
]

PathLike = Union[str, os.PathLike]

MAGIC = b"RANKSTR1"
VERSION = 1
#: preamble struct: magic, version, dtype code, n_windows, n_vertices,
#: matrix_offset, index_offset, index_len (+ padding to 64 bytes)
_PREAMBLE = struct.Struct("<8sII5Q")
PREAMBLE_SIZE = 64

#: dtype code carried in the preamble — float32 (the serving default:
#: half the bytes, plenty for ranking) or float64 (bitwise-exact archival
#: of the solver's vectors)
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}

#: per-window metadata columns carried in the JSON index (the
#: :class:`~repro.models.base.WindowResult` summary fields; the window
#: index is the row number)
INDEX_FIELDS = [
    "iterations",
    "converged",
    "residual",
    "n_active_vertices",
    "n_active_edges",
]


def _jsonable_metadata(metadata: Dict[str, object]) -> Dict[str, object]:
    """The JSON-serializable scalar subset of a run's metadata dict."""
    return {
        k: v
        for k, v in metadata.items()
        if isinstance(v, (int, float, str, bool))
    }


def intervals_containing(
    t_start: np.ndarray, t_end: np.ndarray, timestamp: int
) -> np.ndarray:
    """Indices of every window interval containing ``timestamp``.

    Window starts are non-decreasing, so both bounds come from
    ``searchsorted``.  Shared by :meth:`RankStore.windows_at` and the
    cluster coordinator (which answers timestamp lookups from its
    retained interval columns without a shard round-trip).
    """
    t = int(timestamp)
    hi = int(np.searchsorted(t_start, t, side="right"))
    lo = int(np.searchsorted(t_end, t, side="left"))
    if lo >= hi:
        return np.empty(0, dtype=np.int64)
    return np.arange(lo, hi, dtype=np.int64)


def _pack_preamble(n_windows: int, n_vertices: int, dtype_code: int,
                   index_offset: int, index_len: int) -> bytes:
    head = _PREAMBLE.pack(
        MAGIC, VERSION, dtype_code, n_windows, n_vertices,
        PREAMBLE_SIZE, index_offset, index_len,
    )
    return head + b"\0" * (PREAMBLE_SIZE - len(head))


class RankStoreWriter:
    """Streams per-window rank vectors into a ``.rankstore`` file.

    Rows may arrive in any order (the postmortem driver solves multi-window
    graphs concurrently) and from multiple threads; the file is valid only
    after :meth:`close`, which requires every window to have been written.

    Use as a context manager, or pass :meth:`write_window` to
    ``PostmortemDriver.run(value_sink=...)`` to persist a run without ever
    holding all vectors in memory.
    """

    def __init__(
        self,
        path: PathLike,
        n_windows: int,
        n_vertices: int,
        *,
        model: str = "postmortem",
        program: str = "pagerank",
        spec: Optional[WindowSpec] = None,
        metadata: Optional[Dict[str, object]] = None,
        dtype: Union[str, np.dtype] = np.float32,
    ) -> None:
        if n_windows <= 0 or n_vertices <= 0:
            raise ValidationError(
                "rank store needs n_windows > 0 and n_vertices > 0"
            )
        if np.dtype(dtype) not in _DTYPE_CODES:
            raise ValidationError(
                f"rank store dtype must be float32 or float64, got {dtype}"
            )
        if spec is not None and spec.n_windows != n_windows:
            raise ValidationError(
                f"spec has {spec.n_windows} windows, store expects "
                f"{n_windows}"
            )
        self.path = os.fspath(path)
        self.n_windows = n_windows
        self.n_vertices = n_vertices
        self.model = model
        #: which vertex program produced the vectors (pagerank / katz /
        #: kcore / components) — recorded so the serving layer knows what
        #: it serves
        self.program = program
        self.metadata = dict(metadata or {})
        self._t_start = (
            [int(t) for t in spec.starts()] if spec is not None else None
        )
        self._t_end = (
            [int(t) for t in spec.ends()] if spec is not None else None
        )
        self._columns: Dict[str, Dict[int, object]] = {
            f: {} for f in INDEX_FIELDS
        }
        self._written = np.zeros(n_windows, dtype=bool)
        self.dtype = _DTYPES[_DTYPE_CODES[np.dtype(dtype)]]  # little-endian
        self._dtype_code = _DTYPE_CODES[np.dtype(dtype)]
        self._row_bytes = n_vertices * self.dtype.itemsize
        self._lock = make_lock("rankstore-writer", LOCK_RANK_STORE_WRITER)
        self._file = open(self.path, "wb")
        # placeholder preamble; rewritten with the index location on close
        self._file.write(
            _pack_preamble(n_windows, n_vertices, self._dtype_code, 0, 0)
        )
        self._closed = False

    # ------------------------------------------------------------------
    def write_window(
        self,
        window_index: int,
        values: np.ndarray,
        meta: Optional[WindowResult] = None,
    ) -> None:
        """Write one window's global rank vector (and its summary row).

        Matches the driver's ``value_sink`` callback signature.
        """
        if not (0 <= window_index < self.n_windows):
            raise ValidationError(
                f"window index {window_index} out of range "
                f"[0, {self.n_windows})"
            )
        row = np.ascontiguousarray(values, dtype=self.dtype)
        if row.shape != (self.n_vertices,):
            raise ValidationError(
                f"window {window_index}: expected shape "
                f"({self.n_vertices},), got {np.shape(values)}"
            )
        with self._lock:
            if self._closed:
                raise ValidationError("rank store writer is closed")
            self._file.seek(PREAMBLE_SIZE + window_index * self._row_bytes)
            self._file.write(row.tobytes())
            self._written[window_index] = True
            if meta is not None:
                for f in INDEX_FIELDS:
                    self._columns[f][window_index] = getattr(meta, f)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Write the JSON index and finalize the preamble.

        The whole transition (completeness check, index write, the
        ``_closed`` flip) happens under the writer lock so it cannot race
        a concurrent :meth:`write_window` from a driver worker — the
        lint suite's ``lock-discipline`` rule exists because an earlier
        revision flipped ``_closed`` outside the lock on two paths.
        """
        with self._lock:
            if self._closed:
                return
            missing = np.flatnonzero(~self._written)
            if missing.size:
                self._file.close()
                self._closed = True
                raise ValidationError(
                    f"rank store incomplete: {missing.size} windows never "
                    f"written (first missing: {int(missing[0])})"
                )
            index = {
                "model": self.model,
                "program": self.program,
                "metadata": _jsonable_metadata(self.metadata),
                "t_start": self._t_start,
                "t_end": self._t_end,
                "columns": {
                    f: [col.get(i) for i in range(self.n_windows)]
                    for f, col in self._columns.items()
                },
            }
            payload = json.dumps(index).encode()
            index_offset = PREAMBLE_SIZE + self.n_windows * self._row_bytes
            self._file.seek(index_offset)
            self._file.write(payload)
            self._file.seek(0)
            self._file.write(
                _pack_preamble(
                    self.n_windows, self.n_vertices, self._dtype_code,
                    index_offset, len(payload),
                )
            )
            self._file.close()
            self._closed = True

    def abort(self) -> None:
        """Close the file handle without finalizing (partial file remains)."""
        with self._lock:
            if not self._closed:
                self._file.close()
                self._closed = True

    def __enter__(self) -> "RankStoreWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is not None:
            self.abort()
        else:
            self.close()


def write_store(
    run: RunResult,
    path: PathLike,
    spec: Optional[WindowSpec] = None,
    dtype: Union[str, np.dtype] = np.float32,
) -> None:
    """Serialize a finished run (with stored vectors) to a rank store.

    ``dtype=np.float64`` preserves the solver's vectors bitwise; the
    float32 default halves the serving footprint.
    """
    if not run.windows:
        raise ValidationError("cannot write a rank store from an empty run")
    if any(w.values is None for w in run.windows):
        raise ValidationError(
            "cannot write a rank store from a run executed with "
            "store_values=False; use RankStoreWriter as a value_sink instead"
        )
    n_vertices = run.windows[0].values.shape[0]
    with RankStoreWriter(
        path,
        n_windows=len(run.windows),
        n_vertices=n_vertices,
        model=run.model,
        program=str(run.metadata.get("program", "pagerank")),
        spec=spec,
        metadata=run.metadata,
        dtype=dtype,
    ) as writer:
        for w in run.windows:
            writer.write_window(w.window_index, w.values, meta=w)


def _decode_index(path: str, raw: bytes, n_windows: int) -> Dict:
    """Decode and shape-check a store's JSON index.

    Every per-window list (each metadata column, and the interval pair,
    which is present or absent as a whole) must hold ``n_windows``
    entries, and the intervals must be integers.
    """
    try:
        index = json.loads(raw.decode())
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON
        raise ValidationError(
            f"{path}: rank store index is not valid JSON ({exc})"
        ) from exc
    if not isinstance(index, dict):
        raise ValidationError(f"{path}: rank store index is not an object")

    def per_window(value) -> bool:
        return isinstance(value, list) and len(value) == n_windows

    columns = index.get("columns", {})
    if not isinstance(columns, dict) or not all(
        per_window(col) for col in columns.values()
    ):
        raise ValidationError(
            f"{path}: rank store columns must hold {n_windows} entries each"
        )
    t_start, t_end = index.get("t_start"), index.get("t_end")
    if (t_start, t_end) != (None, None) and not (
        per_window(t_start) and per_window(t_end)
        and all(type(t) is int and abs(t) < 2**63 for t in t_start + t_end)
    ):
        raise ValidationError(
            f"{path}: rank store window intervals must be {n_windows} "
            "integer pairs"
        )
    if not isinstance(index.get("metadata", {}), dict):
        raise ValidationError(f"{path}: rank store metadata is not an object")
    return index


class RankStore:
    """Read side: the memory-mapped matrix plus the decoded index.

    ``store.matrix`` is an ``np.memmap`` — row reads touch only that row's
    pages, so a store holding thousands of windows opens in O(1).
    """

    def __init__(self, path: PathLike) -> None:
        self.path = os.fspath(path)
        with open(self.path, "rb") as f:
            head = f.read(PREAMBLE_SIZE)
            if len(head) < PREAMBLE_SIZE:
                raise ValidationError(f"{self.path}: not a rank store "
                                      "(file too short)")
            (magic, version, dtype_code, n_windows, n_vertices,
             matrix_offset, index_offset, index_len) = _PREAMBLE.unpack(
                head[: _PREAMBLE.size]
            )
            if magic != MAGIC:
                raise ValidationError(
                    f"{self.path}: not a rank store (bad magic)"
                )
            if version != VERSION:
                raise ValidationError(
                    f"{self.path}: unsupported rank store version {version}"
                )
            if dtype_code not in _DTYPES:
                raise ValidationError(
                    f"{self.path}: unknown rank store dtype code "
                    f"{dtype_code}"
                )
            if index_offset == 0:
                raise ValidationError(
                    f"{self.path}: rank store was never finalized "
                    "(writer not closed?)"
                )
            # the layout is fully determined by the shape: the matrix
            # right after the preamble, the index right after the matrix
            # and running to the end of the file
            dtype = _DTYPES[dtype_code]
            matrix_bytes = n_windows * n_vertices * dtype.itemsize
            if (
                n_windows == 0
                or n_vertices == 0
                or matrix_offset != PREAMBLE_SIZE
                or index_offset != PREAMBLE_SIZE + matrix_bytes
            ):
                raise ValidationError(
                    f"{self.path}: corrupt rank store preamble "
                    f"({n_windows} x {n_vertices} matrix at "
                    f"{matrix_offset}, index at {index_offset})"
                )
            file_bytes = os.fstat(f.fileno()).st_size
            if index_offset + index_len != file_bytes:
                raise ValidationError(
                    f"{self.path}: rank store index ends at byte "
                    f"{index_offset + index_len}, file has {file_bytes} "
                    "(truncated or corrupt)"
                )
            f.seek(index_offset)
            index = _decode_index(self.path, f.read(index_len), n_windows)
        self.n_windows = int(n_windows)
        self.n_vertices = int(n_vertices)
        self._version = int(version)
        self._matrix_offset = int(matrix_offset)
        self._index_offset = int(index_offset)
        self._index_len = int(index_len)
        self.model: str = index.get("model", "unknown")
        # stores written before the vertex-program refactor held only
        # PageRank vectors, so that is the safe default
        self.program: str = index.get("program", "pagerank")
        self.metadata: Dict[str, object] = index.get("metadata", {})
        self.columns: Dict[str, List] = index.get("columns", {})
        t_start = index.get("t_start")
        t_end = index.get("t_end")
        self.t_start = (
            np.asarray(t_start, dtype=np.int64) if t_start is not None
            else None
        )
        self.t_end = (
            np.asarray(t_end, dtype=np.int64) if t_end is not None else None
        )
        self.dtype = dtype
        self.matrix = np.memmap(
            self.path,
            dtype=self.dtype,
            mode="r",
            offset=matrix_offset,
            shape=(self.n_windows, self.n_vertices),
        )

    # ------------------------------------------------------------------
    def check_window(self, index: int) -> int:
        index = int(index)
        if not (0 <= index < self.n_windows):
            raise ValidationError(
                f"window index {index} out of range [0, {self.n_windows})"
            )
        return index

    def check_vertex(self, vertex: int) -> int:
        vertex = int(vertex)
        if not (0 <= vertex < self.n_vertices):
            raise ValidationError(
                f"vertex {vertex} out of range [0, {self.n_vertices})"
            )
        return vertex

    def row(self, index: int) -> np.ndarray:
        """One window's vector as an mmap view (no copy).

        The view is the documented zero-copy fast path — it is invalid
        after :meth:`close` (callers that outlive the store must copy),
        and the memmap is opened read-only so the page cache stays clean.
        """
        # lint: disable=mmap-escape — deliberate zero-copy contract
        return freeze_boundary(self.matrix[self.check_window(index)])

    def window_meta(self, index: int) -> Dict[str, object]:
        """The per-window summary row carried in the index."""
        i = self.check_window(index)
        meta: Dict[str, object] = {"window_index": i}
        for f, col in self.columns.items():
            meta[f] = col[i]
        if self.t_start is not None:
            meta["t_start"] = int(self.t_start[i])
            meta["t_end"] = int(self.t_end[i])
        return meta

    def windows_at(self, timestamp: int) -> np.ndarray:
        """Indices of every window whose interval contains ``timestamp``.

        Requires the store to have been written with a :class:`WindowSpec`
        (interval columns present).  Window starts are non-decreasing, so
        both bounds come from ``searchsorted``.
        """
        if self.t_start is None or self.t_end is None:
            raise ValidationError(
                "store carries no window intervals; rewrite it passing a "
                "WindowSpec to enable timestamp lookup"
            )
        return intervals_containing(self.t_start, self.t_end, timestamp)

    def info(self) -> Dict[str, object]:
        """A flat summary for ``repro-temporal inspect``."""
        info: Dict[str, object] = {
            "format": f"rankstore v{VERSION}",
            "model": self.model,
            "program": self.program,
            "dtype": self.dtype.name,
            "windows": self.n_windows,
            "vertices": self.n_vertices,
            "matrix bytes": self.n_windows * self.n_vertices
            * self.dtype.itemsize,
            "file bytes": os.path.getsize(self.path),
        }
        if self.t_start is not None:
            info["time span"] = (
                f"[{int(self.t_start[0])}, {int(self.t_end[-1])}]"
            )
        iters = self.columns.get("iterations")
        if iters and all(v is not None for v in iters):
            info["total iterations"] = int(sum(iters))
        conv = self.columns.get("converged")
        if conv and all(v is not None for v in conv):
            info["all converged"] = bool(all(conv))
        return info

    def header_info(self) -> Dict[str, object]:
        """The raw on-disk preamble, decoded — the header-dump half of
        ``inspect``, shared in presentation with ``.tcsr`` artifacts."""
        return {
            "magic": MAGIC.decode(),
            "version": self._version,
            "preamble bytes": PREAMBLE_SIZE,
            "dtype": self.dtype.name,
            "n_windows": self.n_windows,
            "n_vertices": self.n_vertices,
            "matrix offset": self._matrix_offset,
            "index offset": self._index_offset,
            "index bytes": self._index_len,
        }

    def close(self) -> None:
        """Release the memory map.

        This force-closes the underlying mmap: any still-live views into
        ``matrix`` (e.g. from :meth:`row`) become invalid and must not be
        touched afterwards.  Callers that need data to outlive the store
        must copy (``np.array(store.row(i))``) before closing.
        """
        mm = getattr(self.matrix, "_mmap", None)
        self.matrix = None
        if mm is not None:
            mm.close()

    def __enter__(self) -> "RankStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RankStore({self.path!r}, windows={self.n_windows}, "
            f"vertices={self.n_vertices})"
        )


def is_rank_store(path: PathLike) -> bool:
    """Whether ``path`` starts with the rank-store magic."""
    try:
        with open(path, "rb") as f:
            return f.read(len(MAGIC)) == MAGIC
    except OSError:
        return False
