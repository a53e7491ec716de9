"""Persisting run results.

A postmortem run over thousands of windows is worth caching: downstream
analyses (rank stability, churn, rising actors) re-read the vectors many
times.  ``save_run`` / ``load_run`` store a :class:`~repro.models.base.
RunResult`'s vectors and per-window metadata in one ``.npz`` archive —
compressed by default, or uncompressed (``compress=False``) so
``load_run(path, mmap_mode="r")`` can reopen the vectors lazily without
copying the matrix.

The serving layer (:mod:`repro.service.store`) shares this module's
window-field schema and metadata sanitizer.
"""

from __future__ import annotations

import json
import os
import struct
import zipfile
from typing import Dict, Optional, Union

import numpy as np

from repro.errors import ValidationError
from repro.models.base import RunResult, WindowResult
from repro.utils.timer import TimingAccumulator

__all__ = ["WINDOW_FIELDS", "jsonable_metadata", "save_run", "load_run"]

PathLike = Union[str, os.PathLike]

#: the per-window summary fields every archive format carries
WINDOW_FIELDS = [
    "window_index",
    "iterations",
    "converged",
    "residual",
    "n_active_vertices",
    "n_active_edges",
]


def jsonable_metadata(metadata: Dict[str, object]) -> Dict[str, object]:
    """The JSON-serializable scalar subset of a run's metadata dict."""
    return {
        k: v
        for k, v in metadata.items()
        if isinstance(v, (int, float, str, bool))
    }


def save_run(run: RunResult, path: PathLike, compress: bool = True) -> None:
    """Serialize a run (with stored vectors) to an ``.npz`` archive.

    ``compress=False`` stores arrays raw (``np.savez``), which makes the
    archive eligible for lazy opening via ``load_run(path, mmap_mode="r")``.
    """
    if any(w.values is None for w in run.windows):
        raise ValidationError(
            "cannot save a run executed with store_values=False"
        )
    values = np.stack(
        [w.values for w in sorted(run.windows,
                                  key=lambda w: w.window_index)],
        axis=0,
    )
    meta = {
        "model": run.model,
        "timings": run.timings.as_dict(),
        "metadata": jsonable_metadata(run.metadata),
    }
    columns = {
        f: np.array(
            [getattr(w, f) for w in sorted(run.windows,
                                           key=lambda w: w.window_index)]
        )
        for f in WINDOW_FIELDS
    }
    save = np.savez_compressed if compress else np.savez
    save(
        path,
        values=values,
        meta=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        **columns,
    )


def _memmap_npz_member(path: PathLike, member: str,
                       mmap_mode: str) -> np.ndarray:
    """Memory-map one ``.npy`` member of an *uncompressed* ``.npz``.

    ``np.load`` silently ignores ``mmap_mode`` for zip archives, but a
    member stored without compression is just a ``.npy`` file at a fixed
    byte offset, so we locate its data and hand it to ``np.memmap``.
    """
    with zipfile.ZipFile(path) as zf:
        info = zf.getinfo(member)
        if info.compress_type != zipfile.ZIP_STORED:
            raise ValidationError(
                f"archive member {member!r} is compressed and cannot be "
                "memory-mapped; re-save with save_run(..., compress=False)"
            )
        with open(path, "rb") as f:
            # the local file header precedes the data: 30 fixed bytes plus
            # the (local, possibly padded) name and extra fields
            f.seek(info.header_offset)
            header = f.read(30)
            name_len, extra_len = struct.unpack("<HH", header[26:30])
            payload_offset = info.header_offset + 30 + name_len + extra_len
            f.seek(payload_offset)
            version = np.lib.format.read_magic(f)
            if version == (1, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_1_0(f)
            elif version == (2, 0):
                shape, fortran, dtype = np.lib.format.read_array_header_2_0(f)
            else:  # pragma: no cover - numpy only writes 1.0/2.0 today
                raise ValidationError(
                    f"unsupported .npy format version {version} in "
                    f"{member!r}"
                )
            data_offset = f.tell()
    if fortran:  # pragma: no cover - save_run always writes C order
        raise ValidationError(
            f"archive member {member!r} is Fortran-ordered; cannot mmap"
        )
    return np.memmap(
        path, dtype=dtype, mode=mmap_mode, offset=data_offset, shape=shape
    )


def load_run(path: PathLike, mmap_mode: Optional[str] = None) -> RunResult:
    """Load a run saved by :func:`save_run`.

    With ``mmap_mode`` (e.g. ``"r"``), the vector matrix of an archive
    saved with ``compress=False`` is memory-mapped instead of read: each
    ``WindowResult.values`` is a row view into one shared ``np.memmap``,
    and no window's data is touched until accessed.
    """
    with np.load(path) as archive:
        required = {"values", "meta", *WINDOW_FIELDS}
        missing = required - set(archive.files)
        if missing:
            raise ValidationError(f"archive missing arrays: {sorted(missing)}")
        meta = json.loads(bytes(archive["meta"]).decode())
        if mmap_mode is not None:
            values = _memmap_npz_member(path, "values.npy", mmap_mode)
        else:
            values = archive["values"]
        run = RunResult(model=meta["model"])
        timings = TimingAccumulator()
        for k, v in meta["timings"].items():
            timings.add(k, float(v))
        run.timings = timings
        run.metadata.update(meta.get("metadata", {}))
        for i in range(values.shape[0]):
            run.windows.append(
                WindowResult(
                    window_index=int(archive["window_index"][i]),
                    values=values[i],
                    iterations=int(archive["iterations"][i]),
                    converged=bool(archive["converged"][i]),
                    residual=float(archive["residual"][i]),
                    n_active_vertices=int(archive["n_active_vertices"][i]),
                    n_active_edges=int(archive["n_active_edges"][i]),
                )
            )
        return run
