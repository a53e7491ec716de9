"""Shared execution runtime for the model drivers.

One layer answers, for every execution model, the questions each driver
used to answer privately:

* **contract** — :class:`~repro.runtime.base.ModelDriver`: uniform
  ``run(store_values=..., value_sink=..., progress=...)``, where the
  run's :data:`~repro.runtime.base.Sink` and
  :data:`~repro.runtime.base.ProgressFn` are given and nowhere else;
* **execution** — :mod:`repro.runtime.execution`: the executor taxonomy,
  per-model executor validation and the one ordered task map (the
  shared-memory arena lives in :mod:`repro.parallel`);
* **construction** — :func:`~repro.runtime.registry.make_driver`: model
  name → driver, taking the executor and worker count as keywords, with
  an orthogonal ``program`` dimension selecting the vertex program
  (:mod:`repro.programs`) every model runs;
* **discovery** — :mod:`repro.runtime.artifacts`: resolve a path (file
  or run output directory) to the rank store the serving tier should
  open.

See ``docs/architecture.md`` ("The execution runtime") for the layer
diagram.
"""

from repro.runtime.artifacts import (
    RankStoreCandidate,
    discover_rank_store,
    find_rank_stores,
)
from repro.runtime.base import (
    ModelDriver,
    ProgressFn,
    Sink,
    record_run_metadata,
)
from repro.runtime.execution import EXECUTORS, require_executor
from repro.runtime.registry import MODELS, make_driver
from repro.programs.registry import PROGRAMS, make_program

__all__ = [
    "PROGRAMS",
    "make_program",
    "ModelDriver",
    "record_run_metadata",
    "ProgressFn",
    "EXECUTORS",
    "require_executor",
    "MODELS",
    "make_driver",
    "Sink",
    "RankStoreCandidate",
    "discover_rank_store",
    "find_rank_stores",
]
