"""Shared execution runtime for the model drivers.

One layer answers, for every execution model, the questions each driver
used to answer privately:

* **contract** — :class:`~repro.runtime.base.ModelDriver`: uniform
  ``run(store_values=..., value_sink=..., progress=...)``;
* **policy** — :class:`~repro.runtime.context.DriverContext`: executor
  selection, default sinks, progress/trace hooks;
* **execution** — :mod:`repro.runtime.execution`: the executor taxonomy
  and per-model executor validation (the executors themselves live in
  :mod:`repro.parallel`);
* **output** — :mod:`repro.runtime.sinks`: chained streaming value
  sinks feeding rank stores and tests;
* **construction** — :func:`~repro.runtime.registry.make_driver`: model
  name → driver, with an orthogonal ``program`` dimension selecting the
  vertex program (:mod:`repro.programs`) every model runs;
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
from repro.runtime.base import ModelDriver, record_run_metadata
from repro.runtime.context import (
    DriverContext,
    NULL_SCOPE,
    ProgressFn,
    RunScope,
    TraceFn,
)
from repro.runtime.execution import EXECUTORS, require_executor
from repro.runtime.registry import MODELS, make_driver
from repro.runtime.sinks import Sink, chain_sinks, counting_sink
from repro.programs.registry import PROGRAMS, make_program

__all__ = [
    "PROGRAMS",
    "make_program",
    "ModelDriver",
    "record_run_metadata",
    "DriverContext",
    "RunScope",
    "NULL_SCOPE",
    "ProgressFn",
    "TraceFn",
    "EXECUTORS",
    "require_executor",
    "MODELS",
    "make_driver",
    "Sink",
    "chain_sinks",
    "counting_sink",
    "RankStoreCandidate",
    "discover_rank_store",
    "find_rank_stores",
]
