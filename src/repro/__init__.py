"""repro — postmortem computation of PageRank on temporal graphs.

A production-quality reproduction of Hossain & Saule, *"Postmortem
Computation of Pagerank on Temporal Graphs"*, ICPP 2022: the temporal-CSR
representation, multi-window partitioning, partial initialization, SpMV and
SpMM-inspired kernels, the offline and streaming (STINGER-like) baselines,
and a parallel substrate (real work-stealing pool + calibrated simulated
machine) that regenerates every figure of the paper's evaluation.

Quickstart::

    from repro import (TemporalEventSet, WindowSpec, PostmortemDriver,
                       PagerankConfig)
    events = TemporalEventSet(src, dst, timestamps)
    spec = WindowSpec.covering(events, delta=90 * 86400, sw=86400)
    result = PostmortemDriver(events, spec, PagerankConfig()).run()
    for window in result.windows:
        print(window.window_index, window.top_vertices(5))
"""

from repro.errors import (
    ReproError,
    ValidationError,
    EmptyEventSetError,
    WindowSpecError,
    GraphBuildError,
    ConvergenceError,
    SchedulerError,
    DatasetError,
    LockOrderError,
)
from repro.sanitize import (
    enable_sanitizers,
    disable_sanitizers,
    sanitizers_enabled,
)
from repro.events import (
    TemporalEventSet,
    WindowSpec,
    Window,
    load_events_tsv,
    save_events_tsv,
)
from repro.graph import (
    CSRGraph,
    build_csr_from_edges,
    TemporalCSR,
    TemporalAdjacency,
    WindowView,
    MultiWindowGraph,
    LazyMultiWindowPartition,
)
from repro.pagerank import (
    PagerankConfig,
    PagerankResult,
    WorkStats,
    pagerank_window,
    pagerank_windows_lockstep,
    full_initialization,
    partial_initialization,
)
from repro.models import (
    RunResult,
    WindowResult,
    OfflineDriver,
    PostmortemDriver,
    PostmortemOptions,
)
from repro.streaming import StreamingDriver, StreamingGraph
from repro.runtime import ModelDriver, make_driver
from repro.datasets import get_profile, list_profiles, DatasetRegistry
from repro.analysis import compare_models, ModelTiming, edge_distribution
from repro.parallel import (
    MachineSpec,
    CostModel,
    calibrate_cost_model,
    collect_window_stats,
    estimate_makespan,
)

__version__ = "1.0.0"

__all__ = [
    # errors
    "ReproError",
    "ValidationError",
    "EmptyEventSetError",
    "WindowSpecError",
    "GraphBuildError",
    "ConvergenceError",
    "SchedulerError",
    "DatasetError",
    "LockOrderError",
    # sanitizers
    "enable_sanitizers",
    "disable_sanitizers",
    "sanitizers_enabled",
    # events
    "TemporalEventSet",
    "WindowSpec",
    "Window",
    "load_events_tsv",
    "save_events_tsv",
    # graphs
    "CSRGraph",
    "build_csr_from_edges",
    "TemporalCSR",
    "TemporalAdjacency",
    "WindowView",
    "MultiWindowGraph",
    "LazyMultiWindowPartition",
    # pagerank
    "PagerankConfig",
    "PagerankResult",
    "WorkStats",
    "pagerank_window",
    "pagerank_windows_lockstep",
    "full_initialization",
    "partial_initialization",
    # models
    "RunResult",
    "WindowResult",
    "OfflineDriver",
    "PostmortemDriver",
    "PostmortemOptions",
    "StreamingDriver",
    "StreamingGraph",
    # runtime
    "ModelDriver",
    "make_driver",
    # datasets
    "get_profile",
    "list_profiles",
    "DatasetRegistry",
    # analysis
    "compare_models",
    "ModelTiming",
    "edge_distribution",
    # parallel
    "MachineSpec",
    "CostModel",
    "calibrate_cost_model",
    "collect_window_stats",
    "estimate_makespan",
    "__version__",
]
