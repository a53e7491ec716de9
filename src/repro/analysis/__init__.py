"""Analysis helpers: temporal edge distributions (Figure 4), model
comparisons (Figure 5), speedup aggregation (Figures 6–12)."""

from repro.analysis.edge_distribution import (
    edge_distribution,
    distribution_summary,
)
from repro.analysis.comparison import (
    ModelTiming,
    compare_models,
    speedup_grid,
)
from repro.analysis.memory import MemoryReport, memory_report
from repro.analysis.timeseries import (
    rank_stability_series,
    topk_churn_series,
    rising_vertices,
    detect_change_points,
)
from repro.analysis.metrics import (
    spearman_rank_correlation,
    topk_overlap,
    l1_distance,
)

__all__ = [
    "edge_distribution",
    "distribution_summary",
    "ModelTiming",
    "compare_models",
    "speedup_grid",
    "MemoryReport",
    "memory_report",
    "spearman_rank_correlation",
    "topk_overlap",
    "l1_distance",
    "rank_stability_series",
    "topk_churn_series",
    "rising_vertices",
    "detect_change_points",
]
