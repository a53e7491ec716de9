"""The three execution models of Algorithm 1 (paper Section 3.3).

Every driver computes the same sequence of PageRank vectors — one per
window — and returns a :class:`~repro.models.base.RunResult` with per-phase
timings so benchmarks can compare build vs. compute costs across models.
"""

from repro.models.base import RunResult, WindowResult
from repro.models.offline import OfflineDriver
from repro.models.postmortem import PostmortemDriver, PostmortemOptions

__all__ = [
    "RunResult",
    "WindowResult",
    "OfflineDriver",
    "PostmortemDriver",
    "PostmortemOptions",
]
