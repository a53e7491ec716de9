"""Plugging your own analysis into the postmortem machinery.

The execution-model machinery (offline / streaming / postmortem) is not
PageRank-specific: any per-window analysis that yields one value per
vertex can ride it as a :class:`~repro.programs.base.VertexProgram`.  This
example defines a custom program — per-vertex *reciprocity*, the fraction
of a vertex's out-edges (u, v) in the window whose reverse (v, u) is also
present — runs it under all three models through ``make_driver``, checks
they agree bit for bit, and shows where each spends its time.

A program implements two surfaces: ``solve_window`` gets the
temporal-CSR window view (postmortem, no graph materialization) and
``solve_graph`` gets a materialized (CSRGraph, active mask) pair (offline
and streaming).

Run:  python examples/custom_kernel.py
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import WindowSpec
from repro.datasets import get_profile
from repro.programs import VertexProgram
from repro.programs.base import fixpoint_result
from repro.reporting import format_kv, format_series
from repro.runtime import MODELS, make_driver


def reciprocity(src: np.ndarray, dst: np.ndarray, n: int) -> np.ndarray:
    """Per-vertex fraction of out-edges whose reverse edge also exists
    (self-loops ignored; 0 for vertices without out-edges)."""
    keep = src != dst
    src, dst = src[keep].astype(np.int64), dst[keep].astype(np.int64)
    mutual = np.isin(dst * n + src, src * n + dst)
    out_degree = np.bincount(src, minlength=n).astype(np.float64)
    n_mutual = np.bincount(src, weights=mutual, minlength=n)
    return np.divide(
        n_mutual, out_degree,
        out=np.zeros(n, dtype=np.float64), where=out_degree > 0,
    )


@dataclass(frozen=True)
class ReciprocityProgram(VertexProgram):
    """Per-vertex edge reciprocity: one pass per window, no iteration."""

    name = "reciprocity"
    iterative = False

    def init_window(self, view):
        return None

    def solve_window(self, view, x0=None, *, workspace=None):
        # the window's simple edges, read off the adjacency's group index
        src, dst = view.edges()
        values = reciprocity(src, dst, view.adjacency.n_vertices)
        return fixpoint_result(
            values, view.n_active_edges, view.n_active_vertices
        )

    def solve_graph(self, graph, active, *, prev_values=None,
                    prev_active=None):
        src, dst = graph.edges()
        values = reciprocity(src, dst, graph.n_vertices)
        return fixpoint_result(values, graph.n_edges, int(active.sum()))


def main() -> None:
    events = get_profile("wiki-talk").generate(scale=0.2)
    spec = WindowSpec.covering_days(events, 90, 86_400 * 30)
    print(f"instance: {len(events)} events, {spec.n_windows} windows\n")

    runs = {
        model: make_driver(
            model, events, spec, program=ReciprocityProgram()
        ).run()
        for model in MODELS
    }
    values = runs["postmortem"].values_matrix()
    for run in runs.values():
        assert np.array_equal(run.values_matrix(), values)
    print("all three models produce identical reciprocity vectors\n")

    idx = list(range(0, spec.n_windows, max(1, spec.n_windows // 10)))
    n_active = [w.n_active_vertices for w in runs["postmortem"].windows]
    mean_active = [
        round(float(values[i].sum()) / max(n_active[i], 1), 3) for i in idx
    ]
    print(
        format_series(
            "window",
            idx,
            {"mean reciprocity": mean_active},
            title="Vertex reciprocity over time (wiki-talk profile)",
        )
    )

    print()
    for model, run in runs.items():
        print(
            format_kv(
                {k: round(v, 3) for k, v in run.timings.as_dict().items()},
                title=f"{model} phases (s), total "
                f"{run.total_time:.3f}s",
            )
        )
        print()


if __name__ == "__main__":
    main()
