"""Collating benchmark outputs into a single report.

The benchmark harness writes each table/figure rendering to
``benchmarks/output/*.txt``; :func:`generate_report` collates them into one
Markdown document (per-artifact sections, fenced as code blocks) so a full
reproduction run can be published as a single file.  Exposed on the CLI as
``repro-temporal report``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import List, Optional, Union

from repro.errors import ValidationError

__all__ = ["generate_report", "ARTIFACT_ORDER"]

#: preferred section order (paper order, then ablations/extensions)
ARTIFACT_ORDER = [
    "table1_graphs",
    "fig4_edge_distribution",
    "fig5_models",
    "fig6_partial_init",
    "fig7_partitioners",
    "fig8_multiwindow",
    "fig9_few_windows",
    "fig10_many_windows",
    "fig11_best_speedup",
    "fig12_suggested",
    "ablation_partition",
    "ablation_vector_length",
    "ablation_memory",
    "ablation_tolerance",
    "scaling_workers",
    "extension_kcore",
]

_TITLES = {
    "table1_graphs": "Table 1 — graphs and parameters",
    "fig4_edge_distribution": "Figure 4 — temporal edge distributions",
    "fig5_models": "Figure 5 — offline vs streaming vs postmortem",
    "fig6_partial_init": "Figure 6 — partial initialization",
    "fig7_partitioners": "Figure 7 — partitioners and granularity (256 windows)",
    "fig8_multiwindow": "Figure 8 — multi-window count",
    "fig9_few_windows": "Figure 9 — few windows (6)",
    "fig10_many_windows": "Figure 10 — many windows (1024)",
    "fig11_best_speedup": "Figure 11 — best speedup over streaming",
    "fig12_suggested": "Figure 12 — suggested parameters",
    "ablation_partition": "Ablation — balanced multi-window partitioning",
    "ablation_vector_length": "Ablation — SpMM vector length",
    "ablation_memory": "Ablation — memory vs multi-window count",
    "ablation_tolerance": "Ablation — tolerance vs ranking quality",
    "scaling_workers": "Study — strong scaling",
    "extension_kcore": "Extension — k-core under the three models",
}


def generate_report(
    output_dir: Union[str, os.PathLike],
    report_path: Optional[Union[str, os.PathLike]] = None,
    title: str = "Reproduction report",
) -> str:
    """Collate ``<output_dir>/*.txt`` artifacts into one Markdown report.

    Returns the Markdown text; writes it to ``report_path`` when given.
    Unknown artifacts (not in :data:`ARTIFACT_ORDER`) are appended in
    alphabetical order so custom benches are never dropped.
    """
    out_dir = Path(output_dir)
    if not out_dir.is_dir():
        raise ValidationError(f"{out_dir} is not a directory")
    available = {p.stem: p for p in sorted(out_dir.glob("*.txt"))}
    if not available:
        raise ValidationError(f"no .txt artifacts found in {out_dir}")

    ordered: List[str] = [k for k in ARTIFACT_ORDER if k in available]
    ordered += [k for k in sorted(available) if k not in ARTIFACT_ORDER]

    lines = [f"# {title}", ""]
    lines.append(
        "Generated from the benchmark harness outputs in "
        f"`{out_dir}` ({len(ordered)} artifacts)."
    )
    lines.append("")
    for key in ordered:
        lines.append(f"## {_TITLES.get(key, key)}")
        lines.append("")
        lines.append("```text")
        lines.append(available[key].read_text().rstrip())
        lines.append("```")
        lines.append("")
    text = "\n".join(lines)
    if report_path is not None:
        Path(report_path).write_text(text)
    return text
