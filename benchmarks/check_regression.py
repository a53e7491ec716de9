"""Compare a fresh bench JSON against its committed baseline.

Used by the CI ``bench-smoke`` job: after a benchmark writes
``benchmarks/output/<name>.json``, this script diffs the
machine-independent metrics against the committed
``benchmarks/BENCH_<name>.json`` and exits 1 on a >2x regression.

Wall-clock numbers are deliberately ignored — CI runners are shared and
slow; the guarded metrics are serialization volumes and ratios, which
depend only on the code.

Usage:  python benchmarks/check_regression.py dispatch
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).parent

#: a fresh metric may grow to at most TOLERANCE x its baseline value
TOLERANCE = 2.0

#: per-bench guarded metrics: (json path, human label); every metric is
#: "smaller is better" and bounded by TOLERANCE x baseline
GUARDED = {
    "dispatch": [
        (("postmortem", "payload_ratio"), "shared/pickled payload ratio"),
        (("postmortem", "shared_payload_bytes"),
         "postmortem shared dispatch bytes"),
        (("offline", "shared_payload_bytes"), "offline shared dispatch bytes"),
        (("offline", "shared_arena_bytes"), "offline shared arena bytes"),
    ],
    # traversal/cell fractions are pure code facts; the per-iteration
    # time ratio compares the kernel with the masked test oracle in
    # interleaved rounds on the same machine, so it is stable where
    # absolute wall-clock is not.  The SpMM batch runs the lockstep loop
    # over each column's packed active edges (its live cells) and has
    # no other traversal, so it has no masked/compacted time ratio to
    # guard
    "edge_compaction": [
        (("spmv", "traversal_ratio"), "compacted/masked traversed events"),
        (("spmv", "periter_ratio"), "compacted/masked per-iteration time (spmv)"),
        (("spmm", "cell_fraction"), "cells read per iteration / (nnz*k) (spmm)"),
    ],
    # 3-shard p99 vs one-shard p50 compares two back-to-back runs on the
    # same machine — a ratio, like the compaction per-iteration times
    "cluster_serving": [
        (("slo", "p99_over_single_p50"),
         "3-shard top-k p99 / one-shard p50"),
    ],
    # median per-round ratio over interleaved same-machine rounds:
    # postmortem k-core wall-clock over the offline rebuild
    # (peeling-dominated, so postmortem tracks rather than beats it — the
    # bound keeps engine overhead from silently growing)
    "extension_kcore": [
        (("pm_over_offline_worst",),
         "postmortem/offline k-core wall-clock (worst dataset)"),
    ],
    # no guarded ratios: the Fig 5 contract is the ordering flags below
    # (postmortem faster than offline and streaming on every config)
    "fig5_models": [],
    # no guarded ratios: the out-of-core contract is the RSS-bound and
    # parity flags below (wall-clock and absolute RSS are machine facts)
    "outofcore": [],
}

#: per-bench boolean invariants that must hold in the fresh results
REQUIRED_FLAGS = {
    # shared is bitwise-identical to serial on both task shapes
    "dispatch": [
        ("postmortem", "match_exact"),
        ("offline", "match_exact"),
    ],
    "edge_compaction": [
        ("spmv", "match_exact"),
        ("spmv", "speedup_ok"),
        ("weighted", "match_exact"),
        ("spmm", "match_exact"),
    ],
    "cluster_serving": [
        ("parity_all_ops",),
        ("overload_sheds",),
        ("no_shm_leak",),
        ("topk_p99_within_bound",),
    ],
    "extension_kcore": [
        ("values_match",),
        ("pm_beats_streaming",),
    ],
    # minimum over configs of the median per-round speedup is > 1
    "fig5_models": [
        ("pm_beats_offline",),
        ("pm_beats_streaming",),
    ],
    "outofcore": [
        ("parity", "event_log_match"),
        ("parity", "postmortem_match_exact"),
        ("build", "rss_within_bound"),
        ("run", "rss_within_bound"),
    ],
}


def _lookup(payload: dict, path: tuple):
    value = payload
    for key in path:
        value = value[key]
    return value


def check(name: str) -> int:
    baseline_path = HERE / f"BENCH_{name}.json"
    fresh_path = HERE / "output" / f"{name}.json"
    baseline = json.loads(baseline_path.read_text())
    fresh = json.loads(fresh_path.read_text())

    failures = []
    for path, label in GUARDED.get(name, []):
        base, now = _lookup(baseline, path), _lookup(fresh, path)
        bound = base * TOLERANCE
        status = "ok" if now <= bound else "REGRESSION"
        print(
            f"{label}: baseline={base:.6g} fresh={now:.6g} "
            f"bound={bound:.6g} [{status}]"
        )
        if now > bound:
            failures.append(label)
    for path in REQUIRED_FLAGS.get(name, []):
        if not _lookup(fresh, path):
            print(f"invariant {'.'.join(path)} is no longer true [REGRESSION]")
            failures.append(".".join(path))

    if failures:
        print(f"\n{len(failures)} regression(s) vs {baseline_path.name}")
        return 1
    print(f"\nno regressions vs {baseline_path.name}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in GUARDED:
        known = ", ".join(sorted(GUARDED))
        print(f"usage: check_regression.py <bench>  (known: {known})")
        sys.exit(2)
    sys.exit(check(sys.argv[1]))
