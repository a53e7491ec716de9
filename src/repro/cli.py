"""Command-line interface.

Usage (also available as ``python -m repro``)::

    repro-temporal generate wiki-talk --scale 0.2 --out wiki.tcsr
    repro-temporal info wiki.tcsr
    repro-temporal run wiki.tcsr --delta-days 90 --sw 86400 --top 5
    repro-temporal compare wiki.tcsr --delta-days 90 --sw 86400
    repro-temporal sweep wiki.tcsr --delta-days 90 --sw 86400 --workers 48
    repro-temporal run wiki.tcsr --delta-days 90 --sw 86400 --program kcore
    repro-temporal report --output-dir benchmarks/output --out REPORT.md
    repro-temporal run wiki.tcsr --delta-days 90 --sw 86400 --store wiki.rankstore
    repro-temporal inspect wiki.rankstore
    repro-temporal query wiki.rankstore top-k --window 3 -k 10
    repro-temporal serve wiki.rankstore --port 8321
    repro-temporal serve wiki.rankstore --shards 3 --replicas 2
    repro-temporal bench-traffic http://127.0.0.1:8321 --requests 2000
    repro-temporal lint src benchmarks --format json

* **generate** — write a synthetic dataset profile to a ``.tcsr`` event
  log or a ``.tsv`` text file.
* **info** — event counts, span, temporal shape classification.
* **run** — a windowed vertex program (``--program``: PageRank by
  default, or Katz / k-core / connected-component sizes) under
  ``--model offline|streaming|postmortem`` (default postmortem);
  per-window top vertices.  ``--store`` streams the run to a servable
  ``.rankstore`` (``--store-dtype float64`` keeps it bitwise);
  ``--executor`` fans the work out where the model's dependence
  structure permits.
* **compare** — measured wall-clock of offline / streaming / postmortem.
* **sweep** — simulated multicore sweep of level x granularity (the
  Section 6.3.6 tuning aid).
* **report** — collate benchmark outputs into one Markdown report.
* **inspect** — describe a ``.tcsr`` event log or a ``.rankstore``.
* **query** — answer top-k / rank / trajectory / movers / window-at
  queries against a rank store.
* **serve** — JSON-over-HTTP query server: shard worker processes
  (one by default; ``--shards N`` partitions the windows across N) with
  request micro-batching, behind an asyncio frontend with admission
  control.
* **bench-traffic** — zipfian load against a running server; reports
  per-op p50/p99 latency, throughput, and shed/degraded counts.
* **lint** — the project-specific static-analysis suite (exit 1 on
  findings; see ``docs/linting.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    from repro.models import PostmortemOptions
    from repro.programs.registry import PROGRAMS
    from repro.runtime.execution import EXECUTORS

    parser = argparse.ArgumentParser(
        prog="repro-temporal",
        description="Postmortem PageRank on temporal graphs (ICPP'22 "
        "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="generate a synthetic dataset")
    p_gen.add_argument("profile", help="profile name (see `list`)")
    p_gen.add_argument("--scale", type=float, default=1.0)
    p_gen.add_argument("--seed-offset", type=int, default=0)
    p_gen.add_argument("--out", required=True,
                       help="output path (.tcsr or .tsv)")
    p_gen.add_argument("--format", default="auto",
                       choices=["auto", "tsv", "tcsr"],
                       help="output format; auto infers from --out suffix. "
                       "tcsr builds the memory-mapped artifact straight to "
                       "disk in bounded-memory chunks (use for *-xl "
                       "profiles)")
    p_gen.add_argument("--chunk-events", type=int, default=None,
                       help="events generated/sorted per chunk on the tcsr "
                       "path (bounds peak memory; default 1,000,000)")

    sub.add_parser("list", help="list dataset profiles")

    p_info = sub.add_parser("info", help="describe an event file")
    p_info.add_argument("events", help="event file (.tcsr or .tsv)")

    def add_window_args(p):
        p.add_argument("--delta-days", type=float, required=True,
                       help="window size in days")
        p.add_argument("--sw", type=int, required=True,
                       help="sliding offset in seconds")
        p.add_argument("--max-windows", type=int, default=None)
        p.add_argument("--alpha", type=float, default=0.15)
        p.add_argument("--tolerance", type=float, default=1e-8)

    p_run = sub.add_parser(
        "run", help="windowed PageRank (or another vertex program) under "
        "any execution model"
    )
    p_run.add_argument("events", nargs="?", default=None,
                       help="event file (.tcsr or .tsv; a .tcsr "
                       "artifact stays memory-mapped)")
    add_window_args(p_run)
    p_run.add_argument("--model", default="postmortem",
                       choices=["offline", "streaming", "postmortem"],
                       help="execution model (paper Section 3.3); every "
                       "model honours --store, executors where its "
                       "dependence structure permits")
    p_run.add_argument("--program", default="pagerank",
                       choices=list(PROGRAMS),
                       help="vertex program to run on the engine "
                       "(default: pagerank; every model supports every "
                       "program)")
    p_run.add_argument("--multiwindows", type=int, default=6)
    # the library's defaults, so a bare `run` is a default-options run
    p_run.add_argument("--kernel", choices=["spmv", "spmm"],
                       default=PostmortemOptions.kernel,
                       help="postmortem schedule (default: "
                       f"{PostmortemOptions.kernel})")
    p_run.add_argument("--vector-length", type=int,
                       default=PostmortemOptions.vector_length,
                       help="most SpMM regions per multi-window graph; "
                       "the run picks each graph's width from its "
                       "windows' event counts (default: "
                       f"{PostmortemOptions.vector_length})")
    p_run.add_argument("--partition", default="uniform",
                       choices=["uniform", "minimax", "greedy"])
    p_run.add_argument("--executor", default="serial",
                       choices=list(EXECUTORS),
                       help="how window work is fanned out: in this "
                       "process, or by a shared-memory process pool "
                       "(zero-copy publication; works with --store). "
                       "postmortem parallelizes over multi-window graphs, "
                       "offline over windows; streaming is serial-only")
    p_run.add_argument("--executor-workers", type=int, default=4,
                       help="worker count for the shared executor")
    p_run.add_argument("--top", type=int, default=3,
                       help="top vertices to print per window")
    p_run.add_argument("--every", type=int, default=1,
                       help="print every Nth window")
    p_run.add_argument("--store", default=None, metavar="PATH",
                       help="stream a servable rank store to PATH "
                       "(see `serve` / `query`)")
    p_run.add_argument("--store-dtype", default="float32",
                       choices=["float32", "float64"],
                       help="rank store precision (float64 preserves the "
                       "solver's vectors bitwise)")

    p_cmp = sub.add_parser(
        "compare", help="offline vs streaming vs postmortem wall-clock"
    )
    p_cmp.add_argument("events")
    add_window_args(p_cmp)

    p_sweep = sub.add_parser(
        "sweep", help="simulated multicore parameter sweep"
    )
    p_sweep.add_argument("events")
    add_window_args(p_sweep)
    p_sweep.add_argument("--workers", type=int, default=48)
    p_sweep.add_argument("--multiwindows", type=int, default=6)

    p_rep = sub.add_parser(
        "report", help="collate benchmark outputs into one Markdown report"
    )
    p_rep.add_argument(
        "--output-dir", default="benchmarks/output",
        help="directory of .txt artifacts",
    )
    p_rep.add_argument("--out", default=None, help="write Markdown here")

    p_ins = sub.add_parser(
        "inspect", help="describe a .tcsr event log or a rank store"
    )
    p_ins.add_argument("archive", help=".tcsr or .rankstore file")

    p_query = sub.add_parser(
        "query", help="query a rank store from the command line"
    )
    p_query.add_argument("store", help="rank store path")
    qsub = p_query.add_subparsers(dest="op", required=True)

    q_topk = qsub.add_parser("top-k", help="highest-ranked vertices")
    q_topk.add_argument("--window", type=int, required=True)
    q_topk.add_argument("-k", type=int, default=10)

    q_rank = qsub.add_parser("rank", help="one vertex's rank in a window")
    q_rank.add_argument("--vertex", type=int, required=True)
    q_rank.add_argument("--window", type=int, required=True)

    q_traj = qsub.add_parser(
        "trajectory", help="a vertex's rank across a window range"
    )
    q_traj.add_argument("--vertex", type=int, required=True)
    q_traj.add_argument("--start", type=int, default=0)
    q_traj.add_argument("--stop", type=int, default=None)

    q_mov = qsub.add_parser(
        "movers", help="largest rank deltas between two windows"
    )
    q_mov.add_argument("--from", dest="w_from", type=int, required=True)
    q_mov.add_argument("--to", dest="w_to", type=int, required=True)
    q_mov.add_argument("-k", type=int, default=10)

    q_wat = qsub.add_parser(
        "window-at", help="windows containing a timestamp"
    )
    q_wat.add_argument("--t", type=int, required=True)

    p_lint = sub.add_parser(
        "lint", help="run the project static-analysis suite"
    )
    p_lint.add_argument(
        "paths", nargs="*", default=["src", "benchmarks"],
        help="files or directories to lint (default: src benchmarks)",
    )
    p_lint.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        dest="fmt", help="report format",
    )
    p_lint.add_argument(
        "--select", default=None,
        help="comma-separated rule names to run (default: all)",
    )
    p_lint.add_argument(
        "--ignore", default=None,
        help="comma-separated rule names to skip",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true",
        help="list rule names and descriptions, then exit",
    )
    p_lint.add_argument(
        "--deep", action="store_true",
        help="also run the whole-program analyses (call graph, lock "
        "flow, async safety, arena lifecycle, determinism)",
    )
    p_lint.add_argument(
        "--explain", metavar="RULE", default=None,
        help="print a rule's description and motivating bug, then exit",
    )
    p_lint.add_argument(
        "--output", metavar="FILE", default=None,
        help="write the report to FILE instead of stdout",
    )
    p_lint.add_argument(
        "--baseline", metavar="FILE", default=None,
        help="accepted-findings baseline for --deep (default: "
        "lint-baseline.json when it exists)",
    )
    p_lint.add_argument(
        "--write-baseline", action="store_true",
        help="record the current --deep findings as the baseline and "
        "exit 0",
    )
    p_lint.add_argument(
        "--no-cache", action="store_true",
        help="rebuild the --deep call graph instead of using "
        ".lint-cache/",
    )

    p_srv = sub.add_parser(
        "serve", help="serve a rank store over JSON/HTTP"
    )
    p_srv.add_argument("store",
                       help="rank store path, or a directory holding "
                       "exactly one (run output discovery)")
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=8321)
    p_srv.add_argument("--workers", type=int, default=4,
                       help="query worker threads per shard replica")
    p_srv.add_argument("--max-batch", type=int, default=64,
                       help="max queries coalesced into one engine batch")
    p_srv.add_argument("--shards", type=int, default=1,
                       help="shard worker processes; the store's windows "
                       "are partitioned across them behind one asyncio "
                       "frontend")
    p_srv.add_argument("--replicas", type=int, default=1,
                       help="replica processes per shard; replicas share "
                       "the shard's rows via shared memory, zero extra "
                       "copies")
    p_srv.add_argument("--max-queue", type=int, default=64,
                       help="admission bound per shard replica; a full "
                       "queue sheds with 429 instead of queueing latency")
    p_srv.add_argument("--submit-timeout", type=float, default=0.0,
                       help="seconds a submit may wait for an admission "
                       "slot before shedding")
    p_srv.add_argument("--max-inflight", type=int, default=256,
                       help="frontend global in-flight request cap")

    p_tr = sub.add_parser(
        "bench-traffic",
        help="drive zipfian query load at a running server and report "
        "p50/p99/qps",
    )
    p_tr.add_argument("url", help="server base URL, e.g. "
                      "http://127.0.0.1:8321")
    p_tr.add_argument("--requests", type=int, default=1000,
                      help="number of queries to send")
    p_tr.add_argument("--concurrency", type=int, default=8,
                      help="concurrent client threads")
    p_tr.add_argument("--zipf-s", type=float, default=1.1,
                      help="zipf skew of vertex/window popularity")
    p_tr.add_argument("--top-k", type=int, default=10,
                      help="k used by top_k/movers queries")
    p_tr.add_argument("--mix", default=None,
                      help="op mix as op=weight pairs, e.g. "
                      "'top_k=0.7,rank=0.2,trajectory=0.05,movers=0.05'")
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument("--timeout", type=float, default=10.0,
                      help="per-request timeout in seconds")
    p_tr.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the report as JSON")

    return parser


def _load_events(path: str):
    from repro.events import load_events_tsv
    from repro.graph.io import is_tcsr, open_events

    if is_tcsr(path):
        return open_events(path)
    return load_events_tsv(path)


def _make_spec(events, args):
    from repro.events import WindowSpec

    spec = WindowSpec.covering_days(events, args.delta_days, args.sw)
    if args.max_windows is not None and spec.n_windows > args.max_windows:
        spec = WindowSpec(spec.t0, spec.delta, spec.sw, args.max_windows)
    return spec


def _make_config(args):
    from repro.pagerank import PagerankConfig

    return PagerankConfig(
        alpha=args.alpha,
        tolerance=args.tolerance,
    )


def _generate_format(args) -> str:
    if args.format != "auto":
        return args.format
    if args.out.endswith(".tcsr"):
        return "tcsr"
    return "tsv"


def cmd_generate(args, out) -> int:
    from repro.datasets import get_profile
    from repro.events import save_events_tsv

    profile = get_profile(args.profile)
    fmt = _generate_format(args)
    if fmt == "tcsr":
        from repro.datasets.profiles import DEFAULT_CHUNK_EVENTS
        from repro.graph.io import TcsrFile

        chunk_events = args.chunk_events or DEFAULT_CHUNK_EVENTS
        profile.generate_tcsr(
            args.out,
            seed_offset=args.seed_offset,
            scale=args.scale,
            chunk_events=chunk_events,
        )
        with TcsrFile(args.out) as artifact:
            n_events = artifact.n_events
            n_vertices = artifact.n_vertices
            stored = artifact.stored_bytes()
        print(
            f"wrote {n_events} events ({n_vertices} vertices, "
            f"{stored / 1e6:.1f} MB mapped) to {args.out}",
            file=out,
        )
        return 0
    events = profile.generate(seed_offset=args.seed_offset, scale=args.scale)
    save_events_tsv(events, args.out)
    print(
        f"wrote {len(events)} events ({events.n_vertices} vertices, "
        f"{events.span // 86_400} days) to {args.out}",
        file=out,
    )
    return 0


def cmd_list(args, out) -> int:
    from repro.datasets import PROFILES
    from repro.reporting import format_table

    rows = [
        [p.name, f"{p.paper_events:,}", f"{p.n_events:,}", p.figure4_shape]
        for p in PROFILES.values()
    ]
    print(
        format_table(
            ["profile", "paper events", "base events", "temporal shape"],
            rows,
        ),
        file=out,
    )
    return 0


def cmd_info(args, out) -> int:
    from repro.analysis import distribution_summary
    from repro.reporting import format_kv

    events = _load_events(args.events)
    shape = distribution_summary(events) if len(events) else None
    info = {
        "events": len(events),
        "vertices": events.n_vertices,
        "span (days)": events.span // 86_400 if len(events) else 0,
    }
    if shape is not None:
        info.update(
            {
                "shape class": shape.shape_class,
                "peak/mean": round(shape.peak_to_mean, 2),
                "gini": round(shape.gini, 3),
                "trend": round(shape.trend, 3),
            }
        )
    print(format_kv(info, title=args.events), file=out)
    return 0


def cmd_run(args, out) -> int:
    from repro.errors import ValidationError
    from repro.models import PostmortemOptions
    from repro.reporting import format_table
    from repro.runtime import make_driver

    if args.events is None:
        raise ValidationError("give an events file (.tcsr or .tsv)")
    events = _load_events(args.events)
    spec = _make_spec(events, args)
    options = PostmortemOptions(
        n_multiwindows=args.multiwindows,
        kernel=args.kernel,
        vector_length=args.vector_length,
        partition_method=args.partition,
        executor=args.executor,
        n_threads=args.executor_workers,
    )
    driver = make_driver(
        args.model,
        events,
        spec,
        _make_config(args),
        executor=args.executor,
        n_workers=args.executor_workers,
        program=args.program,
        postmortem_options=options,
    )
    if args.store:
        from repro.service import RankStoreWriter

        with RankStoreWriter(
            args.store,
            n_windows=spec.n_windows,
            n_vertices=events.n_vertices,
            model=driver.model_name,
            program=driver.program.name,
            spec=spec,
            dtype=args.store_dtype,
        ) as writer:
            run = driver.run(value_sink=writer.write_window)
        print(f"wrote rank store to {args.store}", file=out)
    else:
        run = driver.run()
    lockstep = run.metadata.get("lockstep")
    if lockstep is not None:
        print(
            f"lockstep: widths {lockstep['widths']} from max window events "
            f"{lockstep['max_window_events']}, step cap "
            f"{lockstep['step_events']} edges, "
            f"{lockstep['solve_calls']} solve calls",
            file=out,
        )
    rows = []
    for w in run.windows[:: max(args.every, 1)]:
        top = ", ".join(
            f"v{v}={s:.4f}" for v, s in w.top_vertices(args.top)
        )
        rows.append(
            [w.window_index, w.n_active_vertices, w.n_active_edges,
             w.iterations, top]
        )
    print(
        format_table(
            ["window", "|V|", "|E|", "iters", f"top-{args.top}"],
            rows,
            title=f"{args.model} {args.program} over "
            f"{spec.n_windows} windows",
        ),
        file=out,
    )
    print(
        f"\ntotal {run.total_time:.3f}s "
        f"(build {run.timings.totals.get('build', 0):.3f}s, "
        f"solve {run.timings.totals.get('pagerank', 0):.3f}s)",
        file=out,
    )
    return 0


def cmd_compare(args, out) -> int:
    from repro.analysis import compare_models
    from repro.reporting import format_bar_chart

    events = _load_events(args.events)
    spec = _make_spec(events, args)
    t = compare_models(events, spec, _make_config(args))
    print(
        format_bar_chart(
            {
                "offline": t.offline_seconds,
                "streaming": t.streaming_seconds,
                "postmortem": t.postmortem_seconds,
            },
            title=f"wall-clock over {spec.n_windows} windows",
            unit="s",
        ),
        file=out,
    )
    print(
        f"\npostmortem vs streaming: {t.postmortem_vs_streaming:.1f}x, "
        f"vs offline: {t.postmortem_vs_offline:.1f}x",
        file=out,
    )
    return 0


def cmd_sweep(args, out) -> int:
    from repro.parallel import (
        AUTO,
        MachineSpec,
        calibrate_cost_model,
        collect_window_stats,
        estimate_makespan,
    )
    from repro.reporting import format_series

    events = _load_events(args.events)
    spec = _make_spec(events, args)
    stats = collect_window_stats(
        events, spec, _make_config(args), args.multiwindows
    )
    model = calibrate_cost_model()
    machine = MachineSpec(args.workers)
    granularities = [1, 4, 16, 64, 256]
    series = {}
    best = (float("inf"), None)
    for level in ("window", "application", "nested"):
        for kernel in ("spmv", "spmm"):
            key = f"{level}/{kernel}"
            ys = []
            for g in granularities:
                t = estimate_makespan(
                    stats, machine, model, level, AUTO, g, kernel, 16
                )
                ys.append(t * 1_000)
                if t < best[0]:
                    best = (t, (level, kernel, g))
            series[key] = ys
    print(
        format_series(
            "granularity",
            granularities,
            series,
            title=(
                f"simulated makespan (ms) on {args.workers} workers, "
                f"auto partitioner"
            ),
        ),
        file=out,
    )
    level, kernel, g = best[1]
    print(
        f"\nbest: {level}/{kernel} at granularity {g} "
        f"({best[0] * 1000:.2f} ms)",
        file=out,
    )
    return 0


def _dump_artifact(out, title, info, header, arrays=None) -> None:
    """Shared presentation for binary artifacts (.rankstore, .tcsr):
    flat summary, decoded preamble, optional per-array layout table."""
    from repro.reporting import format_kv, format_table

    print(format_kv(info, title=title), file=out)
    print(file=out)
    print(format_kv(header, title="header"), file=out)
    if arrays:
        rows = [
            [r["name"], r["dtype"], "x".join(str(d) for d in r["shape"]),
             r["offset"], f"{r['bytes']:,}"]
            for r in arrays
        ]
        print(file=out)
        print(
            format_table(
                ["array", "dtype", "shape", "offset", "bytes"],
                rows,
                title="array layout",
            ),
            file=out,
        )


def cmd_inspect(args, out) -> int:
    from repro.errors import ValidationError
    from repro.graph.io import TcsrFile, is_tcsr
    from repro.service.store import RankStore, is_rank_store

    if is_tcsr(args.archive):
        with TcsrFile(args.archive) as artifact:
            _dump_artifact(
                out, args.archive, artifact.info(),
                artifact.header_info(), artifact.array_table(),
            )
        return 0

    if is_rank_store(args.archive):
        with RankStore(args.archive) as store:
            _dump_artifact(
                out, args.archive, store.info(), store.header_info()
            )
        return 0

    raise ValidationError(
        f"{args.archive}: not a .tcsr event log or a .rankstore"
    )


def cmd_query(args, out) -> int:
    from repro.reporting import format_table
    from repro.service import QueryEngine

    engine = QueryEngine(args.store)
    try:
        if args.op == "top-k":
            rows = [
                [rank + 1, v, f"{s:.6f}"]
                for rank, (v, s) in enumerate(
                    engine.top_k(args.window, args.k)
                )
            ]
            print(
                format_table(
                    ["#", "vertex", "score"], rows,
                    title=f"top-{args.k} of window {args.window}",
                ),
                file=out,
            )
        elif args.op == "rank":
            score = engine.rank(args.vertex, args.window)
            print(
                f"vertex {args.vertex} in window {args.window}: "
                f"{score:.6f}",
                file=out,
            )
        elif args.op == "trajectory":
            traj = engine.trajectory(args.vertex, args.start, args.stop)
            stop = args.start + traj.size
            rows = [
                [w, f"{s:.6f}"]
                for w, s in zip(range(args.start, stop), traj)
            ]
            print(
                format_table(
                    ["window", "score"], rows,
                    title=f"trajectory of vertex {args.vertex}",
                ),
                file=out,
            )
        elif args.op == "movers":
            rows = [
                [m["vertex"], f"{m['delta']:+.6f}",
                 f"{m['rank_from']:.6f}", f"{m['rank_to']:.6f}"]
                for m in engine.movers(args.w_from, args.w_to, args.k)
            ]
            print(
                format_table(
                    ["vertex", "delta", f"w{args.w_from}", f"w{args.w_to}"],
                    rows,
                    title=f"movers {args.w_from} -> {args.w_to}",
                ),
                file=out,
            )
        elif args.op == "window-at":
            windows = engine.windows_at(args.t)
            print(
                f"t={args.t} falls in windows: "
                f"{', '.join(map(str, windows)) or '(none)'}",
                file=out,
            )
    finally:
        engine.close()
    return 0


def _graceful_sigterm() -> None:
    """Route SIGTERM through the KeyboardInterrupt path so `kill` tears
    the server down like Ctrl-C does — an abrupt exit would orphan the
    shard workers and leak their shm segments."""
    import signal

    def _raise(signum, frame):
        raise KeyboardInterrupt

    try:
        signal.signal(signal.SIGTERM, _raise)
    except ValueError:  # lint: disable=silent-except — off the main thread (embedded use) the caller owns signal handling
        pass


def cmd_serve(args, out) -> int:
    from repro.runtime.artifacts import discover_rank_store
    from repro.service.cluster import ClusterFrontend, ShardCluster

    _graceful_sigterm()
    store_path = discover_rank_store(args.store)
    cluster = ShardCluster(
        store_path,
        n_shards=args.shards,
        replicas=args.replicas,
        max_queue=args.max_queue,
        submit_timeout=args.submit_timeout,
        engine_workers=args.workers,
        max_batch=args.max_batch,
    )
    frontend = ClusterFrontend(
        cluster,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        own_cluster=True,
    )
    try:
        frontend.start()
    except BaseException:
        cluster.shutdown()
        raise
    print(
        f"serving {store_path} ({cluster.n_windows} windows x "
        f"{cluster.n_vertices} vertices) on {frontend.url} "
        f"({args.shards} shards x {args.replicas} replicas; "
        "Ctrl-C to stop)",
        file=out,
    )
    try:
        frontend.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=out)
    finally:
        frontend.shutdown()
    return 0


def cmd_bench_traffic(args, out) -> int:
    import json as json_mod
    import urllib.request

    from repro.errors import ValidationError
    from repro.reporting import format_kv
    from repro.service.cluster.traffic import (
        generate_queries,
        run_load,
    )

    base = args.url.rstrip("/")
    with urllib.request.urlopen(base + "/store", timeout=10) as resp:
        info = json_mod.loads(resp.read())
    n_windows = int(info["windows"])
    n_vertices = int(info["vertices"])

    mix = None
    if args.mix:
        mix = {}
        for token in args.mix.split(","):
            op, _, weight = token.partition("=")
            if not weight:
                raise ValidationError(
                    f"bad --mix entry {token!r}; expected op=weight"
                )
            mix[op.strip()] = float(weight)

    queries = generate_queries(
        args.requests,
        n_windows,
        n_vertices,
        mix=mix,
        zipf_s=args.zipf_s,
        k=args.top_k,
        seed=args.seed,
    )
    report = run_load(
        base, queries, concurrency=args.concurrency, timeout=args.timeout
    )
    payload = report.as_dict()
    if args.as_json:
        print(json_mod.dumps(payload, indent=2), file=out)
        return 0
    summary = {k: v for k, v in payload.items() if k != "ops"}
    print(format_kv(summary, title=f"load against {base}"), file=out)
    for op, stats in payload["ops"].items():
        print(format_kv(stats, title=f"op: {op}"), file=out)
    return 0


def cmd_lint(args, out) -> int:
    from pathlib import Path

    from repro.errors import ValidationError
    from repro.lint import (
        ALL_RULES,
        LintReport,
        iter_python_files,
        lint_paths,
        render_json,
        render_sarif,
        render_text,
        rule_descriptions,
    )
    from repro.lint.analyses import (
        ALL_ANALYSES,
        analysis_descriptions,
        run_deep,
    )
    from repro.lint.baseline import (
        DEFAULT_BASELINE_NAME,
        apply_baseline,
        load_baseline,
        write_baseline,
    )
    from repro.reporting import format_table

    if args.explain:
        catalog = {r.name: r for r in ALL_RULES}
        catalog.update({a.name: a for a in ALL_ANALYSES})
        checker = catalog.get(args.explain)
        if checker is None:
            raise ValidationError(
                f"unknown lint rule {args.explain!r}; known rules: "
                f"{', '.join(sorted(catalog))}"
            )
        deep_note = " (whole-program, needs --deep)" if checker in set(
            ALL_ANALYSES
        ) else ""
        print(f"{checker.name}{deep_note}: {checker.description}",
              file=out)
        if checker.motivation:
            print(f"\nMotivating bug: {checker.motivation}", file=out)
        return 0

    if args.list_rules:
        rows = [[name, desc] for name, desc in rule_descriptions().items()]
        rows += [
            [f"{name} (--deep)", desc]
            for name, desc in analysis_descriptions().items()
        ]
        print(
            format_table(["rule", "description"], rows,
                         title="repro.lint rules"),
            file=out,
        )
        return 0

    def split(spec):
        if spec is None:
            return None
        return [tok for tok in (t.strip() for t in spec.split(",")) if tok]

    select, ignore = split(args.select), split(args.ignore)
    rule_names = set(rule_descriptions())
    analysis_names = set(analysis_descriptions())

    if not args.deep:
        report = lint_paths(args.paths, select=select, ignore=ignore)
        notes = []
    else:
        rule_select = (
            [n for n in select if n in rule_names]
            if select is not None else None
        )
        rule_ignore = (
            [n for n in ignore if n in rule_names]
            if ignore is not None else None
        )
        if select is not None and not rule_select:
            # only analyses selected: still count the files
            report = LintReport(
                findings=[],
                files_checked=len(iter_python_files(args.paths)),
                rules=[],
            )
        else:
            report = lint_paths(
                args.paths, select=rule_select, ignore=rule_ignore
            )
        cache_dir = None if args.no_cache else Path(".lint-cache")
        deep_findings = run_deep(
            args.paths, select=select, ignore=ignore,
            known_rules=sorted(rule_names), cache_dir=cache_dir,
        )
        notes = []
        baseline_path = args.baseline
        if baseline_path is None and Path(DEFAULT_BASELINE_NAME).exists():
            baseline_path = DEFAULT_BASELINE_NAME
        if args.write_baseline:
            target = args.baseline or DEFAULT_BASELINE_NAME
            baseline = write_baseline(deep_findings, target)
            print(
                f"wrote {len(baseline)} baseline entr"
                f"{'y' if len(baseline) == 1 else 'ies'} to {target}",
                file=out,
            )
            return 0
        if baseline_path is not None:
            baseline = load_baseline(baseline_path)
            deep_findings, matched, stale = apply_baseline(
                deep_findings, baseline
            )
            if matched:
                notes.append(
                    f"{matched} finding(s) matched the baseline "
                    f"({baseline_path})"
                )
            for entry in stale:
                notes.append(
                    f"stale baseline entry (no longer matches): "
                    f"[{entry.rule}] {entry.path}: {entry.message}"
                )
        report = LintReport(
            findings=sorted(report.findings + deep_findings),
            files_checked=report.files_checked,
            rules=sorted(
                set(report.rules)
                | {
                    a.name for a in ALL_ANALYSES
                    if (select is None or a.name in select)
                    and a.name not in set(ignore or ())
                }
            ),
        )

    if args.fmt == "json":
        rendered = render_json(report)
    elif args.fmt == "sarif":
        descriptions = dict(rule_descriptions())
        descriptions.update(analysis_descriptions())
        rendered = render_sarif(report, descriptions)
    else:
        rendered = render_text(report)
        if notes:
            rendered += "\n" + "\n".join(notes)
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
        print(
            f"wrote {args.fmt} report to {args.output} "
            f"({len(report.findings)} finding(s))",
            file=out,
        )
        for note in notes:
            print(note, file=out)
    else:
        # keep json/sarif stdout machine-parseable: no trailing notes
        print(rendered, file=out)
    return 0 if report.clean else 1


def cmd_report(args, out) -> int:
    from repro.reporting.report import generate_report

    text = generate_report(args.output_dir, report_path=args.out)
    if args.out:
        print(f"wrote report to {args.out}", file=out)
    else:
        print(text, file=out)
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "list": cmd_list,
    "info": cmd_info,
    "run": cmd_run,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "lint": cmd_lint,
    "report": cmd_report,
    "inspect": cmd_inspect,
    "query": cmd_query,
    "serve": cmd_serve,
    "bench-traffic": cmd_bench_traffic,
}


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args, out)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
