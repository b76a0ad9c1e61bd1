"""Benchmark-trend tier: cheap, machine-readable, regression-gated.

Runs a reduced-scale slice of the benchmark suite on every CI push,
writes one ``BENCH_<name>.json`` per benchmark (wall times plus the
speedup ratios the repo's performance claims rest on), and fails when
a ratio drops past a configurable floor below the committed baseline
(``benchmarks/baselines.json``).  Ratios — not absolute times — are
gated, so the gate is robust across runner generations; the floor
absorbs scheduler noise on shared runners.

Usage::

    PYTHONPATH=src python benchmarks/trend.py                # run + gate
    PYTHONPATH=src python benchmarks/trend.py --out-dir out  # artifacts
    PYTHONPATH=src python benchmarks/trend.py --floor-ratio 0.4
    PYTHONPATH=src python benchmarks/trend.py --only append_ingest
    PYTHONPATH=src python benchmarks/trend.py --list

``--floor-ratio`` (or the ``BENCH_FLOOR_RATIO`` environment variable)
scales every baseline: a measured ratio below ``baseline *
floor_ratio`` is a regression.  Benchmarks that need parallelism
auto-skip below 2 usable cores and record the skip in their JSON.
The update workflow for ``baselines.json`` is documented in
``benchmarks/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BASELINES_PATH = Path(__file__).with_name("baselines.json")


# -- the cheap benchmark tier ----------------------------------------------


def bench_contacts_grid() -> dict:
    """Grid-indexed contact engine vs the dense O(n^2) reference."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from repro.core.contacts import BLUETOOTH_RANGE, extract_contacts
    from repro.trace import random_walk_trace
    from tests.oracles import extract_contacts_reference

    trace = random_walk_trace(200, 40, np.random.default_rng(200))
    extract_contacts(trace, BLUETOOTH_RANGE)  # warm allocator/caches
    t0 = time.perf_counter()
    grid = extract_contacts(trace, BLUETOOTH_RANGE)
    t_grid = time.perf_counter() - t0
    t0 = time.perf_counter()
    dense = extract_contacts_reference(trace, BLUETOOTH_RANGE)
    t_dense = time.perf_counter() - t0
    assert grid == dense, "grid and dense extractors disagree"
    return {
        "metrics": {"grid_over_dense": t_dense / t_grid},
        "timings": {"grid_s": t_grid, "dense_s": t_dense},
    }


def bench_extraction_kernels() -> dict:
    """Vectorized run-length kernels vs the per-snapshot loop extractors."""
    from bench_extraction_kernels import measure
    from bench_parallel_backends import walk_trace

    row = measure(walk_trace(120, 300), sweep=(5.0, 10.0, 20.0, 40.0))
    return {
        "metrics": {
            "kernel_over_loop": row["kernel_over_loop"],
            "sweep_kernel_over_loop": row["sweep_kernel_over_loop"],
        },
        "timings": {
            "loop_contacts_s": row["loop_contacts_s"],
            "kernel_contacts_s": row["kernel_contacts_s"],
            "loop_sessions_s": row["loop_sessions_s"],
            "kernel_sessions_s": row["kernel_sessions_s"],
            "loop_sweep_s": row["loop_sweep_s"],
            "kernel_sweep_s": row["kernel_sweep_s"],
        },
    }


def bench_multirange() -> dict:
    """Batched radius sweep vs N sequential extractions (hot-spot)."""
    from bench_multirange import WORKLOADS, _measure

    row = _measure(dict(WORKLOADS[0][1]))
    return {
        "metrics": {"batched_over_sequential": row["speedup"]},
        "timings": {
            "sequential_s": row["sequential_s"],
            "multirange_s": row["multirange_s"],
        },
    }


def bench_append_ingest() -> dict:
    """Streaming appends vs per-round rewrites; live vs full analysis."""
    from bench_append_ingest import _trace, measure_analysis, measure_append

    with tempfile.TemporaryDirectory() as tmp:
        append = measure_append(_trace(240, 400), 24, Path(tmp))
    with tempfile.TemporaryDirectory() as tmp:
        analysis = measure_analysis(_trace(120, 300), 8, Path(tmp))
    return {
        "metrics": {
            "append_over_rewrite": append["speedup"],
            "live_over_full": analysis["speedup"],
        },
        "timings": {
            "append_s": append["append_s"],
            "rewrite_s": append["rewrite_s"],
            "live_s": analysis["live_s"],
            "full_s": analysis["full_s"],
        },
    }


def bench_streaming_compaction() -> dict:
    """Bounded-memory streaming compaction vs the materializing oracle."""
    from bench_streaming_compaction import _trace, measure

    with tempfile.TemporaryDirectory() as tmp:
        row = measure(_trace(1600, 50), Path(tmp))
    return {
        "metrics": {"materialized_over_streaming_peak": row["peak_ratio"]},
        "timings": {
            "streaming_s": row["streaming_s"],
            "materialized_s": row["materialized_s"],
            "streaming_peak_b": row["streaming_peak_b"],
            "materialized_peak_b": row["materialized_peak_b"],
        },
    }


def bench_live_shard_dir() -> dict:
    """Parallel live shard-dir catch-up vs the serial live analyzer."""
    from bench_live_shard_dir import grow_shard_dir, measure
    from bench_parallel_backends import usable_cores, walk_trace

    cores = usable_cores()
    if cores < 2:
        return {"skipped": True, "reason": f"{cores} usable core(s)"}
    trace = walk_trace(240, 800)  # 192k observations
    with tempfile.TemporaryDirectory() as tmp:
        root = grow_shard_dir(trace, 8, Path(tmp) / "shards")
        row = measure(trace, root)
    return {
        "metrics": {"process_over_serial": row["process_over_serial"]},
        "timings": {
            "serial_s": row["serial_s"],
            "process_s": row["process_s"],
            "process_warm_s": row["process_warm_s"],
        },
    }


def bench_network_backend() -> dict:
    """Distributed loopback-worker contacts vs the serial extraction."""
    from bench_network_backend import measure
    from bench_parallel_backends import usable_cores, walk_trace

    cores = usable_cores()
    if cores < 2:
        return {"skipped": True, "reason": f"{cores} usable core(s)"}
    trace = walk_trace(240, 800)  # 192k observations
    row = measure(trace)
    return {
        "metrics": {"network_over_serial": row["network_over_serial"]},
        "timings": {
            "serial_s": row["serial_s"],
            "network_s": row["network_s"],
            "workers": row["workers"],
        },
    }


def bench_load_generator() -> dict:
    """Metaverse hotspot generator vs the random-walk generator.

    Both builders are fully vectorized; the hotspot generator adds the
    Zipf venue assignment, hop re-draws and the OU pull per step.  The
    gated ratio defends that this structure stays a small constant
    factor over the null random walk at equal observation counts — if
    it collapses, the load generator can no longer stand in for
    million-avatar workloads.
    """
    from repro.trace import metaverse_trace, random_walk_trace

    users, steps = 2000, 120  # 240k observations each
    metaverse_trace(200, 20, np.random.default_rng(0))  # warm imports
    t0 = time.perf_counter()
    random_walk_trace(users, steps, np.random.default_rng(7))
    t_walk = time.perf_counter() - t0
    t0 = time.perf_counter()
    metaverse_trace(users, steps, np.random.default_rng(7), size=1024.0)
    t_meta = time.perf_counter() - t0
    obs = users * steps
    return {
        "metrics": {"metaverse_over_walk": t_walk / t_meta},
        "timings": {
            "walk_s": t_walk,
            "metaverse_s": t_meta,
            "metaverse_obs_per_s": obs / t_meta,
        },
    }


def bench_query_service() -> dict:
    """Cached query-service throughput vs uncached response recompute."""
    from bench_parallel_backends import walk_trace
    from bench_query_service import build_store, measure

    trace = walk_trace(60, 300)  # 18k observations
    with tempfile.TemporaryDirectory() as tmp:
        root = build_store(trace, 4, Path(tmp) / "store")
        row = measure(root, clients=3, queries_per_client=40)
    return {
        "metrics": {"cached_over_uncached": row["cached_over_uncached"]},
        "timings": {
            "cached_s": row["cached_s"],
            "uncached_s": row["uncached_s"],
            "with_append_s": row["with_append_s"],
        },
    }


def bench_world_engine() -> dict:
    """World-engine speed per paper land, checked against the golden traces.

    Ungated: simulate seconds and observations per second are absolute
    numbers, so they are recorded without a baseline or floor.  Each
    land runs the golden-trace window of
    ``tests/unit/metaverse/golden_traces.py`` and must reproduce its
    pinned digest, so a faster engine that changed a trace fails here
    instead of reporting a speedup.
    """
    import statistics

    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
    from repro.experiments.runner import simulate_preset
    from tests.unit.metaverse.golden_traces import (
        GOLDEN,
        GOLDEN_CONFIG,
        PRESETS,
        mismatch_message,
        trace_digest,
    )

    timings: dict[str, float] = {}
    for land, preset in PRESETS.items():
        seconds = []
        for _ in range(3):
            t0 = time.perf_counter()
            trace = simulate_preset(preset(), GOLDEN_CONFIG)
            seconds.append(time.perf_counter() - t0)
            assert trace_digest(trace) == GOLDEN[land], mismatch_message(land)
        simulate_s = statistics.median(seconds)
        timings[f"{land}_simulate_s"] = simulate_s
        timings[f"{land}_obs_per_s"] = trace.columns.observation_count / simulate_s
    return {"metrics": {}, "timings": timings}


BENCHES = {
    "contacts_grid": bench_contacts_grid,
    "extraction_kernels": bench_extraction_kernels,
    "multirange": bench_multirange,
    "append_ingest": bench_append_ingest,
    "streaming_compaction": bench_streaming_compaction,
    "live_shard_dir": bench_live_shard_dir,
    "network_backend": bench_network_backend,
    "query_service": bench_query_service,
    "load_generator": bench_load_generator,
    "world_engine": bench_world_engine,
}


# -- the gate ---------------------------------------------------------------


def run_trend(
    out_dir: Path,
    floor_ratio: float,
    only: list[str] | None = None,
) -> int:
    """Run the tier, write ``BENCH_*.json``, gate against baselines."""
    baselines = json.loads(BASELINES_PATH.read_text(encoding="utf-8"))
    baseline_metrics: dict[str, float] = baselines["metrics"]
    out_dir.mkdir(parents=True, exist_ok=True)
    cores = os.cpu_count() or 1
    failures: list[str] = []
    for name, bench in BENCHES.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        result = bench()
        wall = time.perf_counter() - t0
        record = {
            "name": name,
            "cores": cores,
            "wall_s": wall,
            "skipped": bool(result.get("skipped", False)),
            "reason": result.get("reason"),
            "metrics": result.get("metrics", {}),
            "timings": result.get("timings", {}),
            "floor_ratio": floor_ratio,
            "baselines": {},
        }
        if record["skipped"]:
            print(f"[trend] {name}: SKIPPED ({record['reason']})")
        for metric, value in record["metrics"].items():
            key = f"{name}.{metric}"
            baseline = baseline_metrics.get(key)
            record["baselines"][metric] = baseline
            if baseline is None:
                print(f"[trend] {key} = {value:.2f}x (no baseline, not gated)")
                continue
            floor = baseline * floor_ratio
            status = "ok" if value >= floor else "REGRESSION"
            print(
                f"[trend] {key} = {value:.2f}x "
                f"(baseline {baseline:.2f}x, floor {floor:.2f}x) {status}"
            )
            if value < floor:
                failures.append(
                    f"{key}: {value:.2f}x under floor {floor:.2f}x "
                    f"(baseline {baseline:.2f}x * ratio {floor_ratio})"
                )
        path = out_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
        print(f"[trend] wrote {path}")
    if failures:
        print("\nbenchmark-trend regressions:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default=".",
                        help="where BENCH_<name>.json artifacts go")
    parser.add_argument("--floor-ratio", type=float,
                        default=float(os.environ.get("BENCH_FLOOR_RATIO", 0.5)),
                        help="fail when a metric drops below baseline * "
                             "this ratio (default 0.5, or BENCH_FLOOR_RATIO)")
    parser.add_argument("--only", action="append",
                        help="run only this benchmark (repeatable)")
    parser.add_argument("--list", action="store_true",
                        help="list benchmark names and exit")
    args = parser.parse_args(argv)
    if args.list:
        for name in BENCHES:
            print(name)
        return 0
    return run_trend(Path(args.out_dir), args.floor_ratio, args.only)


if __name__ == "__main__":
    sys.exit(main())
