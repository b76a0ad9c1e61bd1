"""Parallel live analysis over a shard directory vs the serial path.

PR 4's :class:`~repro.core.LiveAnalyzer` followed a single appendable
``.rtrc`` store and extracted every part serially; with the part
scheduler, a shard directory grown by
:class:`~repro.trace.RtrcDirAppender` (one immutable file per
committed crawl round) can fan those extractions over spawned workers
that memmap-load the round files directly.  This benchmark measures
the late-follower / backfill case that parallelism exists for: a
fresh analyzer opens an already-grown directory and computes the
contacts workload over every committed round at once.

Runs two ways:

* ``pytest benchmarks/bench_live_shard_dir.py -s`` — the assertion
  harness (equivalence smoke at reduced scale; the perf floor lives
  in the CI benchmark step where the workload amortizes spawn);
* ``PYTHONPATH=src python benchmarks/bench_live_shard_dir.py`` — the
  full 1M-observation table.  With >= 2 usable cores the run
  **fails** (exit 1) unless the process backend beats the serial
  analyzer by :data:`PROCESS_OVER_SERIAL_FLOOR`; on a single core the
  floor is reported as skipped — there is no parallelism to measure
  (the same convention as ``bench_parallel_backends.py``).
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_parallel_backends import usable_cores, walk_trace
from repro.core import LiveAnalyzer, extract_contacts
from repro.trace import RtrcDirAppender, Trace

#: Full-run workload: 500 snapshots x 2000 users = 1M observations.
FULL_SNAPSHOTS, FULL_USERS = 500, 2000

#: Crawl rounds the stream is committed in (= shard files = parts).
ROUNDS = 8

#: Contact range (metres) — ~10 in-range neighbours per user.
RADIUS = 10.0

#: Second radius asked of the same analyzer after the first: on the
#: process backend it runs on the already-spawned pool, so its wall
#: time is the warm cost with worker cold start taken out.
WARM_RADIUS = 15.0

#: CI regression floor: process-backend speedup over the serial live
#: analyzer on the catch-up contacts workload, enforced when >= 2
#: cores are usable.  The run-length kernels made the serial baseline
#: ~4x faster than the old loop extractors, so the parallel win over
#: worker spawn is thinner than it was — the floor defends "the
#: process path still parallelizes", not the old headline ratio.
PROCESS_OVER_SERIAL_FLOOR = 1.2


def grow_shard_dir(trace: Trace, rounds: int, root: Path) -> Path:
    """Stream ``trace`` into ``root`` as ``rounds`` committed rounds."""
    cols = trace.columns
    edges = np.linspace(0, cols.snapshot_count, rounds + 1).astype(int)
    with RtrcDirAppender(root, trace.metadata) as appender:
        for lo, hi in zip(edges[:-1], edges[1:]):
            for index in range(int(lo), int(hi)):
                a, b = cols.snapshot_offsets[index], cols.snapshot_offsets[index + 1]
                appender.append_snapshot(
                    float(cols.times[index]), cols.names_of(index), cols.xyz[a:b]
                )
            appender.commit()
    return root


def measure(trace: Trace, root: Path) -> dict[str, float]:
    """Wall time of a late follower's contacts analysis per backend.

    ``<backend>_s`` is the first radius on a fresh analyzer (cold: on
    the process backend it includes spawning the workers);
    ``<backend>_warm_s`` is a second radius on the same analyzer.
    """
    results: dict[str, float] = {}
    expected = None
    for backend in ("serial", "process"):
        with LiveAnalyzer(root, backend=backend) as live:
            t0 = time.perf_counter()
            contacts = live.contacts(RADIUS)
            t1 = time.perf_counter()
            warm = live.contacts(WARM_RADIUS)
            results[f"{backend}_warm_s"] = time.perf_counter() - t1
            results[f"{backend}_s"] = t1 - t0
        if expected is None:
            expected = (contacts, warm)
            results["contacts"] = len(contacts)
        else:
            assert (contacts, warm) == expected, f"{backend} diverged from serial"
    results["process_over_serial"] = results["serial_s"] / results["process_s"]
    return results


# -- pytest harness (correctness smoke at reduced scale) -------------------


def test_backends_agree_on_shard_dir(tmp_path):
    trace = walk_trace(40, 150)  # 6k observations
    root = grow_shard_dir(trace, 4, tmp_path / "shards")
    row = measure(trace, root)
    assert row["contacts"] > 0, "degenerate workload: no contacts"


def test_follower_matches_oracle_across_rounds(tmp_path):
    trace = walk_trace(24, 80)
    root = grow_shard_dir(trace, 3, tmp_path / "shards")
    with LiveAnalyzer(root, backend="process") as live:
        assert live.part_count == 3
        assert live.contacts(RADIUS) == extract_contacts(trace, RADIUS)


# -- full table ------------------------------------------------------------


def main() -> int:
    cores = usable_cores()
    obs = FULL_SNAPSHOTS * FULL_USERS
    print(
        f"live shard-dir backends: catch-up contacts workload, {obs} "
        f"observations, r={RADIUS:g} m, {ROUNDS} committed rounds, "
        f"{cores} usable core(s)"
    )
    trace = walk_trace(FULL_SNAPSHOTS, FULL_USERS)
    with tempfile.TemporaryDirectory() as tmp:
        root = grow_shard_dir(trace, ROUNDS, Path(tmp) / "shards")
        row = measure(trace, root)
    print(f"{'backend':>10} {'cold':>9} {'warm':>9} {'vs serial':>10}")
    print(
        f"{'serial':>10} {row['serial_s']:>8.2f}s "
        f"{row['serial_warm_s']:>8.2f}s {'1.00x':>10}"
    )
    print(
        f"{'process':>10} {row['process_s']:>8.2f}s "
        f"{row['process_warm_s']:>8.2f}s {row['process_over_serial']:>9.2f}x"
    )
    print(
        f"{row['contacts']} contact intervals; process over serial: "
        f"{row['process_over_serial']:.2f}x (floor {PROCESS_OVER_SERIAL_FLOOR}x)"
    )
    if cores < 2:
        print("floor skipped: single usable core, nothing to parallelize")
        return 0
    if row["process_over_serial"] < PROCESS_OVER_SERIAL_FLOOR:
        print(
            f"REGRESSION: process backend only "
            f"{row['process_over_serial']:.2f}x the serial live analyzer "
            f"(floor {PROCESS_OVER_SERIAL_FLOOR}x)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
