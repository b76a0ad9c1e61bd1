"""Run-length extraction kernels vs the per-snapshot loop extractors.

Times the three serial extraction workloads of a 1M-observation
random-walk trace both ways — the vectorized run-length kernels
(:func:`repro.core.extract_contact_set`,
:func:`repro.trace.extract_session_set`,
:func:`repro.core.extract_contact_sets_multirange`) against the
original Python state machines, kept in ``tests/oracles.py`` as
``extract_contacts_loop``, ``extract_sessions_loop`` and
``extract_contacts_multirange_loop``.  Every kernel
result is asserted bit-for-bit equal to its loop oracle before any
ratio is reported.

Runs two ways:

* ``pytest benchmarks/bench_extraction_kernels.py -s`` for the
  assertion harness (correctness smoke at reduced scale);
* ``PYTHONPATH=src python benchmarks/bench_extraction_kernels.py``
  for the full 1M-observation table.  The run **fails** (exit 1)
  unless the kernels beat the loops by :data:`KERNEL_OVER_LOOP_FLOOR`
  on the combined contacts+sessions workload.

The CI benchmark-trend tier (``benchmarks/trend.py``) runs the same
measurement at reduced scale and gates the ratios against
``benchmarks/baselines.json``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from bench_parallel_backends import walk_trace

from repro.core import extract_contact_set, extract_contact_sets_multirange
from repro.trace import Trace, extract_session_set

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.oracles import (
    extract_contacts_loop,
    extract_contacts_multirange_loop,
    extract_sessions_loop,
)

#: Full-run workload: 500 snapshots x 2000 users = 1M observations.
FULL_SNAPSHOTS, FULL_USERS = 500, 2000

#: Contact range (metres) for the single-radius workload.
RADIUS = 10.0

#: The multirange sweep — five radii sharing one event-table build.
#: Capped at r=20 m: on this 2000-user walk the in-range pair count
#: grows with r^2, and r=80 would mean ~300M pair events — a memory
#: benchmark, not an extraction one.
SWEEP = (2.5, 5.0, 7.5, 10.0, 20.0)

#: Full-run floor: the kernels must beat the loop extractors by this
#: factor on the combined serial contacts+sessions workload.
KERNEL_OVER_LOOP_FLOOR = 3.0


def _timed(fn) -> tuple[float, object]:
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def measure(trace: Trace, sweep: tuple[float, ...] = SWEEP) -> dict[str, float]:
    """Kernel vs loop wall times; asserts bit-for-bit equivalence."""
    t_loop_c, loop_contacts = _timed(lambda: extract_contacts_loop(trace, RADIUS))
    t_kern_c, kernel_contacts = _timed(lambda: extract_contact_set(trace, RADIUS))
    assert kernel_contacts == loop_contacts, "contact kernel diverged from loop"

    t_loop_s, loop_sessions = _timed(lambda: extract_sessions_loop(trace))
    t_kern_s, kernel_sessions = _timed(lambda: extract_session_set(trace))
    assert kernel_sessions == loop_sessions, "session kernel diverged from loop"

    t_loop_m, loop_sweep = _timed(
        lambda: extract_contacts_multirange_loop(trace, sweep)
    )
    t_kern_m, kernel_sweep = _timed(
        lambda: extract_contact_sets_multirange(trace, sweep)
    )
    for r in sweep:
        assert kernel_sweep[r] == loop_sweep[r], f"sweep diverged at r={r:g}"

    return {
        "loop_contacts_s": t_loop_c,
        "kernel_contacts_s": t_kern_c,
        "loop_sessions_s": t_loop_s,
        "kernel_sessions_s": t_kern_s,
        "loop_sweep_s": t_loop_m,
        "kernel_sweep_s": t_kern_m,
        "contacts": len(kernel_contacts),
        "sessions": len(kernel_sessions),
        "contacts_kernel_over_loop": t_loop_c / t_kern_c,
        "sessions_kernel_over_loop": t_loop_s / t_kern_s,
        "sweep_kernel_over_loop": t_loop_m / t_kern_m,
        "kernel_over_loop": (t_loop_c + t_loop_s) / (t_kern_c + t_kern_s),
    }


# -- pytest harness (correctness smoke at reduced scale) -------------------


def test_kernels_match_loops_on_walk_trace():
    row = measure(walk_trace(40, 150), sweep=(5.0, 10.0, 20.0))
    assert row["contacts"] > 0, "degenerate workload: no contacts"
    assert row["sessions"] > 0, "degenerate workload: no sessions"


# -- full table ------------------------------------------------------------


def main() -> int:
    obs = FULL_SNAPSHOTS * FULL_USERS
    print(
        f"extraction kernels: {obs} observations, r={RADIUS:g} m, "
        f"sweep={len(SWEEP)} radii"
    )
    trace = walk_trace(FULL_SNAPSHOTS, FULL_USERS)
    row = measure(trace)
    print(f"{'workload':>22} {'loop':>9} {'kernel':>9} {'speedup':>9}")
    for label, loop_key, kern_key, ratio_key in (
        ("contacts", "loop_contacts_s", "kernel_contacts_s",
         "contacts_kernel_over_loop"),
        ("sessions", "loop_sessions_s", "kernel_sessions_s",
         "sessions_kernel_over_loop"),
        (f"{len(SWEEP)}-radius sweep", "loop_sweep_s", "kernel_sweep_s",
         "sweep_kernel_over_loop"),
    ):
        print(
            f"{label:>22} {row[loop_key]:>8.2f}s {row[kern_key]:>8.2f}s "
            f"{row[ratio_key]:>8.2f}x"
        )
    print(
        f"{row['contacts']} contact intervals, {row['sessions']} sessions; "
        f"combined contacts+sessions: {row['kernel_over_loop']:.2f}x "
        f"(floor {KERNEL_OVER_LOOP_FLOOR:.1f}x)"
    )
    if row["kernel_over_loop"] < KERNEL_OVER_LOOP_FLOOR:
        print(
            f"FAIL: kernels only {row['kernel_over_loop']:.2f}x over loops, "
            f"floor is {KERNEL_OVER_LOOP_FLOOR:.1f}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
