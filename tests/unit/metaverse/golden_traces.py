"""Golden traces of the world engine: cases, digests and helpers.

``test_world_golden.py`` checks these; ``benchmarks/trend.py`` (whose
CI job has no pytest) times the paper-land cases and checks them too.

The digests below pin, bit for bit, the crawler traces a handful of
short worlds produce: snapshot times, coordinates, snapshot offsets
and the user name of every row.  They were recorded before the engine
gained its per-tick fast paths (clamping only moved avatars, counting
pauses down inline, handing the session process a constant boost
between event edges, caching path lengths).  Each fast path is exact,
so none of these traces may change; a failure here means a change to
the engine altered a draw, a draw order or the arithmetic.

Each case covers one path through the engine:

* the three paper lands in an afternoon window (Isle of View's event
  is on throughout, so its arrivals take the constant-boost path);
* Dance Island under a naive crawler, for the attraction path;
* Isle of View across the 10:00 event start and across the 14:00 end,
  with the edge inside a 1 s scheduling window, and with the 10:00
  start inside the one long window of the spin-up — the windows where
  the boost changes level;
* one world ticking at ``dt = 0.5``.

The digests were recorded with :data:`RECORDED_WITH`.  They also held
with numpy's AVX-512 and AVX2 dispatch switched off
(``NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"``),
so they do not hang on the CPU's SIMD path.  They have not been
checked under other Python or numpy versions: if a digest differs
only there, pin that environment rather than re-recording the digest.
"""

from __future__ import annotations

import hashlib

from repro.experiments.runner import ExperimentConfig
from repro.lands import apfel_land, dance_island, isle_of_view
from repro.monitors import Crawler
from repro.trace import Trace

PRESETS = {"apfel": apfel_land, "dance": dance_island, "iov": isle_of_view}

#: The afternoon window the paper-land cases share (event on at Isle of View).
GOLDEN_CONFIG = ExperimentConfig(duration=900.0, spinup=600.0, start_hour=11, seed=1000, every=18)

#: case -> (preset key, seed, dt, world start, spinup, window, mimicking crawler)
WORLD_CASES = {
    "dance-naive": ("dance", 1001, 1.0, 11.0 * 3600.0, 600.0, 900.0, False),
    # Half-second offsets put the event edges inside 1 s scheduling windows.
    "iov-event-start": ("iov", 1002, 1.0, 35100.5, 600.0, 900.0, True),
    "iov-event-end": ("iov", 1003, 1.0, 49500.5, 600.0, 900.0, True),
    # The spin-up is one scheduling window, with the event start inside it.
    "iov-spinup-across-start": ("iov", 1005, 1.0, 35100.0, 1200.0, 600.0, True),
    "apfel-half-second": ("apfel", 1004, 0.5, 11.0 * 3600.0, 300.0, 600.0, True),
}

#: Where :data:`GOLDEN` was recorded.
RECORDED_WITH = "CPython 3.11.7, numpy 2.4.6, x86_64 Linux (glibc 2.36)"

GOLDEN = {
    "apfel": "78ff4aa28ab9012bfd2a66170d9eabe21b428139b247bad932430f59be68f8b3",
    "dance": "d69930126c5752eb651d85d8b524f5332465ca942b9f368f65221bc5ad689431",
    "iov": "b7d399ee2ea90267e19b239bbe76bfc92f9a63c05b1625fc326e28efe9906fb0",
    "dance-naive": "f447cb9ab561cd88941da5a685ac08dca7dcf7e2105291227a5f56da4c13e1a6",
    "iov-event-start": "ab6a6f462735d0748caffca3373b8ae33d5e3ec423646601e6661c4ac70122c2",
    "iov-event-end": "6f37a99f6803b0ad66deeb7c7aec3a45825c110d75a6fe7fe4a17a638facf50d",
    "iov-spinup-across-start": "e41d9ebdc7c52ad9bfbb3d91e8b7207dcd40c69ddb32fd6d198979f4a7929a5a",
    "apfel-half-second": "8b32cab49ee36a1b0109b8f2dd0760c26b87f1133c87979cee0bfb937835c47c",
}


def trace_digest(trace: Trace) -> str:
    """sha256 of a trace's times, xyz, snapshot offsets and row names."""
    columns = trace.columns
    names = columns.users.names
    digest = hashlib.sha256()
    digest.update(columns.times.tobytes())
    digest.update(columns.xyz.tobytes())
    digest.update(columns.snapshot_offsets.tobytes())
    digest.update("\n".join(names[uid] for uid in columns.user_ids.tolist()).encode())
    return digest.hexdigest()


def mismatch_message(case: str) -> str:
    """Assertion message for output that left its golden digest."""
    return (
        f"{case}: output differs from its golden digest, recorded with "
        f"{RECORDED_WITH}; under another Python or numpy the environment, "
        "not the engine, may be what changed"
    )


def world_case_trace(case: str) -> Trace:
    """Simulate one of :data:`WORLD_CASES` and return its crawler trace."""
    land, seed, dt, start, spinup, window, mimic = WORLD_CASES[case]
    world = PRESETS[land]().build(seed=seed, dt=dt, start_time=start)
    world.run_until(start + spinup)
    return Crawler(tau=10.0, mimic=mimic).monitor(world, window)
