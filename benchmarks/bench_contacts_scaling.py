"""Contact-extraction scaling: grid-indexed engine vs dense reference.

Measures wall time of :func:`repro.core.contacts.extract_contacts`
(uniform-grid cell list over columnar arrays) against the dense O(n²)
reference extractor in ``tests/oracles.py`` (distance matrix over
per-snapshot dicts) on random-walk traces of growing avatar count.

Runs two ways:

* ``pytest benchmarks/bench_contacts_scaling.py --benchmark-only -s``
  for the pytest-benchmark harness;
* ``PYTHONPATH=src python benchmarks/bench_contacts_scaling.py`` for a
  plain table (the numbers recorded in CHANGES.md).

The acceptance bar for the columnar refactor is a ≥5x speedup at
n = 1000 under Bluetooth range; equivalence of the two extractors is
asserted on every run at the smallest size.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.contacts import BLUETOOTH_RANGE, extract_contacts
from repro.trace import random_walk_trace

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.oracles import extract_contacts_reference

#: Avatar counts for the scaling sweep.
SIZES = (50, 200, 1000)

#: Snapshots per synthetic trace (kept modest: cost is per snapshot).
STEPS = 40


def _trace(n_users: int):
    return random_walk_trace(n_users, STEPS, np.random.default_rng(n_users))


@pytest.fixture(scope="module", params=SIZES)
def scaling_trace(request):
    return request.param, _trace(request.param)


def test_grid_extractor_scaling(benchmark, scaling_trace):
    n, trace = scaling_trace
    result = benchmark.pedantic(
        extract_contacts, args=(trace, BLUETOOTH_RANGE), rounds=3, iterations=1
    )
    assert isinstance(result, list)


def test_reference_extractor_scaling(benchmark, scaling_trace):
    n, trace = scaling_trace
    result = benchmark.pedantic(
        extract_contacts_reference,
        args=(trace, BLUETOOTH_RANGE),
        rounds=1 if n >= 1000 else 3,
        iterations=1,
    )
    assert isinstance(result, list)


def test_extractors_agree_at_bench_scale():
    trace = _trace(SIZES[0])
    assert extract_contacts(trace, BLUETOOTH_RANGE) == extract_contacts_reference(
        trace, BLUETOOTH_RANGE
    )


def main() -> None:
    print(f"contact extraction, r={BLUETOOTH_RANGE} m, {STEPS} snapshots")
    print(f"{'n':>6} {'grid (s)':>10} {'dense (s)':>10} {'speedup':>8}")
    for n in SIZES:
        trace = _trace(n)
        # Warm both paths once (array caches, allocator).
        extract_contacts(trace, BLUETOOTH_RANGE)
        t0 = time.perf_counter()
        fast = extract_contacts(trace, BLUETOOTH_RANGE)
        t_grid = time.perf_counter() - t0
        t0 = time.perf_counter()
        slow = extract_contacts_reference(trace, BLUETOOTH_RANGE)
        t_dense = time.perf_counter() - t0
        assert fast == slow, f"extractors disagree at n={n}"
        print(f"{n:>6} {t_grid:>10.4f} {t_dense:>10.4f} {t_dense / t_grid:>7.1f}x")


if __name__ == "__main__":
    main()
