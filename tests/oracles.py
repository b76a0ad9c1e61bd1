"""Slow, obviously-correct contact extractors the kernels are pinned to.

These are the extractors the package shipped before the vectorized
run-length kernels (``repro.core.kernels``) replaced them:

* :func:`extract_contacts_loop` — the per-snapshot state machine over
  packed integer id pairs;
* :func:`extract_contacts_multirange_loop` — the batched sweep that
  builds the cell list once at the largest radius and masks per radius;
* :func:`extract_contacts_reference` — the dense O(n²) distance matrix
  over string pairs;
* :func:`extract_sessions_loop` — the per-run session builder that
  boxes every visit as it goes.

The equivalence suites assert the kernels equal them bit for bit, and
the benchmarks time the kernels against them.  This is a plain module
that imports without pytest, so scripts under ``benchmarks/`` can load
it after putting the repository root on ``sys.path``.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.contacts import ContactInterval, snapshot_id_pairs
from repro.geometry.grid import planar_neighbour_pairs_with_distances
from repro.trace import Trace, UserSession


def extract_contacts_loop(trace: Trace, r: float) -> list[ContactInterval]:
    """The original per-snapshot state machine, kept as oracle/baseline.

    Runs in one pass over the columnar snapshots, tracking open
    contacts in a dictionary keyed by packed integer id pairs.  The
    run-length kernel (:func:`repro.core.extract_contact_set`) is
    pinned bit-for-bit against this loop; benchmarks report the
    kernel/loop ratio.
    """
    if r <= 0:
        raise ValueError(f"communication range must be positive, got {r}")
    tau = trace.metadata.tau
    cols = trace.columns
    names = cols.users.names
    shift = max(len(names), 1)
    open_contacts: dict[int, float] = {}
    last_seen: dict[int, float] = {}
    closed: list[tuple[int, float, float, bool]] = []

    for index in range(cols.snapshot_count):
        user_ids, xyz = cols.slice_of(index)
        pairs = snapshot_id_pairs(user_ids, xyz, r)
        current = set((pairs[:, 0] * shift + pairs[:, 1]).tolist())
        now = float(cols.times[index])
        # Close contacts that did not survive into this snapshot.
        for key in list(open_contacts):
            if key not in current:
                start = open_contacts.pop(key)
                closed.append((key, start, last_seen.pop(key) + tau, False))
        # Open new contacts / refresh ongoing ones.
        for key in current:
            if key not in open_contacts:
                open_contacts[key] = now
            last_seen[key] = now

    # Whatever is still open is censored by the end of the measurement.
    for key, start in open_contacts.items():
        closed.append((key, start, last_seen[key], True))

    raw = []
    for key, start, end, censored in closed:
        name_a = names[key // shift]
        name_b = names[key % shift]
        if name_b < name_a:
            name_a, name_b = name_b, name_a
        raw.append((start, name_a, name_b, end, censored))
    # Tuple sort == the (start, pair) order; ties are impossible, so
    # later fields never compare and the key stays C-level.
    raw.sort()
    return [
        ContactInterval(user_a, user_b, start, end, censored)
        for start, user_a, user_b, end, censored in raw
    ]


def extract_contacts_multirange_loop(
    trace: Trace,
    ranges: Iterable[float],
) -> dict[float, list[ContactInterval]]:
    """The original batched sweep loop, kept as oracle/baseline.

    Builds the cell list once per snapshot at the *largest* requested
    radius, keeps the candidate distances, and selects each smaller
    radius by masking.  Per radius the interval state advances by
    diffing consecutive sorted pair-key sets in Python — the per-radius
    kernel passes of :func:`repro.core.extract_contact_sets_multirange` replace
    exactly this loop; benchmarks report the ratio.
    """
    radii = sorted({float(r) for r in ranges})
    for r in radii:
        if r <= 0:
            raise ValueError(f"communication range must be positive, got {r}")
    if not radii:
        return {}
    r_max = radii[-1]
    tau = trace.metadata.tau
    cols = trace.columns
    names = cols.users.names
    shift = max(len(names), 1)
    empty_keys = np.empty(0, dtype=np.int64)

    open_start: list[dict[int, float]] = [{} for _ in radii]
    prev_keys: list[np.ndarray] = [empty_keys for _ in radii]
    closed: list[list[tuple[int, float, float, bool]]] = [[] for _ in radii]
    prev_time = 0.0

    for index in range(cols.snapshot_count):
        user_ids, xyz = cols.slice_of(index)
        now = float(cols.times[index])
        if len(user_ids) < 2:
            keys_sorted = empty_keys
            dist_sorted = np.empty(0, dtype=np.float64)
        else:
            local, dist = planar_neighbour_pairs_with_distances(xyz[:, :2], r_max)
            first = user_ids[local[:, 0]]
            second = user_ids[local[:, 1]]
            keys = np.minimum(first, second) * shift + np.maximum(first, second)
            order = np.argsort(keys)
            keys_sorted = keys[order]
            dist_sorted = dist[order]
        for k, r in enumerate(radii):
            current = keys_sorted if r == r_max else keys_sorted[dist_sorted < r]
            ended = np.setdiff1d(prev_keys[k], current, assume_unique=True)
            starts = open_start[k]
            for key in ended.tolist():
                closed[k].append((key, starts.pop(key), prev_time + tau, False))
            begun = np.setdiff1d(current, prev_keys[k], assume_unique=True)
            for key in begun.tolist():
                starts[key] = now
            prev_keys[k] = current
        prev_time = now

    # Pairs still in range at the last snapshot are censored there.
    for k in range(len(radii)):
        starts = open_start[k]
        for key in prev_keys[k].tolist():
            closed[k].append((key, starts[key], prev_time, True))

    result: dict[float, list[ContactInterval]] = {}
    for k, r in enumerate(radii):
        raw = []
        for key, start, end, censored in closed[k]:
            name_a = names[key // shift]
            name_b = names[key % shift]
            if name_b < name_a:
                name_a, name_b = name_b, name_a
            raw.append((start, name_a, name_b, end, censored))
        # Tuple sort == the (start, pair) order extract_contacts uses; a
        # (start, pair) tie is impossible, so later fields never
        # compare.  Sorting raw tuples before object construction keeps
        # the sort key C-level.
        raw.sort()
        result[r] = [
            ContactInterval(user_a, user_b, start, end, censored)
            for start, user_a, user_b, end, censored in raw
        ]
    return result


def extract_contacts_reference(trace: Trace, r: float) -> list[ContactInterval]:
    """Reference O(n²) extractor kept for equivalence testing.

    This is the original dense-distance-matrix implementation working
    on string pairs; :func:`repro.core.extract_contacts` must produce
    the exact same interval list on any trace.
    """
    if r <= 0:
        raise ValueError(f"communication range must be positive, got {r}")
    tau = trace.metadata.tau
    open_contacts: dict[tuple[str, str], float] = {}
    last_seen: dict[tuple[str, str], float] = {}
    contacts: list[ContactInterval] = []

    for snapshot in trace:
        users, coords = snapshot.as_arrays()
        current: set[tuple[str, str]] = set()
        n = len(users)
        if n >= 2:
            plane = coords[:, :2]
            diff = plane[:, None, :] - plane[None, :, :]
            dist = np.hypot(diff[..., 0], diff[..., 1])
            close = np.argwhere(
                (dist < r) & np.triu(np.ones((n, n), dtype=bool), k=1)
            )
            for i, j in close:
                a, b = users[int(i)], users[int(j)]
                current.add((a, b) if a <= b else (b, a))
        now = snapshot.time
        for pair in list(open_contacts):
            if pair not in current:
                start = open_contacts.pop(pair)
                contacts.append(
                    ContactInterval(pair[0], pair[1], start, last_seen[pair] + tau)
                )
                del last_seen[pair]
        for pair in current:
            if pair not in open_contacts:
                open_contacts[pair] = now
            last_seen[pair] = now

    for pair, start in open_contacts.items():
        contacts.append(
            ContactInterval(pair[0], pair[1], start, last_seen[pair], censored=True)
        )
    contacts.sort(key=lambda c: (c.start, c.pair))
    return contacts


def extract_sessions_loop(
    trace: Trace,
    gap_threshold: float | None = None,
) -> list[UserSession]:
    """The original per-run object builder, kept as oracle/baseline.

    Same grouping argsort as :func:`repro.trace.extract_session_set`,
    but each run is boxed into a :class:`UserSession` immediately and
    the final ordering is a Python object sort — the benchmark
    baseline the columnar path is measured against.
    """
    if gap_threshold is None:
        gap_threshold = 2.0 * trace.metadata.tau
    if gap_threshold <= 0:
        raise ValueError(f"gap threshold must be positive, got {gap_threshold}")

    cols = trace.columns
    if cols.observation_count == 0:
        return []
    order = np.argsort(cols.user_ids, kind="stable")
    uids = cols.user_ids[order]
    times = cols.row_times()[order]
    xyz = cols.xyz[order]

    breaks = np.empty(len(uids), dtype=bool)
    breaks[0] = True
    breaks[1:] = (uids[1:] != uids[:-1]) | (np.diff(times) > gap_threshold)
    starts = np.flatnonzero(breaks)
    ends = np.append(starts[1:], len(uids))

    names = cols.users.names
    sessions = [
        UserSession._from_arrays(names[uids[lo]], times[lo:hi], xyz[lo:hi])
        for lo, hi in zip(starts, ends)
    ]
    sessions.sort(key=lambda s: (s.login_time, s.user))
    return sessions
