"""Contact statistics: CT, ICT and FT (§3.1 of the paper).

Definitions, following Chaintreau et al. and the paper:

* **Contact time (CT)** — the interval during which a pair of users
  stays within communication range ``r``.
* **Inter-contact time (ICT)** — for a pair with successive contact
  intervals ``[t^k_s, t^k_e]``, the gap ``t^{k+1}_s - t^k_e``.
* **First contact time (FT)** — per user: the waiting time from her
  first appearance until she is first within range of *any* other
  user.

Sampling convention.  The monitor observes the world only every τ
seconds, so contacts are defined on the sampled sequence: a pair in
range at consecutive snapshots belongs to one contact interval.  A
contact observed from snapshot ``t_i`` through ``t_j`` is assigned
duration ``t_j - t_i + τ`` — the pair was already in range when first
seen and remained so until somewhere inside the next period; this also
gives single-snapshot contacts the natural resolution-limited duration
τ (the paper's CT axes indeed start at τ = 10 s).  Contacts still open
when the trace ends are *censored*: they are closed at the final
snapshot and flagged, and excluded from duration statistics by
default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

# Both pair searches are bound here so profilers that wrap this
# module's names (perfbench/spans.py) find them.
from repro.geometry.grid import (
    planar_neighbour_pairs,
    planar_neighbour_pairs_with_distances,  # noqa: F401
)
from repro.core.kernels import (
    ContactEventTable,
    ContactSet,
    build_contact_events,
    contact_set_from_events,
    multirange_contact_sets,
)
from repro.trace import Trace

#: Bluetooth-class communication range used throughout the paper, meters.
BLUETOOTH_RANGE = 10.0

#: WiFi-class (802.11a) communication range used throughout the paper, meters.
WIFI_RANGE = 80.0


@dataclass(frozen=True)
class ContactInterval:
    """One contact between a pair of users.

    ``start``/``end`` are in trace time; ``end`` includes the +τ
    closure for completed contacts.  ``censored`` marks contacts cut
    short by the end of the measurement.
    """

    user_a: str
    user_b: str
    start: float
    end: float
    censored: bool = False

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"contact ends ({self.end}) before it starts ({self.start})")
        if self.user_a == self.user_b:
            raise ValueError(f"self-contact for user {self.user_a!r}")

    @property
    def pair(self) -> tuple[str, str]:
        """The user pair, in canonical (sorted) order."""
        return (
            (self.user_a, self.user_b)
            if self.user_a <= self.user_b
            else (self.user_b, self.user_a)
        )

    @property
    def duration(self) -> float:
        """Length of the contact in seconds."""
        return self.end - self.start


def snapshot_id_pairs(user_ids: np.ndarray, xyz: np.ndarray, r: float) -> np.ndarray:
    """Interned-id pairs within range ``r`` in one snapshot.

    ``user_ids`` and ``xyz`` are one columnar snapshot slice; the
    result is an ``(m, 2)`` int64 array of global user ids with
    ``pair[:, 0] < pair[:, 1]`` numerically.  Neighbour search is the
    uniform-grid cell list, so cost scales with local density rather
    than the snapshot's square.
    """
    if len(user_ids) < 2:
        return np.empty((0, 2), dtype=np.int64)
    local = planar_neighbour_pairs(xyz[:, :2], r)
    if not len(local):
        return local
    first = user_ids[local[:, 0]]
    second = user_ids[local[:, 1]]
    return np.stack(
        (np.minimum(first, second), np.maximum(first, second)), axis=1
    )


def iter_snapshot_pairs(
    trace: Trace, r: float
) -> Iterator[tuple[float, np.ndarray, np.ndarray]]:
    """Per snapshot: ``(time, user_ids, id_pairs)`` straight off the columns.

    ``user_ids`` is the snapshot's presence slice and ``id_pairs`` the
    in-range pairs from :func:`snapshot_id_pairs`.  This is the array
    feed the DTN replay and graph layers consume; names live in
    ``trace.columns.users``.
    """
    if r <= 0:
        raise ValueError(f"communication range must be positive, got {r}")
    cols = trace.columns
    for index in range(cols.snapshot_count):
        user_ids, xyz = cols.slice_of(index)
        yield float(cols.times[index]), user_ids, snapshot_id_pairs(user_ids, xyz, r)


def extract_contact_set(trace: Trace, r: float) -> ContactSet:
    """Contact intervals as a columnar :class:`ContactSet`.

    The fast path: one event table, one run-length kernel pass
    (:mod:`repro.core.kernels`).  Strict closure (a pair out of range
    at any snapshot ends the contact — missing one sample means
    missing the pair); contacts reaching the final snapshot are
    censored there.  Bit-for-bit equivalent to the loop and dense
    oracles the test suite keeps (``tests/oracles.py``).
    """
    return contact_set_from_events(build_contact_events(trace, r))


def extract_contacts(trace: Trace, r: float) -> list[ContactInterval]:
    """All contact intervals of a trace under communication range ``r``.

    Object-list view over :func:`extract_contact_set` — same rows,
    same ``(start, pair)`` order, boxed as :class:`ContactInterval`.
    Consumers that only need numbers should take the set instead and
    read its columns.
    """
    return extract_contact_set(trace, r).intervals()


def extract_contact_sets_multirange(
    trace: Trace,
    ranges: Iterable[float],
    radius_workers: int | None = None,
) -> dict[float, ContactSet]:
    """Columnar contact sets under several ranges from one event table.

    The event table is built once at the *largest* requested radius
    with per-pair distances kept; every radius is then one run-length
    kernel pass under a distance mask.  ``radius_workers > 1`` fans
    the per-radius passes across a thread pool (pure numpy work, so
    the in-part fan actually runs concurrently); results are identical
    on any worker count.
    """
    radii = sorted({float(r) for r in ranges})
    for r in radii:
        if r <= 0:
            raise ValueError(f"communication range must be positive, got {r}")
    if not radii:
        return {}
    table = build_contact_events(
        trace, radii[-1], keep_distances=len(radii) > 1
    )
    return multirange_contact_sets(table, radii, radius_workers)


def extract_contacts_multirange(
    trace: Trace,
    ranges: Iterable[float],
    radius_workers: int | None = None,
) -> dict[float, list[ContactInterval]]:
    """Contact intervals under several communication ranges in one pass.

    Object-list view over :func:`extract_contact_sets_multirange`;
    each value is exactly what ``extract_contacts(trace, r)`` returns.
    ``ranges`` may be unsorted and may contain duplicates; the result
    is keyed by each distinct radius.  An empty ``ranges`` yields an
    empty dict.
    """
    sets = extract_contact_sets_multirange(trace, ranges, radius_workers)
    return {r: s.intervals() for r, s in sets.items()}


def contact_durations(
    contacts: Iterable[ContactInterval],
    include_censored: bool = False,
) -> list[float]:
    """CT samples (seconds) from extracted contacts."""
    return [
        c.duration
        for c in contacts
        if include_censored or not c.censored
    ]


def inter_contact_times(contacts: Iterable[ContactInterval]) -> list[float]:
    """ICT samples: gaps between successive contacts of each pair.

    The gap runs from the *end* of contact ``k`` to the *start* of
    contact ``k+1`` of the same pair, per the paper's definition
    ``ICT^k = t^{k+1}_s - t^k_e``.  Censored end times still delimit a
    real gap start, so censored contacts participate.
    """
    by_pair: dict[tuple[str, str], list[ContactInterval]] = {}
    for contact in contacts:
        by_pair.setdefault(contact.pair, []).append(contact)
    gaps: list[float] = []
    for intervals in by_pair.values():
        intervals.sort(key=lambda c: c.start)
        for previous, current in zip(intervals, intervals[1:]):
            gap = current.start - previous.end
            if gap > 0:
                gaps.append(gap)
    return gaps


def first_contact_times(
    trace: Trace,
    r: float,
    contacts: Iterable[ContactInterval] | None = None,
) -> dict[str, float]:
    """FT per user: wait from first appearance to first neighbour.

    Users who never contact anyone within the trace are absent from
    the result (their FT is right-censored); callers needing the count
    can compare against ``trace.unique_users()``.
    """
    if contacts is None:
        contacts = extract_contacts(trace, r)
    first_contact: dict[str, float] = {}
    for contact in contacts:
        for user in contact.pair:
            if user not in first_contact or contact.start < first_contact[user]:
                first_contact[user] = contact.start
    first_appearance: dict[str, float] = {}
    for snapshot in trace:
        for user in snapshot.users:
            if user not in first_appearance:
                first_appearance[user] = snapshot.time
    return {
        user: first_contact[user] - first_appearance[user]
        for user in first_contact
    }


def iter_contact_pairs(contacts: Iterable[ContactInterval]) -> Iterator[tuple[str, str]]:
    """Distinct user pairs that ever met, in first-contact order."""
    seen: set[tuple[str, str]] = set()
    for contact in contacts:
        if contact.pair not in seen:
            seen.add(contact.pair)
            yield contact.pair
