"""Grid-indexed contact extractor vs the dense O(n²) reference.

The grid path must be *bit-for-bit* equivalent: identical
``ContactInterval`` lists (fields, censoring flags, the +τ closure and
ordering) on every trace.  The fixtures cover the paper's synthetic
shapes plus the edge cases that stress the cell-list search: empty
snapshots, single users, points exactly at range ``r``, negative
coordinates, and dense random mobility at both canonical ranges.
"""

import numpy as np
import pytest

from repro.core.contacts import (
    BLUETOOTH_RANGE,
    WIFI_RANGE,
    extract_contacts,
    snapshot_id_pairs,
)
from repro.geometry import Position
from repro.geometry.grid import planar_neighbour_pairs
from repro.trace import (
    Snapshot,
    Trace,
    TraceMetadata,
    constant_positions_trace,
    crossing_users_trace,
    orbiting_users_trace,
    random_walk_trace,
)
from tests.oracles import extract_contacts_reference


def assert_equivalent(trace, r):
    assert extract_contacts(trace, r) == extract_contacts_reference(trace, r)


class TestSyntheticTraces:
    @pytest.mark.parametrize("r", [BLUETOOTH_RANGE, WIFI_RANGE])
    def test_crossing(self, r):
        assert_equivalent(crossing_users_trace(), r)

    @pytest.mark.parametrize("r", [10.0, 119.9, 120.0, 120.1, 200.0])
    def test_orbiting_threshold(self, r):
        # Orbiters sit at constant distance 120: the grid path must
        # agree on both sides of (and exactly at) the threshold.
        assert_equivalent(orbiting_users_trace(radius=60.0), r)

    def test_constant_chain(self):
        positions = {"a": (0.0, 0.0), "b": (5.0, 0.0), "c": (8.0, 0.0)}
        assert_equivalent(constant_positions_trace(positions, steps=4), 6.0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("r", [BLUETOOTH_RANGE, WIFI_RANGE])
    def test_random_walks(self, seed, r):
        trace = random_walk_trace(60, 25, np.random.default_rng(seed))
        contacts = extract_contacts(trace, r)
        assert contacts == extract_contacts_reference(trace, r)
        if r == WIFI_RANGE:
            assert contacts  # dense enough that silence would be a bug

    def test_sparse_membership_churn(self):
        # Users appear and disappear between snapshots (login/logout).
        rng = np.random.default_rng(7)
        snaps = []
        for i in range(20):
            present = {
                f"u{j}": Position(*rng.uniform(0, 120, 2))
                for j in range(12)
                if rng.random() < 0.6
            }
            snaps.append(Snapshot(i * 10.0, present))
        trace = Trace(snaps, TraceMetadata(tau=10.0))
        assert_equivalent(trace, 15.0)


class TestEdgeCases:
    def test_empty_trace(self):
        assert_equivalent(Trace([]), 10.0)

    def test_empty_snapshots_interleaved(self):
        snaps = [
            Snapshot(0.0, {"a": Position(0, 0), "b": Position(5, 0)}),
            Snapshot(10.0, {}),
            Snapshot(20.0, {"a": Position(0, 0), "b": Position(5, 0)}),
        ]
        trace = Trace(snaps, TraceMetadata(tau=10.0))
        assert_equivalent(trace, 10.0)
        # The empty snapshot breaks the contact: two intervals.
        assert len(extract_contacts(trace, 10.0)) == 2

    def test_single_user(self):
        trace = Trace([Snapshot(t, {"solo": Position(1, 1)}) for t in (0.0, 10.0)])
        assert extract_contacts(trace, 10.0) == []
        assert_equivalent(trace, 10.0)

    def test_pair_exactly_at_range(self):
        # Strict < threshold: distance exactly r is no contact, in
        # both implementations, and r + ε flips both.
        snaps = [
            Snapshot(t, {"a": Position(0.0, 0.0), "b": Position(10.0, 0.0)})
            for t in (0.0, 10.0)
        ]
        trace = Trace(snaps, TraceMetadata(tau=10.0))
        assert_equivalent(trace, 10.0)
        assert extract_contacts(trace, 10.0) == []
        assert_equivalent(trace, 10.0 + 1e-9)
        assert len(extract_contacts(trace, 10.0 + 1e-9)) == 1

    def test_coincident_users(self):
        snaps = [Snapshot(0.0, {"a": Position(3, 3), "b": Position(3, 3)})]
        trace = Trace(snaps, TraceMetadata(tau=10.0))
        assert_equivalent(trace, 1.0)
        assert len(extract_contacts(trace, 1.0)) == 1

    def test_negative_coordinates(self):
        # Teleport overshoot can leave the land; floor-based cells must
        # keep working left of / below the origin.
        snaps = [
            Snapshot(
                t,
                {
                    "a": Position(-37.0, -12.0),
                    "b": Position(-30.0, -12.0),
                    "c": Position(200.0, 250.0),
                },
            )
            for t in (0.0, 10.0)
        ]
        trace = Trace(snaps, TraceMetadata(tau=10.0))
        assert_equivalent(trace, 8.0)
        assert {c.pair for c in extract_contacts(trace, 8.0)} == {("a", "b")}

    def test_cell_boundary_pairs(self):
        # Neighbours straddling a cell edge (r = 10 → cells of 10 m).
        snaps = [
            Snapshot(
                0.0,
                {
                    "west": Position(9.9, 5.0),
                    "east": Position(10.1, 5.0),
                    "north": Position(9.9, 10.1),
                    "far": Position(35.0, 5.0),
                },
            )
        ]
        trace = Trace(snaps, TraceMetadata(tau=10.0))
        assert_equivalent(trace, 10.0)
        pairs = {c.pair for c in extract_contacts(trace, 10.0)}
        assert ("east", "west") in pairs and ("north", "west") in pairs


class TestPairPrimitives:
    def test_snapshot_id_pairs_orders_ids(self):
        trace = constant_positions_trace({"z": (0.0, 0.0), "a": (1.0, 0.0)}, steps=1)
        uids, xyz = trace.columns.slice_of(0)
        pairs = snapshot_id_pairs(uids, xyz, 5.0)
        assert pairs.shape == (1, 2)
        assert pairs[0, 0] < pairs[0, 1]

    def test_planar_pairs_match_bruteforce(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 80))
            xy = rng.uniform(-40, 300, (n, 2))
            r = float(rng.uniform(0.5, 90))
            expected = sorted(
                (i, j)
                for i in range(n)
                for j in range(i + 1, n)
                if np.hypot(*(xy[i] - xy[j])) < r
            )
            got = [tuple(p) for p in planar_neighbour_pairs(xy, r)]
            assert got == expected

    def test_cell_size_must_cover_radius(self):
        with pytest.raises(ValueError, match="cell_size"):
            planar_neighbour_pairs(np.zeros((3, 2)), radius=10.0, cell_size=5.0)
