"""Unit tests for repro.monitors.association."""

import numpy as np
import pytest

from repro.metaverse import Land, Population, SessionProcess, World
from repro.mobility import RandomWaypoint
from repro.monitors import AssociationMonitor
from repro.monitors.database import TraceDatabase
from repro.trace import TraceMetadata


def _world(seed=0, rate=200.0, size=256.0):
    pop = Population(
        "devices",
        SessionProcess(hourly_rate=rate),
        RandomWaypoint(size, size),
    )
    return World(Land("Assoc", width=size, height=size), [pop], seed=seed)


def _grid_aps(n_side=4, size=256.0):
    pitch = size / n_side
    return np.array(
        [
            [(c + 0.5) * pitch, (r + 0.5) * pitch]
            for r in range(n_side)
            for c in range(n_side)
        ]
    )


class TestAssociate:
    def test_nearest_ap_wins(self):
        aps = np.array([[0.0, 0.0], [100.0, 0.0]])
        monitor = AssociationMonitor(aps, association_range=60.0)
        names, coords = monitor.associate(
            ["near-a", "near-b"],
            np.array([[10.0, 0.0, 0.0], [90.0, 5.0, 0.0]]),
        )
        assert names == ["near-a", "near-b"]
        assert coords[0].tolist() == [0.0, 0.0, 0.0]
        assert coords[1].tolist() == [100.0, 0.0, 0.0]

    def test_out_of_range_devices_absent(self):
        monitor = AssociationMonitor([[0.0, 0.0]], association_range=50.0)
        names, coords = monitor.associate(
            ["in", "out"],
            np.array([[30.0, 0.0, 0.0], [80.0, 0.0, 0.0]]),
        )
        assert names == ["in"]
        assert len(coords) == 1

    def test_equidistant_tie_breaks_to_lowest_index(self):
        aps = np.array([[0.0, 0.0], [100.0, 0.0]])
        monitor = AssociationMonitor(aps, association_range=60.0)
        names, coords = monitor.associate(
            ["mid"], np.array([[50.0, 0.0, 0.0]])
        )
        assert names == ["mid"]
        assert coords[0].tolist() == [0.0, 0.0, 0.0]

    def test_empty_snapshot(self):
        monitor = AssociationMonitor([[0.0, 0.0]])
        names, coords = monitor.associate([], np.empty((0, 3)))
        assert names == [] and coords.shape == (0, 3)

    def test_positions_drawn_from_discrete_ap_set(self):
        aps = _grid_aps()
        monitor = AssociationMonitor(aps, association_range=200.0)
        rng = np.random.default_rng(0)
        coords = np.zeros((40, 3))
        coords[:, :2] = rng.uniform(0.0, 256.0, (40, 2))
        _names, out = monitor.associate([f"u{i}" for i in range(40)], coords)
        ap_set = {tuple(p) for p in aps}
        assert all(tuple(row[:2]) in ap_set for row in out)

    def test_parameter_validation(self):
        with pytest.raises(ValueError, match="tau"):
            AssociationMonitor([[0.0, 0.0]], tau=0.0)
        with pytest.raises(ValueError, match="association range"):
            AssociationMonitor([[0.0, 0.0]], association_range=0.0)
        with pytest.raises(ValueError, match="access_points"):
            AssociationMonitor(np.empty((0, 2)))
        with pytest.raises(ValueError, match="access_points"):
            AssociationMonitor(np.zeros((4, 3)))


class TestMonitoring:
    def test_end_to_end_trace_on_ap_coordinates(self):
        world = _world(seed=3)
        aps = _grid_aps()
        monitor = AssociationMonitor(aps, tau=10.0, association_range=100.0)
        trace = monitor.monitor(world, 600.0)
        assert len(trace) == 60
        ap_set = {tuple(p) for p in aps}
        for row in trace.columns.xyz:
            assert (row[0], row[1]) in ap_set
            assert row[2] == 0.0

    def test_streamed_equals_buffered(self):
        class ListSink:
            """Minimal RtrcDirAppender-shaped sink."""

            def __init__(self):
                self.metadata = None
                self.rows = []

            def append_snapshot(self, time, names, coords):
                self.rows.append(
                    (time, list(names), np.asarray(coords).copy())
                )

        aps = _grid_aps()
        buffered = AssociationMonitor(aps, tau=10.0).monitor(
            _world(seed=7), 400.0
        )
        sink = ListSink()
        streaming = AssociationMonitor(aps, tau=10.0, sink=sink)
        from repro.monitors.base import run_monitors

        run_monitors(_world(seed=7), [streaming], 400.0)
        assert len(sink.rows) == len(buffered)
        cols = buffered.columns
        for i, (time, names, coords) in enumerate(sink.rows):
            lo, hi = cols.snapshot_offsets[i], cols.snapshot_offsets[i + 1]
            assert time == cols.times[i]
            assert names == [cols.users.names[j] for j in cols.user_ids[lo:hi]]
            assert np.array_equal(coords, cols.xyz[lo:hi])

    def test_metadata_propagates_to_sink(self):
        class MetaSink:
            metadata = None

            def append_snapshot(self, *a):
                pass

        sink = MetaSink()
        monitor = AssociationMonitor([[0.0, 0.0]], sink=sink)
        monitor.attach(_world(seed=1))
        assert isinstance(sink.metadata, TraceMetadata)
        assert sink.metadata.source == "wlan-association"

    def test_trace_before_attach_raises(self):
        with pytest.raises(RuntimeError, match="never attached"):
            AssociationMonitor([[0.0, 0.0]]).trace()

    def test_buffering_db_used_without_sink(self):
        monitor = AssociationMonitor([[0.0, 0.0]])
        monitor.attach(_world(seed=1))
        assert isinstance(monitor._db, TraceDatabase)
