"""Unit tests for the run-length extraction kernels and columnar sets.

Deterministic shapes the kernels must get exactly right — censoring at
the trace end, single-snapshot traces, empty snapshots breaking runs,
gap re-entry — plus the :class:`ContactSet` / :class:`SessionSet`
columnar accessors, the boundary-merge edge cases (including parts
with foreign name tables), the multirange fan's validation, and the
process-backend codec round-trip.
"""

import numpy as np
import pytest

from repro.core import (
    ContactInterval,
    extract_contact_set,
    extract_contacts,
    merge_shard_contacts,
    merge_shard_sessions,
)
from repro.core.kernels import (
    ContactSet,
    build_contact_events,
    contact_set_from_columns,
    contact_set_from_events,
    multirange_contact_sets,
)
from repro.core.parallel import decode_payload, encode_payload
from repro.trace import (
    SessionSet,
    Trace,
    TraceMetadata,
    extract_session_set,
)
from repro.trace.columnar import ColumnarBuilder
from tests.oracles import extract_sessions_loop

TAU = 10.0


def build_trace(rows_per_snapshot, tau=TAU):
    """Trace from a list of snapshots, each ``[(name, x, y), ...]``."""
    builder = ColumnarBuilder()
    for index, rows in enumerate(rows_per_snapshot):
        names = [name for name, _, _ in rows]
        xyz = [[x, y, 0.0] for _, x, y in rows]
        builder.append_snapshot(index * tau, names, xyz)
    meta = TraceMetadata(land_name="unit", width=128.0, height=128.0, tau=tau)
    return Trace.from_columns(builder.build(), meta)


class TestKernelEdgeCases:
    def test_single_snapshot_contact_is_censored_without_tau(self):
        trace = build_trace([[("a", 0.0, 0.0), ("b", 3.0, 0.0)]])
        contacts = extract_contacts(trace, 5.0)
        assert contacts == [ContactInterval("a", "b", 0.0, 0.0, censored=True)]

    def test_contact_alive_at_trace_end_is_censored(self):
        rows = [("a", 0.0, 0.0), ("b", 3.0, 0.0)]
        trace = build_trace([rows, rows, rows])
        contacts = extract_contacts(trace, 5.0)
        assert contacts == [ContactInterval("a", "b", 0.0, 20.0, censored=True)]

    def test_completed_contact_gets_tau_closure(self):
        near = [("a", 0.0, 0.0), ("b", 3.0, 0.0)]
        far = [("a", 0.0, 0.0), ("b", 50.0, 0.0)]
        trace = build_trace([near, near, far])
        contacts = extract_contacts(trace, 5.0)
        assert contacts == [ContactInterval("a", "b", 0.0, 20.0, censored=False)]

    def test_empty_snapshot_breaks_the_run(self):
        near = [("a", 0.0, 0.0), ("b", 3.0, 0.0)]
        trace = build_trace([near, [], near])
        contacts = extract_contacts(trace, 5.0)
        assert contacts == [
            ContactInterval("a", "b", 0.0, 10.0, censored=False),
            ContactInterval("a", "b", 20.0, 20.0, censored=True),
        ]

    def test_gap_reentry_yields_two_intervals(self):
        near = [("a", 0.0, 0.0), ("b", 3.0, 0.0)]
        far = [("a", 0.0, 0.0), ("b", 50.0, 0.0)]
        trace = build_trace([near, near, far, near, far])
        contacts = extract_contacts(trace, 5.0)
        assert contacts == [
            ContactInterval("a", "b", 0.0, 20.0, censored=False),
            ContactInterval("a", "b", 30.0, 40.0, censored=False),
        ]

    def test_no_pairs_in_range(self):
        trace = build_trace([[("a", 0.0, 0.0), ("b", 100.0, 0.0)]])
        contact_set = extract_contact_set(trace, 5.0)
        assert len(contact_set) == 0
        assert contact_set.intervals() == []


class TestContactSet:
    @pytest.fixture()
    def contact_set(self):
        near = [("a", 0.0, 0.0), ("b", 3.0, 0.0), ("c", 100.0, 100.0)]
        far = [("a", 0.0, 0.0), ("b", 50.0, 0.0), ("c", 100.0, 100.0)]
        bc = [("a", 0.0, 0.0), ("b", 99.0, 100.0), ("c", 100.0, 100.0)]
        return extract_contact_set(
            build_trace([near, far, near, bc]), 5.0
        )

    def test_intervals_view_is_cached(self, contact_set):
        assert contact_set.intervals() is contact_set.intervals()

    def test_equality_against_interval_list(self, contact_set):
        assert contact_set == contact_set.intervals()
        assert contact_set != contact_set.intervals()[:-1]

    def test_durations_exclude_censored_by_default(self, contact_set):
        completed = contact_set.durations()
        everything = contact_set.durations(include_censored=True)
        assert len(everything) == len(contact_set)
        assert len(completed) == int((~contact_set.censored).sum())

    def test_inter_contact_gaps_match_object_path(self, contact_set):
        from repro.core import inter_contact_times

        gaps = sorted(contact_set.inter_contact_gaps().tolist())
        assert gaps == sorted(inter_contact_times(contact_set.intervals()))

    def test_first_contact_starts_are_per_user_minima(self, contact_set):
        user_ids, starts = contact_set.first_contact_starts()
        names = contact_set.names
        expected = {}
        for interval in contact_set.intervals():
            for user in interval.pair:
                if user not in expected or interval.start < expected[user]:
                    expected[user] = interval.start
        got = {names[uid]: s for uid, s in zip(user_ids, starts)}
        assert got == expected

    def test_empty_set(self):
        empty = ContactSet.empty(["a", "b"])
        assert len(empty) == 0
        assert empty.intervals() == []
        assert len(empty.inter_contact_gaps()) == 0


class TestSessionSet:
    @pytest.fixture()
    def trace(self):
        return build_trace(
            [
                [("a", 0.0, 0.0), ("b", 10.0, 0.0)],
                [("a", 1.0, 0.0)],
                [("a", 2.0, 0.0), ("b", 12.0, 0.0)],
                [],
                [("b", 13.0, 0.0)],
            ]
        )

    def test_sessions_view_is_cached(self, trace):
        session_set = extract_session_set(trace)
        assert session_set.sessions() is session_set.sessions()

    def test_equality_against_object_extractor(self, trace):
        assert extract_session_set(trace) == extract_sessions_loop(trace)

    def test_columnar_metrics_match_object_path(self, trace):
        session_set = extract_session_set(trace)
        sessions = session_set.sessions()
        assert np.array_equal(
            session_set.login_times(), [s.login_time for s in sessions]
        )
        assert np.array_equal(
            session_set.logout_times(), [s.logout_time for s in sessions]
        )
        assert np.array_equal(
            session_set.travel_times(), [s.travel_time for s in sessions]
        )
        assert np.array_equal(
            session_set.observation_counts(),
            [s.observation_count for s in sessions],
        )
        assert np.allclose(
            session_set.travel_lengths(), [s.travel_length() for s in sessions]
        )
        assert np.allclose(
            session_set.effective_travel_times(),
            [s.effective_travel_time() for s in sessions],
        )

    def test_empty_set(self):
        empty = SessionSet.empty(["a"])
        assert len(empty) == 0
        assert empty.sessions() == []


class TestMergeEdgeCases:
    def test_empty_part_lists(self):
        assert len(merge_shard_contacts([], [], TAU)) == 0
        assert len(merge_shard_sessions([], TAU)) == 0

    def test_single_part_is_returned_unchanged(self):
        trace = build_trace([[("a", 0.0, 0.0), ("b", 3.0, 0.0)]])
        contact_set = extract_contact_set(trace, 5.0)
        session_set = extract_session_set(trace)
        assert merge_shard_contacts([contact_set], [0.0], TAU) is contact_set
        assert merge_shard_sessions([session_set], TAU) is session_set

    def test_foreign_name_tables_do_not_conflate_users(self):
        # Two parts whose interners assign id 0 to *different* users:
        # the merge must rewrite ids into a union table instead of
        # stitching "zoe" and "ann" into one session.
        part_a = extract_session_set(build_trace([[("zoe", 0.0, 0.0)]]))
        part_b = SessionSet(
            np.array([0], dtype=np.int64),
            np.array([0, 1], dtype=np.int64),
            np.array([TAU]),
            np.array([[5.0, 0.0, 0.0]]),
            ["ann"],
        )
        merged = merge_shard_sessions([part_a, part_b], gap_threshold=2 * TAU)
        assert len(merged) == 2
        assert sorted(merged.names[uid] for uid in merged.user_ids) == [
            "ann",
            "zoe",
        ]

    def test_prefix_consistent_tables_use_longest(self):
        part_a = extract_session_set(build_trace([[("ann", 0.0, 0.0)]]))
        part_b = SessionSet(
            np.array([1], dtype=np.int64),
            np.array([0, 1], dtype=np.int64),
            np.array([100 * TAU]),
            np.array([[5.0, 0.0, 0.0]]),
            ["ann", "zoe"],
        )
        merged = merge_shard_sessions([part_a, part_b], gap_threshold=TAU)
        assert list(merged.names) == ["ann", "zoe"]
        assert len(merged) == 2


class TestMultirangeFan:
    @pytest.fixture()
    def trace(self):
        rng = np.random.default_rng(7)
        builder = ColumnarBuilder()
        names = [f"u{i}" for i in range(8)]
        for step in range(12):
            xyz = rng.uniform(0.0, 60.0, size=(8, 3))
            xyz[:, 2] = 0.0
            builder.append_snapshot(step * TAU, names, xyz)
        meta = TraceMetadata(land_name="fan", width=64.0, height=64.0, tau=TAU)
        return Trace.from_columns(builder.build(), meta)

    def test_mask_requires_distances(self, trace):
        table = build_contact_events(trace, 20.0, keep_distances=False)
        with pytest.raises(ValueError, match="distances"):
            contact_set_from_events(table, 10.0)

    def test_radius_above_build_radius_rejected(self, trace):
        table = build_contact_events(trace, 20.0, keep_distances=True)
        with pytest.raises(ValueError, match="20"):
            contact_set_from_events(table, 25.0)

    def test_nonpositive_radius_rejected(self, trace):
        table = build_contact_events(trace, 20.0, keep_distances=True)
        with pytest.raises(ValueError):
            multirange_contact_sets(table, [10.0, 0.0])

    def test_fan_equals_serial_at_any_worker_count(self, trace):
        table = build_contact_events(trace, 30.0, keep_distances=True)
        radii = [5.0, 10.0, 20.0, 30.0]
        serial = multirange_contact_sets(table, radii)
        for workers in (1, 2, 8):
            fanned = multirange_contact_sets(table, radii, radius_workers=workers)
            for r in radii:
                for got, want in zip(fanned[r].arrays(), serial[r].arrays()):
                    assert np.array_equal(got, want)


class TestCodecRoundTrip:
    @pytest.fixture()
    def trace(self):
        near = [("a", 0.0, 0.0), ("b", 3.0, 0.0)]
        far = [("a", 0.0, 0.0), ("b", 50.0, 0.0)]
        return build_trace([near, near, far, near])

    def test_contacts_round_trip(self, trace):
        contact_set = extract_contact_set(trace, 5.0)
        payload = encode_payload("contacts", contact_set)
        decoded = decode_payload("contacts", payload, contact_set.names)
        assert decoded == contact_set.intervals()

    def test_multirange_round_trip(self, trace):
        from repro.core import extract_contact_sets_multirange

        sets = extract_contact_sets_multirange(trace, [5.0, 60.0])
        payload = encode_payload("contacts_multirange", sets)
        decoded = decode_payload(
            "contacts_multirange", payload, sets[5.0].names
        )
        for r, contact_set in sets.items():
            assert decoded[r] == contact_set.intervals()

    def test_sessions_round_trip(self, trace):
        session_set = extract_session_set(trace)
        payload = encode_payload("sessions", session_set)
        decoded = decode_payload("sessions", payload, session_set.names)
        assert decoded == session_set.sessions()


class TestCanonicalOrder:
    def test_columns_are_recanonicalized(self):
        # contact_set_from_columns must put the lexicographically
        # smaller name first and order rows by (start, pair) no matter
        # how its inputs arrive.
        names = ["zoe", "ann", "bob"]
        contact_set = contact_set_from_columns(
            np.array([0, 2], dtype=np.int64),
            np.array([1, 1], dtype=np.int64),
            np.array([10.0, 0.0]),
            np.array([30.0, 20.0]),
            np.array([False, False]),
            names,
        )
        assert contact_set.intervals() == [
            ContactInterval("ann", "bob", 0.0, 20.0),
            ContactInterval("ann", "zoe", 10.0, 30.0),
        ]
