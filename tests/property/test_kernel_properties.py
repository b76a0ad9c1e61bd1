"""Property-based equivalence for the run-length extraction kernels.

The vectorized kernels (:mod:`repro.core.kernels`,
:func:`repro.trace.extract_session_set`) must be *bit-for-bit*
interchangeable with the original per-snapshot state machines — same
intervals, same floats, same order — on traces with presence churn,
empty snapshots, gap re-entry, and contacts censored at the trace end.
The multirange fan must equal independent per-radius extractions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    extract_contact_set,
    extract_contact_sets_multirange,
    extract_contacts,
)
from repro.core.kernels import build_contact_events, multirange_contact_sets
from repro.trace import (
    Trace,
    TraceMetadata,
    extract_session_set,
)
from repro.trace.columnar import ColumnarBuilder
from tests.oracles import (
    extract_contacts_loop,
    extract_contacts_multirange_loop,
    extract_contacts_reference,
    extract_sessions_loop,
)


@st.composite
def churn_traces(draw):
    """Random walks with presence churn, empty snapshots included.

    Users join and leave between snapshots (gap re-entry), some
    snapshots are empty (run breaks without a key change), and any
    pair still in range at the last snapshot is censored there —
    exactly the shapes the run-boundary logic must get right.
    """
    n_users = draw(st.integers(min_value=1, max_value=10))
    steps = draw(st.integers(min_value=1, max_value=50))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    presence = draw(st.floats(min_value=0.2, max_value=1.0))
    rng = np.random.default_rng(seed)
    names = [f"u{i:02d}" for i in range(n_users)]
    positions = rng.uniform(0.0, 100.0, size=(n_users, 3))
    positions[:, 2] = 0.0
    builder = ColumnarBuilder()
    for step in range(steps):
        positions[:, :2] += rng.normal(0.0, 5.0, size=(n_users, 2))
        positions[:, :2] = np.clip(positions[:, :2], 0.0, 100.0)
        idx = np.flatnonzero(rng.random(n_users) < presence)
        builder.append_snapshot(
            step * 10.0, [names[i] for i in idx], positions[idx]
        )
    meta = TraceMetadata(land_name="churn", width=128.0, height=128.0, tau=10.0)
    return Trace.from_columns(builder.build(), meta)


ranges = st.floats(min_value=1.0, max_value=120.0)


def assert_sets_identical(kernel_set, oracle_set):
    """Column-by-column bit-for-bit equality of two contact sets."""
    for got, want in zip(kernel_set.arrays(), oracle_set.arrays()):
        assert np.array_equal(got, want)
    assert list(kernel_set.names) == list(oracle_set.names)


class TestContactKernel:
    @given(churn_traces(), ranges)
    @settings(max_examples=50, deadline=None)
    def test_kernel_matches_loop_extractor(self, trace, r):
        assert extract_contact_set(trace, r) == extract_contacts_loop(trace, r)

    @given(churn_traces(), ranges)
    @settings(max_examples=30, deadline=None)
    def test_kernel_matches_dense_reference(self, trace, r):
        assert extract_contacts(trace, r) == extract_contacts_reference(trace, r)

    @given(churn_traces(), ranges)
    @settings(max_examples=30, deadline=None)
    def test_censoring_exactly_at_trace_end(self, trace, r):
        # An interval is censored iff its run reaches the final
        # snapshot, and then its end is the raw last time (no +tau).
        contact_set = extract_contact_set(trace, r)
        end_time = trace.end_time
        tau = trace.metadata.tau
        for start, end, censored in zip(
            contact_set.starts, contact_set.ends, contact_set.censored
        ):
            if censored:
                assert end == end_time
            else:
                assert end <= end_time + tau
                assert end - start >= tau

    @given(churn_traces(), st.lists(ranges, min_size=1, max_size=5, unique=True))
    @settings(max_examples=30, deadline=None)
    def test_multirange_matches_independent_extractions(self, trace, radii):
        batched = extract_contact_sets_multirange(trace, radii)
        for r in radii:
            assert_sets_identical(batched[r], extract_contact_set(trace, r))

    @given(churn_traces(), st.lists(ranges, min_size=1, max_size=4, unique=True))
    @settings(max_examples=20, deadline=None)
    def test_multirange_matches_loop_sweep(self, trace, radii):
        batched = extract_contact_sets_multirange(trace, radii)
        loop = extract_contacts_multirange_loop(trace, radii)
        for r in radii:
            assert batched[r] == loop[r]

    @given(churn_traces(), ranges, st.integers(min_value=2, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_radius_fan_worker_count_invariant(self, trace, r, workers):
        radii = [r * f for f in (0.5, 0.75, 1.0)]
        table = build_contact_events(trace, max(radii), keep_distances=True)
        serial = multirange_contact_sets(table, radii)
        fanned = multirange_contact_sets(table, radii, radius_workers=workers)
        for radius in radii:
            assert_sets_identical(fanned[radius], serial[radius])


class TestSessionKernel:
    @given(churn_traces())
    @settings(max_examples=50, deadline=None)
    def test_kernel_matches_loop_extractor(self, trace):
        assert extract_session_set(trace) == extract_sessions_loop(trace)

    @given(churn_traces(), st.floats(min_value=1.0, max_value=200.0))
    @settings(max_examples=30, deadline=None)
    def test_kernel_matches_loop_at_any_gap_threshold(self, trace, gap):
        assert extract_session_set(trace, gap) == extract_sessions_loop(trace, gap)

    @given(churn_traces())
    @settings(max_examples=30, deadline=None)
    def test_sessions_cover_all_observations(self, trace):
        session_set = extract_session_set(trace)
        total = trace.columns.observation_count
        assert int(session_set.observation_counts().sum()) == total
