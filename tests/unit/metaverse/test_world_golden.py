"""The world engine must reproduce its golden traces bit for bit.

The cases, their digests and why each one is there are in
:mod:`tests.unit.metaverse.golden_traces`.
"""

import pytest

from repro.experiments.runner import simulate_preset
from tests.unit.metaverse.golden_traces import (
    GOLDEN,
    GOLDEN_CONFIG,
    PRESETS,
    WORLD_CASES,
    mismatch_message,
    trace_digest,
    world_case_trace,
)


@pytest.mark.parametrize("land", ["apfel", "dance", "iov"])
def test_paper_land_trace_is_golden(land):
    trace = simulate_preset(PRESETS[land](), GOLDEN_CONFIG)
    assert trace.columns.observation_count > 0
    assert trace_digest(trace) == GOLDEN[land], mismatch_message(land)


@pytest.mark.parametrize("case", sorted(WORLD_CASES))
def test_world_case_trace_is_golden(case):
    trace = world_case_trace(case)
    assert trace.columns.observation_count > 0
    assert trace_digest(trace) == GOLDEN[case], mismatch_message(case)
