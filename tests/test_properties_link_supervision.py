"""Differential property test: drift-bounded link checks vs polling.

The medium checks a live link only at grid instants (establishment time
plus whole periods) where the endpoints' speed bounds say it could have
left range. The oracle is a second, identical rig that connects nothing:
a test-local ``sim.every(period)`` started at the establishment instant
polls the same predicate — gate first, then range — at every grid
instant. Both must report the same first ``(time, reason)`` break, or
none.
"""

import random

from hypothesis import assume, given, settings, strategies as st

from repro.d2d.base import D2DEndpoint, D2DMedium
from repro.d2d.wifi_direct import WIFI_DIRECT
from repro.mobility.models import (
    LinearMobility,
    RandomWaypointMobility,
    StaticMobility,
)
from repro.mobility.space import Arena, distance_between
from repro.sim.engine import Simulator

SETTINGS = settings(max_examples=150, deadline=None)

HORIZON_S = 900.0
ARENA = Arena(300.0, 300.0)

coords = st.floats(min_value=60.0, max_value=240.0)
#: one endpoint's mobility: ("static",), ("linear", vx, vy) or
#: ("waypoint", max speed, rng seed)
motions = st.one_of(
    st.just(("static",)),
    st.tuples(
        st.just("linear"),
        st.floats(min_value=-2.8, max_value=2.8),
        st.floats(min_value=-2.8, max_value=2.8),
    ),
    st.tuples(
        st.just("waypoint"),
        st.floats(min_value=0.5, max_value=4.0),
        st.integers(min_value=0, max_value=2**16),
    ),
)


def build_mobility(motion, start):
    """A fresh model per rig, so the two rigs never share lazy state."""
    if motion[0] == "static":
        return StaticMobility(start)
    if motion[0] == "linear":
        return LinearMobility(start, (motion[1], motion[2]))
    return RandomWaypointMobility(
        ARENA,
        random.Random(motion[2]),
        speed_range=(0.5, motion[1]),
        pause_range=(0.0, 20.0),
        start=start,
    )


def run_medium(starts, motions_, connect_at_s, period_s, gate_at_s):
    """The rig under test: the medium's own supervision finds the break."""
    sim = Simulator(seed=0)
    medium = D2DMedium(sim, WIFI_DIRECT, link_check_period_s=period_s)
    for device_id, start, motion in zip(("a", "b"), starts, motions_):
        medium.register(D2DEndpoint(device_id, build_mobility(motion, start)))
    connections = []
    breaks = []

    def connect():
        medium.connect("a", "b", connections.append)

    sim.schedule_at(connect_at_s, connect)
    medium.endpoint("a").on_disconnect = lambda conn, reason: breaks.append(
        (sim.now, reason)
    )
    if gate_at_s is not None:

        def install():
            medium.link_gate = lambda a, b: False

        sim.schedule_at(gate_at_s, install)
    sim.run_until(HORIZON_S)
    connection = connections[0] if connections else None
    return connection, breaks


def run_oracle(starts, motions_, established_s, period_s, gate_at_s):
    """The polling oracle: every grid instant, the same predicate."""
    sim = Simulator(seed=0)
    a, b = (build_mobility(m, s) for m, s in zip(motions_, starts))
    gate_down = []
    breaks = []

    def poll():
        if breaks:
            return
        if gate_down:
            breaks.append((sim.now, "link down"))
            return
        distance = distance_between(a.position(sim.now), b.position(sim.now))
        if distance > WIFI_DIRECT.max_range_m or not WIFI_DIRECT.link.in_range(
            distance
        ):
            breaks.append((sim.now, "out of range"))

    sim.schedule_at(established_s, lambda: sim.every(period_s, poll))
    if gate_at_s is not None:
        sim.schedule_at(gate_at_s, lambda: gate_down.append(True))
    sim.run_until(HORIZON_S)
    return breaks


@SETTINGS
@given(
    a_start=st.tuples(coords, coords),
    offset=st.tuples(
        st.floats(min_value=-35.0, max_value=35.0),
        st.floats(min_value=-35.0, max_value=35.0),
    ),
    motion_a=motions,
    motion_b=motions,
    connect_at_s=st.floats(min_value=0.0, max_value=50.0),
    period_s=st.sampled_from([1.0, 2.5, 5.0, 7.3]),
    gate_at_s=st.one_of(st.none(), st.floats(min_value=60.0, max_value=800.0)),
)
def test_breaks_match_the_polling_oracle(
    a_start, offset, motion_a, motion_b, connect_at_s, period_s, gate_at_s
):
    b_start = (a_start[0] + offset[0], a_start[1] + offset[1])
    starts = (a_start, b_start)
    motions_ = (motion_a, motion_b)
    connection, breaks = run_medium(
        starts, motions_, connect_at_s, period_s, gate_at_s
    )
    assume(connection is not None)  # endpoints drifted apart mid-handshake
    expected = run_oracle(
        starts, motions_, connection.established_at_s, period_s, gate_at_s
    )
    assert breaks == expected
