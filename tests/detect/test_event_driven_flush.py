"""Event-driven flushing is exact: it reproduces a flush on every tick.

The online detectors arm only the ``check_period`` grid ticks where a
flush can change state.  ``polled`` builds the reference they must
match: the same detector flushing on every ``PeriodicTimer`` tick.
Every observable output is compared, emit times included, plus the
trace bytes of the whole run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.detect import online
from repro.faults.chaos import default_plan
from repro.predicates.relational import SumThresholdPredicate
from repro.replay.engine import ReplayEngine
from repro.replay.manifest import RunManifest
from repro.scenarios.builders import build_scenario
from repro.sim.kernel import Simulator
from repro.sim.timers import PeriodicTimer

FAMILIES = {
    "vector_strobe": "OnlineVectorStrobeDetector",
    "scalar_strobe": "OnlineScalarStrobeDetector",
}


def polled(cls):
    """``cls`` flushing on every grid tick, never arming."""

    class Polled(cls):
        def start(self):
            self._poll = PeriodicTimer(self._sim, self.flush, period=self._grid.period)
            self._poll.start()

        def stop(self):
            self._poll.stop()

        def _arm(self, arrival, heard):
            pass

    return Polled


def outputs(det, trace_lines=()):
    return {
        "detections": [(d.trigger.key(), d.label) for d in det.detections],
        "emissions": [(d.trigger.key(), d.label, t) for d, t in det.emissions],
        "late_records": det.late_records,
        "quarantine_events": det.quarantine_events,
        "quarantined": sorted(det.quarantined),
        "trace": list(trace_lines),
    }


def run_manifest(manifest, *, reference):
    with pytest.MonkeyPatch.context() as mp:
        if reference:
            name = FAMILIES[manifest.clock_family]
            mp.setattr(online, name, polled(getattr(online, name)))
        result = ReplayEngine().execute(manifest)
    det = result.detector.detector
    assert isinstance(det, online._WatermarkMixin)
    return outputs(det, result.trace_lines), det


# Scenario, duration, fault plan: the chaos office loses strobes under
# its fault plan and the habitat skips strobes (both give late records),
# the hall is message-heavy, the hospital has many processes.
SCENARIOS = [
    ("smart_office_chaos", 140.0, default_plan()),
    ("habitat", 120.0, None),
    ("hall", 30.0, None),
    ("hospital", 60.0, None),
]


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("delta", [0.0, 0.1, 0.5])
@pytest.mark.parametrize("horizon", [None, 0.3])
@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**16), which=st.integers(0, len(SCENARIOS) - 1))
def test_event_driven_matches_polled(family, delta, horizon, seed, which):
    scenario, duration, plan = SCENARIOS[which]
    manifest = RunManifest(
        scenario=scenario, seed=seed, duration=duration, delta=delta,
        clock_family=family, liveness_horizon=horizon, plan=plan,
    )
    want, ref = run_manifest(manifest, reference=True)
    got, det = run_manifest(manifest, reference=False)
    assert got == want
    # The point of the change: far fewer flushes than grid ticks.
    assert det._grid.fires <= ref._poll.fires


@pytest.mark.parametrize("family", sorted(FAMILIES))
@pytest.mark.parametrize("scenario, duration, plan", [SCENARIOS[0], SCENARIOS[1]])
def test_inputs_reach_late_records_and_quarantine(family, scenario, duration, plan):
    """The differential test's inputs reach the rare branches."""
    manifest = RunManifest(
        scenario=scenario, seed=2, duration=duration, delta=0.0,
        clock_family=family, liveness_horizon=2.0, plan=plan,
    )
    want, _ = run_manifest(manifest, reference=True)
    got, _ = run_manifest(manifest, reference=False)
    assert got == want
    assert got["late_records"] > 0 and got["quarantine_events"] > 0


# ---------------------------------------------------------------------------
# Hand-built ties and expiries
# ---------------------------------------------------------------------------

def run_pair(cls_name, feeds, *, delta=0.0, horizon=None, until=3.0):
    """(polled, armed) detectors after ``feeds`` = [(scheduled_at,
    feed_at, record)]: each record is scheduled for ``feed_at`` by an
    event at ``scheduled_at``."""
    dets = []
    for reference in (True, False):
        cls = getattr(online, cls_name)
        if reference:
            cls = polled(cls)
        sim = Simulator()
        det = cls(
            sim, SumThresholdPredicate([("x", 0, 1.0), ("y", 1, 1.0)], 2),
            {"x": 0, "y": 0}, delta=delta, check_period=0.1,
            liveness_horizon=horizon,
        )
        det.start()
        for scheduled_at, feed_at, r in feeds:
            sim.schedule_at(
                scheduled_at,
                lambda sim=sim, det=det, t=feed_at, r=r: sim.schedule_at(
                    t, lambda: det.feed(r)
                ),
            )
        sim.run(until=until)
        det.stop()
        dets.append(det)
    return dets


@pytest.mark.parametrize("cls_name", sorted(FAMILIES.values()))
@pytest.mark.parametrize("scheduled_at, emit_tick", [(0.3, 5), (0.45, 6)])
def test_delta_zero_feed_on_a_grid_instant(rec, cls_name, scheduled_at, emit_tick):
    """Δ=0, a feed at grid instant 0.5: scheduled before tick 0.4 fired
    it precedes tick 0.5 and emits there; scheduled after, tick 0.5
    has already run and the emission waits for tick 0.6."""
    ticks = [0.0]
    for _ in range(6):
        ticks.append(ticks[-1] + 0.1)
    assert ticks[5] == 0.5
    r = rec(0, "x", 3, true_time=0.5, vector=(1, 0), scalar=1)
    ref, det = run_pair(cls_name, [(scheduled_at, 0.5, r)])
    assert outputs(det) == outputs(ref)
    assert [t for _, t in det.emissions] == [ticks[emit_tick]]


@pytest.mark.parametrize("cls_name", sorted(FAMILIES.values()))
def test_flush_armed_for_the_next_tick_keeps_its_place(rec, cls_name):
    """Δ=0: x arrives at 0.45 and arms tick 0.5; y, scheduled for 0.5
    at 0.42 (after tick 0.4 passed), follows that tick, so the rising
    edge it completes is emitted at tick 0.6, not 0.5."""
    a = rec(0, "x", 1, true_time=0.45, vector=(1, 0), scalar=1)
    b = rec(1, "y", 2, true_time=0.5, vector=(1, 1), scalar=2)
    ref, det = run_pair(cls_name, [(0.0, 0.45, a), (0.42, 0.5, b)])
    assert outputs(det) == outputs(ref)
    assert [t for _, t in det.emissions] == [0.5 + 0.1]


@pytest.mark.parametrize("cls_name", sorted(FAMILIES.values()))
def test_liveness_expiry_before_stability_is_armed_on_feed(rec, cls_name):
    """Horizon 0.3 < wait 1.0: a process first heard at 1.0 expires at
    the tick after 1.3, long before its record is stable at 2.0; heard
    again at 1.7 it rejoins, then expires again."""
    r1 = rec(1, "y", 1, true_time=1.0, vector=(0, 1), scalar=1)
    r2 = rec(1, "y", 0, true_time=1.7, vector=(0, 2), scalar=2)
    ref, det = run_pair(
        cls_name, [(0.0, 1.0, r1), (0.0, 1.7, r2)], delta=0.5, horizon=0.3,
    )
    assert outputs(det) == outputs(ref)
    assert det.quarantine_events == 2 and det.quarantined == {1}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_smart_office_temp_tick_meets_the_grid_at_19(family):
    """smart_office's 1 s temperature walk and the 0.1 s flush grid
    share the instant 19.0 exactly.  With Δ=0 the reading taken there
    is delivered at 19.0, after tick 19.0 (whose place was drawn at
    tick 18.9), so the detection it triggers is emitted at the next
    tick."""
    g = 0.0
    while g < 19.0:
        g = g + 0.1
    assert g == 19.0

    def run(reference):
        scenario, phi, initials = build_scenario("smart_office", seed=4, delta=0.0)
        cls = getattr(online, FAMILIES[family])
        if reference:
            cls = polled(cls)
        det = cls(scenario.system.sim, phi, initials, delta=0.0, check_period=0.1)
        scenario.attach_detector(det)
        det.start()
        scenario.run(25.0)
        det.finalize()
        return det

    ref, det = run(True), run(False)
    assert outputs(det) == outputs(ref)
    at_19 = [t for d, t in det.emissions if det._arrivals[d.trigger.key()] == 19.0]
    assert at_19 == [g + 0.1]
    assert det._grid.fires < ref._poll.fires
