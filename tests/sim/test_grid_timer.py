"""GridTimer: periodic-timer instants and same-instant order, at the
cost of an event only on armed ticks."""

import pytest

from repro.sim.kernel import SimulationError, Simulator
from repro.sim.timers import GridTimer, PeriodicTimer


def polled_ticks(period, n):
    """The instants a PeriodicTimer started at 0 fires at."""
    sim = Simulator()
    seen = []
    pt = PeriodicTimer(sim, lambda: seen.append(sim.now), period=period)
    pt.start()
    sim.run(max_events=n)
    return seen


def test_ticks_are_the_periodic_timers_accumulated_floats():
    sim = Simulator()
    fired = []
    grid = GridTimer(sim, lambda: fired.append(sim.now), period=0.1)
    grid.start()
    want = polled_ticks(0.1, 40)
    g = grid.next_tick
    for _ in range(39):
        g = g + grid.period
    grid.arm(g)
    sim.run(until=10.0)
    assert fired == [want[39]]
    assert sim.processed_events == 1          # unarmed ticks fire nothing


def test_arm_keeps_earliest_and_firing_clears():
    sim = Simulator()
    fired = []
    grid = GridTimer(sim, lambda: fired.append(sim.now), period=1.0)
    grid.start()
    grid.arm(5.0)
    grid.arm(3.0)
    grid.arm(4.0)                              # later than armed: ignored
    assert grid.armed == 3.0
    sim.run(until=10.0)
    assert fired == [3.0] and grid.armed is None
    assert grid.fires == 1


def test_arm_rejects_a_passed_tick():
    sim = Simulator()
    grid = GridTimer(sim, lambda: None, period=1.0)
    grid.start()
    sim.run(until=2.5)
    assert grid.next_tick == 3.0
    with pytest.raises(SimulationError):
        grid.arm(2.0)


def test_stop_cancels_armed_tick_and_positions():
    sim = Simulator()
    fired = []
    grid = GridTimer(sim, lambda: fired.append(sim.now), period=1.0)
    grid.start()
    grid.arm(1.0)                              # the next tick: queued now
    assert sim.pending_events == 1
    grid.stop()
    assert sim.pending_events == 0 and grid.snapshot() is None
    grid.arm(2.0)                              # no-op while stopped
    sim.run(until=5.0)
    assert fired == []


def test_callback_can_rearm_its_next_tick():
    sim = Simulator()
    fired = []

    def cb():
        fired.append(sim.now)
        if len(fired) < 3:
            grid.arm(grid.next_tick)

    grid = GridTimer(sim, cb, period=0.5)
    grid.start()
    grid.arm(1.0)
    sim.run(until=10.0)
    assert fired == [1.0, 1.5, 2.0]


@pytest.mark.parametrize("scheduled_at, first", [(0.3, "feed"), (0.45, "tick")])
def test_same_instant_order_matches_polled_timer(scheduled_at, first):
    """A tick's FIFO place is drawn when the previous tick passes, as
    the polled timer drew it when its previous tick fired: an event
    scheduled for 0.5 before tick 0.4 precedes tick 0.5, one scheduled
    after it follows."""
    orders = {}
    for kind in ("polled", "grid"):
        sim = Simulator()
        order = []

        def tick(sim=sim, order=order):
            order.append((sim.now, "tick"))

        if kind == "polled":
            PeriodicTimer(sim, tick, period=0.1).start()
        else:
            grid = GridTimer(sim, tick, period=0.1)
            grid.start()
            g = grid.next_tick
            while g < 0.5:
                g = g + grid.period
            assert g == 0.5
            grid.arm(g)
        sim.schedule_at(
            scheduled_at,
            lambda sim=sim, order=order: sim.schedule_at(
                0.5, lambda: order.append((sim.now, "feed"))
            ),
        )
        sim.run(until=0.55)
        orders[kind] = [what for t, what in order if t == 0.5]
    assert orders["grid"] == orders["polled"]
    assert orders["grid"][0] == first


def test_arming_the_next_tick_keeps_its_reserved_place():
    """Tick 0.5 drew its place when tick 0.4 passed, so an event
    scheduled for 0.5 at 0.42 follows it even if the tick is armed
    later, at 0.45."""
    orders = {}
    for kind in ("polled", "grid"):
        sim = Simulator()
        order = []

        def tick(sim=sim, order=order):
            order.append((sim.now, "tick"))

        if kind == "polled":
            PeriodicTimer(sim, tick, period=0.1).start()
        else:
            grid = GridTimer(sim, tick, period=0.1)
            grid.start()

            def arm(grid=grid):
                assert grid.next_tick == 0.5
                grid.arm(grid.next_tick)

            sim.schedule_at(0.45, arm)
        sim.schedule_at(
            0.42,
            lambda sim=sim, order=order: sim.schedule_at(
                0.5, lambda: order.append((sim.now, "other"))
            ),
        )
        sim.run(until=0.55)
        orders[kind] = [what for t, what in order if t == 0.5]
    assert orders["grid"] == orders["polled"] == ["tick", "other"]


def test_run_until_slices_pass_ticks_like_one_run():
    """Ending a run passes every tick at or before ``until``, so sliced
    runs reserve the same sequence numbers as one run."""
    def build():
        sim = Simulator()
        grid = GridTimer(sim, lambda: None, period=0.1)
        grid.start()
        for k in range(1, 30):
            sim.schedule_at(k * 0.173, lambda: None)
        return sim, grid

    whole, gw = build()
    whole.run(until=5.0)
    sliced, gs = build()
    for k in range(1, 11):
        sliced.run(until=5.0 * k / 10)
    assert gs.snapshot() == gw.snapshot()
    assert sliced.calendar_snapshot() == whole.calendar_snapshot()


def test_run_without_horizon_reaches_an_armed_tick_then_stops():
    sim = Simulator()
    fired = []
    grid = GridTimer(sim, lambda: fired.append(sim.now), period=1.0)
    grid.start()
    grid.arm(4.0)
    sim.run()                                  # empty heap: walks to the armed tick
    assert fired == [4.0]
    sim.run()                                  # nothing armed: returns at once
    assert sim.now == 4.0


def test_reserved_seq_places_event_at_reservation_point():
    sim = Simulator()
    order = []
    seq = sim.reserve_seq()
    sim.schedule_at(1.0, lambda: order.append("later"))
    sim.schedule_at(1.0, lambda: order.append("reserved"), seq=seq)
    sim.run()
    assert order == ["reserved", "later"]
