"""One-shot, periodic and grid timers on top of the kernel.

Timers are how model components express "do X after d seconds" without
holding raw :class:`~repro.sim.kernel.ScheduledEvent` handles all over
the codebase.  ``PeriodicTimer`` supports optional jitter drawn from a
supplied generator, which the duty-cycle MAC model and the periodic
clock-sync protocol both use.  ``GridTimer`` keeps a periodic timer's
instants and same-instant order but fires only on the ticks its owner
arms.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.sim.kernel import ScheduledEvent, SimulationError, Simulator


class Timer:
    """A restartable one-shot timer.

    ``start`` schedules the callback ``delay`` seconds out; ``cancel``
    stops it; restarting while pending cancels the previous schedule.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], None], label: str = "") -> None:
        self._sim = sim
        self._callback = callback
        self._label = label or "timer"
        self._pending: ScheduledEvent | None = None

    @property
    def pending(self) -> bool:
        return self._pending is not None and not self._pending.cancelled

    def start(self, delay: float) -> None:
        """(Re)arm the timer ``delay`` seconds from now."""
        self.cancel()
        self._pending = self._sim.schedule_after(
            delay, self._fire, label=self._label
        )

    def cancel(self) -> None:
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _fire(self) -> None:
        self._pending = None
        self._callback()


class PeriodicTimer:
    """A self-rescheduling timer with optional uniform jitter.

    Parameters
    ----------
    period:
        Nominal period in seconds; must be positive.
    jitter:
        Half-width of a uniform jitter added to each period.  Requires
        ``rng`` when nonzero.  Effective gaps are clipped to stay
        positive.
    rng:
        Generator used for jitter draws.
    """

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[], None],
        period: float,
        *,
        jitter: float = 0.0,
        rng: np.random.Generator | None = None,
        label: str = "",
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        if jitter < 0:
            raise SimulationError(f"jitter must be non-negative, got {jitter}")
        if jitter > 0 and rng is None:
            raise SimulationError("jitter requires an rng")
        self._sim = sim
        self._callback = callback
        self._period = float(period)
        self._jitter = float(jitter)
        self._rng = rng
        self._label = label or "periodic"
        self._pending: ScheduledEvent | None = None
        self._stopped = True
        self._fires = 0

    @property
    def fires(self) -> int:
        """Number of times the callback has run."""
        return self._fires

    @property
    def running(self) -> bool:
        return not self._stopped

    def _next_gap(self) -> float:
        gap = self._period
        if self._jitter > 0:
            assert self._rng is not None
            gap += float(self._rng.uniform(-self._jitter, self._jitter))
        return max(gap, 1e-12)

    def start(self, initial_delay: float | None = None) -> None:
        """Begin firing.  First fire is after ``initial_delay`` if
        given, else after one (jittered) period."""
        self.stop()
        self._stopped = False
        delay = self._next_gap() if initial_delay is None else float(initial_delay)
        self._pending = self._sim.schedule_after(delay, self._fire, label=self._label)

    def stop(self) -> None:
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _fire(self) -> None:
        self._pending = None
        self._fires += 1
        self._callback()
        # The callback may have called stop(); only reschedule if not.
        if not self._stopped:
            self._pending = self._sim.schedule_after(
                self._next_gap(), self._fire, label=self._label
            )


class GridTimer:
    """Periodic grid instants that cost an event only when armed.

    The ticks are those of a :class:`PeriodicTimer` with the same
    ``period`` started at the same moment: ``now + period`` first, then
    ``g + period`` accumulated in floating point.  An armed tick fires
    at the place among same-instant events that the periodic timer's
    event would take, because its sequence number is reserved when the
    kernel passes the previous tick, just as the periodic timer drew
    it when its previous tick fired.  An unarmed tick costs the run
    loop one float add and one sequence draw: no heap entry and no
    callback.

    :meth:`arm` requests the callback at a tick time, found by stepping
    ``period`` from :attr:`next_tick`.  The earliest request wins and
    firing clears it; the callback re-arms for its next useful tick.
    """

    def __init__(
        self,
        sim: Simulator,
        callback: Callable[[], None],
        period: float,
        *,
        label: str = "",
    ) -> None:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period}")
        self._sim = sim
        self._callback = callback
        self._period = float(period)
        self._label = label or "grid"
        self._running = False
        self._time = 0.0                  # next tick not yet passed
        self._seq: int | None = None      # its reserved seq (None while firing)
        self._armed: float | None = None
        self._event: ScheduledEvent | None = None
        self._fires = 0

    @property
    def period(self) -> float:
        return self._period

    @property
    def running(self) -> bool:
        return self._running

    @property
    def next_tick(self) -> float:
        """The earliest tick that can still be armed."""
        return self._time

    @property
    def armed(self) -> float | None:
        """The armed tick, or None."""
        return self._armed

    @property
    def fires(self) -> int:
        """Number of times the callback has run."""
        return self._fires

    def start(self) -> None:
        """Begin the grid; the first tick is one period from now."""
        self.stop()
        self._running = True
        self._time = self._sim.now + self._period
        self._seq = self._sim.reserve_seq()
        self._place()

    def stop(self) -> None:
        self._running = False
        self._armed = None
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._sim.remove_tick(self)

    def arm(self, time: float) -> None:
        """Fire the callback at tick ``time`` unless an earlier tick is
        already armed.  No-op while stopped."""
        if not self._running:
            return
        if time < self._time:
            raise SimulationError(
                f"grid tick {time} already passed (next is {self._time})"
            )
        if self._armed is not None and self._armed <= time:
            return
        self._armed = time
        if time == self._time and self._seq is not None:
            self._sim.remove_tick(self)
            self._place()

    def snapshot(self) -> list[object] | None:
        """``[next tick, its reserved seq, armed tick]``, or None while
        stopped: with the kernel calendar, this fixes every future fire."""
        if not self._running:
            return None
        return [self._time, self._seq, self._armed]

    def _place(self) -> None:
        # The next tick goes on the kernel: an event if armed, else a
        # position the run loop passes.
        assert self._seq is not None
        if self._armed == self._time:
            self._event = self._sim.schedule_at(
                self._time, self._fire, label=self._label, seq=self._seq
            )
        else:
            self._sim.add_tick(self._time, self._seq, self)

    def _passed(self) -> None:
        """Kernel hook: the run loop moved past the next tick unarmed."""
        self._time = self._time + self._period
        self._seq = self._sim.reserve_seq()
        self._place()

    def _fire(self) -> None:
        self._event = None
        self._armed = None
        self._fires += 1
        self._time = self._time + self._period
        self._seq = None
        self._callback()
        # The periodic timer drew its next tick's seq after the
        # callback; so does the grid (unless the callback restarted it).
        if self._running and self._seq is None:
            self._seq = self._sim.reserve_seq()
            self._place()


__all__ = ["Timer", "PeriodicTimer", "GridTimer"]
