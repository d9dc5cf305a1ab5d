"""The smart-office scenario (§3.1.1.b.i and the §3.3 examples).

"Consider a smart office environment where a person enters a room and
temp > 30°C.  Temperature can be automatically lowered depending on
the rule base."  And the §3.3 repeated-detection rules: "(i) reset
thermostat to 28°C each time 'motion detected' ∧ 'temp > 30°C'; (ii)
lock office door each time 'no motion detected' ∧ 'lights off'."

World dynamics:

* motion — alternating occupied/vacant periods (exponential means);
* temp — a mean-reverting random walk updated every ``temp_tick``
  seconds with jumps whose magnitude ensures threshold crossings;
* lights — follow motion with a lag (automatic lights).

Two processes: p0 hosts the motion sensor (and the rule base /
actuator), p1 the temperature sensor with a significance threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.process import ClockConfig
from repro.core.system import PervasiveSystem, SystemConfig
from repro.detect.oracle import OracleDetector
from repro.net.delay import DelayModel, SynchronousDelay
from repro.predicates.conjunctive import Conjunct, ConjunctivePredicate
from repro.scenarios.base import Scenario
from repro.sim.timers import PeriodicTimer


@dataclass(frozen=True)
class SmartOfficeConfig:
    temp_threshold: float = 30.0
    temp_base: float = 27.0            # mean-reversion target
    temp_sigma: float = 2.0            # per-tick jump scale
    temp_tick: float = 1.0
    temp_min_delta: float = 0.5        # sensing resolution
    mean_occupied: float = 20.0
    mean_vacant: float = 20.0
    seed: int = 0
    delay: DelayModel = field(default_factory=SynchronousDelay)
    clocks: ClockConfig = field(default_factory=ClockConfig.everything)
    keep_event_logs: bool = False


class SmartOffice(Scenario):
    """Builds the smart office with its conjunctive context predicate."""

    def __init__(self, config: SmartOfficeConfig) -> None:
        self.config = config
        self.system = PervasiveSystem(
            SystemConfig(
                n_processes=2,
                seed=config.seed,
                delay=config.delay,
                clocks=config.clocks,
                keep_event_logs=config.keep_event_logs,
            )
        )
        sysm = self.system
        sysm.world.create(
            "room", motion=False, temp=config.temp_base, lights=False
        )
        sysm.world.create("thermostat", setpoint=22.0)

        p_motion, p_temp = sysm.processes
        p_motion.track("motion", "room", "motion", initial=False)
        p_temp.track(
            "temp", "room", "temp",
            initial=config.temp_base, min_delta=config.temp_min_delta,
        )

        self.predicate = ConjunctivePredicate([
            Conjunct("motion", 0, lambda v: bool(v), "motion detected"),
            Conjunct(
                "temp", 1,
                lambda v, thr=config.temp_threshold: v > thr,
                f"temp > {config.temp_threshold}",
            ),
        ])
        self.initials = {"motion": False, "temp": config.temp_base}

        # World dynamics.
        self._occ_rng = sysm.rng.get("world", "occupancy")
        self._temp_rng = sysm.rng.get("world", "temp")
        self._occupied = False
        self._temp = config.temp_base
        self._temp_timer = PeriodicTimer(
            sysm.sim, self._temp_step, period=config.temp_tick, label="temp-walk"
        )

    # ------------------------------------------------------------------
    def _schedule_occupancy_flip(self) -> None:
        mean = (
            self.config.mean_occupied if self._occupied else self.config.mean_vacant
        )
        delay = float(self._occ_rng.exponential(mean))
        self.system.sim.schedule_after(delay, self._flip_occupancy, label="occupancy")

    def _flip_occupancy(self) -> None:
        self._occupied = not self._occupied
        self.system.world.set_attribute("room", "motion", self._occupied)
        # Lights follow motion after a small lag.
        self.system.sim.schedule_after(
            0.5,
            lambda v=self._occupied: self.system.world.set_attribute("room", "lights", v),
            label="lights",
        )
        self._schedule_occupancy_flip()

    def _temp_step(self) -> None:
        cfg = self.config
        pull = 0.1 * (cfg.temp_base - self._temp)
        jump = float(self._temp_rng.normal(0.0, cfg.temp_sigma))
        self._temp = round(self._temp + pull + jump, 2)
        self.system.world.set_attribute("room", "temp", self._temp)

    # ------------------------------------------------------------------
    def oracle(self) -> OracleDetector:
        return OracleDetector(
            self.predicate,
            {"motion": ("room", "motion"), "temp": ("room", "temp")},
            initials=self.initials,
        )

    def install_thermostat_rule(self) -> list[float]:
        """§3.3 rule (i): reset thermostat to 28 each time φ holds.

        Returns the (growing) list of actuation times — E8 asserts one
        per occurrence.  Rule evaluation is event-driven at the root on
        strobe-carried state (online detection).
        """
        actuations: list[float] = []
        root = self.system.processes[0]
        env = dict(self.initials)
        was_true = False

        def on_record(rec):
            nonlocal was_true
            env[rec.var] = rec.value
            result = self.predicate.evaluate_safe(env)
            now_true = bool(result)
            if now_true and not was_true:
                root.actuate("thermostat", "setpoint", 28.0)
                actuations.append(self.system.sim.now)
            was_true = now_true

        root.add_record_listener(on_record)
        root.add_strobe_listener(on_record)
        return actuations

    def begin(self) -> None:
        self._schedule_occupancy_flip()
        self._temp_timer.start()

    def end(self) -> None:
        self._temp_timer.stop()


__all__ = ["SmartOffice", "SmartOfficeConfig"]
