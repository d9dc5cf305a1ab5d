"""The hospital scenario (§5, second example).

"Consider a hospital where each visitor and patient has a RFID badge
… monitor the number of visitors in the waiting room.  Or when a
visitor enters the infectious diseases ward."

Visitors hop between zones (lobby → corridor → wards) via
:class:`~repro.world.mobility.ZoneTransitions`.  The world plane
maintains per-zone occupancy counts (people-in-a-room is physical
state); one sensor process per monitored zone tracks its count.

Predicates provided:

* ``waiting_room_predicate()`` — relational: visitors in the waiting
  room > K (overcrowding);
* ``infectious_alarm()`` — conjunctive: a visitor is in the infectious
  ward ∧ no staff member is (the unescorted-visitor alarm).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.process import ClockConfig
from repro.core.system import PervasiveSystem, SystemConfig
from repro.detect.oracle import OracleDetector
from repro.net.delay import DelayModel, SynchronousDelay
from repro.predicates.conjunctive import Conjunct, ConjunctivePredicate
from repro.predicates.relational import RelationalPredicate
from repro.scenarios.base import Scenario
from repro.world.mobility import ZoneTransitions

#: zone adjacency of the monitored floor
ZONES: dict[str, list[str]] = {
    "lobby": ["waiting", "corridor"],
    "waiting": ["lobby"],
    "corridor": ["lobby", "ward_a", "ward_b", "infectious"],
    "ward_a": ["corridor"],
    "ward_b": ["corridor"],
    "infectious": ["corridor"],
}

#: zones with a badge-reader sensor, in pid order
MONITORED = ["waiting", "ward_a", "ward_b", "infectious"]


@dataclass(frozen=True)
class HospitalConfig:
    n_visitors: int = 12
    n_staff: int = 2
    mean_dwell: float = 10.0
    waiting_capacity: int = 4
    seed: int = 0
    delay: DelayModel = field(default_factory=SynchronousDelay)
    clocks: ClockConfig = field(default_factory=ClockConfig.everything)
    keep_event_logs: bool = False


class Hospital(Scenario):
    """Builds the hospital floor with zone sensors."""

    def __init__(self, config: HospitalConfig) -> None:
        self.config = config
        n_sensors = len(MONITORED)
        self.system = PervasiveSystem(
            SystemConfig(
                n_processes=n_sensors,
                seed=config.seed,
                delay=config.delay,
                clocks=config.clocks,
                keep_event_logs=config.keep_event_logs,
            )
        )
        sysm = self.system
        # Zone objects hold physical occupancy counts per badge class.
        for zone in ZONES:
            sysm.world.create(f"zone_{zone}", visitors=0, staff=0)

        # Badge holders.
        self._mobility: list[ZoneTransitions] = []
        rng = sysm.rng
        for k in range(config.n_visitors):
            oid = f"visitor{k}"
            sysm.world.create(oid)
            self._wire_badge(oid, "visitors")
            self._mobility.append(
                ZoneTransitions(
                    sysm.sim, sysm.world, oid, ZONES,
                    start_zone="lobby", mean_dwell=config.mean_dwell,
                    rng=rng.get("world", "visitor", k),
                )
            )
        for k in range(config.n_staff):
            oid = f"staff{k}"
            sysm.world.create(oid)
            self._wire_badge(oid, "staff")
            self._mobility.append(
                ZoneTransitions(
                    sysm.sim, sysm.world, oid, ZONES,
                    start_zone="corridor", mean_dwell=config.mean_dwell / 2,
                    rng=rng.get("world", "staff", k),
                )
            )

        # Sensors: one per monitored zone, tracking its visitor count
        # (the infectious sensor also tracks staff for the alarm).
        for pid, zone in enumerate(MONITORED):
            sysm.processes[pid].track(
                f"v_{zone}", f"zone_{zone}", "visitors", initial=0
            )
        inf_pid = MONITORED.index("infectious")
        # Staff presence in the infectious ward, sensed by ward_a's
        # reader (distinct process, as a conjunctive predicate needs).
        staff_pid = MONITORED.index("ward_a")
        sysm.processes[staff_pid].track(
            "s_infectious", "zone_infectious", "staff", initial=0
        )
        self._inf_pid = inf_pid
        self._staff_pid = staff_pid

    # ------------------------------------------------------------------
    def _wire_badge(self, oid: str, kind: str) -> None:
        """World-plane bookkeeping: moving a badge updates zone counts."""
        world = self.system.world

        def on_zone_change(change) -> None:
            if change.old is not None:
                world.increment(f"zone_{change.old}", kind, -1)
            world.increment(f"zone_{change.new}", kind, +1)

        world.subscribe(on_zone_change, obj=oid, attr="zone")

    # ------------------------------------------------------------------
    # Proximity alarms (§5: "raise alarms when a visitor approaches a
    # patient whom he is not visiting")
    # ------------------------------------------------------------------
    def add_patient(
        self, patient: str, zone: str, allowed_visitors: set[str]
    ) -> None:
        """Place a (stationary) patient in ``zone`` with an authorized
        visitor list.  The world plane maintains the patient's
        ``intruders`` attribute: the number of unauthorized visitors
        currently sharing the zone."""
        if zone not in ZONES:
            raise ValueError(f"unknown zone {zone!r}")
        world = self.system.world
        world.create(patient, zone=zone, intruders=0)
        allowed = set(allowed_visitors)

        def on_visitor_move(change) -> None:
            oid = change.obj
            if oid in allowed or not oid.startswith("visitor"):
                return
            delta = 0
            if change.new == zone:
                delta = +1
            elif change.old == zone:
                delta = -1
            if delta:
                world.increment(patient, "intruders", delta)

        for k in range(self.config.n_visitors):
            world.subscribe(on_visitor_move, obj=f"visitor{k}", attr="zone")

    def proximity_alarm(self, patient: str, *, sensor_pid: int | None = None
                        ) -> RelationalPredicate:
        """Alarm predicate: an unauthorized visitor is near ``patient``.
        The monitoring sensor defaults to the patient's zone reader."""
        # Build-time wiring: picks which sensor monitors the patient
        # before the run starts; the zone is not model input.
        zone = self.system.world.get(patient).get("zone")  # repro: noqa RACE002 -- build-time sensor placement
        pid = sensor_pid if sensor_pid is not None else (
            MONITORED.index(zone) if zone in MONITORED else 0
        )
        var = f"intruders_{patient}"
        self.system.processes[pid].track(var, patient, "intruders", initial=0)
        return RelationalPredicate(
            {var: pid}, lambda e: e[var] > 0,
            f"unauthorized visitor near {patient}",
        )

    def oracle_proximity(self, patient: str, predicate: RelationalPredicate):
        var = next(iter(predicate.variables))
        return OracleDetector(
            predicate, {var: (patient, "intruders")},
            initials={var: 0},
        )

    # ------------------------------------------------------------------
    def waiting_room_predicate(self) -> RelationalPredicate:
        pid = MONITORED.index("waiting")
        cap = self.config.waiting_capacity
        return RelationalPredicate(
            {"v_waiting": pid},
            lambda e: e["v_waiting"] > cap,
            f"waiting room > {cap}",
        )

    def infectious_alarm(self) -> ConjunctivePredicate:
        return ConjunctivePredicate([
            Conjunct("v_infectious", self._inf_pid, lambda v: v > 0,
                     "visitor in infectious ward"),
            Conjunct("s_infectious", self._staff_pid, lambda v: v == 0,
                     "no staff in infectious ward"),
        ])

    def initials_for(self, predicate) -> dict:
        return {v: 0 for v in predicate.variables}

    def oracle_waiting(self) -> OracleDetector:
        phi = self.waiting_room_predicate()
        return OracleDetector(
            phi, {"v_waiting": ("zone_waiting", "visitors")},
            initials=self.initials_for(phi),
        )

    def oracle_infectious(self) -> OracleDetector:
        phi = self.infectious_alarm()
        return OracleDetector(
            phi,
            {
                "v_infectious": ("zone_infectious", "visitors"),
                "s_infectious": ("zone_infectious", "staff"),
            },
            initials=self.initials_for(phi),
        )

    def begin(self) -> None:
        for m in self._mobility:
            m.start()

    def end(self) -> None:
        for m in self._mobility:
            m.stop()


__all__ = ["Hospital", "HospitalConfig", "ZONES", "MONITORED"]
