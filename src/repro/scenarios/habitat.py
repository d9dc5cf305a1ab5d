"""The habitat-monitoring scenario ("in the wild", §3.3 / §5).

The setting where the paper argues strobe clocks earn their keep:
remote terrain, no affordable clock-sync service, slow lifeform
movement, duty-cycled radios.

Animals (prey and predators) roam the unit square under random
waypoint; two sensor nodes monitor a shared watch region — an acoustic
prey detector and a motion predator detector (species-specific
sensing, hence two *processes*, as conjunctive predicates need).  The
world plane maintains per-region presence counts from positions.

The network runs a :class:`~repro.net.mac.DutyCycleMAC`, so strobe
delivery waits for the destination's wake window — the Δ-inflating
mechanism of §3.2.2.b made concrete.

Predicate: ``prey present ∧ predator present`` in the watch region —
the predator-near-prey alarm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.process import ClockConfig
from repro.core.system import PervasiveSystem, SystemConfig
from repro.detect.oracle import OracleDetector
from repro.net.delay import DeltaBoundedDelay
from repro.net.mac import DutyCycleMAC
from repro.predicates.conjunctive import Conjunct, ConjunctivePredicate
from repro.scenarios.base import Scenario
from repro.sim.rng import RngRegistry
from repro.world.mobility import RandomWaypoint


@dataclass(frozen=True)
class HabitatConfig:
    n_prey: int = 3
    n_predators: int = 2
    region_center: tuple[float, float] = (0.5, 0.5)
    region_radius: float = 0.3
    mac_period: float = 2.0
    mac_duty: float = 0.25
    radio_delay: float = 0.05          # in-air delay bound
    animal_speed: tuple[float, float] = (0.02, 0.08)
    move_tick: float = 0.5
    seed: int = 0
    clocks: ClockConfig = field(default_factory=ClockConfig.everything)
    keep_event_logs: bool = False


class Habitat(Scenario):
    """Wildlife monitoring with duty-cycled radios."""

    def __init__(self, config: HabitatConfig) -> None:
        self.config = config
        rngs = RngRegistry(config.seed)
        self.mac = DutyCycleMAC(
            n=2, period=config.mac_period, duty=config.mac_duty,
            random_phases=True,
            rng=rngs.get("habitat", "mac-phase"),
        )
        self.system = PervasiveSystem(
            SystemConfig(
                n_processes=2,
                seed=config.seed,
                delay=DeltaBoundedDelay(config.radio_delay),
                clocks=config.clocks,
                keep_event_logs=config.keep_event_logs,
                mac=self.mac,
            )
        )
        sysm = self.system
        sysm.world.create("region", prey=0, predators=0)

        # Animals + world-plane presence bookkeeping from positions.
        self._mobility: list[RandomWaypoint] = []
        self._in_region: dict[str, bool] = {}
        for k in range(config.n_prey):
            self._add_animal(f"prey{k}", "prey", k)
        for k in range(config.n_predators):
            self._add_animal(f"pred{k}", "predators", k)

        # Species-specific sensors = two distinct processes.
        sysm.processes[0].track("prey", "region", "prey", initial=0)
        sysm.processes[1].track("pred", "region", "predators", initial=0)

        self.predicate = ConjunctivePredicate([
            Conjunct("prey", 0, lambda v: v > 0, "prey present"),
            Conjunct("pred", 1, lambda v: v > 0, "predator present"),
        ])
        self.initials = {"prey": 0, "pred": 0}

    # ------------------------------------------------------------------
    def _add_animal(self, oid: str, species_attr: str, k: int) -> None:
        cfg = self.config
        sysm = self.system
        sysm.world.create(oid)
        self._in_region[oid] = False

        def on_position(change) -> None:
            x, y = change.new
            cx, cy = cfg.region_center
            inside = (x - cx) ** 2 + (y - cy) ** 2 <= cfg.region_radius**2
            if inside != self._in_region[oid]:
                self._in_region[oid] = inside
                sysm.world.increment("region", species_attr, +1 if inside else -1)

        sysm.world.subscribe(on_position, obj=oid, attr="position")
        self._mobility.append(
            RandomWaypoint(
                sysm.sim, sysm.world, oid,
                rng=sysm.rng.get("world", "animal", oid),
                v_min=cfg.animal_speed[0], v_max=cfg.animal_speed[1],
                tick=cfg.move_tick,
            )
        )

    # ------------------------------------------------------------------
    def oracle(self) -> OracleDetector:
        return OracleDetector(
            self.predicate,
            {"prey": ("region", "prey"), "pred": ("region", "predators")},
            initials=self.initials,
        )

    def effective_delta(self) -> float:
        """The delay bound including MAC sleep (the true Δ of §3.2.2.b)."""
        return self.config.radio_delay + self.mac.extra_delay_bound()

    def begin(self) -> None:
        for m in self._mobility:
            m.start()

    def end(self) -> None:
        for m in self._mobility:
            m.stop()


__all__ = ["Habitat", "HabitatConfig"]
