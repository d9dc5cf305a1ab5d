"""The exhibition-hall scenario (§5).

"Consider a big exhibition hall … d doors for entry-cum-exit … at each
door a sensor detects the movement of people in and out … Each sensor
is modeled as a process P_i and tracks two variables: x_i, the number
of people entered through the monitored door, and y_i, the number that
have left.  The global predicate … is φ = Σ(x_i − y_i) > capacity."

World dynamics: visitors arrive as a Poisson process with rate
``arrival_rate``, enter through a uniformly random door, dwell for an
exponential time with mean ``mean_dwell``, and leave through a
uniformly random door.  Steady-state occupancy is
``arrival_rate × mean_dwell`` (M/M/∞), so configuring that product
near ``capacity`` makes the predicate flicker — the racing regime the
paper analyses.  Bursty traffic (conference breaks) is available via
``bursty=True``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.clocks.physical import DriftModel
from repro.core.process import ClockConfig
from repro.core.system import PervasiveSystem, SystemConfig
from repro.detect.oracle import OracleDetector
from repro.net.delay import DelayModel, SynchronousDelay
from repro.net.loss import LossModel, NoLoss
from repro.net.topology import Topology
from repro.predicates.relational import SumThresholdPredicate
from repro.scenarios.base import Scenario
from repro.world.generators import BurstyProcess, PoissonProcess


@dataclass(frozen=True)
class ExhibitionHallConfig:
    """Scenario parameters (defaults: a small hall that flickers)."""

    doors: int = 4
    capacity: int = 10
    arrival_rate: float = 2.0          # visitors per second
    mean_dwell: float = 5.0            # seconds inside
    seed: int = 0
    delay: DelayModel = field(default_factory=SynchronousDelay)
    loss: LossModel = field(default_factory=NoLoss)
    clocks: ClockConfig = field(default_factory=ClockConfig.everything)
    drift: "DriftModel | None" = None      # None = sample per process
    max_offset: float = 0.05
    max_drift_ppm: float = 50.0
    bursty: bool = False
    burst_rate_factor: float = 10.0
    keep_event_logs: bool = False
    strobe_transport: str = "overlay"      # or "flood"
    strobe_every: int = 1                  # thin strobes to every k-th event
    topology: "Topology | None" = None     # None = complete graph

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError(f"capacity must be non-negative, got {self.capacity}")
        if self.mean_dwell < 0:
            raise ValueError(f"mean_dwell must be non-negative, got {self.mean_dwell}")


class ExhibitionHall(Scenario):
    """Builds and runs the §5 exhibition hall."""

    def __init__(self, config: ExhibitionHallConfig) -> None:
        self.config = config
        self.system = PervasiveSystem(
            SystemConfig(
                n_processes=config.doors,
                seed=config.seed,
                delay=config.delay,
                loss=config.loss,
                clocks=config.clocks,
                drift=config.drift,
                max_offset=config.max_offset,
                max_drift_ppm=config.max_drift_ppm,
                keep_event_logs=config.keep_event_logs,
                strobe_transport=config.strobe_transport,
                strobe_every=config.strobe_every,
            ),
            topology=config.topology,
        )
        sysm = self.system
        # World objects: one per door, counting cumulative crossings.
        for i in range(config.doors):
            sysm.world.create(f"door{i}", entered=0, exited=0)

        # Door sensors track the counters (the x_i / y_i variables).
        for i, proc in enumerate(sysm.processes):
            proc.track(f"x{i}", f"door{i}", "entered", initial=0)
            proc.track(f"y{i}", f"door{i}", "exited", initial=0)

        # φ = Σ (x_i − y_i) > capacity
        terms = []
        for i in range(config.doors):
            terms.append((f"x{i}", i, +1.0))
            terms.append((f"y{i}", i, -1.0))
        self.predicate = SumThresholdPredicate(
            terms, config.capacity, label=f"occupancy > {config.capacity}"
        )
        self.initials = {v: 0 for v in self.predicate.variables}

        # World traffic.
        self._door_rng = sysm.rng.get("world", "door-choice")
        self._dwell_rng = sysm.rng.get("world", "dwell")
        self._inside = 0
        arrivals_rng = sysm.rng.get("world", "arrivals")
        if config.bursty:
            self.traffic = BurstyProcess(
                sysm.sim,
                self._arrival,
                base_rate=config.arrival_rate,
                burst_rate=config.arrival_rate * config.burst_rate_factor,
                mean_quiet=10 * config.mean_dwell,
                mean_burst=config.mean_dwell,
                rng=arrivals_rng,
            )
        else:
            self.traffic = PoissonProcess(
                sysm.sim, config.arrival_rate, self._arrival, rng=arrivals_rng
            )

    # ------------------------------------------------------------------
    def _random_door(self) -> int:
        return int(self._door_rng.integers(self.config.doors))

    def _arrival(self) -> None:
        door = self._random_door()
        self.system.world.increment(f"door{door}", "entered")
        self._inside += 1
        dwell = float(self._dwell_rng.exponential(self.config.mean_dwell))
        self.system.sim.schedule_after(dwell, self._departure, label="visitor-leave")

    def _departure(self) -> None:
        if self._inside <= 0:
            return
        door = self._random_door()
        self.system.world.increment(f"door{door}", "exited")
        self._inside -= 1

    # ------------------------------------------------------------------
    def oracle(self) -> OracleDetector:
        var_map = {}
        for i in range(self.config.doors):
            var_map[f"x{i}"] = (f"door{i}", "entered")
            var_map[f"y{i}"] = (f"door{i}", "exited")
        return OracleDetector(self.predicate, var_map, initials=self.initials)

    def begin(self) -> None:
        self.traffic.start()

    def end(self) -> None:
        self.traffic.stop()

    def true_occupancy(self) -> int:
        """Oracle: current number of people inside."""
        return self._inside


__all__ = ["ExhibitionHall", "ExhibitionHallConfig"]
