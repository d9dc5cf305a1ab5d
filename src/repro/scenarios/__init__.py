"""Application scenarios (§5 and §3.3 of the paper).

Each scenario is a :class:`Scenario` (detector hosting and the
``begin → run → end`` loop are shared) that builds a fully wired
:class:`~repro.core.system.PervasiveSystem`, a predicate, its oracle,
and the world-plane dynamics:

* :class:`ExhibitionHall` — the paper's flagship: d RFID door sensors,
  occupancy predicate Σ(xᵢ−yᵢ) > capacity, Poisson visitor traffic;
* :class:`SmartOffice` — the §3.3 thermostat/door rules: motion ∧
  temp > 30 conjunctive context predicate, with actuation;
* :class:`Hospital` — ward occupancy and infectious-ward alarms over
  zone-hopping visitors;
* :class:`Habitat` — wildlife monitoring with duty-cycled radios
  (predator-near-prey alarm), the "in the wild" setting where clock
  sync is unaffordable.
"""

from repro.scenarios.base import Scenario
from repro.scenarios.exhibition_hall import ExhibitionHall, ExhibitionHallConfig
from repro.scenarios.smart_office import SmartOffice, SmartOfficeConfig
from repro.scenarios.hospital import Hospital, HospitalConfig
from repro.scenarios.habitat import Habitat, HabitatConfig

__all__ = [
    "Scenario",
    "ExhibitionHall",
    "ExhibitionHallConfig",
    "SmartOffice",
    "SmartOfficeConfig",
    "Hospital",
    "HospitalConfig",
    "Habitat",
    "HabitatConfig",
]
