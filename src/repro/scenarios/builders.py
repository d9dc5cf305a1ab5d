"""Named scenario-builder profiles — the single construction path
shared by the CLI, the chaos harness, and :mod:`repro.replay`.

A *profile* is a named recipe that turns ``(seed, delta)`` into a
fully wired scenario plus the predicate a detector should watch.  The
point of registering them here is reproducibility-by-construction:
``repro trace record``, ``repro chaos`` and ``repro replay`` all build
their systems through :func:`build_scenario`, so a
:class:`~repro.replay.manifest.RunManifest` naming a profile can
re-create *exactly* the system that was recorded — same world objects,
same tracked variables, same canned parameters.

Profiles deliberately pin every scenario parameter except ``seed`` and
``delta``.  Anything else a recorded run wants to vary belongs in a
new profile (cheap: one registry entry), because an unpinned parameter
is a parameter a manifest cannot replay.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Tuple

from repro.net.delay import DeltaBoundedDelay, SynchronousDelay


def delay_model(delta: float):
    """The canonical Δ → delay-model mapping used across the CLI."""
    return SynchronousDelay(0.0) if delta == 0.0 else DeltaBoundedDelay(delta)


#: A built profile: (scenario object, predicate, initial environment).
BuiltScenario = Tuple[Any, Any, Mapping[str, Any]]


def _build_smart_office(seed: int, delta: float, config: dict) -> BuiltScenario:
    from repro.scenarios.smart_office import SmartOffice, SmartOfficeConfig

    sc = SmartOffice(SmartOfficeConfig(seed=seed, delay=delay_model(delta), **config))
    return sc, sc.predicate, sc.initials


def _build_hall(seed: int, delta: float, config: dict) -> BuiltScenario:
    from repro.scenarios.exhibition_hall import ExhibitionHall, ExhibitionHallConfig

    sc = ExhibitionHall(ExhibitionHallConfig(seed=seed, delay=delay_model(delta), **config))
    return sc, sc.predicate, sc.initials


def _build_hospital(seed: int, delta: float, config: dict) -> BuiltScenario:
    from repro.scenarios.hospital import Hospital, HospitalConfig

    sc = Hospital(HospitalConfig(seed=seed, delay=delay_model(delta), **config))
    phi = sc.waiting_room_predicate()
    return sc, phi, sc.initials_for(phi)


def _build_habitat(seed: int, delta: float, config: dict) -> BuiltScenario:
    # The habitat's delay bound is its radio's plus MAC sleep, not Δ.
    from repro.predicates import RelationalPredicate
    from repro.scenarios.habitat import Habitat, HabitatConfig

    sc = Habitat(HabitatConfig(seed=seed, **config))
    phi = RelationalPredicate(
        {"prey": 0, "pred": 1},
        lambda e: e["prey"] > 0 and e["pred"] > 0,
        "prey ∧ predator",
    )
    return sc, phi, sc.initials


_OFFICE = {"temp_threshold": 28.0, "temp_base": 27.5, "temp_sigma": 1.5}

#: profile name -> (builder(seed, delta, config fields), pinned config fields)
PROFILES: dict[str, Tuple[Callable[[int, float, dict], BuiltScenario], dict]] = {
    "smart_office": (_build_smart_office, _OFFICE),
    # The chaos-harness profile (repro.faults.chaos, and `repro
    # office`): busier occupancy dynamics.  Kept distinct from
    # "smart_office" so chaos recordings replay against the exact
    # system the harness built.
    "smart_office_chaos": (_build_smart_office, {
        **_OFFICE, "mean_occupied": 40.0, "mean_vacant": 15.0,
    }),
    "hall": (_build_hall, {}),
    "hospital": (_build_hospital, {}),
    "habitat": (_build_habitat, {}),
}

#: Profiles offered by the user-facing run/record subcommands (the
#: chaos profile is reachable through ``repro chaos`` only).
OBS_SCENARIOS = ("smart_office", "hall", "hospital", "habitat")


def build_scenario(name: str, *, seed: int, delta: float,
                   **config: Any) -> BuiltScenario:
    """Build the named profile; returns (scenario, predicate, initials).

    ``config`` fields of the scenario's config class apply on top of
    the profile's pinned ones.  Manifests pass none, so a recorded run
    is always the pinned profile; only the scenario subcommands (which
    record nothing) vary fields.

    Raises ``ValueError`` for unknown profiles — the replay engine
    turns that into a manifest error with the known-profile list — and
    for config values the scenario refuses.
    """
    row = PROFILES.get(name)
    if row is None:
        raise ValueError(
            f"unknown scenario profile {name!r} "
            f"(have {', '.join(sorted(PROFILES))})"
        )
    builder, pinned = row
    return builder(int(seed), float(delta), {**pinned, **config})


__all__ = [
    "OBS_SCENARIOS",
    "PROFILES",
    "BuiltScenario",
    "build_scenario",
    "delay_model",
]
