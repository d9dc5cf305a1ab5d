"""Clock-family registry — the one table from time model to detector.

A manifest's ``clock_family`` names *which time model watches the
run*: the two online strobe detectors (vector / scalar, with their 2Δ
stability watermark and ``check_period`` flush timer), their offline
replay counterparts, and physical-clock replay.  :func:`make_detector`
is the only place a detector class is chosen and constructed: record,
replay and counterfactual execution (through :func:`build_detector`),
``repro serve``, the scenario subcommands and the
``detector_throughput`` sweep point all call it — a counterfactual
clock swap is nothing more than re-running with a different entry.

Online families detect *during* the run and log detections through
the system's probe at emission time; offline families sort the
complete record stream *after* the run, so their detections are
logged at finalize with ``emit_time`` = end of run (there is no
meaningful earlier emission instant for a post-hoc replay detector).
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Mapping

from repro.replay.manifest import RunManifest

#: clock family -> (module under ``repro.detect``, detector class).
#: Imported on first use, so a run loads only the family it hosts.
FAMILY_CLASSES: dict[str, tuple[str, str]] = {
    "vector_strobe": ("online", "OnlineVectorStrobeDetector"),
    "scalar_strobe": ("online", "OnlineScalarStrobeDetector"),
    "offline_vector_strobe": ("strobe_vector", "VectorStrobeDetector"),
    "offline_scalar_strobe": ("strobe_scalar", "ScalarStrobeDetector"),
    "physical": ("physical", "PhysicalClockDetector"),
}

#: Families that detect during the run, on the kernel's flush timer.
ONLINE_FAMILIES = ("vector_strobe", "scalar_strobe")


def make_detector(
    family: str,
    predicate: Any,
    initials: Mapping[str, Any],
    *,
    sim: Any = None,
    manifest: "RunManifest | None" = None,
) -> Any:
    """Construct ``family``'s detector, neither attached nor started.

    Online families run on the kernel ``sim`` with the manifest's Δ,
    ``check_period`` and ``liveness_horizon``; offline families need
    only the predicate and its initial environment."""
    row = FAMILY_CLASSES.get(family)
    if row is None:
        raise ValueError(f"unknown clock family {family!r}")
    module, name = row
    cls = getattr(import_module(f"repro.detect.{module}"), name)
    if family not in ONLINE_FAMILIES:
        return cls(predicate, initials)
    assert manifest is not None, "online families run with a manifest"
    return cls(
        sim, predicate, initials,
        delta=manifest.delta,
        check_period=manifest.check_period,
        liveness_horizon=manifest.liveness_horizon,
    )


class BoundDetector:
    """A detector wired for one run, uniform across families.

    ``finalize`` returns the family's detections and, for offline
    families, logs them through the system's probe (online families
    have already logged theirs at emission).
    """

    def __init__(self, detector: Any, *, online: bool, system: Any) -> None:
        self.detector = detector
        self.online = online
        self._system = system
        self._final: "list[Any] | None" = None

    def finalize(self, *, end_time: float) -> list[Any]:
        if self._final is not None:
            return self._final
        detections = self.detector.finalize()
        probe = self._system.probe
        if not self.online and probe is not None:
            for d in detections:
                probe.record_detection(d, end_time, self.detector.host)
        self._final = list(detections)
        return self._final


def build_detector(
    manifest: RunManifest,
    scenario: Any,
    predicate: Any,
    initials: Mapping[str, Any],
    *,
    host: int = 0,
) -> BoundDetector:
    """Build, attach and (for online families) start the manifest's
    clock family on ``scenario``; attaching binds it to the system's
    probe, whether the system is instrumented before or after."""
    system = scenario.system
    det = make_detector(
        manifest.clock_family, predicate, initials,
        sim=system.sim, manifest=manifest,
    )
    scenario.attach_detector(det, host=host)
    online = manifest.clock_family in ONLINE_FAMILIES
    if online:
        det.start()
    return BoundDetector(det, online=online, system=system)


__all__ = [
    "FAMILY_CLASSES",
    "ONLINE_FAMILIES",
    "BoundDetector",
    "build_detector",
    "make_detector",
]
