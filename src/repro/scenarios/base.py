"""The scenario base: one detector host and one run loop for every
scenario.

A scenario builds its :class:`~repro.core.system.PervasiveSystem` in
``__init__`` and arms/stops its world-plane generators in
:meth:`Scenario.begin`/:meth:`Scenario.end`; everything else a caller
does with a scenario — hosting detectors, running to a horizon — is
the same for all of them and lives here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.system import PervasiveSystem
    from repro.detect.base import Detector


class Scenario:
    """A wired system plus its world dynamics."""

    system: "PervasiveSystem"

    def attach_detector(self, detector: "Detector", *, host: int = 0) -> None:
        """Host a detector at process ``host`` (default: the root P0).
        It sees the host's own records plus everything strobed to it."""
        detector.attach(self.system.processes[host])

    def begin(self) -> None:
        """Arm the world generators (first phase of :meth:`run`; split
        so :mod:`repro.recover` can interleave bounded stepping between
        setup and teardown)."""
        raise NotImplementedError

    def end(self) -> None:
        """Stop the world generators (last phase of :meth:`run`)."""
        raise NotImplementedError

    def run(self, duration: float) -> None:
        self.begin()
        self.system.run(until=duration)
        self.end()


__all__ = ["Scenario"]
