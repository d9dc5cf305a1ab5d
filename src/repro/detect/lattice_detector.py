"""Exact Possibly/Definitely detection via the consistent-cut lattice
(Cooper–Marzullo [10]).

Builds the lattice of consistent cuts of the record stream (under a
selectable vector-stamp source) and evaluates φ over every cut:
Possibly(φ) iff some consistent cut satisfies φ, Definitely(φ) iff
every root-to-final path passes through a satisfying cut.

Exponential in the worst case (the §4.2.4 O(p^n) lattice); the
``max_states`` cap is surfaced so experiments can demonstrate the blow
up — E4 uses the same machinery for lattice-size measurements.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.detect.base import Detector
from repro.lattice.cut import Cut
from repro.lattice.lattice import StateLattice
from repro.predicates.base import Predicate


class LatticeDetector(Detector):
    """Offline exact modal detection over the observed partial order.

    Parameters
    ----------
    predicate, initials:
        As for every detector.
    n:
        Number of processes (the record streams may not mention all).
    stamp:
        ``"vector"`` or ``"strobe_vector"`` — which partial order to
        build the lattice from.
    max_states:
        Lattice enumeration cap (raises LatticeExplosion beyond).
    incremental:
        Keep the lattice (successor graph, interned cuts) alive across
        :meth:`modalities` calls, extending it with per-process record
        suffixes instead of rebuilding — the windowed/streaming usage
        pattern.  When new records do not extend the previously seen
        per-process prefixes (a straggler sorted into the middle), the
        lattice is rebuilt from scratch transparently, so results are
        always identical to non-incremental mode.
    """

    name = "lattice"

    def __init__(
        self,
        predicate: Predicate,
        initials: Mapping[str, Any],
        n: int,
        *,
        stamp: str = "strobe_vector",
        max_states: int = 500_000,
        incremental: bool = True,
    ) -> None:
        if stamp not in ("vector", "strobe_vector"):
            raise ValueError(f"unknown stamp source {stamp!r}")
        super().__init__(predicate, initials)
        self._n = int(n)
        self._stamp = stamp
        self._max_states = int(max_states)
        self._incremental = bool(incremental)
        self._lattice: StateLattice | None = None
        self._seen_seqs: list[list[int]] = []
        self.last_stats = None
        #: modal queries answered, and the cuts their lattices held
        self.queries = 0
        self.cuts_evaluated = 0
        #: how often the incremental front was extended vs rebuilt
        self.extends = 0
        self.rebuilds = 0

    def bind_probe(self, probe) -> None:
        """Expose the query, cut, extend and rebuild counts and the most
        recent lattice's size and width to ``probe``'s catalog."""
        self._probe = probe
        probe.bind(self, "lattice")

    def _stamps_of(self, recs) -> list:
        out = []
        for r in recs:
            stamp = getattr(r, self._stamp)
            if stamp is None:
                raise ValueError(f"record {r.key()} lacks {self._stamp} stamp")
            out.append(stamp)
        return out

    def _prepare_lattice(
        self, per_proc: list, timestamps: list
    ) -> StateLattice:
        """Return the lattice for the current store contents, extending
        the live one when records only appended (incremental mode)."""
        seqs = [[r.seq for r in recs] for recs in per_proc]
        lattice = self._lattice
        if (
            lattice is not None
            and all(
                seqs[i][: len(seen)] == seen
                for i, seen in enumerate(self._seen_seqs)
            )
        ):
            lattice.extend(
                [
                    timestamps[i][len(self._seen_seqs[i]):]
                    for i in range(self._n)
                ]
            )
            self.extends += 1
        else:
            lattice = StateLattice(timestamps, max_states=self._max_states)
            self.rebuilds += 1
        if self._incremental:
            self._lattice = lattice
            self._seen_seqs = seqs
        else:
            self._lattice = None
            self._seen_seqs = []
        return lattice

    def modalities(self) -> tuple[bool, bool]:
        """Returns (possibly, definitely) for φ over the record stream."""
        per_proc = self.store.by_process(self._n)
        timestamps = [self._stamps_of(recs) for recs in per_proc]
        lattice = self._prepare_lattice(per_proc, timestamps)

        def state_of(cut: Cut) -> dict:
            env = dict(self.initials)
            for pid in range(self._n):
                for r in per_proc[pid][: cut[pid]]:
                    env[r.var] = r.value
            return env

        def pred(env: dict) -> bool:
            result = self.predicate.evaluate_safe(env)
            return bool(result) if result is not None else False

        possibly, definitely = lattice.evaluate(state_of, pred)
        self.last_stats = lattice.stats()
        self.queries += 1
        self.cuts_evaluated += self.last_stats.n_states
        return possibly, definitely

    def finalize(self):
        """Modal detection does not emit per-occurrence detections;
        call :meth:`modalities` instead."""
        raise NotImplementedError(
            "LatticeDetector answers modal queries; use modalities()"
        )


__all__ = ["LatticeDetector"]
