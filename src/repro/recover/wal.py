"""Write-ahead-logged streaming detection (``repro serve --wal``).

A :class:`WalServer` hosts one *online* clock family over a serve
directory and ingests sensed-event records one at a time, surviving
``kill -9`` at any instant with byte-identical resumed output:

* ``serve.json`` — immutable config (the manifest naming scenario,
  seed, Δ, check period, family) written once at creation;
* ``wal.jsonl`` — the write-ahead log: every record is appended here
  *before* it is fed to the detector, and only once it decodes and
  carries the family's stamp;
* ``detections.jsonl`` — one line per emitted detection, durably
  appended at each checkpoint;
* ``checkpoint.json`` — atomically replaced every ``checkpoint_every``
  ingests: ``{ingested, emitted, digest}``.

Recovery leans on determinism instead of snapshotting the detector: a
reopened server truncates a torn WAL tail, truncates
``detections.jsonl`` back to the checkpointed ``emitted`` count
(dropping lines whose checkpoint never landed), then re-feeds the
entire WAL through a fresh detector — regenerating the dropped
detection lines byte for byte, because the detector's output is a pure
function of the (arrival time, record) sequence.  Records that never
reached the WAL are simply re-ingested by the caller (``serve`` skips
exactly ``ingested_records`` input lines on restart).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.core.records import SensedEventRecord
from repro.recover.checkpoint import snapshot_digest
from repro.recover.stream import record_from_spec
from repro.replay.families import ONLINE_FAMILIES, make_detector
from repro.replay.manifest import RunManifest
from repro.sim.kernel import Simulator
from repro.util.atomicio import atomic_write_text, durable_append_lines, fsync_dir

SERVE_FORMAT_VERSION = 1

#: Families the streaming server can host (offline families replay a
#: complete stream at finalize and have no incremental frontier).
SERVABLE_FAMILIES = ONLINE_FAMILIES


class WalError(RuntimeError):
    """Serve directory is malformed, corrupt, or incompatible."""


def _detection_line(detection: Any, emit_time: float) -> str:
    """Canonical detection line (the recorder's shape, minus host —
    a serve has exactly one)."""
    trig = detection.trigger
    return json.dumps({
        "detector": detection.detector,
        "trigger": [trig.pid, trig.seq],
        "var": trig.var,
        "value": repr(trig.value),
        "label": detection.label.value,
        "emit_time": emit_time,
    }, sort_keys=True)


class WalServer:
    """One recoverable streaming detector over a serve directory.

    Pass ``manifest`` to create a fresh directory; omit it to reopen
    (and recover) an existing one.
    """

    def __init__(
        self,
        directory: "str | Path",
        *,
        manifest: "RunManifest | None" = None,
        checkpoint_every: int = 64,
    ) -> None:
        self.dir = Path(directory)
        self.serve_path = self.dir / "serve.json"
        self.wal_path = self.dir / "wal.jsonl"
        self.detections_path = self.dir / "detections.jsonl"
        self.checkpoint_path = self.dir / "checkpoint.json"
        if self.serve_path.exists():
            if manifest is not None:
                raise WalError(
                    f"{self.dir}: serve directory already exists; "
                    "reopen it without a manifest"
                )
            self._load_config()
        else:
            if manifest is None:
                raise WalError(
                    f"{self.dir}: no serve.json — pass a manifest to "
                    "create a new serve directory"
                )
            if manifest.clock_family not in SERVABLE_FAMILIES:
                raise WalError(
                    f"clock family {manifest.clock_family!r} is not "
                    f"streamable (pick one of {', '.join(SERVABLE_FAMILIES)})"
                )
            if checkpoint_every < 1:
                raise WalError(
                    f"checkpoint_every must be >= 1, got {checkpoint_every}"
                )
            self.manifest = manifest
            self.checkpoint_every = int(checkpoint_every)
            self.dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(self.serve_path, json.dumps({
                "kind": "repro-serve",
                "format_version": SERVE_FORMAT_VERSION,
                "manifest": manifest.to_spec(),
                "checkpoint_every": self.checkpoint_every,
            }, sort_keys=True) + "\n")
        self._build_detector()
        self.ingested_records = 0     # WAL lines fed to the detector
        self._emitted = 0             # detection lines durably on disk
        self._ckpt_ingested = 0       # WAL position of the last checkpoint
        self.finalized = False
        self._recover()

    # ------------------------------------------------------------------
    def _load_config(self) -> None:
        try:
            cfg = json.loads(self.serve_path.read_text())
        except json.JSONDecodeError as exc:
            raise WalError(f"{self.serve_path}: corrupt serve config: {exc}") from exc
        if not isinstance(cfg, dict) or cfg.get("kind") != "repro-serve":
            raise WalError(f"{self.serve_path}: not a repro serve directory")
        version = cfg.get("format_version")
        if version != SERVE_FORMAT_VERSION:
            raise WalError(
                f"{self.serve_path}: unsupported serve format {version!r}"
            )
        try:
            self.manifest = RunManifest.from_spec(cfg["manifest"])
            self.checkpoint_every = int(cfg["checkpoint_every"])
        except (KeyError, TypeError, ValueError) as exc:
            raise WalError(f"{self.serve_path}: malformed config: {exc}") from exc

    def _build_detector(self) -> None:
        from repro.scenarios.builders import build_scenario

        # The scenario is built only for its predicate and initial
        # environment; the server's time axis is its own bare kernel,
        # advanced to each record's arrival time on ingest.
        _, phi, initials = build_scenario(
            self.manifest.scenario,
            seed=self.manifest.seed,
            delta=self.manifest.delta,
        )
        self.sim = Simulator()
        self.detector = make_detector(
            self.manifest.clock_family, phi, initials,
            sim=self.sim, manifest=self.manifest,
        )
        self.detector.start()

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _read_wal(self) -> list[dict[str, Any]]:
        """WAL record specs, truncating a torn final line in place."""
        if not self.wal_path.exists():
            return []
        data = self.wal_path.read_bytes()
        specs: list[dict[str, Any]] = []
        good_end = 0
        pos = 0
        for raw in data.split(b"\n"):
            end = pos + len(raw)
            if raw.strip():
                try:
                    specs.append(json.loads(raw))
                except json.JSONDecodeError:
                    break                 # torn tail from a kill mid-append
            good_end = end + 1            # include the newline
            pos = end + 1
        good_end = min(good_end, len(data))
        if good_end < len(data):
            with open(self.wal_path, "r+b") as fh:
                fh.truncate(good_end)
                fh.flush()
                os.fsync(fh.fileno())
        return specs

    def _recover(self) -> None:
        ckpt = {"ingested": 0, "emitted": 0}
        if self.checkpoint_path.exists():
            try:
                ckpt = json.loads(self.checkpoint_path.read_text())
            except json.JSONDecodeError as exc:
                # checkpoint.json is atomically replaced, so corruption
                # cannot come from a crash — refuse to guess.
                raise WalError(
                    f"{self.checkpoint_path}: corrupt checkpoint: {exc}"
                ) from exc
        specs = self._read_wal()
        if len(specs) < int(ckpt.get("ingested", 0)):
            raise WalError(
                f"{self.wal_path}: WAL holds {len(specs)} records but the "
                f"checkpoint claims {ckpt.get('ingested')} — the log was "
                "truncated below its own checkpoint"
            )
        emitted = int(ckpt.get("emitted", 0))
        # Drop detection lines beyond the checkpoint (a crash between
        # the detection append and the checkpoint replace): re-feeding
        # the WAL regenerates them byte for byte.
        persisted: list[str] = []
        if self.detections_path.exists():
            persisted = self.detections_path.read_text().split("\n")[:-1]
            if len(persisted) != emitted:
                persisted = persisted[:emitted]
                atomic_write_text(
                    self.detections_path,
                    "".join(ln + "\n" for ln in persisted),
                )
        elif emitted:
            raise WalError(
                f"{self.detections_path}: missing but checkpoint claims "
                f"{emitted} emitted detections"
            )
        for spec in specs:
            self._feed(*record_from_spec(spec))
        self.ingested_records = len(specs)
        self._ckpt_ingested = len(specs)
        regenerated = self._detection_lines()
        if len(regenerated) < emitted or regenerated[:emitted] != persisted:
            raise WalError(
                f"{self.dir}: WAL replay regenerated {len(regenerated)} "
                f"detections that do not extend the {emitted} on disk — "
                "serve config or code changed under the directory"
            )
        regenerated = len(regenerated)
        self._emitted = emitted
        # Persist anything the crash lost, then stamp a clean checkpoint.
        if regenerated > emitted or len(specs) != int(ckpt.get("ingested", 0)):
            self.checkpoint()

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _feed(self, arrival: float, record: SensedEventRecord) -> None:
        if arrival > self.sim.now:
            self.sim.run(until=arrival)
        self.detector.feed(record)

    def ingest(self, spec: dict[str, Any]) -> None:
        """WAL-first ingest of one record spec; checkpoints every
        ``checkpoint_every`` records.

        The spec is decoded and its stamp checked *before* the WAL
        append: a record the detector would refuse must never become
        durable, or every reopen would replay it and fail again.
        """
        if self.finalized:
            raise WalError(f"{self.dir}: serve already finalized")
        line = json.dumps(spec, sort_keys=True)
        try:
            arrival, record = record_from_spec(spec)
            self.detector.check_stamps((record,))
        except (KeyError, TypeError, ValueError) as exc:
            raise WalError(
                f"{self.dir}: rejected record {line}: {type(exc).__name__}: {exc}"
            ) from exc
        durable_append_lines(self.wal_path, [line])
        self._feed(arrival, record)
        self.ingested_records += 1
        if self.ingested_records - self._ckpt_ingested >= self.checkpoint_every:
            self.checkpoint()

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def _detection_lines(self) -> list[str]:
        return [
            _detection_line(d, t) for d, t in self.detector.emissions
        ]

    def checkpoint(self) -> dict[str, Any]:
        """Durably append new detections and replace checkpoint.json."""
        lines = self._detection_lines()
        new = lines[self._emitted:]
        if new:
            durable_append_lines(self.detections_path, new)
            self._emitted = len(lines)
        state = {
            "ingested": self.ingested_records,
            "emitted": self._emitted,
            "digest": snapshot_digest(
                {"frontier": self.detector.frontier_snapshot()}
            ),
            "finalized": self.finalized,
        }
        atomic_write_text(
            self.checkpoint_path,
            json.dumps(state, sort_keys=True) + "\n",
        )
        fsync_dir(self.dir)
        self._ckpt_ingested = self.ingested_records
        return state

    def finalize(self) -> dict[str, Any]:
        """Flush the detector regardless of stability (end of stream)
        and persist everything.  Idempotent."""
        if not self.finalized:
            self.detector.finalize()
            self.finalized = True
            return self.checkpoint()
        return self.checkpoint()

    # ------------------------------------------------------------------
    def status(self) -> dict[str, Any]:
        return {
            "dir": str(self.dir),
            "scenario": self.manifest.scenario,
            "clock_family": self.manifest.clock_family,
            "checkpoint_every": self.checkpoint_every,
            "ingested": self.ingested_records,
            "emitted": self._emitted,
            "detections": len(self.detector.emissions),
            "finalized": self.finalized,
        }


__all__ = ["WalServer", "WalError", "SERVABLE_FAMILIES", "SERVE_FORMAT_VERSION"]
