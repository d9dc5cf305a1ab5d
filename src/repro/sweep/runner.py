"""The sweep JSONL format, resume and coordinate digests.

Rows come from :class:`~repro.recover.supervisor.SupervisedPool`,
merged **in task-index order** regardless of completion order.
Combined with per-task seeds derived from the task's coordinates (not
its schedule), this gives the contract the tests pin:

    the sweep JSONL is byte-identical for any worker count.

Consequences baked into the format:

* result rows carry no wall-clock readings — timings go to the parent's
  obs registry (``sweep.task_wall_s``) and never into the rows;
* rows are serialized with ``sort_keys=True`` so dict construction
  order cannot leak;
* the header line describes the matrix (name, master seed, task count)
  but not the execution (no worker count, no timestamps).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.sweep.tasks import SweepTask
from repro.util.atomicio import atomic_write_text

FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# JSONL serialization (the deterministic on-disk shape)
# ---------------------------------------------------------------------------

def sweep_jsonl_lines(
    rows: Sequence[Mapping[str, Any]],
    *,
    matrix: str,
    master_seed: int,
    reps: int | None = None,
) -> list[str]:
    """Header + row lines.  Everything here must be a pure function of
    (matrix definition, master seed) — no timestamps, no worker count."""
    header: dict[str, Any] = {
        "kind": "meta",
        "format_version": FORMAT_VERSION,
        "matrix": matrix,
        "master_seed": int(master_seed),
        "n_tasks": len(rows),
    }
    if reps is not None:
        header["reps"] = int(reps)
    return [json.dumps(header, sort_keys=True)] + [
        json.dumps(dict(r), sort_keys=True) for r in rows
    ]


def write_sweep_jsonl(
    path: str | Path,
    rows: Sequence[Mapping[str, Any]],
    *,
    matrix: str,
    master_seed: int,
    reps: int | None = None,
) -> Path:
    path = Path(path)
    lines = sweep_jsonl_lines(rows, matrix=matrix, master_seed=master_seed, reps=reps)
    # Atomic: a kill mid-write must never leave a half-sweep under the
    # final name (resume reads this file and trusts complete lines).
    atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def read_sweep_jsonl(path: str | Path) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """Parse a sweep JSONL back into (header, rows); validates header."""
    events = [
        json.loads(line)
        for line in Path(path).read_text().splitlines()
        if line.strip()
    ]
    if not events or events[0].get("kind") != "meta":
        raise ValueError(f"{path}: not a sweep JSONL (missing meta header)")
    version = events[0].get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format_version {version!r}")
    return events[0], events[1:]


# ---------------------------------------------------------------------------
# Resume (skip already-computed points)
# ---------------------------------------------------------------------------

def coordinate_digest(ref: str, params: Mapping[str, Any], seed: int) -> str:
    """Identity of one sweep point: blake2b of its canonical
    (ref, params, seed) coordinates.  Pure data, so the digest of a
    completed row equals the digest of the task that produced it —
    no row-format change is needed to key the resume set."""
    import hashlib

    text = json.dumps(
        {"ref": ref, "params": dict(params), "seed": int(seed)},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def read_completed_rows(path: str | Path) -> dict[str, dict[str, Any]]:
    """Successful rows of a (possibly partial) sweep JSONL, keyed by
    coordinate digest.

    Built for kill-and-resume: a truncated final line (the process died
    mid-write) is skipped, and rows that recorded an ``error`` are
    *not* treated as complete — a resumed run re-executes them.
    Returns an empty dict when the file does not exist.
    """
    path = Path(path)
    if not path.exists():
        return {}
    out: dict[str, dict[str, Any]] = {}
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue  # truncated tail from a killed run
        if not isinstance(row, dict) or row.get("kind") != "row":
            continue
        if "error" in row or "result" not in row:
            continue
        digest = coordinate_digest(
            row.get("ref", ""), row.get("params", {}), row.get("seed", 0)
        )
        out[digest] = row
    return out


def partition_resumable(
    tasks: "Sequence[SweepTask]", completed: Mapping[str, Mapping[str, Any]]
) -> "tuple[list[SweepTask], list[dict[str, Any]]]":
    """(tasks still to run, rows already computed — re-indexed).

    A cached row is matched purely by coordinate digest, then stamped
    with the *current* task's index so the merged output is
    byte-identical to a fresh full run even if the matrix was reordered
    or re-expanded.
    """
    todo: list[SweepTask] = []
    cached: list[dict[str, Any]] = []
    for task in tasks:
        digest = coordinate_digest(task.ref, task.params, task.seed)
        row = completed.get(digest)
        if row is None:
            todo.append(task)
        else:
            fixed = dict(row)
            fixed["index"] = task.index
            cached.append(fixed)
    return todo, cached


__all__ = [
    "sweep_jsonl_lines",
    "write_sweep_jsonl",
    "read_sweep_jsonl",
    "coordinate_digest",
    "read_completed_rows",
    "partition_resumable",
    "FORMAT_VERSION",
]
