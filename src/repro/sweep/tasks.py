"""Spawn-safe sweep task descriptors.

A :class:`SweepTask` names its work as a ``"module:function"`` string
plus plain-data kwargs, so the descriptor pickles cleanly into a
``spawn``-context worker (no closures, no live simulator state crosses
the process boundary — the worker re-imports and rebuilds everything
from ``(params, seed)``, which is exactly the reproducibility contract
the rest of the codebase keeps).

Each task carries its own ``seed``, derived by
:func:`expand_matrix` from the master seed and the task's coordinates
via :func:`repro.sim.rng.substream_seed` — so a task's stream is a
pure function of *what* it is, never of *where or when* it ran.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.sim.rng import substream_seed


class SweepError(ValueError):
    """Raised on malformed tasks, refs, or matrix specs."""


@dataclass(frozen=True, slots=True)
class SweepTask:
    """One unit of sweep work: ``resolve_ref(ref)(**params, seed=seed)``.

    ``index`` is the task's position in the expanded matrix — results
    are merged in index order regardless of completion order, which is
    what makes worker-count changes invisible in the output.
    """

    index: int
    ref: str
    params: Mapping[str, Any]
    seed: int

    def __post_init__(self) -> None:
        if self.index < 0:
            raise SweepError(f"task index must be >= 0, got {self.index}")
        mod, _, attr = self.ref.partition(":")
        if not mod or not attr:
            raise SweepError(
                f"task ref must look like 'package.module:function', got {self.ref!r}"
            )


def resolve_ref(ref: str) -> Callable[..., Mapping[str, Any]]:
    """Import and return the callable a ``"module:function"`` ref names."""
    mod_name, _, attr_path = ref.partition(":")
    if not mod_name or not attr_path:
        raise SweepError(
            f"task ref must look like 'package.module:function', got {ref!r}"
        )
    try:
        obj: Any = importlib.import_module(mod_name)
    except ImportError as exc:
        raise SweepError(f"cannot import {mod_name!r} for task ref {ref!r}: {exc}")
    for part in attr_path.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise SweepError(f"{mod_name!r} has no attribute {attr_path!r}")
    if not callable(obj):
        raise SweepError(f"task ref {ref!r} resolves to a non-callable")
    return obj


def _accepts_registry(fn: Callable[..., Any]) -> bool:
    """Whether a task function takes a ``registry`` kwarg (so the
    worker can hand it a MetricsRegistry and ship the snapshot home)."""
    try:
        return "registry" in inspect.signature(fn).parameters
    except (TypeError, ValueError):  # builtins / C callables
        return False


def _traceback_tail(exc: BaseException, *, frames: int = 5) -> list[str]:
    """The last ``frames`` formatted traceback frames of an exception.

    Stored in the row's ``error_detail`` so a failed sweep point is
    debuggable from the JSONL alone — before this, a worker-side crash
    survived only as ``"TypeError: ..."`` with the stack swallowed.
    The tail is deterministic for a given code tree (file, line,
    function, source text), so it honors the byte-identity contract.
    """
    import traceback

    tb = traceback.format_exception(type(exc), exc, exc.__traceback__)
    # format_exception yields header + frame blocks + final message;
    # keep the last few frame blocks plus the message line.
    frame_blocks = [b for b in tb[1:-1]]
    tail = frame_blocks[-frames:] if frames else frame_blocks
    return [line.rstrip("\n") for block in tail for line in block.splitlines()]


def execute_task(task: SweepTask) -> dict[str, Any]:
    """Run one task (inline, or in a worker via :func:`serve_tasks`).

    Returns ``{"row": <deterministic result row>, "wall_s": <float>}``
    plus, when the task function accepts a ``registry`` kwarg, a
    ``"metrics"`` snapshot of the worker-side registry.  Wall time and
    metrics are reported *separately* from the row: rows go into the
    sweep JSONL, which must be byte-identical across worker counts and
    machines, so anything execution-dependent lives only in the
    parent's obs registry.  Exceptions become an ``error`` field rather
    than poisoning the pool.
    """
    t0 = time.perf_counter()
    row: dict[str, Any] = {
        "kind": "row",
        "index": task.index,
        "ref": task.ref,
        "params": dict(task.params),
        "seed": task.seed,
    }
    out: dict[str, Any] = {"row": row}
    try:
        fn = resolve_ref(task.ref)
        kwargs = dict(task.params)
        registry = None
        if "registry" not in kwargs and _accepts_registry(fn):
            from repro.obs.registry import MetricsRegistry

            registry = MetricsRegistry()
            kwargs["registry"] = registry
        result = fn(**kwargs, seed=task.seed)
        row["result"] = dict(result)
        if registry is not None:
            snapshot = registry.snapshot()
            if snapshot:
                out["metrics"] = snapshot
    except Exception as exc:  # noqa: BLE001 -- isolate task failures per row
        row["error"] = f"{type(exc).__name__}: {exc}"
        row["error_detail"] = {
            "type": type(exc).__name__,
            "message": str(exc),
            "traceback": _traceback_tail(exc),
        }
    out["wall_s"] = time.perf_counter() - t0
    return out


def serve_tasks(conn: Any) -> None:
    """Worker process entry point: run tasks from ``conn`` until ``None``.

    The parent sends one task at a time and waits for its result, so a
    worker holds at most one task.  SIGINT is ignored here: an
    interrupt is the parent's cue to drain, and the task in hand should
    finish.  A closed pipe (the parent died) ends the loop too.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        while (task := conn.recv()) is not None:
            conn.send(execute_task(task))
    except (EOFError, OSError):
        pass


# ---------------------------------------------------------------------------
# Matrix expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class MatrixSpec:
    """A named sweep matrix: a cartesian grid over one task ref.

    ``grid`` is an *ordered* tuple of (param, values) pairs — the order
    fixes task indices, hence output order.
    """

    name: str
    ref: str
    grid: tuple[tuple[str, tuple[Any, ...]], ...]
    reps: int = 1
    description: str = ""
    base_params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.reps < 1:
            raise SweepError(f"reps must be >= 1, got {self.reps}")
        names = [k for k, _ in self.grid]
        if len(set(names)) != len(names):
            raise SweepError(f"duplicate grid parameters: {names}")

    @property
    def n_points(self) -> int:
        out = 1
        for _, values in self.grid:
            out *= len(values)
        return out


def expand_matrix(
    spec: MatrixSpec,
    *,
    master_seed: int = 0,
    reps: int | None = None,
) -> list[SweepTask]:
    """All (grid point, replication) tasks of a matrix, in index order.

    Each task's seed is ``substream_seed(master, "sweep", matrix,
    sorted(point), rep)`` — stable across processes and independent of
    every other task, so adding a replication or reordering the grid
    values never perturbs existing points (common random numbers).
    """
    n_reps = spec.reps if reps is None else int(reps)
    if n_reps < 1:
        raise SweepError(f"reps must be >= 1, got {n_reps}")
    names = [k for k, _ in spec.grid]
    tasks: list[SweepTask] = []
    index = 0
    for combo in itertools.product(*(values for _, values in spec.grid)):
        point = dict(zip(names, combo))
        for rep in range(n_reps):
            seed = substream_seed(
                master_seed, "sweep", spec.name, tuple(sorted(point.items())), rep
            )
            tasks.append(SweepTask(
                index=index,
                ref=spec.ref,
                params={**dict(spec.base_params), **point},
                seed=seed,
            ))
            index += 1
    return tasks


__all__ = [
    "SweepError",
    "SweepTask",
    "MatrixSpec",
    "resolve_ref",
    "execute_task",
    "expand_matrix",
    "serve_tasks",
]
