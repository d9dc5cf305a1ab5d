"""Spawn-importable task functions for the supervisor tests.

These must live in a real module (not a test body): ``SweepTask`` refs
are resolved by import inside the spawned worker process.
"""

from __future__ import annotations

import os
import signal
import time


def ok(x: int, seed: int) -> dict:
    """A healthy task: pure function of its coordinates."""
    return {"x": x, "seed": seed, "y": x * 10 + seed % 10}


def pid(x: int, seed: int) -> dict:
    """A healthy task that reports which process ran it."""
    return {"x": x, "seed": seed, "pid": os.getpid()}


def boom(x: int, seed: int) -> dict:
    """A deterministic in-task failure (must NOT be retried)."""
    raise ValueError(f"boom x={x} seed={seed}")


def hang(x: int, seed: int) -> dict:  # pragma: no cover - killed by deadline
    """An infrastructure failure: never returns."""
    del x, seed
    while True:
        time.sleep(0.5)


def die(x: int, seed: int) -> dict:  # pragma: no cover - killed below
    """A worker death: the process vanishes without a result."""
    del x, seed
    os.kill(os.getpid(), signal.SIGKILL)
    return {}
