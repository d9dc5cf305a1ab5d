"""Regenerate ``expected.json``: the benchmark's correctness oracle.

Usage (from the repository root)::

    python3 perfbench/make_expected.py

For every pool seed of every workload it stores the output an
operation must reproduce, computed along a *different* path from the
one the benchmark times, so the stored answer also checks that path:

* ``hospital_online`` — detections digest and host-store size, from the
  record/replay path (``ReplayEngine.execute``, flight recorder bound);
  the benchmark runs without a recorder.
* ``hall_observed`` — the same from a plain run (no recorder, no
  metrics); the benchmark binds both.
* ``lattice_windows`` — the stream length and each window's
  ``[possibly, definitely, consistent cuts]`` from a lattice rebuilt
  for every query; the benchmark extends one lattice incrementally.

Trace bytes are deliberately not stored: a legitimate change to the
kernel's events re-baselines them, while detections must not move.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def hospital_expected(seed: int) -> dict:
    import workloads as wl
    from repro.replay.engine import ReplayEngine

    result = ReplayEngine().execute(wl.hospital_manifest(seed))
    det = result.detector.detector
    digest = wl.detections_digest(
        [d for d, _ in det.emissions], [t for _, t in det.emissions]
    )
    return {"digest": digest, "records": len(det.store)}


def hall_expected(seed: int) -> dict:
    import workloads as wl

    op = wl.hall_op(seed, recorder=False, obs=False)
    return {"digest": op.output, "records": op.records}


def lattice_expected(seed: int) -> dict:
    import workloads as wl

    stream = wl.make_stream(seed)
    answers = []
    for k in range(len(stream.windows())):
        lattice = wl.new_lattice_detector(stream, incremental=False)
        lattice.feed_many(stream.records[: (k + 1) * wl.WINDOW])
        possibly, definitely = lattice.modalities()
        answers.append(
            [bool(possibly), bool(definitely), lattice.last_stats.n_states]
        )
    return {"records": len(stream.records), "answers": answers}


def main() -> int:
    sys.path.insert(0, SRC)
    import workloads as wl

    makers = {
        "hospital_online": hospital_expected,
        "hall_observed": hall_expected,
        "lattice_windows": lattice_expected,
    }
    out: dict = {"pool": wl.POOL}
    for workload, make in makers.items():
        out[workload] = {str(s): make(s) for s in range(wl.POOL)}
        print(f"{workload}: {wl.POOL} seeds", file=sys.stderr)
    with open(os.path.join(HERE, "expected.json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
