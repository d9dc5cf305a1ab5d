"""Time one workload's set-up in a fresh interpreter, then run its
first operation and report the process's peak memory.

Usage (from the repository root)::

    python3 perfbench/setup_probe.py --workload hall_observed --seed 0

The clock starts before ``repro`` is first imported and stops when the
first operation is ready to start: imports, scenario build and detector
wiring for the scenario workloads; imports, detector construction and
the first window's feed for ``lattice_windows``, whose stream
generation is timed separately and excluded.  The probe then runs that
operation (one execution, or all of the stream's queries) untimed and
reads the peak resident memory.  Prints one JSON object:
``{"setup_s": ..., "import_s": ..., "peak_rss_mb": ...}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def probe(workload: str, seed: int) -> dict[str, float]:
    import workloads as wl

    t0 = perf_counter()
    wl.import_layers(workload)
    t_import = perf_counter()
    excluded = 0.0
    if workload == "hospital_online":
        manifest, scenario, bound = wl.hospital_build(seed)
        t_ready = perf_counter()
        scenario.run(manifest.duration)
        bound.finalize(end_time=manifest.duration)
    elif workload == "hall_observed":
        from repro.replay.engine import finalize_execution

        manifest, prepared, scenario, _ = wl.hall_prepare(seed)
        t_ready = perf_counter()
        scenario.run(manifest.duration)
        finalize_execution(prepared)
    else:
        g0 = perf_counter()
        stream = wl.make_stream(seed)
        excluded = perf_counter() - g0
        lattice = wl.new_lattice_detector(stream)
        windows = stream.windows()
        lattice.feed_many(windows[0])
        t_ready = perf_counter()
        lattice.modalities()
        for chunk in windows[1:]:
            lattice.feed_many(chunk)
            lattice.modalities()
    return {
        "setup_s": t_ready - t0 - excluded,
        "import_s": t_import - t0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, SRC)
    print(json.dumps(probe(args.workload, args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
