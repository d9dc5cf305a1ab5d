"""Print every benchmark metric of every workload, both modes, in one go.

Usage (from the repository root)::

    python3 perfbench/report.py [--seed 0] [--seconds 20] [--workload NAME ...]

Runs ``run.py`` once with ``--trace 0`` and once with ``--trace 1`` per
workload (one at a time), then prints each metric by its
``BENCHMARK.json`` name and unit, the ``failed_frac`` and the
provenance.  Exits 1 if any run fails or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: float, trace: int
             ) -> tuple[dict, dict]:
    """One ``run.py`` invocation: (result object, provenance)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} --trace {trace} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    prov = next(json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("provenance "))
    return json.loads(lines[-1]), prov


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--workload", nargs="*", choices=names, default=names)
    args = parser.parse_args()
    ok = True
    for workload in args.workload:
        for trace in (0, 1):
            result, prov = run_once(workload, args.seed, args.seconds, trace)
            ok = ok and result["correct"]
            mode = "per-layer (traced)" if trace else "end-to-end"
            print(f"== {workload} — {mode}")
            for name, metric in result["metrics"].items():
                print(f"  {name:36s} {metric['value']:<24.10g} {metric['unit']}")
            frac = result["failed"] / result["attempted"]
            print(f"  {'failed_frac':36s} {frac:<24.10g} frac "
                  f"({result['failed']} of {result['attempted']})")
            print("  provenance " + json.dumps(prov, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
