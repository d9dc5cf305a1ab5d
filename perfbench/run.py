"""The repository benchmark: three scenario workloads, timed end to end.

Usage (from the repository root)::

    python3 perfbench/run.py --workload hospital_online --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: set-up
time in fresh interpreters, then a closed loop (one operation at a
time, one thread) for ``--seconds`` seconds.  Times are calibrated
seconds (:mod:`speed`): each operation is bracketed by samples of a
fixed reference loop (an execution also takes samples between slices of
its kernel loop), and the machine speed they show is divided out.
``--trace 1`` measures the per-layer split instead: a fixed number of
operations (set by the workload and ``--seconds`` only, so every commit
traces the same work) run once untraced and once under
:class:`spans.SpanTracer`, with the tracer's counts cross-checked
against the program's own counters.

Every operation's output is checked against ``expected.json``.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it give the provenance and every metric by name and unit.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

import workloads as wl
from spans import SpanTracer
from speed import Bracket

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")

#: End-to-end metrics (tracing off): name -> unit.
END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "records_per_s": "rec/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
}

#: Span -> the per-layer metric carrying its self time.  Together with
#: ``residual_s`` (the root span's self time) they sum to the traced
#: total exactly.
TIME_METRICS: dict[str, str] = {
    "sim.dispatch": "sim.dispatch_self_s",
    "sim.schedule": "sim.schedule_self_s",
    "world.dynamics": "world.dynamics_self_s",
    "world.set_attribute": "world.set_attribute_self_s",
    "core.on_sense": "core.on_sense_self_s",
    "clocks.on_relevant_event": "clocks.on_relevant_event_self_s",
    "clocks.on_strobe": "clocks.on_strobe_self_s",
    "clocks.local_stamp": "clocks.local_stamp_self_s",
    "net.send": "net.send_self_s",
    "net.deliver": "net.deliver_self_s",
    "detect.flush": "detect.flush_self_s",
    "detect.feed": "detect.feed_self_s",
    "detect.finalize": "detect.finalize_s",
    "lattice.modalities": "lattice.modalities_self_s",
    "lattice.extend": "lattice.extend_s",
    "lattice.evaluate": "lattice.evaluate_s",
    "lattice.enumerate": "lattice.enumerate_s",
    "lattice.state_of": "lattice.state_of_s",
    "trace.record": "trace.record_self_s",
    "obs.bind": "obs.bind_s",
    "obs.record": "obs.record_self_s",
    "replay.prepare": "replay.prepare_s",
    "replay.finalize": "replay.finalize_s",
    "scenarios.build": "scenarios.build_s",
    "scenarios.run": "scenarios.run_self_s",
    "bench.op": "residual_s",
}

#: Span -> the per-layer metric carrying its call count.
CALL_METRICS: dict[str, str] = {
    "sim.schedule": "sim.schedule_calls",
    "world.dynamics": "world.dynamics_calls",
    "world.set_attribute": "world.set_attribute_calls",
    "core.on_sense": "core.on_sense_calls",
    "clocks.on_relevant_event": "clocks.on_relevant_event_calls",
    "clocks.on_strobe": "clocks.on_strobe_calls",
    "clocks.local_stamp": "clocks.local_stamp_calls",
    "net.send": "net.send_calls",
    "net.deliver": "net.deliver_calls",
    "detect.flush": "detect.flush_calls",
    "detect.feed": "detect.feed_calls",
    "lattice.modalities": "lattice.queries",
    "trace.record": "trace.record_calls",
    "obs.record": "obs.record_calls",
    "bench.op": "bench.ops",
}

#: Derived per-layer metrics: name -> unit.
DERIVED: dict[str, str] = {
    "sim.events": "count",
    "net.messages_sent": "count",
    "net.delivered_frac": "frac",
    "detect.flush_useful_frac": "frac",
    "lattice.cuts": "count",
    "lattice.extend_frac": "frac",
    "trace.overhead_frac": "frac",
    "obs.overhead_frac": "frac",
    "setup.import_s": "s",
    "bench.traced_total_s": "s",
    "bench.tracing_overhead_frac": "frac",
}

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER: dict[str, str] = {
    **{name: "s" for name in TIME_METRICS.values()},
    **{name: "count" for name in CALL_METRICS.values()},
    **DERIVED,
}

#: The interpreter's str-hash seed in every benchmark process (set-up
#: probes inherit it).  A random per-process seed moves the program's
#: speed by several percent from one run to the next; a fixed one
#: removes that noise.  Outputs do not depend on it.
HASH_SEED = "0"
#: Fresh-interpreter set-up probes per run (untraced, traced).
SETUP_PROBES = {False: 5, True: 3}
#: Reference samples on each side of a set-up probe or an execution
#: (about 5 ms each).  A lattice query, some 20 times shorter than an
#: execution, has one on each side.
PROBE_BRACKET = 2
EXECUTION_BRACKET = 2
QUERY_BRACKET = 1
#: Traced operations per second of ``--seconds`` (lattice: streams of
#: about 25 queries each).  Fixed, so the traced work does not depend
#: on how fast the commit under test is.
TRACE_OPS_PER_SECOND = {
    "hospital_online": 0.2,
    "hall_observed": 0.25,
    "lattice_windows": 0.1,
}
#: hall_observed hook-overhead triples (plain, +recorder, +recorder+obs)
#: per second of ``--seconds``.
OVERHEAD_TRIPLES_PER_SECOND = 0.15


@dataclass
class Tally:
    """Operations attempted and failed, checked against expected.json."""

    expected: dict
    attempted: int = 0
    failed: int = 0

    def check(self, workload: str, op: "wl.Op | None", window: int = -1,
              stream_records: int = -1) -> bool:
        """Count one operation; True iff it ran and its output matches."""
        self.attempted += 1
        if op is None:
            self.failed += 1            # attempt() has printed the traceback
            return False
        if not self._matches(workload, op, window, stream_records):
            self.failed += 1
            print(f"perfbench: {workload} seed {op.seed} window {window}: "
                  "output differs from expected.json", file=sys.stderr)
            return False
        return True

    def _matches(self, workload: str, op: "wl.Op", window: int,
                 stream_records: int) -> bool:
        want = self.expected[workload].get(str(op.seed))
        if want is None:
            return False
        if workload == "lattice_windows":
            answers = want["answers"]
            return (
                stream_records == want["records"]
                and 0 <= window < len(answers)
                and op.output == answers[window]
            )
        return op.output == want["digest"] and op.records == want["records"]


def attempt(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    """Run one operation; a raise is reported and counted as a failure."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # an operation that raises is a failed operation
        traceback.print_exc(file=sys.stderr)
        return None


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself if alone."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# Set-up probes
# ---------------------------------------------------------------------------



def setup_probes(workload: str, seed: int, count: int,
                 bracket: Bracket) -> list[dict[str, float]]:
    """Run ``count`` fresh-interpreter set-up probes on the workload's
    first scenario seed; returns their results with the times calibrated
    by the reference samples taken on either side.  Results are
    medians, so the first probe of a fresh checkout (which also compiles
    bytecode) does not move them."""
    cmd = [
        sys.executable, os.path.join(HERE, "setup_probe.py"),
        "--workload", workload,
        "--seed", str(next(wl.scenario_seeds(workload, seed))),
    ]
    out = []
    for _ in range(count):
        proc, _, speed = bracket.time(
            subprocess.run, cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with {proc.returncode}")
        times = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append({
            "setup_s": times["setup_s"] * speed,
            "import_s": times["import_s"] * speed,
            "peak_rss_mb": times["peak_rss_mb"],
        })
    return out


# ---------------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ---------------------------------------------------------------------------

SCENARIO_OPS = {"hospital_online": wl.hospital_op, "hall_observed": wl.hall_op}


def run_stream(stream: "wl.Stream", tally: Tally, bracket: Bracket,
               tracer: Any = wl.NULL) -> tuple[list["wl.Op | None"], float]:
    """All window queries of one stream, each the root span ``bench.op``
    when traced and each calibrated by the reference samples on either
    side of it.  Returns (ops, calibrated wall of the calls), a failed
    query kept as ``None``."""
    lattice = wl.new_lattice_detector(stream)
    bracket.reset()
    ops: list = []
    wall = 0.0
    for k, chunk in enumerate(stream.windows()):
        op, dt, speed = bracket.time(
            tracer.call, "bench.op", attempt, wl.query_window, lattice, stream, chunk
        )
        wall += dt * speed
        ok = tally.check("lattice_windows", op, k, len(stream.records))
        ops.append(op.calibrated(speed) if ok else None)
    return ops, wall


def next_round(workload: str, seeds, tally: Tally, bracket: Bracket
               ) -> tuple[list["wl.Op"], float]:
    """The next unit of work: one execution, or all queries of one new
    stream (generated before the queries' clock starts), after an
    untimed garbage collection.  Returns the operations that passed,
    calibrated, and the wall time to count against the budget."""
    gc.collect()
    if workload == "lattice_windows":
        t0 = perf_counter()
        stream = attempt(wl.make_stream, next(seeds))
        if stream is None:
            tally.check(workload, None)
            return [], perf_counter() - t0
        t0 = perf_counter()
        ops, _ = run_stream(stream, tally, bracket)
        return [op for op in ops if op is not None], perf_counter() - t0
    t0 = perf_counter()
    with wl.sampled_kernel(bracket):
        op, _, speed = bracket.time(attempt, SCENARIO_OPS[workload], next(seeds))
    wall = perf_counter() - t0
    if not tally.check(workload, op):
        return [], wall
    return [op.calibrated(speed, bracket.inside_s)], wall


def loop_bracket(workload: str) -> Bracket:
    """The bracket of a workload's operations."""
    if workload == "lattice_windows":
        return Bracket(QUERY_BRACKET)
    return Bracket(EXECUTION_BRACKET)


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally
               ) -> tuple[dict[str, float], dict[str, Any]]:
    """Closed loop, tracing off: set-up probes, one warm-up round
    (checked, not timed), then rounds until ``seconds`` are spent."""
    probe_bracket = Bracket(PROBE_BRACKET)
    probes = setup_probes(workload, seed, SETUP_PROBES[False], probe_bracket)
    bracket = loop_bracket(workload)
    seeds = wl.scenario_seeds(workload, seed)
    next_round(workload, seeds, tally, bracket)
    samples: list = []
    spent = 0.0
    while spent < seconds:
        ops, wall = next_round(workload, seeds, tally, bracket)
        samples.extend(ops)
        spent += wall
    walls = [op.wall_s for op in samples]
    metrics = {
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "records_per_s": (
            sum(op.records for op in samples) / sum(op.work_s for op in samples)
            if samples else 0.0
        ),
        "op_p50_s": statistics.median(walls) if walls else 0.0,
        "op_p90_s": quantile(walls, 90) if walls else 0.0,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in probes),
    }
    counts = {
        "setup_probes": len(probes),
        "ops_measured": len(samples),
        "ops_beyond_p90": sum(1 for w in walls if w > metrics["op_p90_s"]),
        "measured_s": spent,
        "loop_process_peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        ),
        "reference_samples": probe_bracket.samples + bracket.samples,
        "mean_speed_factor": (
            statistics.fmean(op.speed for op in samples) if samples else 0.0
        ),
    }
    return metrics, counts


# ---------------------------------------------------------------------------
# Traced run: the per-layer split
# ---------------------------------------------------------------------------

def traced_pass(workload: str, inputs: list, tally: Tally, tracer: Any,
                bracket: Bracket) -> tuple[list["wl.Op | None"], float]:
    """Run the fixed operation list once, each operation calibrated by
    reference samples taken outside any span; returns (ops, calibrated
    wall of the calls)."""
    ops: list = []
    wall = 0.0
    if workload == "lattice_windows":
        for stream in inputs:
            gc.collect()
            stream_ops, stream_wall = run_stream(stream, tally, bracket, tracer)
            ops.extend(stream_ops)
            wall += stream_wall
        return ops, wall
    fn = SCENARIO_OPS[workload]
    for seed in inputs:
        gc.collect()
        op, dt, speed = bracket.time(tracer.call, "bench.op", attempt, fn, seed, tracer)
        wall += dt * speed
        ops.append(op if tally.check(workload, op) else None)
    return ops, wall


def cross_check(workload: str, tracer: SpanTracer, ops: list, inputs: list) -> None:
    """Fail loudly unless the span counts match the program's counters."""
    calls, counts = tracer.calls, tracer.counts
    done = [op for op in ops if op is not None]
    if len(done) != len(ops):
        return                      # a failed operation has no counters
    pairs = []
    if workload == "lattice_windows":
        pairs.append(("detect.feed_calls", calls["detect.feed"],
                      "stream records", sum(len(s.records) for s in inputs)))
        pairs.append(("lattice.queries", calls["lattice.modalities"],
                      "windows", sum(len(s.windows()) for s in inputs)))
    else:
        events = (calls["world.dynamics"] + calls["net.deliver"]
                  + counts["sim.flush_timer_events"])
        pairs.append(("sim.events", events, "Simulator.processed_events",
                      sum(op.events for op in done)))
        pairs.append(("net.messages_sent", counts["net.messages"],
                      "net.stats.sent", sum(op.sent for op in done)))
        pairs.append(("detect.feed_calls", calls["detect.feed"],
                      "host store size", sum(op.records for op in done)))
    for name, seen, source, want in pairs:
        if seen != want:
            raise AssertionError(
                f"{workload}: span count {name}={seen} != {source}={want}; "
                "a probe missed calls"
            )


def hook_overheads(inputs: list[int], triples: int, tally: Tally,
                   bracket: Bracket) -> tuple[float, float]:
    """hall_observed with no hook, the recorder, and recorder + obs, in
    rotating order, calibrated; returns (trace.overhead_frac,
    obs.overhead_frac)."""
    variants = [("plain", False, False), ("recorder", True, False),
                ("recorder+obs", True, True)]
    wall = dict.fromkeys((name for name, _, _ in variants), 0.0)
    for k in range(triples):
        seed = inputs[k % len(inputs)]
        for name, recorder, obs in variants[k % 3:] + variants[:k % 3]:
            gc.collect()
            with wl.sampled_kernel(bracket):
                op, _, speed = bracket.time(
                    attempt, wl.hall_op, seed, recorder=recorder, obs=obs
                )
            if tally.check("hall_observed", op):
                wall[name] += op.calibrated(speed, bracket.inside_s).wall_s
    if not (wall["plain"] and wall["recorder"]):
        return 0.0, 0.0
    return (wall["recorder"] / wall["plain"] - 1.0,
            wall["recorder+obs"] / wall["recorder"] - 1.0)


def per_layer(workload: str, seed: int, seconds: float, tally: Tally
              ) -> tuple[dict[str, float], dict[str, Any]]:
    """The fixed operation list untraced, then traced; the split, the
    cross-checks and the passivity check (equal outputs)."""
    probes = setup_probes(workload, seed, SETUP_PROBES[True], Bracket(PROBE_BRACKET))
    bracket = loop_bracket(workload)
    n_ops = max(1, round(seconds * TRACE_OPS_PER_SECOND[workload]))
    seeds = wl.scenario_seeds(workload, seed)
    next_round(workload, seeds, tally, bracket)         # warm-up
    chosen = [next(seeds) for _ in range(n_ops)]
    if workload == "lattice_windows":
        inputs = [wl.make_stream(s) for s in chosen]    # before any clock
    else:
        inputs = chosen
    # Both passes are checked against the same expected outputs, so a
    # traced operation that passes reproduces its untraced twin.
    _, untraced_wall = traced_pass(workload, inputs, tally, wl.NULL, bracket)
    tracer = SpanTracer()
    tracer.install()
    try:
        ops, traced_wall = traced_pass(workload, inputs, tally, tracer, bracket)
    finally:
        tracer.uninstall()
    tracer.check_exact_sum()
    cross_check(workload, tracer, ops, inputs)

    trace_frac = obs_frac = 0.0
    if workload == "hall_observed":
        triples = max(2, round(seconds * OVERHEAD_TRIPLES_PER_SECOND))
        trace_frac, obs_frac = hook_overheads(chosen, triples, tally, bracket)

    sec = {span: ns / 1e9 for span, ns in tracer.self_ns.items()}
    calls, counts = tracer.calls, tracer.counts
    done = [op for op in ops if op is not None]
    sent = sum(op.sent for op in done)
    metrics: dict[str, float] = {
        **{TIME_METRICS[span]: sec[span] for span in TIME_METRICS},
        **{CALL_METRICS[span]: calls[span] for span in CALL_METRICS},
        "sim.events": (calls["world.dynamics"] + calls["net.deliver"]
                       + counts["sim.flush_timer_events"]),
        "net.messages_sent": counts["net.messages"],
        "net.delivered_frac": (
            sum(op.delivered for op in done) / sent if sent else 0.0
        ),
        "detect.flush_useful_frac": (
            counts["detect.useful_flushes"] / calls["detect.flush"]
            if calls["detect.flush"] else 0.0
        ),
        "lattice.cuts": counts["lattice.cuts"],
        "lattice.extend_frac": (
            calls["lattice.extend"] / calls["lattice.modalities"]
            if calls["lattice.modalities"] else 0.0
        ),
        "trace.overhead_frac": trace_frac,
        "obs.overhead_frac": obs_frac,
        "setup.import_s": statistics.median(p["import_s"] for p in probes),
        "bench.traced_total_s": tracer.root_ns / 1e9,
        "bench.tracing_overhead_frac": (
            traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
        ),
    }
    counts_out = {
        "setup_probes": len(probes),
        "ops_traced": len(ops),
        "executions_or_streams": n_ops,
        "untraced_total_s": untraced_wall,
    }
    return metrics, counts_out


# ---------------------------------------------------------------------------
# Provenance and output
# ---------------------------------------------------------------------------

def git_sha() -> str:
    """HEAD of the checkout, or "unknown" outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def provenance(args: argparse.Namespace, counts: dict[str, Any]) -> dict[str, Any]:
    import numpy

    from repro.replay.manifest import code_digest

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 0
    return {
        "git_sha": git_sha(),
        "code_digest": code_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": counts,
    }


def run(args: argparse.Namespace) -> dict[str, Any]:
    """One benchmark run; returns the result object (with provenance)."""
    with open(EXPECTED) as fh:
        tally = Tally(json.load(fh))
    measure = per_layer if args.trace else end_to_end
    metrics, counts = measure(args.workload, args.seed, args.seconds, tally)
    units = PER_LAYER if args.trace else END_TO_END
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
        "provenance": provenance(args, counts),
    }


def parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: no source tree at src/repro; run from the root "
              "of a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    result = run(args)
    prov = result.pop("provenance")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{name:36s} {metric['value']:<24.10g} {metric['unit']}")
    frac = result["failed"] / result["attempted"]
    print(f"{'failed_frac':36s} {frac:<24.10g} frac "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps(result))
    return 0


def with_fixed_hash_seed() -> None:
    """Re-execute this script (same process, no child) unless the
    interpreter already runs with ``PYTHONHASHSEED=HASH_SEED``."""
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        script = os.path.abspath(__file__)
        os.execve(sys.executable, [sys.executable, script, *sys.argv[1:]], env)


if __name__ == "__main__":
    with_fixed_hash_seed()
    sys.exit(main())
