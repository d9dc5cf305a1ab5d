"""Command-line interface: ``python -m repro <scenario> [options]``.

Runs a scenario with a chosen detector and prints the oracle-scored
comparison table — the quickest way to poke at the system without
writing a script.

Subcommands::

    hall      the §5 exhibition hall
    office    the §3.3 smart office (conjunctive context + rule base)
    hospital  ward monitoring over zone-hopping visitors
    habitat   duty-cycled wildlife monitoring
    clocks    stamp one execution under all four clock families
    obs       run any scenario fully instrumented and export the report
    sweep     run a (config, seed) replication matrix on a process pool
    lint      determinism & causality static analysis (repro.lint)
    chaos     fault-injection run vs fault-free twin + §4.2.2 ripple check
    trace     causal flight recorder: record / report / export / diff
    replay    deterministic replay: verify / run / counterfactual / matrix
    recover   crash recovery: kill-anywhere certify / record-stream export
    serve     WAL-checkpointed streaming detection that survives kill -9

Examples::

    python -m repro hall --doors 4 --delta 0.3 --duration 120 --seed 1
    python -m repro obs run smart_office --export jsonl
    python -m repro sweep detector_throughput --workers 4 --out sweep.jsonl
    python -m repro lint src --json
    python -m repro chaos --plan default --seed 3 --json
    python -m repro trace record hall --out hall.trace
    python -m repro trace export hall.trace --format perfetto
    python -m repro replay verify hall.trace
    python -m repro replay counterfactual hall.trace --clock-family physical
    python -m repro replay matrix hall.trace --clock-families vector_strobe,physical
    python -m repro recover certify smart_office --duration 30 --family all
    python -m repro recover stream hall --out hall.stream.jsonl
    python -m repro serve --wal served/ --scenario hall --in hall.stream.jsonl
    python -m repro sweep detector_throughput --timeout 300
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable, Mapping, NamedTuple

from repro.analysis.metrics import BorderlinePolicy, match_detections
from repro.analysis.sweep import format_table
from repro.core.process import ClockConfig
from repro.scenarios.builders import OBS_SCENARIOS, delay_model

#: ``--detectors`` name -> clock family (the offline replay detectors)
DETECTORS = {
    "vector": "offline_vector_strobe",
    "scalar": "offline_scalar_strobe",
    "physical": "physical",
}


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _supervision_flags(p) -> None:
    """--timeout / --retries (sweep-shaped commands)."""
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="kill a task exceeding this wall time and replace "
                        "its worker (default: no per-task deadline)")
    p.add_argument("--retries", type=int, default=2, metavar="N",
                   help="retry a hung/killed task up to N times before "
                        "quarantining it to <out>.quarantine.jsonl "
                        "(default 2)")


def _score_row(name, truth, detections):
    r = match_detections(truth, detections, policy=BorderlinePolicy.AS_POSITIVE)
    return {
        "detector": name,
        "detections": len(detections),
        "borderline": sum(1 for d in detections if not d.firm),
        "tp": r.tp, "fp": r.fp, "fn": r.fn,
        "precision": r.precision, "recall": r.recall,
    }


# ---------------------------------------------------------------------------
# Scenario commands: hall / office / hospital / habitat
# ---------------------------------------------------------------------------

class ScenarioCommand(NamedTuple):
    """One scenario subcommand.

    ``extra`` is called on the built scenario before the run and
    returns the maker of one more output line, printed after the run:
    above the φ line when detectors are scored, last otherwise."""

    profile: str                    # repro.scenarios.builders profile
    config: Mapping[str, str]       # flag dest -> scenario config field
    detectors: tuple[str, ...]      # DETECTORS names scored by default
    oracle: str = "oracle"          # scenario method giving the oracle
    extra: "Callable[[Any], Callable[[], str]] | None" = None


def _effective_delta(habitat) -> Callable[[], str]:
    return lambda: f"effective Δ = {habitat.effective_delta():.2f}s"


def _thermostat(office) -> Callable[[], str]:
    actuations = office.install_thermostat_rule()
    return lambda: f"thermostat actuations: {len(actuations)}"


SCENARIO_COMMANDS = {
    "hall": ScenarioCommand(
        "hall",
        {"doors": "doors", "capacity": "capacity",
         "rate": "arrival_rate", "dwell": "mean_dwell"},
        ("vector", "scalar", "physical"),
    ),
    "office": ScenarioCommand("smart_office_chaos", {}, (), extra=_thermostat),
    "hospital": ScenarioCommand(
        "hospital", {"visitors": "n_visitors", "capacity": "waiting_capacity"},
        ("vector",), oracle="oracle_waiting",
    ),
    "habitat": ScenarioCommand(
        "habitat", {"mac_period": "mac_period", "mac_duty": "mac_duty"},
        ("vector",), extra=_effective_delta,
    ),
}


def cmd_scenario(args) -> int:
    """Run one scenario command and print its oracle-scored table.

    The scenario is the command's profile with the flags' config fields
    on top; each detector comes from the clock-family table.  These
    runs record nothing, so they skip ``prepare_execution`` (which
    binds a flight recorder and takes only manifest fields).

    Exit codes: 0 ok, 2 bad duration or config value.
    """
    from repro.replay.families import make_detector
    from repro.scenarios import builders

    cmd = SCENARIO_COMMANDS[args.command]
    if not args.duration > 0:
        print(f"repro {args.command}: duration must be positive, "
              f"got {args.duration}", file=sys.stderr)
        return 2
    try:
        scenario, phi, initials = builders.build_scenario(
            cmd.profile, seed=args.seed, delta=args.delta,
            **{field: getattr(args, dest) for dest, field in cmd.config.items()},
        )
    except ValueError as exc:
        print(f"repro {args.command}: {exc}", file=sys.stderr)
        return 2
    dets = {name: make_detector(DETECTORS[name], phi, initials)
            for name in getattr(args, "detectors", cmd.detectors)}
    for det in dets.values():
        scenario.attach_detector(det)
    extra = cmd.extra(scenario) if cmd.extra else None
    scenario.run(args.duration)
    truth = getattr(scenario, cmd.oracle)().true_intervals(
        scenario.system.world.ground_truth, t_end=args.duration
    )
    if dets:
        if extra:
            print(extra())
        print(f"φ = {phi}; true occurrences: {len(truth)}")
        print(format_table([
            _score_row(name, truth, det.finalize()) for name, det in dets.items()
        ]))
    else:
        print(f"φ = {phi}")
        print(f"true occurrences     : {len(truth)}")
        if extra:
            print(extra())
    if getattr(args, "export", None):
        _export_bundle(args, dets, truth)
    return 0


def _export_bundle(args, dets, truth) -> None:
    """``hall --export``: the first detector's records, the truth and
    every detector's detections as one JSON run bundle."""
    from repro.analysis.export import export_run

    path = export_run(
        args.export,
        records=next(iter(dets.values())).store.all(),
        truth=truth,
        detections=[d for det in dets.values() for d in det.detections],
        meta={
            "scenario": args.command, "seed": args.seed, "delta": args.delta,
            "doors": args.doors, "capacity": args.capacity,
            "duration": args.duration,
        },
    )
    print(f"run bundle written to {path}")


def cmd_clocks(args) -> int:
    from repro.core.system import PervasiveSystem, SystemConfig
    from repro.detect.base import RecordStore

    system = PervasiveSystem(SystemConfig(
        n_processes=args.n, seed=args.seed, delay=delay_model(args.delta),
        clocks=ClockConfig.everything(),
    ))
    store = RecordStore()
    for i in range(args.n):
        system.world.create(f"obj{i}", level=0)
        system.processes[i].track(f"v{i}", f"obj{i}", "level", initial=0)
        system.processes[i].add_record_listener(store.add)
    t = 1.0
    for k in range(args.events):
        for i in range(args.n):
            system.sim.schedule_at(
                t, lambda i=i, k=k: system.world.set_attribute(f"obj{i}", "level", k + 1)
            )
            t += 1.0
    system.run(until=t + 1.0)
    rows = [
        {
            "event": f"p{r.pid}#{r.seq}",
            "lamport": str(r.lamport),
            "mattern": str(r.vector.as_tuple()),
            "strobe_scalar": str(r.strobe_scalar),
            "strobe_vector": str(r.strobe_vector.as_tuple()),
        }
        for r in store.all()
    ]
    print(format_table(rows))
    return 0


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------

def cmd_obs_run(args) -> int:
    """Run one scenario with full instrumentation; export the report.

    The run is wired as ``trace record`` wires it: a manifest with Δ
    clamped at 0, the shared scenario profiles, and the online
    ``vector_strobe`` clock family."""
    from repro.detect.lattice_detector import LatticeDetector
    from repro.lattice.lattice import LatticeExplosion
    from repro.obs import (
        Observability,
        SpanTracer,
        export_csv,
        export_jsonl,
        instrument_system,
        render_console,
    )
    from repro.replay import RunManifest
    from repro.replay.families import build_detector
    from repro.scenarios.builders import build_scenario

    try:
        manifest = RunManifest(
            scenario=args.scenario, seed=args.seed, duration=args.duration,
            delta=max(args.delta, 0.0),
        )
    except ValueError as exc:
        print(f"repro obs run: {exc}", file=sys.stderr)
        return 2
    scenario, phi, initials = build_scenario(
        manifest.scenario, seed=manifest.seed, delta=manifest.delta
    )
    system = scenario.system
    obs = Observability(tracer=SpanTracer(system.sim))
    probe = instrument_system(
        system, obs.registry, sample_every=args.sample_every
    )
    det = build_detector(manifest, scenario, phi, initials).detector

    with obs.tracer.span("scenario.run", t=0.0, scenario=args.scenario):
        scenario.run(manifest.duration)
    with obs.tracer.span("detector.finalize"):
        det.finalize()

    # Modal query over the same record stream: lattice metrics.
    lat = LatticeDetector(phi, initials, system.n, max_states=args.max_lattice)
    lat.bind_probe(probe)
    lat.feed_many(det.store.all())
    with obs.tracer.span("lattice.modalities"):
        try:
            lat.modalities()
        except LatticeExplosion:
            obs.registry.counter("detect.lattice.explosions").inc()

    meta = {
        "scenario": manifest.scenario, "seed": manifest.seed,
        "delta": manifest.delta, "duration": manifest.duration,
        "predicate": str(phi),
    }
    if args.export == "console":
        print(render_console(
            obs.registry, obs.tracer,
            title=f"obs report — {args.scenario}",
        ))
    else:
        ext = "jsonl" if args.export == "jsonl" else "csv"
        out = args.out or f"obs_{args.scenario}.{ext}"
        if args.export == "jsonl":
            path = export_jsonl(
                out, obs.registry, obs.tracer, meta=meta, t_sim=system.sim.now,
            )
        else:
            path = export_csv(out, obs.registry)
        print(f"{len(obs.registry)} metrics, {len(obs.tracer)} spans "
              f"-> {path}")
    return 0


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _run_grid(tasks, *, out: str, args, matrix: str, master_seed: int,
              reps: "int | None" = None):
    """Resume, run and write one sweep-shaped command's tasks.

    Tasks run on :class:`~repro.recover.SupervisedPool` under
    ``--workers`` / ``--timeout`` / ``--retries``.  Completed rows are
    durably appended to ``<out>.partial.jsonl`` as they land (so a
    killed parent resumes from disk, with ``--resume``); poisoned tasks
    go to ``<out>.quarantine.jsonl``.  Once every row is in the
    atomically written ``out``, the partial sidecar is removed.

    Returns ``(rows, n_cached, n_failed, registry, path, exit_code)``;
    the exit code is 130 when interrupted, 1 when a row failed or a
    task was quarantined, else 0.
    """
    import json as _json
    from pathlib import Path

    from repro.obs import MetricsRegistry
    from repro.recover import SupervisedPool, SupervisePolicy
    from repro.sweep import (
        partition_resumable,
        read_completed_rows,
        write_sweep_jsonl,
    )
    from repro.util.atomicio import durable_append_lines

    partial = Path(f"{out}.partial.jsonl")
    quarantine = f"{out}.quarantine.jsonl"
    cached: list = []
    if args.resume:
        completed = read_completed_rows(out)
        completed.update(read_completed_rows(partial))
        tasks, cached = partition_resumable(tasks, completed)
        if cached:
            print(f"resume: {len(cached)} point(s) already in {out}, "
                  f"{len(tasks)} to run")

    def on_row(row):
        durable_append_lines(partial, [_json.dumps(row, sort_keys=True)])

    registry = MetricsRegistry()
    report = SupervisedPool(
        workers=args.workers,
        policy=SupervisePolicy(timeout_s=args.timeout, max_retries=args.retries),
        seed=getattr(args, "seed", 0),
        registry=registry,
        quarantine_path=quarantine,
        on_row=on_row,
    ).run(tasks)
    if report.status != "ok":
        spec = report.to_spec()
        print(f"worker plane: status={spec['status']} "
              f"retries={spec['retries']} timeouts={spec['timeouts']} "
              f"worker_deaths={spec['worker_deaths']} "
              f"skipped={spec['skipped']}", file=sys.stderr)
        for q in report.quarantined:
            print(f"  quarantined task {q['index']} {q['params']}: "
                  f"{q['reason']} ({q['attempts']} attempt(s)) "
                  f"-> {quarantine}", file=sys.stderr)
    rows = sorted(report.rows + cached, key=lambda r: r["index"])
    path = write_sweep_jsonl(
        out, rows, matrix=matrix, master_seed=master_seed, reps=reps,
    )
    partial.unlink(missing_ok=True)
    failed = sum(1 for r in rows if "error" in r)
    if report.status == "interrupted":
        code = 130
    else:
        code = 1 if (failed or report.status == "degraded") else 0
    return rows, len(cached), failed, registry, path, code


def cmd_sweep(args) -> int:
    """Run a named (config, seed) replication matrix on a process pool.

    The JSONL output is byte-identical for any ``--workers`` value —
    the determinism contract of :mod:`repro.sweep`.
    """
    from repro.sweep import expand_matrix
    from repro.sweep.points import MATRICES

    if args.list_matrices:
        for name in sorted(MATRICES):
            spec = MATRICES[name]
            print(f"{name}  [{spec.n_points} points x {spec.reps} reps]  "
                  f"{spec.description}")
        return 0
    if not args.matrix:
        print("repro sweep: name a matrix or pass --list", file=sys.stderr)
        return 2
    spec = MATRICES.get(args.matrix)
    if spec is None:
        print(f"repro sweep: unknown matrix {args.matrix!r} "
              f"(have {', '.join(sorted(MATRICES))})", file=sys.stderr)
        return 2
    tasks = expand_matrix(spec, master_seed=args.seed, reps=args.reps)
    rows, n_cached, failed, registry, path, code = _run_grid(
        tasks, out=args.out or f"sweep_{spec.name}.jsonl", args=args,
        matrix=spec.name, master_seed=args.seed, reps=args.reps or spec.reps,
    )
    wall = registry.histogram("sweep.task_wall_s")
    print(f"{len(rows)} tasks ({failed} failed, {n_cached} cached), "
          f"{args.workers} worker(s), "
          f"task wall mean={wall.mean:.3f}s max={wall.max:.3f}s -> {path}")
    for r in rows:
        if "error" in r:
            print(f"  task {r['index']} {r['params']}: {r['error']}",
                  file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# Static analysis
# ---------------------------------------------------------------------------


def cmd_lint(args) -> int:
    """Run the determinism/causality analyzer over files or trees.

    Exit codes: 0 clean, 1 findings (or, with --fix --check, pending
    fixes), 2 usage error.
    """
    from repro.lint import (
        PROJECT_RULES,
        RULES,
        Baseline,
        BaselineError,
        LintCache,
        LintUsageError,
        fix_paths,
        lint_paths,
    )

    if args.list_rules:
        for rule_id in sorted(RULES):
            print(f"{rule_id}  {RULES[rule_id].title}")
        for rule_id in sorted(PROJECT_RULES):
            print(f"{rule_id}  {PROJECT_RULES[rule_id].title}  [whole-program]")
        return 0
    select = None
    if args.select:
        select = [s for chunk in args.select for s in chunk.split(",") if s]

    if args.fix or args.diff:
        try:
            fix_report = fix_paths(
                args.paths,
                select=select,
                write=args.fix and not (args.check or args.diff),
            )
        except LintUsageError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
        if args.diff:
            sys.stdout.write(fix_report.render_diff())
        print(fix_report.summary())
        if args.check:
            return 0 if fix_report.clean else 1
        if args.diff and not args.fix:
            return 0
        # fall through and lint the (now fixed) tree

    cache = None if args.no_cache else LintCache(args.cache_dir)
    baseline = None
    if args.baseline is not None and not args.update_baseline:
        try:
            baseline = Baseline.load(args.baseline)
        except BaselineError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2
    try:
        report = lint_paths(
            args.paths, select=select, cache=cache, baseline=baseline
        )
    except LintUsageError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    if args.update_baseline:
        path = args.baseline or "lint-baseline.json"
        Baseline.from_findings(report.findings).save(path)
        print(f"baseline written: {path} ({len(report.findings)} finding(s))")
        return 0
    print(report.render_json() if args.json else report.render_text())
    return 0 if report.clean else 1


# ---------------------------------------------------------------------------
# Tracing (repro.trace)
# ---------------------------------------------------------------------------


def _load_plan(name_or_path: "str | None"):
    """Resolve --plan for trace/chaos: None, 'default', or a JSON path.
    Returns the plan or raises ValueError with a printable message."""
    if name_or_path is None:
        return None
    if name_or_path == "default":
        from repro.faults import default_plan

        return default_plan()
    from repro.faults import FaultError, FaultPlan

    try:
        with open(name_or_path, encoding="utf-8") as fh:
            return FaultPlan.from_json(fh.read())
    except (OSError, FaultError, ValueError) as exc:
        raise ValueError(f"cannot load plan {name_or_path!r}: {exc}") from exc


def cmd_trace_record(args) -> int:
    """Record a scenario run into a replayable flight-recorder trace.

    Recording goes through the replay engine's shared execute path and
    embeds a :class:`~repro.replay.manifest.RunManifest` in the trace
    header, so the file is re-executable by ``repro replay``.
    """
    from repro.replay import ReplayEngine, RunManifest, code_digest
    from repro.trace import write_trace

    try:
        plan = _load_plan(args.plan)
    except ValueError as exc:
        print(f"repro trace record: {exc}", file=sys.stderr)
        return 2
    manifest = RunManifest(
        scenario=args.scenario,
        seed=args.seed,
        duration=args.duration,
        delta=max(args.delta, 0.0),
        clock_family=args.clock_family,
        check_period=args.check_period,
        capacity=args.capacity,
        plan=plan,
        code_digest=code_digest(),
    )
    result = ReplayEngine().execute(manifest)
    recorder = result.recorder
    out = args.out or f"{args.scenario}.trace"
    path = write_trace(out, recorder)
    evicted = sum(recorder.evicted[p] for p in recorder.pids())
    print(f"{recorder.total_recorded} events recorded "
          f"({evicted} evicted), {len(recorder.detections)} detection(s) "
          f"-> {path}")
    if evicted:
        print(f"warning: ring overflow evicted {evicted} entries; "
              "this trace cannot be replay-verified "
              "(re-record with a larger --capacity)", file=sys.stderr)
    return 0


def cmd_trace_report(args) -> int:
    """Happens-before stats + per-detection latency attribution."""
    import json as _json

    from repro.trace import CausalGraph, TraceError, TraceFormatError, read_trace

    try:
        trace = read_trace(args.trace)
    except TraceFormatError as exc:
        print(f"repro trace report: {exc}", file=sys.stderr)
        return 2
    graph = CausalGraph(trace.events)
    kinds: dict = {}
    for e in trace.events:
        kinds[e.kind] = kinds.get(e.kind, 0) + 1
    attributions = []
    for det in trace.detections:
        try:
            attributions.append(graph.attribute_latency(det))
        except TraceError as exc:
            attributions.append({
                "trigger": det["trigger"], "host": det["host"],
                "error": str(exc),
            })
    if args.json:
        print(_json.dumps({
            "meta": trace.meta,
            "events": len(trace.events),
            "by_kind": kinds,
            "edges": graph.n_edges(),
            "detections": len(trace.detections),
            "attributions": attributions,
        }, sort_keys=True))
        return 0
    meta = trace.meta
    print(f"trace     : {args.trace} "
          f"(scenario={meta.get('scenario')}, seed={meta.get('seed')})")
    print(f"events    : {len(trace.events)} retained "
          f"({', '.join(f'{k}={kinds[k]}' for k in sorted(kinds))})")
    print(f"hb graph  : {len(graph)} nodes, {graph.n_edges()} edges")
    print(f"detections: {len(trace.detections)}")
    for det, att in zip(trace.detections, attributions):
        tag = f"p{det['trigger'][0]}#{det['trigger'][1]} {det['var']} " \
              f"({det['label']})"
        if "error" in att:
            print(f"  {tag}: {att['error']}")
        else:
            print(f"  {tag}: total {att['total_s']:.3f}s = "
                  f"compute {att['compute_s']:.3f} + "
                  f"queue {att['queue_s']:.3f} + "
                  f"transport {att['transport_s']:.3f} + "
                  f"sync {att['sync_s']:.3f}  "
                  f"[{att['hops']} hop(s)]")
    return 0


def cmd_trace_export(args) -> int:
    """Export a trace to Perfetto (validated) or canonical JSONL."""
    from repro.trace import (
        SchemaError,
        TraceFormatError,
        export_perfetto,
        perfetto_document,
        read_trace,
        validate_perfetto,
    )

    try:
        trace = read_trace(args.trace)
    except TraceFormatError as exc:
        print(f"repro trace export: {exc}", file=sys.stderr)
        return 2
    if args.format == "perfetto":
        out = args.out or f"{args.trace}.perfetto.json"
        doc = perfetto_document(trace)
        try:
            validate_perfetto(doc)
        except SchemaError as exc:
            print(f"repro trace export: schema violation: {exc}",
                  file=sys.stderr)
            return 1
        path = export_perfetto(trace, out)
        print(f"{len(doc['traceEvents'])} trace events -> {path} "
              f"(open in ui.perfetto.dev)")
    else:
        out = args.out or f"{args.trace}.jsonl"
        import shutil

        shutil.copyfile(args.trace, out)
        print(f"{len(trace.events)} events -> {out}")
    return 0


def cmd_trace_diff(args) -> int:
    """Structural diff of two traces (twin chaos runs).

    Exit codes: 0 identical, 1 differences found, 2 usage error.
    """
    from repro.trace import trace_diff

    try:
        diff = trace_diff(args.trace_a, args.trace_b)
    except (OSError, ValueError) as exc:
        print(f"repro trace diff: {exc}", file=sys.stderr)
        return 2
    if diff["identical"]:
        print(f"identical: {diff['entries_a']} entries on both sides")
        return 0
    print(f"a: {diff['entries_a']} entries, b: {diff['entries_b']} entries")
    print(f"only in a: {diff['only_a']}, only in b: {diff['only_b']}"
          + ("" if diff["meta_equal"] else "  (meta headers differ)"))
    for w in diff["windows"]:
        clear = "∞" if w["clear"] is None else f"{w['clear']:.2f}"
        print(f"  [{w['start']:7.2f}, {clear:>7}] {w['action']:<15} "
              f"{w['diffs']:3d} differing entr(ies)")
    if diff["unattributed"]:
        print(f"  unattributed (pre-fault!): {diff['unattributed']}")
    for line in diff["sample_only_a"]:
        print(f"  -a {line}")
    for line in diff["sample_only_b"]:
        print(f"  +b {line}")
    return 1


# ---------------------------------------------------------------------------
# Replay (repro.replay)
# ---------------------------------------------------------------------------


def cmd_replay_verify(args) -> int:
    """Re-execute a recorded trace and prove bit-identity.

    Exit codes: 0 bit-identical, 1 diverged, 2 not replayable.
    """
    import json as _json

    from repro.replay import ReplayEngine, ReplayError
    from repro.trace import TraceFormatError

    try:
        report = ReplayEngine().verify(args.trace)
    except (ReplayError, TraceFormatError) as exc:
        print(f"repro replay verify: {exc}", file=sys.stderr)
        return 2
    text = _json.dumps(report, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.json:
        print(text)
    elif report["identical"]:
        print(f"bit-identical: {report['recorded_lines']} lines, "
              f"{report['detections']} detection(s) reproduced "
              f"[{report['scenario']}/{report['clock_family']}]")
        if not report["code_digest_match"]:
            print("note: code digest changed since recording "
                  "(replay still identical)", file=sys.stderr)
    else:
        div = report["divergence"]
        print(f"DIVERGED at line {div['lineno']} "
              f"(recorded {report['recorded_lines']} lines, "
              f"replayed {report['replayed_lines']})")
        print(f"  recorded: {div['recorded']}")
        print(f"  replayed: {div['replayed']}")
        if not report["code_digest_match"]:
            print(f"  code digest changed since recording "
                  f"({report['code_digest_recorded']} -> "
                  f"{report['code_digest_now']}) — likely a code change, "
                  f"not nondeterminism")
        for e in div["causal_context"]:
            print(f"    depends on gseq={e['gseq']} p{e['pid']} "
                  f"{e['kind']} t={e['t']:.4f} digest={e['digest']}")
    return 0 if report["identical"] else 1


def cmd_replay_run(args) -> int:
    """Re-execute a recorded trace; write the re-recorded trace."""
    from repro.replay import ReplayEngine, ReplayError
    from repro.trace import TraceFormatError, write_trace

    engine = ReplayEngine()
    try:
        manifest = engine.manifest_of(args.trace)
    except (ReplayError, TraceFormatError) as exc:
        print(f"repro replay run: {exc}", file=sys.stderr)
        return 2
    result = engine.execute(manifest)
    out = args.out or f"{args.trace}.replay"
    path = write_trace(out, result.recorder)
    print(f"replayed {manifest.scenario}/{manifest.clock_family} "
          f"seed={manifest.seed} for {manifest.duration}s: "
          f"{result.recorder.total_recorded} events, "
          f"{len(result.detections)} detection(s) -> {path}")
    return 0


def cmd_replay_counterfactual(args) -> int:
    """Re-execute under a swapped time model; report the detection diff.

    Exit codes: 0 diff computed (differences are the product, not an
    error), 2 not replayable / bad spec.
    """
    import json as _json

    from repro.replay import CounterfactualSpec, run_counterfactual

    drop_plan = args.plan == "none"
    plan = None
    if args.plan is not None and not drop_plan:
        try:
            plan = _load_plan(args.plan)
        except ValueError as exc:
            print(f"repro replay counterfactual: {exc}", file=sys.stderr)
            return 2
    try:
        spec = CounterfactualSpec(
            clock_family=args.clock_family,
            delta=args.delta,
            check_period=args.check_period,
            plan=plan,
            drop_plan=drop_plan,
        )
        diff = run_counterfactual(args.trace, spec)
    except ValueError as exc:
        # ReplayError and TraceFormatError are both ValueError.
        print(f"repro replay counterfactual: {exc}", file=sys.stderr)
        return 2
    report = diff.to_report()
    text = _json.dumps(report, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.json:
        print(text)
        return 0
    base = report["baseline_manifest"]
    cf = report["counterfactual_manifest"]
    swapped = ", ".join(
        f"{k}: {base[k]!r} -> {cf[k]!r}"
        for k in sorted(base)
        if k != "code_digest" and base[k] != cf[k]
    ) or "nothing (identity)"
    counts = report["counts"]
    print(f"baseline  : {base['scenario']} seed={base['seed']} "
          f"{base['clock_family']} Δ={base['delta']}")
    print(f"swapped   : {swapped}")
    print(f"world     : {report['world_events']} recorded event(s) replayed")
    print(f"detections: {counts['kept']} kept, {counts['appeared']} appeared, "
          f"{counts['disappeared']} disappeared")
    for entry in report["appeared"]:
        t, pid, var, value = entry["key"]
        why = entry["explanation"]["baseline"].get("reason", "?")
        print(f"  + t={t:.3f} p{pid} {var}={value}  "
              f"(absent in baseline: {why})")
    for entry in report["disappeared"]:
        t, pid, var, value = entry["key"]
        why = entry["explanation"]["counterfactual"].get("reason", "?")
        print(f"  - t={t:.3f} p{pid} {var}={value}  "
              f"(absent in counterfactual: {why})")
    return 0


def cmd_replay_matrix(args) -> int:
    """Fan one trace across a grid of time-model swaps (repro.sweep).

    Output JSONL is byte-identical for any --workers value.
    Exit codes: 0 all points computed, 1 some points failed or were
    quarantined, 2 usage, 130 interrupted.
    """
    from repro.replay import matrix_spec
    from repro.sweep import expand_matrix

    families = tuple(
        s for chunk in (args.clock_families or []) for s in chunk.split(",") if s
    )
    deltas = tuple(
        float(s) for chunk in (args.deltas or []) for s in chunk.split(",") if s
    )
    periods = tuple(
        float(s) for chunk in (args.check_periods or [])
        for s in chunk.split(",") if s
    )
    try:
        spec = matrix_spec(
            args.trace, clock_families=families or None,
            deltas=deltas or None, check_periods=periods or None,
        )
    except ValueError as exc:
        print(f"repro replay matrix: {exc}", file=sys.stderr)
        return 2
    tasks = expand_matrix(spec, master_seed=0)
    rows, n_cached, failed, _, path, code = _run_grid(
        tasks, out=args.out or f"{args.trace}.matrix.jsonl", args=args,
        matrix=spec.name, master_seed=0,
    )
    print(f"{len(rows)} counterfactual(s) ({failed} failed, "
          f"{n_cached} cached), {args.workers} worker(s) -> {path}")
    for r in rows:
        if "error" in r:
            print(f"  point {r['index']} {r['params']}: {r['error']}",
                  file=sys.stderr)
        else:
            res = r["result"]
            axes = {k: v for k, v in r["params"].items() if k != "trace"}
            print(f"  {axes}: kept={res['kept']} appeared={res['appeared']} "
                  f"disappeared={res['disappeared']}")
    return code


# ---------------------------------------------------------------------------
# Crash recovery (repro.recover)
# ---------------------------------------------------------------------------


def _recover_manifest(args, *, clock_family: "str | None" = None):
    """RunManifest from recover/serve CLI args (plan optional)."""
    from repro.replay import RunManifest, code_digest

    plan = _load_plan(getattr(args, "plan", None))
    return RunManifest(
        scenario=args.scenario,
        seed=args.seed,
        duration=args.duration,
        delta=max(args.delta, 0.0),
        clock_family=clock_family or args.clock_family,
        check_period=args.check_period,
        plan=plan,
        code_digest=code_digest(),
    )


def cmd_recover_certify(args) -> int:
    """Kill-anywhere certification: prove that a crash+restore at every
    Nth event boundary resumes to byte-identical output.

    Exit codes: 0 certified, 1 a boundary failed, 2 usage error.
    """
    import json as _json

    from repro.recover import certify_all_families, certify_kill_anywhere

    try:
        manifest = _recover_manifest(
            args,
            clock_family=(
                "vector_strobe" if args.family == "all" else args.family
            ),
        )
    except ValueError as exc:
        print(f"repro recover certify: {exc}", file=sys.stderr)
        return 2
    if args.family == "all":
        report = certify_all_families(
            manifest, every_n=args.every, max_boundaries=args.max_boundaries,
        )
        family_reports = report["families"].values()
    else:
        report = certify_kill_anywhere(
            manifest.with_(clock_family=args.family),
            every_n=args.every, max_boundaries=args.max_boundaries,
        )
        family_reports = [report]
    text = _json.dumps(report, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.json:
        print(text)
    else:
        print(f"scenario  : {report['scenario']} seed={report['seed']} "
              f"duration={report['duration']}s")
        for fam in family_reports:
            verdict = "CERTIFIED" if fam["certified"] else "FAILED"
            print(f"  {fam['clock_family']:<24} {fam['total_events']:5d} events, "
                  f"{fam['checked']:3d} boundar(ies) killed, "
                  f"{fam['detections']:3d} detection(s)  {verdict}")
            for failure in fam["failures"]:
                print(f"    boundary {failure['boundary']}: "
                      f"{failure['reason']}", file=sys.stderr)
        print(f"kill-anywhere: "
              f"{'CERTIFIED' if report['certified'] else 'FAILED'}")
    return 0 if report["certified"] else 1


def cmd_recover_stream(args) -> int:
    """Export the record stream an online detector host sees, as JSONL
    consumable by ``repro serve --wal``."""
    from repro.recover.stream import write_record_stream

    try:
        manifest = _recover_manifest(args)
    except ValueError as exc:
        print(f"repro recover stream: {exc}", file=sys.stderr)
        return 2
    out = args.out or f"{args.scenario}.stream.jsonl"
    n = write_record_stream(out, manifest, host=args.host)
    print(f"{n} record(s) delivered to host {args.host} -> {out}")
    return 0


def cmd_serve(args) -> int:
    """WAL-checkpointed streaming detection over a serve directory.

    With ``--scenario`` the directory is created; without it an
    existing directory is reopened and recovered.  ``--in`` feeds a
    record-stream JSONL (from ``repro recover stream``), skipping
    records the WAL already holds — so rerunning the same command after
    a crash (even ``kill -9``) completes the stream with byte-identical
    detections.

    Exit codes: 0 ok, 2 bad directory/config/stream.
    """
    import json as _json
    import os as _os

    from repro.recover import WalServer
    from repro.recover.wal import WalError

    try:
        if args.scenario is not None:
            server = WalServer(
                args.wal,
                manifest=_recover_manifest(args),
                checkpoint_every=args.checkpoint_every,
            )
        else:
            server = WalServer(args.wal)
    except (WalError, ValueError) as exc:
        print(f"repro serve: {exc}", file=sys.stderr)
        return 2
    if args.input:
        specs = []
        try:
            with open(args.input, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    if not line.strip():
                        continue
                    spec = _json.loads(line)
                    if not isinstance(spec, dict):
                        print(f"repro serve: {args.input}:{lineno}: stream "
                              f"line is not a JSON object", file=sys.stderr)
                        return 2
                    if spec.get("kind") != "meta":
                        specs.append(spec)
        except (OSError, _json.JSONDecodeError) as exc:
            print(f"repro serve: cannot read stream {args.input!r}: {exc}",
                  file=sys.stderr)
            return 2
        done = server.ingested_records
        if done:
            print(f"recovered: {done} record(s) already in the WAL, "
                  f"{max(0, len(specs) - done)} to ingest")
        try:
            for spec in specs[done:]:
                server.ingest(spec)
                if (args.kill_after is not None
                        and server.ingested_records >= args.kill_after):
                    # Simulated crash for the recovery tests: no flush,
                    # no atexit, no checkpoint — the hardest landing.
                    _os._exit(42)
        except WalError as exc:
            print(f"repro serve: {exc}", file=sys.stderr)
            return 2
        if args.finalize and server.ingested_records >= len(specs):
            server.finalize()
        else:
            server.checkpoint()
    status = server.status()
    print(f"{status['dir']}: {status['scenario']}/{status['clock_family']} "
          f"ingested={status['ingested']} emitted={status['emitted']} "
          f"detections={status['detections']} "
          f"finalized={status['finalized']}")
    return 0


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


def cmd_chaos(args) -> int:
    """Run a scenario fault-free and under a fault plan; check §4.2.2.

    Exit codes: 0 ripple check passed, 1 failed (a mismatch before the
    first fault or beyond the ripple horizon), 2 usage error.
    """
    from repro.faults import report_json, run_chaos

    try:
        plan = _load_plan(args.plan)
    except ValueError as exc:
        print(f"repro chaos: {exc}", file=sys.stderr)
        return 2
    report = run_chaos(
        args.scenario, seed=args.seed, duration=args.duration,
        plan=plan, ripple_horizon=args.horizon,
        trace_capacity=65536 if args.trace else None,
    )
    text = report_json(report)
    if args.trace:
        from repro.trace import write_trace

        base_rec, faulty_rec = report["recorders"]
        for suffix, rec in (("base", base_rec), ("faulty", faulty_rec)):
            path = write_trace(f"{args.trace}.{suffix}.trace", rec)
            print(f"{suffix} trace: {rec.total_recorded} events -> {path}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.json:
        print(text)
    else:
        mm = report["mismatches"]
        print(f"plan      : {plan.name} ({len(plan)} events, "
              f"{len(report['windows'])} windows)")
        print(f"baseline  : {report['baseline']['detections']} detections")
        print(f"faulty    : {report['faulty']['detections']} detections, "
              f"{report['faulty']['restarts']} restart(s)")
        print(f"mismatches: {mm['missing']} missing, {mm['spurious']} spurious")
        for w in report["windows"]:
            status = "ok" if w["ok"] else "RIPPLE"
            print(f"  [{w['start']:7.2f}, {w['clear']:7.2f}] {w['action']:<15} "
                  f"{w['mismatches']:3d} mismatch(es)  "
                  f"error window {w['error_window_s']:.2f}s  {status}")
        if report["unattributed"]:
            print(f"  unattributed (pre-fault!): {report['unattributed']}")
        print(f"ripple check: {'PASS' if report['ripple_ok'] else 'FAIL'} "
              f"(horizon {report['ripple_horizon']}s)")
    return 0 if report["ripple_ok"] else 1


# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Pervasive sensornet time-model reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--delta", type=float, default=0.2,
                       help="message delay bound Δ in seconds (0 = synchronous)")
        p.add_argument("--duration", type=float, default=120.0)

    p = sub.add_parser("hall", help="§5 exhibition hall")
    common(p)
    p.add_argument("--doors", type=int, default=4)
    p.add_argument("--capacity", type=int, default=10)
    p.add_argument("--rate", type=float, default=2.5, help="arrivals/s")
    p.add_argument("--dwell", type=float, default=4.0, help="mean dwell s")
    p.add_argument("--detectors", nargs="+",
                   default=list(SCENARIO_COMMANDS["hall"].detectors),
                   choices=sorted(DETECTORS))
    p.add_argument("--export", metavar="PATH", default=None,
                   help="write a JSON run bundle (records/truth/detections)")
    p.set_defaults(fn=cmd_scenario)

    p = sub.add_parser("office", help="§3.3 smart office")
    common(p)
    p.set_defaults(fn=cmd_scenario)

    p = sub.add_parser("hospital", help="hospital ward monitoring")
    common(p)
    p.add_argument("--visitors", type=int, default=12)
    p.add_argument("--capacity", type=int, default=4)
    p.set_defaults(fn=cmd_scenario)

    p = sub.add_parser("habitat", help="duty-cycled wildlife monitoring")
    common(p)
    p.add_argument("--mac-period", type=float, default=2.0)
    p.add_argument("--mac-duty", type=float, default=0.25)
    p.set_defaults(fn=cmd_scenario)

    p = sub.add_parser("clocks", help="stamp one execution under all clocks")
    common(p)
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--events", type=int, default=3)
    p.set_defaults(fn=cmd_clocks)

    p = sub.add_parser("obs", help="instrumented runs (repro.obs)")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    p = obs_sub.add_parser(
        "run", help="run a scenario with instrumentation on and export"
    )
    common(p)
    p.add_argument("scenario", choices=OBS_SCENARIOS)
    p.add_argument("--export", choices=["console", "jsonl", "csv"],
                   default="console",
                   help="report format (default: console table)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="output path (default obs_<scenario>.<ext>)")
    p.add_argument("--sample-every", type=_positive_int, default=500,
                   help="metric time-series sample period, in fired events")
    p.add_argument("--max-lattice", type=int, default=50_000,
                   help="state cap for the lattice modal query")
    p.set_defaults(fn=cmd_obs_run)

    p = sub.add_parser(
        "sweep", help="run a (config, seed) replication matrix (repro.sweep)"
    )
    p.add_argument("matrix", nargs="?", default=None,
                   help="matrix name (see --list)")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed; per-task seeds derive from it")
    p.add_argument("--reps", type=_positive_int, default=None,
                   help="replications per grid point (default: the matrix's)")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="process-pool size (1 = inline; output is "
                        "byte-identical for any value)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="output JSONL (default sweep_<matrix>.jsonl)")
    p.add_argument("--list", dest="list_matrices", action="store_true",
                   help="list the named matrices and exit")
    p.add_argument("--resume", action="store_true",
                   help="skip points whose rows already exist in --out "
                        "or its .partial.jsonl sidecar "
                        "(keyed by coordinate digest); errored rows re-run")
    _supervision_flags(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "lint", help="determinism & causality static analysis (repro.lint)"
    )
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report (schema: docs/static_analysis.md)")
    p.add_argument("--select", action="append", metavar="RULES", default=None,
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.add_argument("--fix", action="store_true",
                   help="apply mechanical fixes (sorted() wraps, "
                        "substream_seed rewrites, sort_keys=True) in place, "
                        "then lint the fixed tree")
    p.add_argument("--diff", action="store_true",
                   help="preview pending fixes as a unified diff "
                        "without writing")
    p.add_argument("--check", action="store_true",
                   help="with --fix: dry-run; exit 1 if any fix is "
                        "pending (the CI no-drift gate)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the incremental finding cache")
    p.add_argument("--cache-dir", metavar="DIR", default=".repro-lint-cache",
                   help="cache location (default: .repro-lint-cache)")
    p.add_argument("--baseline", metavar="PATH", default=None,
                   help="adoption baseline JSON; listed legacy findings "
                        "are tallied, not reported")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite --baseline (default lint-baseline.json) "
                        "from the current findings and exit")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "chaos",
        help="fault-injection run vs fault-free twin (repro.faults)",
    )
    p.add_argument("--scenario", default="smart_office",
                   choices=["smart_office"],
                   help="target scenario (must consume no network rng)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--duration", type=float, default=180.0)
    p.add_argument("--plan", default="default", metavar="NAME|PATH",
                   help="'default' (canned crash+partition+burst+clock plan) "
                        "or a FaultPlan JSON file")
    p.add_argument("--horizon", type=float, default=20.0,
                   help="ripple horizon: max seconds a mismatch may trail "
                        "its fault window's clearing action")
    p.add_argument("--json", action="store_true",
                   help="print the canonical JSON report")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="also write the canonical JSON report to PATH")
    p.add_argument("--trace", metavar="PREFIX", default=None,
                   help="record both runs; write PREFIX.base.trace and "
                        "PREFIX.faulty.trace for `repro trace diff`")
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "trace", help="causal flight recorder (repro.trace)"
    )
    trace_sub = p.add_subparsers(dest="trace_command", required=True)

    p = trace_sub.add_parser(
        "record", help="run a scenario with the flight recorder attached"
    )
    common(p)
    p.add_argument("scenario", choices=OBS_SCENARIOS)
    p.add_argument("--out", metavar="PATH", default=None,
                   help="trace file (default <scenario>.trace)")
    p.add_argument("--capacity", type=_positive_int, default=65536,
                   help="ring-buffer entries per process")
    p.add_argument("--plan", default=None, metavar="NAME|PATH",
                   help="optionally inject faults while recording "
                        "('default' or a FaultPlan JSON file)")
    from repro.replay.manifest import CLOCK_FAMILIES as _FAMILIES

    p.add_argument("--clock-family", choices=_FAMILIES,
                   default="vector_strobe",
                   help="detection time model to record under")
    p.add_argument("--check-period", type=float, default=0.1,
                   help="online detector flush period (the sync-period "
                        "knob; ignored by offline families)")
    p.set_defaults(fn=cmd_trace_record)

    p = trace_sub.add_parser(
        "report", help="happens-before stats + detection latency attribution"
    )
    p.add_argument("trace", help="trace file from `repro trace record`")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.set_defaults(fn=cmd_trace_report)

    p = trace_sub.add_parser(
        "export", help="export to Chrome/Perfetto JSON or canonical JSONL"
    )
    p.add_argument("trace", help="trace file from `repro trace record`")
    p.add_argument("--format", choices=["perfetto", "jsonl"],
                   default="perfetto")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="output path (default <trace>.perfetto.json / .jsonl)")
    p.set_defaults(fn=cmd_trace_export)

    p = trace_sub.add_parser(
        "diff", help="structural diff of two traces (twin chaos runs)"
    )
    p.add_argument("trace_a")
    p.add_argument("trace_b")
    p.set_defaults(fn=cmd_trace_diff)

    p = sub.add_parser(
        "replay",
        help="deterministic replay + counterfactual re-execution (repro.replay)",
    )
    replay_sub = p.add_subparsers(dest="replay_command", required=True)

    p = replay_sub.add_parser(
        "verify",
        help="re-execute a recorded trace and prove bit-identity",
    )
    p.add_argument("trace", help="trace file from `repro trace record`")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="also write the JSON report to PATH")
    p.set_defaults(fn=cmd_replay_verify)

    p = replay_sub.add_parser(
        "run", help="re-execute a trace's manifest; write the new trace"
    )
    p.add_argument("trace", help="trace file from `repro trace record`")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="re-recorded trace path (default <trace>.replay)")
    p.set_defaults(fn=cmd_replay_run)

    p = replay_sub.add_parser(
        "counterfactual",
        help="re-execute under a swapped time model; diff the detections",
    )
    p.add_argument("trace", help="trace file from `repro trace record`")
    p.add_argument("--clock-family", choices=_FAMILIES, default=None,
                   help="swap the detection time model")
    p.add_argument("--delta", type=float, default=None,
                   help="swap the Δ delay bound")
    p.add_argument("--check-period", type=float, default=None,
                   help="swap the detector sync period")
    p.add_argument("--plan", default=None, metavar="NAME|PATH|none",
                   help="swap the fault plan ('default', a FaultPlan JSON "
                        "file, or 'none' to remove the recorded plan)")
    p.add_argument("--json", action="store_true",
                   help="print the canonical JSON diff report")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="also write the JSON diff report to PATH")
    p.set_defaults(fn=cmd_replay_counterfactual)

    p = replay_sub.add_parser(
        "matrix",
        help="fan one trace across a grid of time-model swaps (repro.sweep)",
    )
    p.add_argument("trace", help="trace file from `repro trace record`")
    p.add_argument("--clock-families", action="append", metavar="FAMS",
                   default=None,
                   help="comma-separated clock families to sweep")
    p.add_argument("--deltas", action="append", metavar="DELTAS", default=None,
                   help="comma-separated Δ bounds to sweep")
    p.add_argument("--check-periods", action="append", metavar="PERIODS",
                   default=None,
                   help="comma-separated sync periods to sweep")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="process-pool size (output byte-identical for any value)")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="output JSONL (default <trace>.matrix.jsonl)")
    p.add_argument("--resume", action="store_true",
                   help="skip points whose rows already exist in --out "
                        "or its .partial.jsonl sidecar")
    _supervision_flags(p)
    p.set_defaults(fn=cmd_replay_matrix)

    p = sub.add_parser(
        "recover",
        help="crash recovery: checkpoints, certification, streams "
             "(repro.recover)",
    )
    recover_sub = p.add_subparsers(dest="recover_command", required=True)

    p = recover_sub.add_parser(
        "certify",
        help="prove kill-at-every-Nth-event recovery is byte-identical",
    )
    p.add_argument("scenario", choices=OBS_SCENARIOS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=0.2,
                   help="message delay bound Δ in seconds")
    p.add_argument("--duration", type=float, default=30.0,
                   help="simulated horizon (certification re-runs the "
                        "scenario once per boundary — keep this modest)")
    p.add_argument("--family", choices=(*_FAMILIES, "all"), default="all",
                   help="clock family to certify, or 'all' for the "
                        "five-family proof")
    p.add_argument("--check-period", type=float, default=0.1)
    p.add_argument("--every", type=_positive_int, default=25,
                   help="kill at every Nth event boundary")
    p.add_argument("--max-boundaries", type=_positive_int, default=None,
                   help="cap tested boundaries (evenly thinned)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable report")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="also write the JSON report to PATH")
    p.set_defaults(fn=cmd_recover_certify)

    p = recover_sub.add_parser(
        "stream",
        help="export a host's delivered record stream for `repro serve`",
    )
    p.add_argument("scenario", choices=OBS_SCENARIOS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--duration", type=float, default=120.0)
    p.add_argument("--clock-family", choices=_FAMILIES,
                   default="vector_strobe")
    p.add_argument("--check-period", type=float, default=0.1)
    p.add_argument("--host", type=int, default=0,
                   help="process hosting the detector tap")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="stream JSONL (default <scenario>.stream.jsonl)")
    p.set_defaults(fn=cmd_recover_stream)

    from repro.recover.wal import SERVABLE_FAMILIES as _SERVABLE

    p = sub.add_parser(
        "serve",
        help="WAL-checkpointed streaming detection surviving kill -9 "
             "(repro.recover)",
    )
    p.add_argument("--wal", metavar="DIR", required=True,
                   help="serve directory (WAL + checkpoint + detections)")
    p.add_argument("--scenario", choices=OBS_SCENARIOS, default=None,
                   help="create a new serve directory for this scenario "
                        "(omit to reopen and recover an existing one)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--duration", type=float, default=120.0)
    p.add_argument("--clock-family", choices=_SERVABLE,
                   default="vector_strobe",
                   help="online family to host (offline families have no "
                        "incremental frontier to serve)")
    p.add_argument("--check-period", type=float, default=0.1)
    p.add_argument("--checkpoint-every", type=_positive_int, default=64,
                   help="checkpoint the frontier every N ingested records")
    p.add_argument("--in", dest="input", metavar="PATH", default=None,
                   help="record-stream JSONL to ingest (from "
                        "`repro recover stream`); already-WALed records "
                        "are skipped on rerun")
    p.add_argument("--no-finalize", dest="finalize", action="store_false",
                   help="leave the stream open after --in (default: "
                        "finalize once the whole stream is ingested)")
    p.add_argument("--kill-after", type=_positive_int, default=None,
                   help=argparse.SUPPRESS)  # crash simulation for tests
    p.set_defaults(fn=cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
