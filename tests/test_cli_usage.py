"""Bad input on the command line: exit 2, nothing on stdout, and one
stderr line prefixed by the command that rejected it.

Paths in the table are relative to a scratch directory holding the
fixtures written by ``workdir``, so each message is pinned byte for
byte."""

import argparse
import shutil
from pathlib import Path

import pytest

from repro.cli import build_parser, main

GOLDEN_TRACE = Path(__file__).parent / "trace" / "data" / "hall_vector_strobe.trace"
UNKNOWN_RULE = ("unknown rule id(s): XYZ999; known: CLK001, DET001, DET002, "
                "DET003, OBS001, RACE001, RACE002, SIM001, SIM002, SIM003")
NO_META = "corrupt.trace:1: not a repro.trace JSONL (missing meta header)"
NO_PLAN = ("cannot load plan 'missing.json': [Errno 2] No such file or "
           "directory: 'missing.json'")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ok.py").write_text("x = 1\n")
    (tmp_path / "corrupt.json").write_text("{not json\n")
    (tmp_path / "corrupt.trace").write_text('{"kind": "summary"}\n')
    (tmp_path / "nonobj.jsonl").write_text("[1, 2]\n")
    (tmp_path / "stampless.jsonl").write_text(
        '{"pid": 1, "seq": 1, "t": 0.5, "var": "x1", "value": 1}\n'
    )
    shutil.copyfile(GOLDEN_TRACE, tmp_path / "good.trace")
    return tmp_path


def row(argv, message, out=""):
    return pytest.param(argv, message, out, id=argv)


@pytest.mark.parametrize("argv, message, out", [
    row("obs run hall --duration 0",
        "repro obs run: duration must be positive, got 0.0"),
    row("sweep", "repro sweep: name a matrix or pass --list"),
    row("sweep nope", "repro sweep: unknown matrix 'nope' "
        "(have detector_throughput, fault_resilience, sync_cost)"),
    row("lint --select XYZ999 ok.py", f"repro lint: {UNKNOWN_RULE}"),
    row("lint --fix --select XYZ999 ok.py", f"repro lint: {UNKNOWN_RULE}",
        out="nothing to fix\n"),
    row("lint --fix missing.py",
        "repro lint: no such file or directory: missing.py"),
    row("lint --baseline corrupt.json ok.py",
        "repro lint: baseline is not valid JSON: Expecting property name "
        "enclosed in double quotes: line 1 column 2 (char 1)"),
    row("lint missing.py", "repro lint: no such file or directory: missing.py"),
    row("trace record hall --plan missing.json",
        f"repro trace record: {NO_PLAN}"),
    row("trace report corrupt.trace", f"repro trace report: {NO_META}"),
    row("trace export corrupt.trace", f"repro trace export: {NO_META}"),
    row("trace diff missing.trace corrupt.trace",
        "repro trace diff: missing.trace: cannot read trace: [Errno 2] No "
        "such file or directory: 'missing.trace'"),
    row("replay verify corrupt.trace", f"repro replay verify: {NO_META}"),
    row("replay run corrupt.trace", f"repro replay run: {NO_META}"),
    row("replay counterfactual corrupt.trace --plan missing.json",
        f"repro replay counterfactual: {NO_PLAN}"),
    row("replay counterfactual corrupt.trace",
        f"repro replay counterfactual: {NO_META}"),
    row("replay counterfactual good.trace --check-period 0",
        "repro replay counterfactual: check_period must be positive, got 0.0"),
    row("replay matrix corrupt.trace",
        "repro replay matrix: replay matrix needs at least one axis "
        "(clock families, deltas, or check periods)"),
    row("recover certify hall --duration 0",
        "repro recover certify: duration must be positive, got 0.0"),
    row("recover stream hall --duration 0",
        "repro recover stream: duration must be positive, got 0.0"),
    row("serve --wal nodir", "repro serve: nodir: no serve.json — pass a "
        "manifest to create a new serve directory"),
    row("serve --wal d --scenario hall --duration 0",
        "repro serve: duration must be positive, got 0.0"),
    row("serve --wal d --scenario hall --duration 6 --in nonobj.jsonl",
        "repro serve: nonobj.jsonl:1: stream line is not a JSON object"),
    row("serve --wal d --scenario hall --duration 6 --in missing.jsonl",
        "repro serve: cannot read stream 'missing.jsonl': [Errno 2] No such "
        "file or directory: 'missing.jsonl'"),
    row("serve --wal d --scenario hall --duration 6 --in stampless.jsonl",
        'repro serve: d: rejected record {"pid": 1, "seq": 1, "t": 0.5, '
        '"value": 1, "var": "x1"}: ValueError: 1 record(s) lack strobe_vector '
        "stamps (first (1, 1)); configure ClockConfig(strobe_vector=True)"),
    row("chaos --plan missing.json", f"repro chaos: {NO_PLAN}"),
    # Rejected by a constructor or a conversion the command did not
    # guard: these used to end in a traceback and exit 1.
    row("trace record hall --duration -1",
        "repro trace record: duration must be positive, got -1.0"),
    row("trace record hall --check-period 0",
        "repro trace record: check_period must be positive, got 0.0"),
    row("chaos --duration -1", "repro chaos: duration must be positive, got -1.0"),
    row("chaos --horizon -1", "repro chaos: ripple_horizon must be >= 0, got -1.0"),
    row("clocks --n 0", "repro clocks: need at least one process"),
    row("sweep sync_cost --timeout -1",
        "repro sweep: timeout_s must be positive, got -1.0"),
    row("sweep sync_cost --retries -1",
        "repro sweep: max_retries must be >= 0, got -1"),
    row("replay matrix good.trace --deltas x",
        "repro replay matrix: could not convert string to float: 'x'"),
    row("replay matrix good.trace --check-periods x",
        "repro replay matrix: could not convert string to float: 'x'"),
])
def test_bad_input_exits_2_with_one_line(workdir, argv, message, out, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err == message + "\n"


def _subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield sub
                yield from _subparsers(sub)


def test_every_subcommand_renders_its_help():
    """argparse formats help lazily: a bad help string shows up only
    when someone asks for it."""
    parsers = list(_subparsers(build_parser()))
    assert len(parsers) == 24
    for p in parsers:
        assert p.format_help().startswith(f"usage: {p.prog}")
        if p.get_default("fn") is not None:
            assert p.get_default("prog") == p.prog
