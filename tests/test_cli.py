"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_hall_runs(capsys):
    rc = main(["hall", "--doors", "2", "--duration", "30", "--delta", "0.1",
               "--detectors", "vector"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "true occurrences" in out
    assert "vector" in out


def test_hall_synchronous_delta_zero(capsys):
    rc = main(["hall", "--doors", "2", "--duration", "20", "--delta", "0",
               "--detectors", "vector", "scalar"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scalar" in out


def test_office_runs(capsys):
    rc = main(["office", "--duration", "100"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "thermostat actuations" in out


def test_hospital_runs(capsys):
    rc = main(["hospital", "--duration", "40", "--visitors", "6"])
    assert rc == 0
    assert "waiting room" in capsys.readouterr().out


def test_habitat_runs(capsys):
    rc = main(["habitat", "--duration", "60"])
    assert rc == 0
    assert "effective Δ" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    ("hall --duration -5", "repro hall: duration must be positive, got -5.0"),
    ("hall --duration 0", "repro hall: duration must be positive, got 0.0"),
    ("office --duration 0", "repro office: duration must be positive, got 0.0"),
    ("hall --doors 0", "repro hall: need at least one process"),
    ("hall --dwell -1", "repro hall: mean_dwell must be non-negative, got -1.0"),
    ("hospital --duration -1",
     "repro hospital: duration must be positive, got -1.0"),
    ("habitat --mac-duty 0", "repro habitat: duty must be in (0,1], got 0.0"),
    ("hospital --visitors -1",
     "repro hospital: n_visitors must be non-negative, got -1"),
    ("hospital --capacity -1",
     "repro hospital: waiting_capacity must be non-negative, got -1"),
    ("hall --capacity -3", "repro hall: capacity must be non-negative, got -3"),
])
def test_scenario_command_rejects_bad_values_with_one_line(argv, message, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_clocks_runs(capsys):
    rc = main(["clocks", "--n", "2", "--events", "2", "--delta", "0"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lamport" in out and "strobe_vector" in out


def test_unknown_detector_rejected():
    with pytest.raises(SystemExit):
        main(["hall", "--detectors", "quantum"])


def test_obs_run_console(capsys):
    rc = main(["obs", "run", "smart_office", "--duration", "30"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "kernel.events_fired" in out
    assert "net.sent" in out
    assert "scenario.run" in out


def test_obs_run_jsonl_has_all_metric_families(tmp_path, capsys):
    from repro.obs.exporters import read_jsonl, registry_from_jsonl

    out_path = tmp_path / "obs.jsonl"
    rc = main(["obs", "run", "smart_office", "--duration", "40",
               "--export", "jsonl", "--out", str(out_path)])
    assert rc == 0
    events = read_jsonl(out_path)
    assert events[0]["meta"]["scenario"] == "smart_office"
    names = {ev["name"] for ev in events if ev["kind"] == "metric"}
    for family in ("kernel.", "net.", "clock.", "detect."):
        assert any(n.startswith(family) for n in names), family
    # Dual stamps on every metric and sample line.
    for ev in events:
        if ev["kind"] in ("metric", "sample"):
            assert "t_sim" in ev and "t_wall" in ev
    reg = registry_from_jsonl(events)
    assert reg.get("kernel.events_fired").value > 0


def test_obs_run_csv(tmp_path, capsys):
    out_path = tmp_path / "obs.csv"
    rc = main(["obs", "run", "hall", "--duration", "30",
               "--export", "csv", "--out", str(out_path)])
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("name,type,")
    assert any(line.startswith("net.sent,counter,") for line in lines)


def obs_projection(path):
    """The deterministic part of an obs JSONL report: no wall stamps or
    wall durations, and only the count of the callback wall-time
    histogram."""
    from repro.obs.exporters import read_jsonl

    out = []
    for ev in read_jsonl(path):
        ev = {k: v for k, v in ev.items() if k not in ("t_wall", "wall_s")}
        if ev["kind"] == "metric" and ev["name"] == "kernel.callback_wall_s":
            ev = {"kind": "metric", "name": ev["name"], "count": ev["count"]}
        out.append(ev)
    return out


def test_obs_run_negative_delta_runs_the_delta_zero_profile(tmp_path, capsys):
    reports = {}
    for delta in ("-1", "0"):
        out_path = tmp_path / f"obs{delta}.jsonl"
        rc = main(["obs", "run", "hall", "--duration", "30", "--delta", delta,
                   "--export", "jsonl", "--sample-every", "100",
                   "--out", str(out_path)])
        assert rc == 0
        reports[delta] = obs_projection(out_path)
    assert reports["-1"][0]["meta"]["delta"] == 0.0
    assert reports["-1"] == reports["0"]


def test_obs_run_rejects_a_nonpositive_duration(capsys):
    assert main(["obs", "run", "hall", "--duration", "0"]) == 2
    assert "duration must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-1"])
def test_obs_run_rejects_a_nonpositive_lattice_cap(cap, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["obs", "run", "hall", "--max-lattice", cap])
    assert exc.value.code == 2
    assert f"argument --max-lattice: must be >= 1, got {cap}" in capsys.readouterr().err


def test_obs_rejects_unknown_scenario():
    with pytest.raises(SystemExit):
        main(["obs", "run", "atlantis"])


LINT_BAD = "import time\nt = time.time()\n"


def test_lint_clean_file_exits_zero(tmp_path, capsys):
    path = tmp_path / "ok.py"
    path.write_text("x = 1\n")
    assert main(["lint", str(path)]) == 0
    assert "clean: 1 file(s) checked" in capsys.readouterr().out


def test_lint_violation_exits_one_with_rule_id(tmp_path, capsys):
    path = tmp_path / "bad.py"
    path.write_text(LINT_BAD)
    assert main(["lint", str(path)]) == 1
    out = capsys.readouterr().out
    assert "SIM001" in out and "bad.py:2:" in out


def test_lint_json_schema(tmp_path, capsys):
    import json

    path = tmp_path / "bad.py"
    path.write_text(LINT_BAD)
    assert main(["lint", str(path), "--json", "--no-cache"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == 2
    assert doc["tool"] == "repro-lint"
    assert doc["files_checked"] == 1
    assert doc["clean"] is False
    assert doc["counts"] == {"SIM001": 1}
    assert doc["suppressed"] == {}
    assert doc["baselined"] == {}
    assert doc["warnings"] == []
    (finding,) = doc["findings"]
    assert set(finding) == {"rule", "path", "line", "col", "message"}
    assert finding["rule"] == "SIM001"
    assert finding["line"] == 2


def test_lint_select_filters_rules(tmp_path, capsys):
    path = tmp_path / "bad.py"
    path.write_text(LINT_BAD)
    assert main(["lint", str(path), "--select", "DET001"]) == 0
    capsys.readouterr()


def test_lint_unknown_rule_exits_two(tmp_path, capsys):
    path = tmp_path / "ok.py"
    path.write_text("x = 1\n")
    assert main(["lint", str(path), "--select", "NOPE123"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("SIM001", "SIM002", "SIM003", "CLK001", "DET001", "OBS001"):
        assert rule_id in out


def test_lint_repo_src_is_clean(capsys):
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    assert main(["lint", str(src)]) == 0
    capsys.readouterr()


def test_hall_export_bundle(tmp_path, capsys):
    from repro.analysis.export import load_run
    out_path = tmp_path / "run.json"
    rc = main(["hall", "--doors", "2", "--duration", "30", "--delta", "0.1",
               "--detectors", "vector", "--export", str(out_path)])
    assert rc == 0
    bundle = load_run(out_path)
    assert bundle["meta"]["scenario"] == "hall"
    assert len(bundle["records"]) > 0
