"""CLI surface of the recovery layer: ``repro recover`` / ``repro
serve`` / supervised sweeps — including a real ``kill -9``-grade crash
in a subprocess."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def test_recover_certify_single_family(capsys):
    rc = main([
        "recover", "certify", "hall", "--duration", "5",
        "--family", "scalar_strobe", "--every", "60",
        "--max-boundaries", "2",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "scalar_strobe" in out
    assert "kill-anywhere: CERTIFIED" in out


def test_recover_certify_json_report(capsys, tmp_path):
    out_path = tmp_path / "certify.json"
    rc = main([
        "recover", "certify", "hall", "--duration", "4",
        "--family", "physical", "--every", "80", "--max-boundaries", "1",
        "--json", "--out", str(out_path),
    ])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report == json.loads(out_path.read_text())
    assert report["certified"] is True
    assert report["clock_family"] == "physical"


def test_stream_then_serve_roundtrip(capsys, tmp_path):
    stream = tmp_path / "hall.stream.jsonl"
    rc = main([
        "recover", "stream", "hall", "--duration", "12",
        "--out", str(stream),
    ])
    assert rc == 0
    served = tmp_path / "served"
    rc = main([
        "serve", "--wal", str(served), "--scenario", "hall",
        "--duration", "12", "--checkpoint-every", "8",
        "--in", str(stream),
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "finalized=True" in out
    assert (served / "wal.jsonl").exists()
    assert (served / "checkpoint.json").exists()


def test_serve_reopen_without_config_fails(capsys, tmp_path):
    rc = main(["serve", "--wal", str(tmp_path / "missing")])
    assert rc == 2
    assert "no serve.json" in capsys.readouterr().err


@pytest.mark.parametrize("bad_line", ["[1, 2]", '"x"', "3", "null"])
def test_serve_rejects_a_non_object_stream_line(bad_line, capsys, tmp_path):
    stream = tmp_path / "hall.stream.jsonl"
    assert main(["recover", "stream", "hall", "--duration", "6",
                 "--out", str(stream)]) == 0
    lines = stream.read_text().splitlines()
    bad = tmp_path / "bad.stream.jsonl"
    bad.write_text("\n".join(lines + [bad_line]) + "\n")
    served = tmp_path / "served"
    capsys.readouterr()
    rc = main(["serve", "--wal", str(served), "--scenario", "hall",
               "--duration", "6", "--in", str(bad)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"repro serve: {bad}:{len(lines) + 1}: stream line is not a JSON object\n"
    )
    assert not (served / "wal.jsonl").exists()
    # The same directory then takes the clean stream.
    assert main(["serve", "--wal", str(served), "--in", str(stream)]) == 0
    assert "finalized=True" in capsys.readouterr().out


@pytest.mark.slow
def test_serve_survives_hard_kill_byte_identically(tmp_path):
    """Crash the serve subprocess mid-stream with os._exit (the CLI's
    --kill-after), reopen, and require byte-identical detections."""
    env = _cli_env()
    stream = tmp_path / "s.jsonl"
    subprocess.run(
        [sys.executable, "-m", "repro", "recover", "stream", "hall",
         "--duration", "12", "--out", str(stream)],
        check=True, env=env, capture_output=True,
    )
    n_records = sum(
        1 for line in stream.read_text().splitlines()
        if json.loads(line).get("kind") != "meta"
    )
    assert n_records > 4

    def serve(directory, *extra):
        return subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--wal", str(directory),
             "--scenario", "hall", "--duration", "12",
             "--checkpoint-every", "4", "--in", str(stream), *extra],
            env=env, capture_output=True, text=True,
        )

    full = serve(tmp_path / "full")
    assert full.returncode == 0, full.stderr

    crashed = serve(tmp_path / "crash", "--kill-after", str(n_records // 2))
    assert crashed.returncode == 42       # the simulated crash fired

    # Rerunning the same command recovers and completes the stream.
    resumed = subprocess.run(
        [sys.executable, "-m", "repro", "serve",
         "--wal", str(tmp_path / "crash"), "--in", str(stream)],
        env=env, capture_output=True, text=True,
    )
    assert resumed.returncode == 0, resumed.stderr
    assert "recovered:" in resumed.stdout
    assert (
        (tmp_path / "crash" / "detections.jsonl").read_bytes()
        == (tmp_path / "full" / "detections.jsonl").read_bytes()
    )


def test_supervised_sweep_flag_smoke(capsys, tmp_path, monkeypatch):
    """A sweep on worker processes completes a real (tiny) matrix and
    cleans up its partial sidecar."""
    out = tmp_path / "matrix.jsonl"
    rc = main([
        "sweep", "detector_throughput", "--reps", "1",
        "--workers", "2", "--out", str(out),
    ])
    assert rc == 0
    assert out.exists()
    assert not (tmp_path / "matrix.jsonl.partial.jsonl").exists()
    header = json.loads(out.read_text().splitlines()[0])
    assert header["kind"] == "meta"
