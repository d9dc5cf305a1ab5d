"""Byte-for-byte golden outputs of the scenario commands.

``tests/data/cli/<case>.out`` holds the stdout of ``repro <argv>`` for
each case below, and ``hall_export.json`` the run bundle the
``hall_export`` case writes.  The substring checks in ``test_cli.py``
say a command ran; these say it printed exactly what it printed
before.  To re-record a case after an intended output change, run
``python -m repro <argv> > tests/data/cli/<case>.out``.
"""

from pathlib import Path

import pytest

from repro.cli import main

DATA = Path(__file__).parent / "data" / "cli"

CASES = {
    "hall_default": "hall",
    "office_default": "office",
    "hospital_default": "hospital",
    "habitat_default": "habitat",
    "hall_doors2_vector":
        "hall --doors 2 --duration 30 --delta 0.1 --detectors vector",
    "hall_delta0_vector_scalar":
        "hall --doors 2 --duration 20 --delta 0 --detectors vector scalar",
    "office_duration100": "office --duration 100",
    "hospital_visitors6": "hospital --duration 40 --visitors 6",
    "habitat_duration60": "habitat --duration 60",
    "hall_flags":
        "hall --seed 2 --duration 60 --rate 3 --dwell 3 --capacity 8 --doors 3",
    "office_flags": "office --seed 3 --delta 0 --duration 200",
    "hospital_flags": "hospital --seed 1 --delta 0.5 --capacity 2 --visitors 9",
    "habitat_flags":
        "habitat --seed 4 --duration 200 --mac-period 3 --mac-duty 0.5",
    "hall_export": "hall --doors 2 --duration 30 --delta 0.1 --detectors vector "
                   "--export hall_export.json",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_scenario_command_output_is_byte_identical(case, tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    assert main(CASES[case].split()) == 0
    out = capsys.readouterr().out
    assert out.encode() == (DATA / f"{case}.out").read_bytes()
    if case == "hall_export":
        bundle = (tmp_path / "hall_export.json").read_bytes()
        assert bundle == (DATA / "hall_export.json").read_bytes()
