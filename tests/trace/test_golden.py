"""Golden traces: committed recordings as an oracle outside the code.

``tests/trace/data`` holds two traces recorded with ``repro trace
record`` under ``plan.json`` (crash, partition, burst loss, clock drift
and a strobe perturbation, all inside the 18 s runs):

* ``hall_vector_strobe.trace`` — online vector strobe, seed 0; its
  drops cover the ``crashed``, ``partition`` and ``burst`` reasons;
* ``smart_office_offline_vector_strobe.trace`` — offline replay
  detector, seed 0.

Re-recording each embedded manifest must reproduce every line.  The
header's ``code_digest`` names the tree that recorded the file, so it
is the one field left out of the comparison.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.faults import FaultPlan
from repro.replay import ReplayEngine, RunManifest, code_digest
from repro.trace import trace_jsonl_lines

DATA = Path(__file__).parent / "data"
GOLDEN = sorted(DATA.glob("*.trace"))


def _comparable(line: str) -> str:
    row = json.loads(line)
    if row.get("kind") == "meta":
        row["manifest"].pop("code_digest", None)
        return json.dumps(row, sort_keys=True)
    return line


def test_golden_set_is_present():
    assert [p.name for p in GOLDEN] == [
        "hall_vector_strobe.trace",
        "smart_office_offline_vector_strobe.trace",
    ]


def test_golden_plan_fires_every_fault_inside_the_run():
    plan = FaultPlan.from_json((DATA / "plan.json").read_text())
    actions = {ev.action for ev in plan.expanded()}
    assert {"crash", "partition", "burst_loss", "clock_drift",
            "strobe_perturb"} <= actions
    for path in GOLDEN:
        header = json.loads(path.read_text().splitlines()[0])
        assert header["manifest"]["plan"] == plan.to_spec()
        assert max(ev.time for ev in plan.expanded()) < header["duration"]


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_trace_re_records_line_for_line(path):
    recorded = path.read_text().splitlines()
    manifest = RunManifest.from_spec(json.loads(recorded[0])["manifest"])
    manifest = replace(manifest, code_digest=code_digest())
    result = ReplayEngine().execute(manifest)
    replayed = trace_jsonl_lines(result.recorder)
    assert len(replayed) == len(recorded)
    for lineno, (want, got) in enumerate(zip(recorded, replayed), start=1):
        assert _comparable(got) == _comparable(want), f"{path.name}:{lineno}"


def test_golden_hall_trace_covers_every_reachable_drop_reason():
    rows = [json.loads(line) for line in
            (DATA / "hall_vector_strobe.trace").read_text().splitlines()]
    kinds = {row["kind"] for row in rows}
    assert {"n", "s", "r", "w", "drop", "detection"} <= kinds
    # No scenario profile has a base loss model, so "loss" cannot occur.
    assert {row["drop"] for row in rows if row["kind"] == "drop"} == {
        "crashed", "partition", "burst",
    }
