"""The benchmark's own tests: run with ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import copy
import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
from speed import Bracket  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def bench() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def expected() -> dict:
    with open(run.EXPECTED) as fh:
        return json.load(fh)


def test_metric_names_and_units_match_benchmark_json(bench):
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)


def test_benchmark_json_shape(bench):
    assert set(bench) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert bench["paths"] == ["perfbench"]
    assert isinstance(bench["run_seconds"], int) and 1 <= bench["run_seconds"] <= 60
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and UNIT.match(m["unit"])
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_span_outside_the_root_breaks_the_exact_sum():
    from spans import ROOT, SpanTracer

    tracer = SpanTracer()
    tracer.call(ROOT, tracer.call, "sim.schedule", lambda: None)
    tracer.check_exact_sum()
    tracer.call("net.send", lambda: None)
    with pytest.raises(AssertionError, match="outside"):
        tracer.check_exact_sum()


def test_every_span_has_a_time_metric():
    from spans import SPANS

    assert set(run.TIME_METRICS) == set(SPANS)


def test_corrupted_digest_counts_as_failed(expected, tmp_path, monkeypatch):
    bad = copy.deepcopy(expected)
    for row in bad["hall_observed"].values():
        row["digest"] = "0" * 16
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(bad))
    monkeypatch.setattr(run, "EXPECTED", str(path))
    args = run.parse_args(
        ["--workload", "hall_observed", "--seed", "3", "--seconds", "0.5"]
    )
    result = run.run(args)
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_corrupted_query_answer_counts_once(expected):
    seed = next(wl.scenario_seeds("lattice_windows", 0))
    bad = copy.deepcopy(expected)
    bad["lattice_windows"][str(seed)]["answers"][3][2] += 1
    tally = run.Tally(bad)
    ops, _ = run.run_stream(wl.make_stream(seed), tally, Bracket())
    assert tally.attempted == len(ops) and tally.failed == 1
    assert ops[3] is None


def test_traced_split_sums_and_cross_checks(expected):
    tally = run.Tally(expected)
    metrics, counts = run.per_layer("hall_observed", 5, 4.0, tally)
    assert tally.failed == 0 and counts["ops_traced"] == 1
    parts = sum(metrics[name] for name in run.TIME_METRICS.values())
    assert math.isclose(parts, metrics["bench.traced_total_s"], rel_tol=1e-9)
    assert metrics["sim.events"] > 0 and metrics["trace.record_calls"] > 0
    assert metrics["net.messages_sent"] >= metrics["net.send_calls"]
    assert set(metrics) == set(run.PER_LAYER)
