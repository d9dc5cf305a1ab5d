"""The worker plane: timeouts, deaths, retries, quarantine, worker
reuse, and row parity between inline and worker execution."""

import json
import os
import signal
import threading
import time

import pytest

from repro.obs import MetricsRegistry
from repro.recover import SupervisedPool, SupervisePolicy
from repro.sweep.tasks import SweepTask

REF_OK = "tests.recover._worktasks:ok"
REF_BOOM = "tests.recover._worktasks:boom"
REF_HANG = "tests.recover._worktasks:hang"
REF_DIE = "tests.recover._worktasks:die"
REF_PID = "tests.recover._worktasks:pid"


def _tasks(ref, n=3):
    return [
        SweepTask(index=i, ref=ref, params={"x": i + 1}, seed=10 + i)
        for i in range(n)
    ]


def test_policy_validation():
    with pytest.raises(ValueError):
        SupervisePolicy(timeout_s=0.0)
    with pytest.raises(ValueError):
        SupervisePolicy(max_retries=-1)
    with pytest.raises(ValueError):
        SupervisePolicy(backoff_base_s=-1.0)


def test_backoff_is_deterministic_and_bounded():
    policy = SupervisePolicy(backoff_base_s=0.05, backoff_cap_s=0.4)
    values = [policy.backoff_s(7, 3, a) for a in range(6)]
    assert values == [policy.backoff_s(7, 3, a) for a in range(6)]
    assert all(0.0 <= v <= 0.4 for v in values)
    # A different task index jitters differently.
    assert values != [policy.backoff_s(7, 4, a) for a in range(6)]


def test_healthy_tasks_match_unsupervised_rows():
    tasks = _tasks(REF_OK, n=4)
    plain = SupervisedPool(workers=1).run(tasks).rows
    report = SupervisedPool(workers=2).run(tasks)
    assert report.status == "ok"
    assert report.rows == plain
    assert report.retries == report.timeouts == report.worker_deaths == 0


def _pids(report):
    return [r["result"]["pid"] for r in report.rows]


def test_workers_are_reused_across_tasks():
    report = SupervisedPool(workers=2).run(_tasks(REF_PID, n=6))
    assert report.status == "ok"
    assert [r["index"] for r in report.rows] == list(range(6))
    assert len(set(_pids(report))) <= 2
    assert os.getpid() not in _pids(report)


def test_one_worker_runs_inline_unless_a_deadline_is_set():
    inline = SupervisedPool(workers=1).run(_tasks(REF_PID, n=3))
    assert set(_pids(inline)) == {os.getpid()}
    timed = SupervisedPool(
        workers=1, policy=SupervisePolicy(timeout_s=60.0)
    ).run(_tasks(REF_PID, n=3))
    assert timed.status == "ok"
    assert len(set(_pids(timed))) == 1
    assert os.getpid() not in _pids(timed)


def test_hung_worker_is_replaced_for_the_remaining_tasks(tmp_path):
    tasks = [
        SweepTask(index=0, ref=REF_HANG, params={"x": 1}, seed=1),
        SweepTask(index=1, ref=REF_PID, params={"x": 2}, seed=2),
        SweepTask(index=2, ref=REF_PID, params={"x": 3}, seed=3),
    ]
    report = SupervisedPool(
        workers=1,
        policy=SupervisePolicy(timeout_s=4.0, max_retries=0),
        quarantine_path=tmp_path / "q.jsonl",
    ).run(tasks)
    assert report.status == "degraded"
    assert report.timeouts == 1 and report.worker_deaths == 0
    [q] = report.quarantined
    assert q["index"] == 0 and "timed out" in q["reason"]
    assert [r["index"] for r in report.rows] == [1, 2]
    # Both rows ran in the one replacement worker, not in this process.
    [replacement] = set(_pids(report))
    assert replacement != os.getpid()


def test_interrupt_wakes_a_blocked_pool_and_drains():
    # No task deadline: only the SIGINT can end the wait on hung workers.
    pool = SupervisedPool(
        workers=2, policy=SupervisePolicy(drain_grace_s=0.5),
    )
    timer = threading.Timer(1.0, os.kill, (os.getpid(), signal.SIGINT))
    timer.start()
    t0 = time.monotonic()
    try:
        report = pool.run(_tasks(REF_HANG, n=3))
    finally:
        timer.cancel()
    assert time.monotonic() - t0 < 10.0
    assert report.status == "interrupted"
    assert report.skipped == 1 and report.timeouts == 2
    assert {q["reason"] for q in report.quarantined} == {
        "killed during interrupt drain"
    }


def test_in_task_exception_is_an_error_row_not_a_retry():
    report = SupervisedPool(workers=2).run(_tasks(REF_BOOM, n=2))
    assert report.status == "ok"          # a row per task, just errored
    assert len(report.rows) == 2
    assert all("error" in r for r in report.rows)
    assert all(r["error_detail"]["type"] == "ValueError" for r in report.rows)
    assert report.retries == 0
    assert report.quarantined == []


def test_hang_times_out_retries_then_quarantines(tmp_path):
    # The deadline must outlive the worker's spawn import (~1-2s) so
    # only the genuine hang trips it; a hung task is killed regardless.
    sidecar = tmp_path / "quarantine.jsonl"
    registry = MetricsRegistry()
    pool = SupervisedPool(
        workers=1,
        policy=SupervisePolicy(
            timeout_s=4.0, max_retries=1, backoff_base_s=0.01,
        ),
        registry=registry,
        quarantine_path=sidecar,
    )
    report = pool.run(
        [SweepTask(index=0, ref=REF_HANG, params={"x": 2}, seed=2)]
    )
    assert report.status == "degraded"
    assert report.rows == []
    assert report.timeouts == 2           # initial attempt + 1 retry
    assert report.retries == 1
    [q] = report.quarantined
    assert q["index"] == 0 and q["attempts"] == 2
    assert "timed out" in q["reason"]
    lines = [json.loads(ln) for ln in sidecar.read_text().splitlines()]
    assert lines == [q]
    assert registry.counter("supervisor.quarantined").value == 1


def test_worker_death_is_detected_and_quarantined(tmp_path):
    pool = SupervisedPool(
        workers=2,
        policy=SupervisePolicy(max_retries=1, backoff_base_s=0.01),
        quarantine_path=tmp_path / "q.jsonl",
    )
    tasks = [
        SweepTask(index=0, ref=REF_DIE, params={"x": 1}, seed=1),
        SweepTask(index=1, ref=REF_OK, params={"x": 2}, seed=2),
    ]
    report = pool.run(tasks)
    assert report.status == "degraded"
    assert [r["index"] for r in report.rows] == [1]
    assert report.worker_deaths == 2
    [q] = report.quarantined
    assert q["index"] == 0
    assert "worker died" in q["reason"]


def test_report_spec_shape():
    report = SupervisedPool(workers=1).run(_tasks(REF_OK, n=1))
    spec = report.to_spec()
    assert spec["status"] == "ok"
    assert spec["rows"] == 1
    assert spec["quarantined"] == []
    assert set(spec) == {
        "status", "rows", "quarantined", "retries", "timeouts",
        "worker_deaths", "skipped",
    }


def test_on_row_streams_completions():
    seen = []
    report = SupervisedPool(workers=2, on_row=seen.append).run(
        _tasks(REF_OK, n=3)
    )
    assert sorted(r["index"] for r in seen) == [0, 1, 2]
    assert report.rows == sorted(seen, key=lambda r: r["index"])


def test_workers_validation():
    with pytest.raises(ValueError, match="workers"):
        SupervisedPool(workers=0)
