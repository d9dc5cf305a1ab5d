"""The worker plane for sweep-shaped workloads.

:class:`SupervisedPool` runs spawn-safe
:class:`~repro.sweep.tasks.SweepTask` descriptors and merges their rows
**in task-index order** regardless of completion order.  Combined with
per-task seeds derived from the task's coordinates (not its schedule),
this gives the contract the tests pin:

    the sweep JSONL is byte-identical for any worker count.

Around that contract it supervises the host:

* ``workers == 1`` without a deadline runs every task inline in the
  calling process; any other setting runs tasks on up to ``workers``
  spawned processes that are reused across tasks.  Each worker holds
  one task at a time, watched against a per-task wall deadline from
  dispatch — a hung task's worker is killed and replaced, not waited on;
* worker death (killed, OOMed, segfaulted) is detected by exit without
  a result and treated like a timeout;
* infrastructure failures are retried up to ``max_retries`` times with
  *seeded deterministic* exponential backoff (a pure function of the
  supervisor seed, task index and attempt — reruns behave identically);
* a task that exhausts its retries is **quarantined**: recorded to a
  sidecar JSONL and in the report, and the run completes ``degraded``
  instead of dying;
* completed rows stream through ``on_row`` as they finish (the CLI
  appends them durably, so a killed supervisor resumes from disk);
* SIGINT/SIGTERM trigger a graceful drain: no new launches, in-flight
  tasks finish (bounded by a grace deadline), report status
  ``interrupted``.

``spawn`` (not ``fork``) is used deliberately: workers re-import the
task's module and rebuild all state from ``(params, seed)``, so a sweep
can never silently depend on parent-process globals — the same
reasoning as the SIM002 lint rule, applied to processes.

In-task exceptions are *not* retried: ``execute_task`` already
converts them to deterministic ``error`` rows, and a deterministic
failure would fail identically on every retry.  Only the
infrastructure failures above are supervision's business.

Everything wall-clock here (deadlines, backoff sleeps) is supervision
of the *host* machine, never model input: rows are byte-identical
whether they ran inline or on workers (E2E-pinned), which is why wall
readings below carry SIM001 waivers.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterable

import numpy as np

from repro.obs.registry import restore_snapshot
from repro.sim.rng import substream_seed
from repro.sweep.tasks import SweepTask, execute_task, serve_tasks
from repro.util.atomicio import durable_append_lines

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.registry import MetricsRegistry


@dataclass(frozen=True)
class SupervisePolicy:
    """Knobs of the worker plane.

    ``timeout_s=None`` disables per-task deadlines (a drain still
    imposes ``drain_grace_s`` so an interrupt cannot hang forever).
    """

    timeout_s: "float | None" = None
    max_retries: int = 2
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    drain_grace_s: float = 10.0

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError(f"timeout_s must be positive, got {self.timeout_s}")
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff bounds must be non-negative")

    def backoff_s(self, seed: int, index: int, attempt: int) -> float:
        """Deterministic jittered exponential backoff before retry
        ``attempt`` of task ``index``: a pure function of its inputs."""
        rng = np.random.default_rng(
            substream_seed(seed, "supervisor-backoff", index, attempt)
        )
        raw = self.backoff_base_s * (2.0 ** attempt) * (0.5 + rng.random())
        return min(self.backoff_cap_s, float(raw))


@dataclass
class SupervisedReport:
    """Outcome of one run.

    ``status`` is ``"ok"`` (every task produced a row), ``"degraded"``
    (some tasks quarantined; their rows are absent) or
    ``"interrupted"`` (drained on a signal; unstarted tasks skipped).
    """

    status: str
    rows: list[dict[str, Any]] = field(default_factory=list)
    quarantined: list[dict[str, Any]] = field(default_factory=list)
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0
    skipped: int = 0

    def to_spec(self) -> dict[str, Any]:
        return {
            "status": self.status,
            "rows": len(self.rows),
            "quarantined": [dict(q) for q in self.quarantined],
            "retries": self.retries,
            "timeouts": self.timeouts,
            "worker_deaths": self.worker_deaths,
            "skipped": self.skipped,
        }


@dataclass
class _Attempt:
    task: SweepTask
    attempt: int
    not_before: float = 0.0


@dataclass
class _Worker:
    proc: Any
    conn: Any
    job: "_Attempt | None" = None
    deadline: "float | None" = None


class SupervisedPool:
    """Run sweep tasks under timeouts, retries and quarantine.

    Parameters
    ----------
    workers:
        Maximum worker processes, each reused across tasks.  ``1``
        without a ``policy.timeout_s`` runs tasks inline instead (no
        process, no pickling); output is identical either way.
    policy:
        The :class:`SupervisePolicy` in force.
    seed:
        Supervisor seed for deterministic backoff jitter (independent
        of every task's own model seed).
    registry:
        Optional obs registry; reports ``sweep.tasks_submitted`` /
        ``tasks_completed`` / ``tasks_failed`` counters, the
        ``sweep.task_wall_s`` histogram and ``supervisor.retries`` /
        ``timeouts`` / ``worker_deaths`` / ``quarantined`` counters,
        and merges worker-side metric snapshots in task-index order.
    quarantine_path:
        Sidecar JSONL receiving one durable line per poisoned task.
    on_row:
        Callback invoked with each completed row *as it completes*
        (completion order); used for durable incremental appends.
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        policy: "SupervisePolicy | None" = None,
        seed: int = 0,
        registry: "MetricsRegistry | None" = None,
        quarantine_path: "str | Path | None" = None,
        on_row: "Callable[[dict[str, Any]], None] | None" = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self._workers = int(workers)
        self._policy = policy if policy is not None else SupervisePolicy()
        self._seed = int(seed)
        self._registry = registry
        self._quarantine_path = (
            None if quarantine_path is None else Path(quarantine_path)
        )
        self._on_row = on_row
        self._interrupted = False
        self._wake_w: "int | None" = None
        self._snapshots: list[tuple[int, dict[str, Any]]] = []
        self._m: dict[str, Any] = {}
        if registry is not None:
            self._m = {
                name: registry.counter(name) for name in (
                    "sweep.tasks_submitted", "sweep.tasks_completed",
                    "sweep.tasks_failed", "supervisor.retries",
                    "supervisor.timeouts", "supervisor.worker_deaths",
                    "supervisor.quarantined",
                )
            }
            self._m["sweep.task_wall_s"] = registry.histogram("sweep.task_wall_s")

    # ------------------------------------------------------------------
    def _count(self, name: str, n: int = 1) -> None:
        if name in self._m:
            self._m[name].inc(n)

    def _request_drain(self, signum: int, frame: Any) -> None:
        del signum, frame
        self._interrupted = True
        if self._wake_w is not None:
            os.write(self._wake_w, b"\0")  # wake the pool out of wait()

    def _quarantine(
        self, report: SupervisedReport, entry: _Attempt, reason: str
    ) -> None:
        record = {
            "kind": "quarantine",
            "index": entry.task.index,
            "ref": entry.task.ref,
            "params": dict(entry.task.params),
            "seed": entry.task.seed,
            "reason": reason,
            "attempts": entry.attempt + 1,
        }
        report.quarantined.append(record)
        self._count("supervisor.quarantined")
        if self._quarantine_path is not None:
            durable_append_lines(
                self._quarantine_path,
                [json.dumps(record, sort_keys=True)],
            )

    def _complete(self, report: SupervisedReport, out: dict[str, Any]) -> None:
        row = out["row"]
        if "sweep.task_wall_s" in self._m:
            self._m["sweep.task_wall_s"].observe(out["wall_s"])
        self._count("sweep.tasks_failed" if "error" in row else "sweep.tasks_completed")
        if out.get("metrics") and self._registry is not None:
            self._snapshots.append((row["index"], out["metrics"]))
        if self._on_row is not None:
            self._on_row(row)
        report.rows.append(row)

    def _retry_or_quarantine(
        self,
        report: SupervisedReport,
        pending: "list[_Attempt]",
        entry: _Attempt,
        reason: str,
        now: float,
    ) -> None:
        if entry.attempt < self._policy.max_retries and not self._interrupted:
            report.retries += 1
            self._count("supervisor.retries")
            delay = self._policy.backoff_s(
                self._seed, entry.task.index, entry.attempt
            )
            pending.append(_Attempt(entry.task, entry.attempt + 1, now + delay))
        else:
            self._quarantine(report, entry, reason)

    # ------------------------------------------------------------------
    def run(self, tasks: Iterable[SweepTask]) -> SupervisedReport:
        """Execute all tasks; always returns a report (never raises for
        task- or worker-level failure).  Rows are sorted by task index."""
        todo = list(tasks)
        report = SupervisedReport(status="ok")
        self._interrupted = False
        self._snapshots = []
        self._count("sweep.tasks_submitted", len(todo))
        previous: list[tuple[int, Any]] = []
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous.append((signum, signal.signal(signum, self._request_drain)))
        except ValueError:  # not the main thread (tests, embedding)
            previous = []
        try:
            if self._workers == 1 and self._policy.timeout_s is None:
                for n, task in enumerate(todo):
                    if self._interrupted:
                        report.skipped += len(todo) - n
                        break
                    self._complete(report, execute_task(task))
            else:
                self._run_workers(todo, report)
        finally:
            for signum, handler in previous:
                signal.signal(signum, handler)
        # Merge worker-side metrics in task-index order, so the parent
        # registry does not depend on completion order.
        for _, snapshot in sorted(self._snapshots, key=lambda s: s[0]):
            self._registry.merge(restore_snapshot(snapshot))
        report.rows.sort(key=lambda r: r["index"])
        if self._interrupted:
            report.status = "interrupted"
        elif report.quarantined or len(report.rows) < len(todo):
            report.status = "degraded"
        return report

    def _run_workers(self, todo: "list[SweepTask]", report: SupervisedReport) -> None:
        ctx = multiprocessing.get_context("spawn")
        pending = [_Attempt(t, 0) for t in todo]
        workers: list[_Worker] = []
        drain_deadline: "float | None" = None
        wake_r, self._wake_w = os.pipe()
        try:
            while True:
                now = time.monotonic()  # repro: noqa SIM001 -- host supervision deadline, never model input
                if self._interrupted:
                    report.skipped += len(pending)
                    pending = []
                    if drain_deadline is None:
                        drain_deadline = now + self._policy.drain_grace_s
                self._dispatch(ctx, pending, workers, now)
                busy = [w for w in workers if w.job is not None]
                if not busy and not pending:
                    return
                # Block until a result, a worker exit, a signal, the
                # nearest deadline or the nearest backoff expiry.
                wake = [d for w in busy if (d := self._deadline(w, drain_deadline)) is not None]
                if pending and (len(busy) < self._workers):
                    wake.append(min(p.not_before for p in pending))
                objs: list[Any] = [w.conn for w in busy] + [w.proc.sentinel for w in busy]
                if not self._interrupted:
                    objs.append(wake_r)
                wait(objs, None if not wake else max(0.0, min(wake) - now))
                now = time.monotonic()  # repro: noqa SIM001 -- host supervision deadline, never model input
                for w in busy:
                    self._settle(report, pending, workers, w, now, drain_deadline)
        finally:
            self._shutdown(workers)
            os.close(wake_r)
            os.close(self._wake_w)
            self._wake_w = None

    def _deadline(self, w: _Worker, drain_deadline: "float | None") -> "float | None":
        if drain_deadline is None:
            return w.deadline
        return drain_deadline if w.deadline is None else min(w.deadline, drain_deadline)

    def _dispatch(
        self, ctx: Any, pending: "list[_Attempt]", workers: "list[_Worker]", now: float
    ) -> None:
        """Hand ready tasks (lowest index first) to idle or new workers."""
        while pending:
            idle = next((w for w in workers if w.job is None), None)
            if idle is not None and not idle.proc.is_alive():
                self._retire(workers, idle)  # died while idle: not a task's fault
                continue
            if idle is None and len(workers) >= self._workers:
                return
            ready = [p for p in pending if p.not_before <= now]
            if not ready:
                return
            nxt = min(ready, key=lambda p: (p.not_before, p.task.index))
            if idle is None:
                conn, child = ctx.Pipe()
                proc = ctx.Process(target=serve_tasks, args=(child,))
                proc.start()
                child.close()
                idle = _Worker(proc, conn)
                workers.append(idle)
            pending.remove(nxt)
            idle.conn.send(nxt.task)
            idle.job = nxt
            if self._policy.timeout_s is not None:
                idle.deadline = now + self._policy.timeout_s

    def _settle(
        self,
        report: SupervisedReport,
        pending: "list[_Attempt]",
        workers: "list[_Worker]",
        w: _Worker,
        now: float,
        drain_deadline: "float | None",
    ) -> None:
        """Collect ``w``'s result, or fail its task if it died or ran
        past its deadline; otherwise leave it running."""
        alive = w.proc.is_alive()  # read first: a result sent before death is in the pipe
        out = None
        if w.conn.poll():
            try:
                out = w.conn.recv()
            except (EOFError, OSError):
                out = None
        entry = w.job
        assert entry is not None
        if out is not None:
            w.job = w.deadline = None
            self._complete(report, out)
            if not alive:
                self._retire(workers, w)
            return
        if not alive:
            self._retire(workers, w)
            report.worker_deaths += 1
            self._count("supervisor.worker_deaths")
            self._retry_or_quarantine(
                report, pending, entry,
                f"worker died (exit code {w.proc.exitcode}) "
                f"without producing a result",
                now,
            )
            return
        deadline = self._deadline(w, drain_deadline)
        if deadline is not None and now >= deadline:
            by_drain = drain_deadline is not None and deadline == drain_deadline
            self._retire(workers, w)
            report.timeouts += 1
            self._count("supervisor.timeouts")
            self._retry_or_quarantine(
                report, pending, entry,
                "killed during interrupt drain" if by_drain
                else f"timed out after {self._policy.timeout_s}s wall",
                now,
            )

    def _retire(self, workers: "list[_Worker]", w: _Worker) -> None:
        """Kill (if needed) and reap one worker; it will not be reused."""
        if w.proc.is_alive():
            w.proc.kill()
        w.proc.join(timeout=5.0)
        w.conn.close()
        workers.remove(w)

    def _shutdown(self, workers: "list[_Worker]") -> None:
        """Stop every worker: ``None`` to all idle ones first, then join."""
        for w in workers:
            if w.job is None:
                try:
                    w.conn.send(None)
                except OSError:
                    pass
        for w in list(workers):
            if w.job is None:
                w.proc.join(timeout=5.0)
            self._retire(workers, w)


__all__ = ["SupervisePolicy", "SupervisedPool", "SupervisedReport"]
