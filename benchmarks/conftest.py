"""Shared benchmark utilities.

Every experiment bench (E1–E12, see DESIGN.md §4):

* runs its harness once under ``benchmark.pedantic`` so
  ``pytest benchmarks/ --benchmark-only`` times the full experiment;
* renders its table with :func:`repro.analysis.sweep.format_table`;
* persists the table under ``benchmarks/results/`` (and prints it, so
  ``-s`` shows it live) — EXPERIMENTS.md quotes these files.
"""

from __future__ import annotations

import os
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
#: ``REPRO_BENCH_SAVE=1`` refreshes the committed ``BENCH_*.json``
#: baselines; any other run exports them to a temporary directory, so
#: a plain test run never rewrites them.
BENCH_SAVE_ENV = "REPRO_BENCH_SAVE"


@pytest.fixture
def save_table():
    """Persist + print an experiment's output table."""

    def _save(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save


@pytest.fixture
def save_bench_json(tmp_path):
    """Persist a machine-readable ``BENCH_<name>.json`` through the
    :mod:`repro.obs` exporters, so successive PRs accumulate a perf
    trajectory that scripts (not just humans) can diff.  Only with
    ``REPRO_BENCH_SAVE=1`` does it land in ``benchmarks/results/``."""
    from repro.obs.exporters import export_bench_json

    out_dir = RESULTS_DIR if os.environ.get(BENCH_SAVE_ENV) == "1" else tmp_path

    def _save(name: str, rows, *, meta=None, registry=None) -> None:
        out_dir.mkdir(exist_ok=True)
        path = export_bench_json(
            out_dir / f"BENCH_{name}.json", name, rows,
            meta=meta, registry=registry,
        )
        print(f"[bench json saved to {path}]")

    return _save
