"""E12 — Clock-protocol microbenchmarks and strobe sizes.

§4.2.2: the scalar strobe "is weaker than the strobe vector clock but
is lightweight (strobe size is O(1), not O(n))".  This bench measures
the constant factors a deployment would actually pay: per-operation
latency of every protocol rule, at several system sizes, plus the
strobe payload sizes.

These are true pytest-benchmark timings (many rounds), unlike the
experiment harnesses E1–E11 which time one full run.
"""

import numpy as np
import pytest

from repro.analysis.sweep import format_table
from repro.clocks.scalar import LamportClock, ScalarTimestamp
from repro.clocks.strobe import StrobeScalarClock, StrobeVectorClock
from repro.clocks.vector import VectorClock, VectorTimestamp

pytestmark = pytest.mark.slow

SIZES = [8, 64, 512]


def test_lamport_tick(benchmark):
    clock = LamportClock(0)
    benchmark(clock.on_local_event)


def test_lamport_receive(benchmark):
    clock = LamportClock(0)
    remote = ScalarTimestamp(10**6, 1)
    benchmark(clock.on_receive, remote)


def test_strobe_scalar_event(benchmark):
    clock = StrobeScalarClock(0)
    benchmark(clock.on_relevant_event)


def test_strobe_scalar_merge(benchmark):
    clock = StrobeScalarClock(0)
    strobe = ScalarTimestamp(10**6, 1)
    benchmark(clock.on_strobe, strobe)


@pytest.mark.parametrize("n", SIZES)
def test_vector_tick(benchmark, n):
    clock = VectorClock(0, n)
    benchmark(clock.on_local_event)


@pytest.mark.parametrize("n", SIZES)
def test_vector_receive(benchmark, n):
    clock = VectorClock(0, n)
    remote = VectorClock(1, n)
    for _ in range(5):
        remote.on_local_event()
    ts = remote.read()
    benchmark(clock.on_receive, ts)


@pytest.mark.parametrize("n", SIZES)
def test_strobe_vector_event(benchmark, n):
    clock = StrobeVectorClock(0, n)
    benchmark(clock.on_relevant_event)


@pytest.mark.parametrize("n", SIZES)
def test_strobe_vector_merge(benchmark, n):
    clock = StrobeVectorClock(0, n)
    other = StrobeVectorClock(1, n)
    for _ in range(5):
        other.on_relevant_event()
    strobe = other.read()
    benchmark(clock.on_strobe, strobe)


@pytest.mark.parametrize("n", SIZES)
def test_timestamp_compare(benchmark, n):
    a = VectorTimestamp(range(n))
    b = VectorTimestamp(range(1, n + 1))
    benchmark(a.__lt__, b)


def _forced(n, backend):
    """Stamps a < b of width n held on ``backend`` whatever n is (the
    constructors pick the backend by width; these bypass the choice)."""
    lo, hi = tuple(range(n)), tuple(range(1, n + 1))
    if backend == "tuple":
        return (VectorTimestamp._from_trusted_tuple(lo),
                VectorTimestamp._from_trusted_tuple(hi))
    return (VectorTimestamp._from_trusted_array(np.array(lo, dtype=np.int64)),
            VectorTimestamp._from_trusted_array(np.array(hi, dtype=np.int64)))


@pytest.mark.parametrize("backend", ["tuple", "numpy"])
@pytest.mark.parametrize("n", SIZES)
def test_backend_leq(benchmark, n, backend):
    """The representation audit: ``<=`` on both backends at each width."""
    a, b = _forced(n, backend)
    assert benchmark(a.__le__, b)


@pytest.mark.parametrize("backend", ["tuple", "numpy"])
@pytest.mark.parametrize("n", SIZES)
def test_backend_merge(benchmark, n, backend):
    a, b = _forced(n, backend)
    assert benchmark(a.merge, b) == b


def test_e12_strobe_sizes(benchmark, save_table):
    """The O(1) vs O(n) size table (§4.2.2)."""

    def sizes():
        rows = []
        for n in SIZES:
            rows.append({
                "n_processes": n,
                "scalar_strobe_units": StrobeScalarClock(0).strobe_size(),
                "vector_strobe_units": StrobeVectorClock(0, n).strobe_size(),
            })
        return rows

    rows = benchmark.pedantic(sizes, rounds=1, iterations=1)
    save_table("e12_strobe_sizes", format_table(
        rows, title="E12: strobe payload sizes — O(1) scalar vs O(n) vector",
    ))
    for row in rows:
        assert row["scalar_strobe_units"] == 1
        assert row["vector_strobe_units"] == row["n_processes"]
