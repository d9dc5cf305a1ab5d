"""Satellite: recorder overhead budget and provable ring bounds.

The flight recorder must be cheap enough to leave on (bounded wall
overhead on the e07 bench point) and strictly bounded in memory (per
process ring of ``capacity`` entries, evictions counted, never grown).
"""

import time

from repro.sweep.points import E07_N, strobe_cost

# Wall-clock factor the instrumented run may cost over the bare run,
# both timed in the same process.  The recorder costs about 1.25x here
# (a 2-vCPU container); digesting every payload at every hook cost
# 2.8x, which this catches.  CI machines are noisy and the absolute
# times are tens of milliseconds, so the test guards against such
# regressions, not small drift.
OVERHEAD_FACTOR = 2.0
# Floor for the denominator so a very fast bare run cannot make the
# ratio explode on timer granularity alone.
MIN_BASE_S = 0.01


def _wall_s(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_recorder_is_passive_on_e07_row():
    bare = strobe_cost(True, seed=0)
    traced = strobe_cost(True, seed=0, trace_capacity=65536)
    extra = {"trace_recorded", "trace_retained"}
    assert set(traced) == set(bare) | extra
    for k in bare:
        assert traced[k] == bare[k], f"recorder perturbed row key {k!r}"
    assert traced["trace_recorded"] > 0
    assert traced["trace_retained"] == traced["trace_recorded"]  # no eviction


def test_recorder_overhead_within_budget():
    # Best of 3 on each side, bare and recorded runs interleaved, so a
    # change in machine load during the test reaches both sides alike.
    runs = [(_wall_s(lambda: strobe_cost(True, seed=0)),
             _wall_s(lambda: strobe_cost(True, seed=0, trace_capacity=65536)))
            for _ in range(3)]
    base_s = min(bare for bare, _ in runs)
    traced_s = min(traced for _, traced in runs)
    budget = OVERHEAD_FACTOR * max(base_s, MIN_BASE_S)
    assert traced_s <= budget, (
        f"instrumented e07 run took {traced_s:.3f}s, "
        f"budget {budget:.3f}s (bare {base_s:.3f}s)"
    )


def test_ring_buffer_is_provably_bounded():
    capacity = 16
    row = strobe_cost(True, seed=0, trace_capacity=capacity)
    # E07_N process rings at most; retention can never exceed
    # capacity entries per ring regardless of how many were recorded.
    assert row["trace_retained"] <= E07_N * capacity
    assert row["trace_recorded"] > row["trace_retained"]  # eviction happened
    # Same run with a huge ring retains everything — the bound really
    # is the capacity, not the workload.
    full = strobe_cost(True, seed=0, trace_capacity=1 << 20)
    assert full["trace_retained"] == full["trace_recorded"]
    assert full["trace_recorded"] == row["trace_recorded"]
