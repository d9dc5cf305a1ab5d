"""Backend-equivalence properties for the dual-backend timestamps.

:class:`VectorTimestamp` picks a tuple backend below
``FASTPATH_MAX_N`` and a NumPy backend at or above it.  These tests
pin the load-bearing claim behind the hot-path rewrite: **the backend
is unobservable** — compare/merge/concurrent_with/hash/sum agree
whichever representation each operand happens to hold, and the batch
kernels agree with the pairwise operators.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clocks.vector import (
    FASTPATH_MAX_N,
    VectorTimestamp,
    concurrency_matrix,
    dominates_matrix,
    merge_many,
    stack_timestamps,
)

# Component vectors: keep n small enough to exercise the component-sliced
# (n <= 8) and generic kernels, values small enough to collide often.
vectors = st.lists(st.integers(0, 6), min_size=1, max_size=12)


def both_backends(components) -> tuple[VectorTimestamp, VectorTimestamp]:
    """The same logical timestamp, one per backend."""
    t = tuple(int(c) for c in components)
    tup = VectorTimestamp._from_trusted_tuple(t)
    arr = VectorTimestamp._from_trusted_array(np.asarray(t, dtype=np.int64))
    return tup, arr


@st.composite
def vector_pairs(draw):
    a = draw(vectors)
    b = draw(st.lists(st.integers(0, 6), min_size=len(a), max_size=len(a)))
    return a, b


@given(vector_pairs())
def test_comparisons_agree_across_backends(pair):
    a, b = pair
    for x in both_backends(a):
        for y in both_backends(b):
            ref_le = all(p <= q for p, q in zip(a, b))
            ref_eq = list(a) == list(b)
            assert (x <= y) == ref_le
            assert (x < y) == (ref_le and not ref_eq)
            assert (x == y) == ref_eq
            assert x.concurrent_with(y) == (not ref_le and not all(
                q <= p for p, q in zip(a, b)
            ))


@given(vector_pairs())
def test_merge_agrees_across_backends(pair):
    a, b = pair
    expected = tuple(max(p, q) for p, q in zip(a, b))
    for x in both_backends(a):
        for y in both_backends(b):
            m = x.merge(y)
            assert m.as_tuple() == expected
            assert m.sum() == sum(expected)


@given(vectors)
def test_hash_and_views_agree_across_backends(components):
    tup, arr = both_backends(components)
    assert tup == arr
    assert hash(tup) == hash(arr)
    assert tup.as_tuple() == arr.as_tuple()
    assert np.array_equal(tup.as_array(), arr.as_array())
    assert tup.sum() == arr.sum()
    assert list(tup) == list(arr) == [int(c) for c in components]


def test_backend_selection_by_width():
    narrow = VectorTimestamp([1] * (FASTPATH_MAX_N - 1))
    wide = VectorTimestamp([1] * FASTPATH_MAX_N)
    assert narrow._t is not None          # tuple backend
    assert wide._arr is not None          # NumPy backend
    # Views materialize lazily but agree.
    assert narrow.as_array().dtype == np.int64
    assert wide.as_tuple() == (1,) * FASTPATH_MAX_N


# ---------------------------------------------------------------------------
# Batch kernels vs the pairwise operators
# ---------------------------------------------------------------------------

@st.composite
def timestamp_sets(draw, min_m=1, max_m=12, max_n=10):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(min_m, max_m))
    rows = draw(st.lists(
        st.lists(st.integers(0, 5), min_size=n, max_size=n),
        min_size=m, max_size=m,
    ))
    mixed = []
    for k, row in enumerate(rows):
        tup, arr = both_backends(row)
        mixed.append(tup if k % 2 == 0 else arr)
    return mixed


@settings(max_examples=60)
@given(timestamp_sets())
def test_dominates_matrix_matches_pairwise(ts):
    leq = dominates_matrix(ts)
    m = len(ts)
    assert leq.shape == (m, m)
    for i in range(m):
        for j in range(m):
            assert bool(leq[i, j]) == (ts[i] <= ts[j])


@settings(max_examples=60)
@given(timestamp_sets(min_m=2))
def test_concurrency_matrix_matches_pairwise(ts):
    conc = concurrency_matrix(ts)
    m = len(ts)
    assert not conc.diagonal().any()
    for i in range(m):
        for j in range(m):
            if i != j:
                assert bool(conc[i, j]) == ts[i].concurrent_with(ts[j])
    assert np.array_equal(conc, conc.T)


@settings(max_examples=60)
@given(timestamp_sets())
def test_merge_many_matches_pairwise(ts):
    expected = ts[0]
    for t in ts[1:]:
        expected = expected.merge(t)
    assert merge_many(ts).as_tuple() == expected.as_tuple()


@given(timestamp_sets())
def test_stack_timestamps_shape_and_values(ts):
    stacked = stack_timestamps(ts)
    assert stacked.shape == (len(ts), ts[0].n)
    for i, t in enumerate(ts):
        assert tuple(int(x) for x in stacked[i]) == t.as_tuple()


def test_wide_vectors_use_chunked_kernel():
    """Wide vectors (NumPy backend, > component-sliced limit) still
    produce correct batch results through the chunked 3-D kernel."""
    rng = np.random.default_rng(7)
    n, m = FASTPATH_MAX_N + 5, 40
    ts = [
        VectorTimestamp(rng.integers(0, 4, size=n))
        for _ in range(m)
    ]
    leq = dominates_matrix(ts)
    for i in range(0, m, 7):
        for j in range(0, m, 7):
            assert bool(leq[i, j]) == (ts[i] <= ts[j])


def test_dominates_matrix_empty():
    assert dominates_matrix([]).shape == (0, 0)
    assert concurrency_matrix([]).shape == (0, 0)


def test_merge_many_requires_input():
    with pytest.raises(ValueError):
        merge_many([])
