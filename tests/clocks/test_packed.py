"""Equivalence properties for the packed-uint64 batch kernels.

The SWAR fast path (:func:`pack_matrix` feeding the
:func:`_packed_leq`-backed batch and block kernels) must be
unobservable: for every width n = 1..8 and any mix of packable and
overflowing components, results agree bit-for-bit with the
component-wise definitions and the pairwise operators.  These tests pin
that claim, including the transparent fallback when a component
exceeds the field capacity.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.clocks.vector import (
    PACKED_MAX_N,
    VectorTimestamp,
    _packed_leq,
    _sliced_leq,
    concurrency_block,
    concurrency_csr,
    concurrency_matrix,
    dominates_block,
    dominates_matrix,
    pack_matrix,
    stack_timestamps,
)


def reference_leq(a, b) -> bool:
    """Component-wise dominance, the definition."""
    return all(x <= y for x, y in zip(a, b))


def capacity(n: int) -> int:
    """Largest component a width-n word holds: ``64 // n`` bits per
    field, the top one a guard."""
    return (1 << (64 // n - 1)) - 1


def reference_pack(row) -> int:
    """Component i shifted to bit ``i * (64 // n)``, OR-ed together."""
    w = 64 // len(row)
    word = 0
    for i, c in enumerate(row):
        word |= int(c) << (i * w)
    return word


def swar_leq(a, b) -> bool:
    """The packed kernel's verdict on ``a <= b`` for one pair."""
    packed = pack_matrix(np.asarray([a, b], dtype=np.int64))
    assert packed is not None
    return bool(_packed_leq(packed[:1], packed[1:], len(a))[0, 0])


@st.composite
def packable_pairs(draw):
    """Two same-width component tuples that both fit the packed form."""
    n = draw(st.integers(1, PACKED_MAX_N))
    cap = capacity(n)
    comp = st.integers(0, min(cap, 10_000))
    a = draw(st.lists(comp, min_size=n, max_size=n))
    # Bias toward comparable pairs: sometimes offset a, sometimes fresh.
    if draw(st.booleans()):
        b = [x + draw(st.integers(0, 3)) for x in a]
    else:
        b = draw(st.lists(comp, min_size=n, max_size=n))
    if any(x > cap for x in b):
        b = [min(x, cap) for x in b]
    return tuple(a), tuple(b)


@st.composite
def mixed_pairs(draw):
    """Pairs where either side may overflow the packed capacity.  A
    component stays within int64 (the kernels' matrix type), so at n=1,
    whose capacity is the int64 maximum, every pair is packable."""
    n = draw(st.integers(1, PACKED_MAX_N))
    cap = capacity(n)
    comp = st.integers(0, min(cap * 4 + 4, np.iinfo(np.int64).max))
    a = tuple(draw(st.lists(comp, min_size=n, max_size=n)))
    b = tuple(draw(st.lists(comp, min_size=n, max_size=n)))
    return a, b


@given(packable_pairs())
def test_pairwise_packed_matches_componentwise(pair):
    """On packable pairs the SWAR kernel, the pairwise operators and
    the definition agree in both directions."""
    a, b = pair
    ta, tb = VectorTimestamp(a), VectorTimestamp(b)
    assert swar_leq(a, b) == (ta <= tb) == reference_leq(a, b)
    assert swar_leq(b, a) == (tb <= ta) == reference_leq(b, a)
    assert (ta < tb) == (a != b and reference_leq(a, b))
    assert ta.concurrent_with(tb) == (
        not reference_leq(a, b) and not reference_leq(b, a)
    )


@given(mixed_pairs())
def test_pairwise_overflow_falls_back(pair):
    """Components beyond capacity: the pair has no packed form and the
    block kernel silently uses the component path, agreeing with the
    pairwise operators."""
    a, b = pair
    cap = capacity(len(a))
    vecs = np.asarray([a, b], dtype=np.int64)
    assert (pack_matrix(vecs) is not None) == (max(a + b) <= cap)
    ta, tb = VectorTimestamp(a), VectorTimestamp(b)
    leq = dominates_block(vecs, vecs)
    assert leq[0, 1] == (ta <= tb) == reference_leq(a, b)
    assert leq[1, 0] == (tb <= ta) == reference_leq(b, a)
    assert ta.concurrent_with(tb) == (
        not reference_leq(a, b) and not reference_leq(b, a)
    )


@st.composite
def timestamp_matrices(draw):
    """(m, n) component matrices, n = 1..8, mostly packable."""
    n = draw(st.integers(1, PACKED_MAX_N))
    m = draw(st.integers(1, 10))
    cap = capacity(n)
    # Clamp below int64 range: n=1 has capacity 2**63 - 1, so doubling
    # it would overflow the component matrix dtype rather than exercise
    # the packed-capacity fallback.
    hi = draw(
        st.sampled_from(
            [min(6, cap), min(cap, 2**40), min(cap * 2 + 1, 2**62)]
        )
    )
    rows = draw(
        st.lists(
            st.lists(st.integers(0, hi), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
    return np.asarray(rows, dtype=np.int64)


@given(timestamp_matrices())
def test_pack_matrix_matches_scalar_packing(vecs):
    packed = pack_matrix(vecs)
    n = vecs.shape[1]
    if int(vecs.max()) > capacity(n):
        assert packed is None
    else:
        assert packed is not None
        assert packed.dtype == np.uint64
        assert [int(w) for w in packed] == [reference_pack(r) for r in vecs]


@given(timestamp_matrices())
def test_batch_kernels_match_pairwise(vecs):
    """dominates/concurrency matrices and the CSR kernel agree with the
    pairwise operators whether or not the set packs."""
    ts = [VectorTimestamp(row) for row in vecs]
    m = len(ts)
    leq = dominates_matrix(ts)
    ref = np.array(
        [[tsa <= tsb for tsb in ts] for tsa in ts], dtype=bool
    )
    assert np.array_equal(leq, ref)
    conc = concurrency_matrix(ts)
    ref_conc = np.array(
        [
            [i != j and ts[i].concurrent_with(ts[j]) for j in range(m)]
            for i in range(m)
        ],
        dtype=bool,
    )
    assert np.array_equal(conc, ref_conc)
    cols, indptr = concurrency_csr(leq)
    rows_ref, cols_ref = np.nonzero(ref_conc)
    assert np.array_equal(cols, cols_ref)
    assert np.array_equal(indptr[1:] - indptr[:-1], ref_conc.sum(axis=1))


@given(timestamp_matrices())
def test_packed_and_sliced_kernels_agree(vecs):
    packed = pack_matrix(vecs)
    assume(packed is not None)
    leq_packed = dominates_matrix([], vecs=vecs, packed=packed)
    assert np.array_equal(leq_packed, _sliced_leq(vecs, vecs))


@given(timestamp_matrices(), st.data())
def test_block_kernels_match_pairwise(vecs, data):
    """Rectangular (suffix × full) kernels: packed and component paths
    agree with the pairwise operators."""
    split = data.draw(st.integers(0, vecs.shape[0]), label="split")
    a, b = vecs[split:], vecs
    ats = [VectorTimestamp(r) for r in a]
    bts = [VectorTimestamp(r) for r in b]
    ref = np.array(
        [[x <= y for y in bts] for x in ats], dtype=bool
    ).reshape(len(ats), len(bts))
    leq = dominates_block(a, b)
    assert np.array_equal(leq, ref)
    pa, pb = pack_matrix(a), pack_matrix(b)
    if pa is not None and pb is not None:
        assert np.array_equal(
            dominates_block(a, b, a_packed=pa, b_packed=pb), ref
        )
        conc = concurrency_block(a, b, a_packed=pa, b_packed=pb)
        ref_conc = np.array(
            [
                [
                    not (x <= y) and not (y <= x)
                    for y in bts
                ]
                for x in ats
            ],
            dtype=bool,
        ).reshape(len(ats), len(bts))
        assert np.array_equal(conc, ref_conc)


@pytest.mark.parametrize("n", range(1, PACKED_MAX_N + 1))
def test_capacity_boundary(n):
    """A component at capacity packs; one past it does not — and both
    compare identically against a packable partner."""
    cap = capacity(n)
    small = [0] * n
    at = [cap] * n
    packed = pack_matrix(np.asarray([small, at], dtype=np.int64))
    assert packed is not None
    assert [int(w) for w in packed] == [reference_pack(small), reference_pack(at)]
    rows = [small, at]
    if cap < np.iinfo(np.int64).max:     # n = 1: nothing overflows a word
        over = [cap] * (n - 1) + [cap + 1]
        assert pack_matrix(np.asarray([small, over], dtype=np.int64)) is None
        rows.append(over)
    vecs = np.asarray(rows, dtype=np.int64)
    leq = dominates_matrix([], vecs=vecs)
    assert leq[0].all() and not leq[1:, 0].any()
    ts = [VectorTimestamp(r) for r in rows]
    assert np.array_equal(
        leq, np.array([[x <= y for y in ts] for x in ts], dtype=bool)
    )


@settings(max_examples=25)
@given(st.integers(1, PACKED_MAX_N))
def test_stack_roundtrip_width(n):
    units = [tuple(int(i == p) for i in range(n)) for p in range(n)]
    vecs = stack_timestamps([VectorTimestamp(u) for u in units])
    assert vecs.shape == (n, n)
    assert np.array_equal(vecs, np.eye(n, dtype=np.int64))
    packed = pack_matrix(vecs)
    assert packed is not None
    assert [int(w) for w in packed] == [1 << (p * (64 // n)) for p in range(n)]
