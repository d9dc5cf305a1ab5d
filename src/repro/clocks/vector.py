"""Mattern/Fidge vector clock — rules VC1–VC3 (paper §4.2.1).

Timestamps are immutable :class:`VectorTimestamp` objects with two
interchangeable backends, selected automatically by vector width:

* **tuple backend** (n < :data:`FASTPATH_MAX_N`) — components live in a
  plain Python tuple, so comparisons, merges and hashing run as C-level
  tuple operations with no per-event NumPy allocation.  This is the
  common case: the paper's scenarios run 3–16 processes, and the
  detectors compare timestamps millions of times per run.
* **NumPy backend** (n ≥ :data:`FASTPATH_MAX_N`) — an ``int64`` array,
  so wide vectors (the E12 microbench goes to n=512) keep vectorized
  component-wise operations.

Either backend can lazily materialize the other view (:meth:`as_array`
/ :meth:`as_tuple`); both hash and compare identically, a property the
tests/clocks/test_fastpath.py property suite pins.  Batch helpers
(:func:`stack_timestamps`, :func:`dominates_matrix`,
:func:`concurrency_matrix`, :func:`merge_many`) give detectors an
m-at-a-time API so hot paths stop issuing m² Python-level ``__le__``
calls.

Inside the batch kernels, stamp sets with n ≤ :data:`PACKED_MAX_N`
components that all fit in ``64 // n - 1`` bits are **packed**
(:func:`pack_matrix`): each row's components bit-packed into one
uint64 word with a guard bit per field, so a dominance check is a
single subtract-and-mask (SWAR) instead of n comparisons.  Component
overflow falls back to the component-matrix kernels transparently
(tests/clocks/test_packed.py pins equivalence).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator, Literal, Sequence

import numpy as np

from repro.clocks.base import Clock, ClockError, validate_pid

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.probe import Probe

Ordering = Literal["<", ">", "=", "||"]

#: Width threshold for the tuple fast path; at and beyond it the NumPy
#: backend wins (vectorized compares amortize allocation overhead).
FASTPATH_MAX_N = 64

#: Bound on the elements of a single broadcast intermediate in the
#: chunked dominance kernel (keeps the O(m²·n) matrix memory-bounded).
_CHUNK_ELEMS = 1 << 22

#: Widest vector eligible for the packed-int64 encoding: n fields of
#: ``64 // n`` bits each, bit-packed into one word, with the top bit of
#: every field reserved as a borrow guard for the SWAR dominance test.
PACKED_MAX_N = 8

#: Per-width field geometry for the packed encoding (index = n).
#: ``_PACK_WIDTH[n]`` bits per component, of which the top one is the
#: guard, so components must be <= ``_PACK_LIMIT[n]``.
_PACK_WIDTH = [0] + [64 // n for n in range(1, PACKED_MAX_N + 1)]
_PACK_LIMIT = [0] + [(1 << (w - 1)) - 1 for w in _PACK_WIDTH[1:]]
#: Guard-bit masks: bit ``w - 1`` of each field set.
_PACK_GUARD = [0] + [
    sum(1 << (i * w + w - 1) for i in range(n))
    for n, w in enumerate(_PACK_WIDTH[1:], start=1)
]


class VectorTimestamp:
    """An immutable n-component vector timestamp.

    Supports the causality partial order: ``a < b`` iff a ≤ b
    component-wise and a ≠ b (vector dominance).  ``a || b`` denotes
    concurrency.  Hashable, so timestamps can key sets/dicts in the
    lattice machinery.
    """

    __slots__ = ("_t", "_arr", "_hash", "_sum")

    _t: "tuple[int, ...] | None"
    _arr: "np.ndarray | None"
    _hash: "int | None"
    _sum: "int | None"

    def __init__(self, components: Iterable[int]) -> None:
        if isinstance(components, np.ndarray):
            v = components
            if v.ndim != 1 or v.size == 0:
                raise ClockError(
                    f"vector timestamp needs a 1-D nonempty vector, got shape {v.shape}"
                )
            if np.any(v < 0):
                raise ClockError("vector components must be non-negative")
            if v.size < FASTPATH_MAX_N:
                self._t = tuple(int(x) for x in v)
                self._arr = None
            else:
                arr = np.asarray(v, dtype=np.int64).copy()
                arr.setflags(write=False)
                self._t = None
                self._arr = arr
        else:
            t = tuple(int(x) for x in components)
            if not t:
                raise ClockError(
                    "vector timestamp needs a 1-D nonempty vector, got shape (0,)"
                )
            if any(x < 0 for x in t):
                raise ClockError("vector components must be non-negative")
            if len(t) < FASTPATH_MAX_N:
                self._t = t
                self._arr = None
            else:
                arr = np.asarray(t, dtype=np.int64)
                arr.setflags(write=False)
                self._t = None
                self._arr = arr
        self._hash = None
        self._sum = None

    # -- trusted constructors (internal fast paths) ---------------------
    @classmethod
    def _from_trusted_tuple(cls, t: "tuple[int, ...]") -> "VectorTimestamp":
        """Wrap an already-validated component tuple (no checks)."""
        ts = cls.__new__(cls)
        ts._t = t
        ts._arr = None
        ts._hash = None
        ts._sum = None
        return ts

    @classmethod
    def _from_trusted_array(cls, arr: "np.ndarray") -> "VectorTimestamp":
        """Wrap an already-validated int64 array (copied, frozen)."""
        ts = cls.__new__(cls)
        a = arr.copy()
        a.setflags(write=False)
        ts._t = None
        ts._arr = a
        ts._hash = None
        ts._sum = None
        return ts

    # -- accessors ------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._t) if self._t is not None else len(self._arr)  # type: ignore[arg-type]

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if self._t is not None:
            return self._t[i]
        return int(self._arr[i])  # type: ignore[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self.as_tuple())

    def as_tuple(self) -> "tuple[int, ...]":
        """Component tuple (cached; free on the tuple backend)."""
        if self._t is None:
            self._t = tuple(int(x) for x in self._arr)  # type: ignore[union-attr]
        return self._t

    def as_array(self) -> "np.ndarray":
        """Read-only int64 view (lazily materialized on the tuple
        backend, no copy on the NumPy backend)."""
        if self._arr is None:
            arr = np.asarray(self._t, dtype=np.int64)
            arr.setflags(write=False)
            self._arr = arr
        return self._arr

    # -- order ----------------------------------------------------------
    def _check(self, other: "VectorTimestamp") -> None:
        if not isinstance(other, VectorTimestamp):
            raise TypeError(f"cannot compare VectorTimestamp with {type(other)!r}")
        if other.n != self.n:
            raise ClockError(f"vector width mismatch: {self.n} vs {other.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorTimestamp):
            return NotImplemented
        if self.n != other.n:
            return False
        return self.as_tuple() == other.as_tuple()

    def __hash__(self) -> int:
        # Both backends hash their component tuple, so mixed-backend
        # equal timestamps collide correctly in sets/dicts.
        h = self._hash
        if h is None:
            h = hash(self.as_tuple())
            self._hash = h
        return h

    def __le__(self, other: "VectorTimestamp") -> bool:
        self._check(other)
        a, b = self._t, other._t
        if a is not None and b is not None:
            return all(x <= y for x, y in zip(a, b))
        return bool(np.all(self.as_array() <= other.as_array()))

    def __lt__(self, other: "VectorTimestamp") -> bool:
        """Strict vector dominance == happens-before (the isomorphism)."""
        self._check(other)
        a, b = self._t, other._t
        if a is not None and b is not None:
            return a != b and all(x <= y for x, y in zip(a, b))
        sa, sb = self.as_array(), other.as_array()
        return bool(np.all(sa <= sb) and np.any(sa < sb))

    def __ge__(self, other: "VectorTimestamp") -> bool:
        return other.__le__(self)

    def __gt__(self, other: "VectorTimestamp") -> bool:
        return other.__lt__(self)

    def concurrent_with(self, other: "VectorTimestamp") -> bool:
        """True iff neither dominates the other (a || b)."""
        self._check(other)
        return not (self <= other) and not (other <= self)

    def merge(self, other: "VectorTimestamp") -> "VectorTimestamp":
        """Component-wise max (the join in the timestamp lattice)."""
        self._check(other)
        a, b = self._t, other._t
        if a is not None and b is not None:
            if a == b:
                return self
            return VectorTimestamp._from_trusted_tuple(
                tuple(x if x >= y else y for x, y in zip(a, b))
            )
        return VectorTimestamp._from_trusted_array(
            np.maximum(self.as_array(), other.as_array())
        )

    def sum(self) -> int:
        """Total event count witnessed (used by lattice level indexing).

        Cached — linearization sorts call this once per comparison key.
        """
        s = self._sum
        if s is None:
            if self._t is not None:
                s = sum(self._t)
            else:
                s = int(self._arr.sum())  # type: ignore[union-attr]
            self._sum = s
        return s

    def __repr__(self) -> str:
        return f"VectorTimestamp({self.as_tuple()})"


def compare(a: VectorTimestamp, b: VectorTimestamp) -> Ordering:
    """Classify the causal relation between two timestamps.

    Returns ``"<"`` (a happens-before b), ``">"``, ``"="`` or ``"||"``.
    """
    if a == b:
        return "="
    if a < b:
        return "<"
    if b < a:
        return ">"
    return "||"


def concurrent(a: VectorTimestamp, b: VectorTimestamp) -> bool:
    """Convenience alias for :meth:`VectorTimestamp.concurrent_with`."""
    return a.concurrent_with(b)


# ---------------------------------------------------------------------------
# Batch kernels — m-at-a-time operations for detector hot paths
# ---------------------------------------------------------------------------

def stack_timestamps(timestamps: Sequence[VectorTimestamp]) -> "np.ndarray":
    """Stack m same-width timestamps into an (m, n) int64 matrix."""
    ts = list(timestamps)
    if not ts:
        return np.zeros((0, 0), dtype=np.int64)
    n = ts[0].n
    for t in ts:
        if t.n != n:
            raise ClockError(f"vector width mismatch: {n} vs {t.n}")
    if ts[0]._t is not None:
        # Tuple backend: one C-level bulk conversion beats stacking m
        # tiny arrays.
        return np.asarray([t.as_tuple() for t in ts], dtype=np.int64)
    return np.stack([t.as_array() for t in ts])


def pack_matrix(vecs: "np.ndarray") -> "np.ndarray | None":
    """Pack an (m, n) int64 component matrix into m uint64 words.

    Returns ``None`` when the matrix has no packed form (``n`` beyond
    :data:`PACKED_MAX_N`, or any component beyond ``2**(w - 1) - 1``)
    — callers fall back to the component matrix.

    Component i occupies bits ``[i*w, (i+1)*w)`` with ``w = 64 // n``;
    the top bit of every field is a zero guard bit, which makes
    dominance a single subtract-and-mask: ``a <= b`` iff
    ``((b | G) - a) & G == G`` for the guard mask G.
    """
    if vecs.ndim != 2:
        return None
    n = vecs.shape[1]
    if not 1 <= n <= PACKED_MAX_N:
        return None
    if vecs.size and int(vecs.max()) > _PACK_LIMIT[n]:
        return None
    w = _PACK_WIDTH[n]
    packed = vecs[:, 0].astype(np.uint64)
    for k in range(1, n):
        packed |= vecs[:, k].astype(np.uint64) << np.uint64(k * w)
    return packed


#: Row-chunk size (in elements) for the packed kernel's scratch buffer.
#: ~64K uint64 elements = 512 KiB keeps the subtract/and/eq passes in
#: cache; one-shot (m × m) temporaries cost ~7x more in page faults at
#: m=5000.
_PACKED_CHUNK_ELEMS = 1 << 16


def _packed_leq(
    a_packed: "np.ndarray", b_packed: "np.ndarray", n: int
) -> "np.ndarray":
    """``leq[i, j] ⇔ a[i] ≤ b[j]`` over packed words: a broadcast
    subtract with per-field guard bits absorbing borrows (SWAR), so the
    cost is ~3 elementwise passes regardless of n (the component-sliced
    kernel pays 2n - 1).  Row-chunked over a reused scratch buffer so
    the uint64 intermediates never leave cache."""
    g = np.uint64(_PACK_GUARD[n])
    la, lb = a_packed.shape[0], b_packed.shape[0]
    out = np.empty((la, lb), dtype=bool)
    bg = b_packed | g
    rows = max(1, _PACKED_CHUNK_ELEMS // max(1, lb))
    scratch = np.empty((min(rows, la), lb), dtype=np.uint64)
    for lo in range(0, la, rows):
        hi = min(la, lo + rows)
        s = scratch[: hi - lo]
        np.subtract(bg[None, :], a_packed[lo:hi, None], out=s)
        np.bitwise_and(s, g, out=s)
        np.equal(s, g, out=out[lo:hi])
    return out


def _sliced_leq(a_vecs: "np.ndarray", b_vecs: "np.ndarray") -> "np.ndarray":
    """Component-sliced ``leq[i, j] ⇔ a[i] ≤ b[j]`` (n 2-D compares)."""
    col = a_vecs[:, 0]
    leq = col[:, None] <= b_vecs[:, 0][None, :]
    for k in range(1, a_vecs.shape[1]):
        leq &= a_vecs[:, k][:, None] <= b_vecs[:, k][None, :]
    return leq


def dominates_matrix(
    timestamps: Sequence[VectorTimestamp],
    *,
    vecs: "np.ndarray | None" = None,
    packed: "np.ndarray | None" = None,
) -> "np.ndarray":
    """Boolean m×m matrix ``leq[i, j] ⇔ timestamps[i] ≤ timestamps[j]``.

    Three kernels, chosen by width: packed-SWAR when the set fits the
    int64 packed encoding (one uint64 subtract instead of n compares),
    component-sliced for other narrow vectors (n two-D compares, no
    (m, m, n) intermediate), and a chunked 3-D broadcast for wide ones
    so peak memory stays bounded by :data:`_CHUNK_ELEMS` elements.
    ``vecs``/``packed`` accept precomputed representations (the online
    detector maintains them incrementally across flushes).
    """
    if vecs is None:
        vecs = stack_timestamps(timestamps)
    m = vecs.shape[0]
    if m == 0:
        return np.zeros((0, 0), dtype=bool)
    n = vecs.shape[1]
    if n <= PACKED_MAX_N:
        if packed is None:
            packed = pack_matrix(vecs)
        if packed is not None:
            return _packed_leq(packed, packed, n)
        return _sliced_leq(vecs, vecs)
    leq = np.empty((m, m), dtype=bool)
    rows = max(1, _CHUNK_ELEMS // max(1, m * n))
    for lo in range(0, m, rows):
        hi = min(m, lo + rows)
        np.all(vecs[lo:hi, None, :] <= vecs[None, :, :], axis=2, out=leq[lo:hi])
    return leq


def concurrency_matrix(timestamps: Sequence[VectorTimestamp]) -> "np.ndarray":
    """Boolean m×m matrix: ``conc[i, j]`` iff the two timestamps are
    concurrent (neither dominates).  Diagonal is False."""
    leq = dominates_matrix(timestamps)
    conc = ~(leq | leq.T)
    np.fill_diagonal(conc, False)
    return conc


#: Tile edge for the CSR concurrency kernels — power of two; a 512×512
#: bool tile plus its transposed sibling stay cache-resident, so the
#: symmetric OR never does strided reads over the full matrix.
_CONC_TILE = 512


def _csr_assemble(
    m: int, rows_parts: list, cols_parts: list
) -> "tuple[np.ndarray, np.ndarray]":
    """Assemble tile-local (row, col) index parts into CSR ``(cols,
    indptr)``.  Parts must be appended in ascending column-range order
    per row block, each internally column-ascending — a stable sort by
    row then recovers full row-major order."""
    indptr = np.zeros(m + 1, dtype=np.intp)
    if not rows_parts:
        return np.empty(0, dtype=np.intp), indptr
    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    cols = cols[np.argsort(rows, kind="stable")]
    np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
    return cols, indptr


def _tile_nonzero(blk: "np.ndarray", di: int) -> "np.ndarray":
    """Flat indices of True cells in the first ``di`` rows of a
    C-contiguous boolean tile, ascending (row-major).

    Scans 8 cells per step through a uint64 view (the tile width is a
    multiple of 8), then expands only the nonzero words — at typical
    race densities this beats ``np.nonzero``'s cell-by-cell scan ~5x.
    """
    active = blk[:di].reshape(-1)
    words = np.flatnonzero(active.view(np.uint64))
    if not words.size:
        return words
    cand = ((words[:, None] << 3) + _TILE_LANES).reshape(-1)
    return cand[active[cand]]


_TILE_LANES = np.arange(8, dtype=np.intp)


def concurrency_csr(leq: "np.ndarray") -> "tuple[np.ndarray, np.ndarray]":
    """CSR form ``(cols, indptr)`` of the concurrency relation from a
    square dominance matrix: row i's concurrent partners (ascending)
    sit at ``cols[indptr[i]:indptr[i + 1]]``.

    Tiled over the upper triangle with a reused scratch block, mirroring
    each off-diagonal tile — the m×m concurrency matrix itself is never
    materialized and per-tile scans stay in cache (at m=5000 the
    matrix + full-scan route costs ~10x more in memory traffic).
    Equivalent to ``np.nonzero`` over :func:`concurrency_matrix`'s
    output, including the per-row column order.
    """
    m = leq.shape[0]
    if m == 0:
        return np.empty(0, dtype=np.intp), np.zeros(1, dtype=np.intp)
    t = _CONC_TILE
    shift = t.bit_length() - 1
    blk = np.zeros((t, t), dtype=bool)    # padding columns stay False
    rows_parts: list = []
    cols_parts: list = []
    for i0 in range(0, m, t):
        i1 = min(m, i0 + t)
        di = i1 - i0
        for j0 in range(i0, m, t):
            j1 = min(m, j0 + t)
            dj = j1 - j0
            target = blk[:di, :dj]
            np.bitwise_or(leq[i0:i1, j0:j1], leq[j0:j1, i0:i1].T, out=target)
            np.logical_not(target, out=target)
            if i0 == j0:
                np.fill_diagonal(target, False)
            if dj < t:               # clear stale cells past this tile's edge
                blk[:di, dj:] = False
            idx = _tile_nonzero(blk, di)
            if idx.size:
                r = idx >> shift
                c = idx & (t - 1)
                rows_parts.append(r + i0)
                cols_parts.append(c + j0)
                if j0 != i0:     # mirror the symmetric lower-triangle tile
                    rows_parts.append(c + j0)
                    cols_parts.append(r + i0)
    return _csr_assemble(m, rows_parts, cols_parts)


def dominates_block(
    a_vecs: "np.ndarray",
    b_vecs: "np.ndarray",
    *,
    a_packed: "np.ndarray | None" = None,
    b_packed: "np.ndarray | None" = None,
) -> "np.ndarray":
    """Rectangular dominance: ``leq[i, j] ⇔ a[i] ≤ b[j]`` for two
    stacked windows (the suffix-vs-prefix shape of the incremental
    online flush).  ``a_packed``/``b_packed`` take precomputed packed
    words; both must be given (and consistent) to hit the SWAR kernel.
    """
    la, lb = a_vecs.shape[0], b_vecs.shape[0]
    if la == 0 or lb == 0:
        return np.zeros((la, lb), dtype=bool)
    n = a_vecs.shape[1]
    if b_vecs.shape[1] != n:
        raise ClockError(f"vector width mismatch: {n} vs {b_vecs.shape[1]}")
    if a_packed is not None and b_packed is not None:
        return _packed_leq(a_packed, b_packed, n)
    if n <= PACKED_MAX_N:
        pa, pb = pack_matrix(a_vecs), pack_matrix(b_vecs)
        if pa is not None and pb is not None:
            return _packed_leq(pa, pb, n)
        return _sliced_leq(a_vecs, b_vecs)
    if n <= PACKED_MAX_N * 4:
        return _sliced_leq(a_vecs, b_vecs)
    leq = np.empty((la, lb), dtype=bool)
    rows = max(1, _CHUNK_ELEMS // max(1, lb * n))
    for lo in range(0, la, rows):
        hi = min(la, lo + rows)
        np.all(a_vecs[lo:hi, None, :] <= b_vecs[None, :, :], axis=2, out=leq[lo:hi])
    return leq


def concurrency_block(
    a_vecs: "np.ndarray",
    b_vecs: "np.ndarray",
    *,
    a_packed: "np.ndarray | None" = None,
    b_packed: "np.ndarray | None" = None,
) -> "np.ndarray":
    """Rectangular concurrency: ``conc[i, j]`` iff ``a[i] || b[j]``.

    The caller is responsible for masking self-pairs when the windows
    overlap (a block kernel cannot know which rows alias which
    columns).
    """
    leq = dominates_block(a_vecs, b_vecs, a_packed=a_packed, b_packed=b_packed)
    geq = dominates_block(b_vecs, a_vecs, a_packed=b_packed, b_packed=a_packed)
    return ~(leq | geq.T)


def merge_many(timestamps: Sequence[VectorTimestamp]) -> VectorTimestamp:
    """Join (component-wise max) of m ≥ 1 timestamps in one pass."""
    ts = list(timestamps)
    if not ts:
        raise ClockError("merge_many needs at least one timestamp")
    if len(ts) == 1:
        return ts[0]
    vecs = stack_timestamps(ts)
    merged = vecs.max(axis=0)
    if vecs.shape[1] < FASTPATH_MAX_N:
        return VectorTimestamp._from_trusted_tuple(tuple(int(x) for x in merged))
    return VectorTimestamp._from_trusted_array(merged)


class VectorClock(Clock[VectorTimestamp]):
    """Mattern/Fidge causality-tracking vector clock.

    VC1: local event  → ``C[i] += 1``
    VC2: send         → ``C[i] += 1``; piggyback C
    VC3: receive(T)   → ``C = max(C, T)``; ``C[i] += 1``

    Internal state is a plain Python list below :data:`FASTPATH_MAX_N`
    processes (so ``read()`` mints tuple-backed timestamps with no
    NumPy allocation) and an int64 array at or above it.

    Parameters
    ----------
    pid:
        This process's index in the vector.
    n:
        Number of processes (vector width).
    """

    def __init__(self, pid: int, n: int) -> None:
        validate_pid(pid, n)
        self._pid = int(pid)
        self._n = int(n)
        self._small = self._n < FASTPATH_MAX_N
        self._v: "list[int] | np.ndarray"
        if self._small:
            self._v = [0] * self._n
        else:
            self._v = np.zeros(self._n, dtype=np.int64)
        #: VC1 local events, VC2 sends and VC3 receives so far
        self.local_events = 0
        self.sends = 0
        self.receives = 0
        self._probe: "Probe | None" = None

    def bind_probe(self, probe: "Probe") -> None:
        """Expose the VC1/VC2/VC3 counts to ``probe``'s catalog."""
        self._probe = probe
        probe.bind(self, "vector")

    @property
    def pid(self) -> int:
        return self._pid

    @property
    def n(self) -> int:
        return self._n

    def on_local_event(self) -> VectorTimestamp:
        self._v[self._pid] += 1
        self.local_events += 1
        return self.read()

    def on_send(self) -> VectorTimestamp:
        self._v[self._pid] += 1
        self.sends += 1
        return self.read()

    def on_receive(self, remote: VectorTimestamp) -> VectorTimestamp:
        if remote.n != self._n:
            raise ClockError(f"vector width mismatch: {self._n} vs {remote.n}")
        if self._small:
            v = self._v
            for k, r in enumerate(remote.as_tuple()):
                if r > v[k]:  # type: ignore[index]
                    v[k] = r  # type: ignore[index]
        else:
            np.maximum(self._v, remote.as_array(), out=self._v)  # type: ignore[call-overload]
        self._v[self._pid] += 1
        self.receives += 1
        return self.read()

    def read(self) -> VectorTimestamp:
        if self._small:
            return VectorTimestamp._from_trusted_tuple(tuple(self._v))
        return VectorTimestamp._from_trusted_array(self._v)  # type: ignore[arg-type]

    def snapshot(self) -> dict[str, list[int]]:
        """JSON-safe state summary (see :mod:`repro.recover`)."""
        return {"v": [int(x) for x in self._v]}

    def __repr__(self) -> str:  # pragma: no cover
        return f"VectorClock(pid={self._pid}, v={tuple(int(x) for x in self._v)})"


__all__ = [
    "VectorClock",
    "VectorTimestamp",
    "compare",
    "concurrent",
    "Ordering",
    "FASTPATH_MAX_N",
    "PACKED_MAX_N",
    "stack_timestamps",
    "pack_matrix",
    "dominates_matrix",
    "dominates_block",
    "concurrency_matrix",
    "concurrency_csr",
    "concurrency_block",
    "merge_many",
]
