"""Measurement grouping and shot-cost models for Pauli-sum estimation.

Sorted insertion greedily packs terms, largest |coefficient| first,
into the earliest collection whose members all commute with the
candidate (general commutation) or qubit-wise commute with it.  The
grouped Pauli norm sum_i sqrt(sum_j h_ij^2) then bounds the shot budget
the same way the plain Pauli norm does for term-by-term estimation.

Both tests run on packed uint64 keys K = x << n | z, 2n <= 64 bits, and
the result keeps them: a ``GroupingResult`` holds the terms' keys and
coefficients in collection order, within a collection in candidate
order, and the CSR offsets ``starts`` of the collections.  Sorted
insertion fills it with one lexsort by (-|c|, base-4 index), first fit
on the keys, one stable argsort of the owners and a bincount, and the
result document labels every member in one codec call, so no object is
built per term from input to output.  The grouped norm comes from the
arrays and equals the sum over collection objects bit for bit: each
collection's squares are added member by member in order (bincount adds
its weights in input order, where add.reduceat sums pairwise past 8
members), then the roots in collection order.

General commutation: with the swapped key S = z << n | x, two terms
anticommute iff popcount(K_i & S_p) is odd, the bit rule the ansatz
engine uses for rotation axes.  First fit keeps a collection-conflict
table: blocked[j, r] is true when open collection j holds a term that
anticommutes with candidate r.  A candidate's collection is the first
false entry of its column over the open rows and one unopened, all-false
row, so "open a new collection" is the same lookup; then its parity row
is ORed into its collection's row over the later candidates.  Parity
rows come a block of candidates at a time, at most ``_BLOCK_ENTRIES``
entries, so the uint64 temporary stays at 256 KiB, and one argmin per
block finds every candidate's first free row; a candidate repeats it
only when an earlier one of its block took that row and clashes.  The
table covers a window of candidates, as wide as keeps it within
``_TABLE_ENTRIES`` bools even if every candidate in it opens a
collection; only the rows of opened collections are written.  At each
later window the open rows are rebuilt from the placed terms: sorted by
owner, tested against the window a block at a time and OR-reduced per
owner with reduceat.  Sums of up to 2047 terms fit one window.

Qubit-wise commutation: members of a collection agree on every qubit
they share, so the OR of their keys GK and of their doubled supports
GS2 (s << n | s, s = x | z) summarize it exactly.  A candidate fits iff
(K_i ^ GK) & GS2 & S2_i == 0, S2_i being its own doubled support.  First
fit places a block of at most 64 candidates, and at most
``_BLOCK_ENTRIES`` test entries, at a time.  One array pass tests the
block against the summaries of the collections open as it starts, and a
second tests it against itself, so each candidate's clashes within the
block are one int bit mask.  The block is then placed in order on those
masks: a candidate keeps its first fit unless a member of its block
joined that collection and clashes, and then takes the next fit in its
row; failing that it joins the first collection opened in the block that
holds no clashing member, or opens one.  The block's keys and supports
are then ORed into the summaries.  This is exact: a fit with a
collection is a fit with its summary, and summaries only ever add
constraints, so a misfit at the block's start stays one.

The shot simulator and its shot allocator, the covariance check, and
the grouping's view as objects live in :mod:`~pauliforge.verification`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import Hamiltonian, _checked_keys, _magnitude_order, pauli_norm
# Both predicates stay bound here: perfbench/tracing.py wraps them by name.
from .paulis import _checked_width, commutes, qubit_wise_commutes

COMMUTATION_KINDS = ("general", "qubit_wise")

# Entries of one block of the general test's parity matrix: 2**15 uint64
# temporaries are 256 KiB.
_BLOCK_ENTRIES = 1 << 15
# Bound on the entries of the general test's collection-conflict table:
# 4 MiB of bools, of which only the rows of opened collections are written.
# The first window is 2047 candidates wide, so a 2000-term sum needs no
# rebuild.
_TABLE_ENTRIES = 1 << 22


@dataclass(frozen=True, eq=False)
class GroupingResult:
    """A grouping held as arrays: the packed ``keys`` and ``coeffs`` of its
    terms in collection order, and within a collection in candidate order,
    with ``starts`` the CSR offsets of the collections (collection j holds
    entries starts[j]:starts[j + 1]).  The qubit count is refused outside
    1..MAX_QUBITS, a key that is not an integer below 4**n, offsets that
    are not integers and a coefficient that is not finite.  The arrays are
    read-only copies; results compare and hash by value over all fields."""

    strategy: str
    n: int
    keys: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _checked_width(self.n))
        keys = np.array(_checked_keys(self.keys, self.n))
        coeffs = np.array(self.coeffs, dtype=np.float64)
        starts = np.array(self.starts)
        if starts.size and starts.dtype.kind not in "iu":  # the cast would truncate
            raise ValueError(f"offsets must be integers, got dtype {starts.dtype}")
        starts = starts.astype(np.intp, copy=False)
        if (keys.ndim != 1 or keys.shape != coeffs.shape or starts.ndim != 1
                or starts.size < 2 or starts[0] != 0 or starts[-1] != keys.size):
            raise ValueError("need 1-D keys and coefficients of equal length, and "
                             "offsets from 0 to their length over at least one collection")
        if not np.isfinite(coeffs).all():
            bad = int(np.flatnonzero(~np.isfinite(coeffs))[0])
            raise ValueError(f"non-finite coefficient {coeffs[bad]} at entry {bad}")
        empty = np.flatnonzero(starts[1:] <= starts[:-1])
        if empty.size:
            raise ValueError(f"collection {int(empty[0])} is empty")
        for name, arr in (("keys", keys), ("coeffs", coeffs), ("starts", starts)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def _fields(self) -> tuple:
        return (self.strategy, self.n, self.keys.tobytes(), self.coeffs.tobytes(),
                self.starts.tobytes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupingResult):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    @property
    def collection_count(self) -> int:
        return self.starts.size - 1

    def l2_norms(self) -> np.ndarray:
        """Each collection's root-sum-square of member coefficients.  The
        squares are added in member order: bincount adds its weights in
        input order, where add.reduceat would sum pairwise past 8 members."""
        owner = np.repeat(np.arange(self.collection_count), np.diff(self.starts))
        return np.sqrt(np.bincount(owner, weights=self.coeffs * self.coeffs))

    @property
    def grouped_norm(self) -> float:
        """Sum over collections of the root-sum-square of member
        coefficients, added in collection order (cumsum adds in order)."""
        return float(np.cumsum(self.l2_norms())[-1])


def sorted_insertion(h: Hamiltonian, commutation: str = "general") -> GroupingResult:
    """Greedy grouping in descending |coefficient| order.

    Ties in |coefficient| break on the lexicographic order of the text
    labels so the outcome is reproducible.  Each candidate joins the
    earliest collection it is compatible with, found by array tests on
    packed keys (see the module docstring).
    """
    if commutation not in COMMUTATION_KINDS:
        raise ValueError(f"commutation must be one of {COMMUTATION_KINDS}")
    if len(h) == 0:
        raise ValueError("cannot group the zero Hamiltonian")
    order = _magnitude_order(h)
    # n <= MAX_QUBITS = 32, so the 2n-bit keys fit uint64 exactly.
    keys, coeffs = h.keys[order], h.coeffs[order]
    width = np.uint64(h.n)
    x, z = keys >> width, keys & np.uint64((1 << h.n) - 1)
    owner = np.empty(keys.size, dtype=np.intp)  # the collection each placed term joined
    if commutation == "general":
        _general_first_fit(keys, (z << width) | x, owner)
    else:
        support = x | z
        _qubit_wise_first_fit(keys, (support << width) | support, owner)
    members = np.argsort(owner, kind="stable")  # collection order, candidates in order
    starts = np.concatenate(([0], np.bincount(owner).cumsum()))
    return GroupingResult(f"sorted_insertion/{commutation}", h.n, keys[members],
                          coeffs[members], starts)


def _anticommuting(rows: np.ndarray, cols: np.ndarray, bits: np.ndarray,
                   parity: np.ndarray) -> np.ndarray:
    """(len(rows), len(cols)) bool table of popcount(rows[:, None] & cols) & 1,
    computed in a contiguous prefix of the flat uint64 ``bits`` and uint8
    ``parity`` buffers (contiguous, popcount runs in one pass)."""
    shape = (rows.size, cols.size)
    bits = bits[:rows.size * cols.size].reshape(shape)
    parity = parity[:bits.size].reshape(shape)
    np.bitwise_and(rows[:, None], cols, out=bits)
    np.bitwise_count(bits, out=parity)
    parity &= 1  # in place, so the 0/1 counts view as a bool mask
    return parity.view(bool)


def _general_first_fit(keys: np.ndarray, swapped: np.ndarray, owner: np.ndarray) -> None:
    """First fit under general commutation; fills ``owner`` in place.

    Candidates are placed a window [w0, w1) at a time.  ``blocked[j, r]``
    is true when open collection j holds a term anticommuting with
    candidate w0 + r.  Candidate i joins the first open collection whose
    entry in its column is false, found by an argmin over the open rows
    and the all-false row below them, so a candidate that fits nowhere
    opens a collection in the same call.  Its parity row against the
    later candidates of the window is then ORed into its collection's
    row.  A new window's open rows are rebuilt from the placed terms.
    """
    m = keys.size
    # Buffers for every window, allocated once: a block never exceeds
    # m * m entries, nor max(_BLOCK_ENTRIES, width), and a table never
    # exceeds _TABLE_ENTRIES unless its window is one candidate wide.
    cells = min(max(_BLOCK_ENTRIES, m), m * m)
    bits = np.empty(cells, dtype=np.uint64)
    parity = np.empty(cells, dtype=np.uint8)
    # Rows of unopened collections are cleared only as they open, so the
    # pages of rows that no collection reaches are never touched.
    table = np.empty(max(min(_TABLE_ENTRIES, (m + 1) * m), m + 1), dtype=bool)
    opened = 0
    w0 = 0
    while w0 < m:
        # the widest window whose table stays within _TABLE_ENTRIES even if
        # every candidate in it opens a collection: (opened + 1 + width) rows
        free_row = opened + 1
        width = (math.isqrt(free_row * free_row + 4 * _TABLE_ENTRIES) - free_row) // 2
        width = max(1, min(m - w0, width))
        w1 = w0 + width
        rows = max(1, _BLOCK_ENTRIES // width)  # parity rows per block
        blocked = table[:(free_row + width) * width].reshape(free_row + width, width)
        blocked[:free_row] = False
        if opened:
            # rebuild: each open row is the OR of its members' parity rows
            placed = np.argsort(owner[:w0], kind="stable")
            step = max(1, cells // width)  # as many placed terms as fill `bits`
            for a in range(0, w0, step):
                chunk = placed[a:a + step]
                anti = _anticommuting(keys[chunk], swapped[w0:w1], bits, parity)
                own = owner[chunk]
                starts = np.flatnonzero(np.diff(own, prepend=-1))
                # eight columns to a byte: reduceat costs about the same per
                # entry whatever its dtype, and bool rows are 8x the entries
                packed = np.bitwise_or.reduceat(np.packbits(anti, axis=1), starts, axis=0)
                blocked[own[starts]] |= np.unpackbits(packed, axis=1, count=width).view(bool)
        for b0 in range(w0, w1, rows):
            b1 = min(b0 + rows, w1)
            # every candidate of the block against the window from b0 on
            anti = _anticommuting(keys[b0:b1], swapped[b0:w1], bits, parity)
            # Each candidate's first free row as the block starts.  Rows only
            # turn blocked, so it stays first unless an earlier candidate of
            # the block joined that row and clashes; only then argmin again.
            first = blocked[:opened + 1, b0 - w0:b1 - w0].argmin(axis=0).tolist()
            for k, (j, row) in enumerate(zip(first, anti)):
                r = b0 - w0 + k
                if blocked[j, r]:
                    j = int(blocked[:opened + 1, r].argmin())
                owner[b0 + k] = j
                if j == opened:
                    opened += 1
                    blocked[opened] = False
                later = blocked[j, r + 1:]  # a view, so |= skips a setitem copy
                later |= row[k + 1:]
        w0 = w1


def _qubit_wise_first_fit(keys: np.ndarray, support2: np.ndarray, owner: np.ndarray) -> None:
    """First fit under qubit-wise commutation, a block of candidates at a
    time (see the module docstring); fills ``owner`` in place.

    The block is tested against the open collections' summaries and the
    unopened, all-zero slot after them, which every candidate fits, so
    an argmin gives each candidate's first fit as the block starts.
    """
    m = keys.size
    # Per collection, the OR of its members' keys and doubled supports.
    group_keys = np.zeros(m + 1, dtype=np.uint64)
    group_support2 = np.zeros(m + 1, dtype=np.uint64)
    # A block tests at most _BLOCK_ENTRIES entries unless it is one
    # candidate wide, and has at most 64 candidates, one bit each.
    bits = np.empty(min(max(_BLOCK_ENTRIES, m + 1), 64 * (m + 1)), dtype=np.uint64)
    powers = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
    opened = 0
    b0 = 0
    while b0 < m:
        start = opened
        slots = start + 1
        b1 = min(m, b0 + max(1, min(64, _BLOCK_ENTRIES // slots)))
        block_keys, block_support2 = keys[b0:b1, None], support2[b0:b1, None]
        clash = bits[:(b1 - b0) * slots].reshape(b1 - b0, slots)
        np.bitwise_xor(block_keys, group_keys[:slots], out=clash)
        clash &= group_support2[:slots]
        clash &= block_support2
        first = clash.argmin(axis=1).tolist()  # the first zero: slot ``start`` is one
        inner = block_keys ^ block_keys.T
        inner &= block_support2.T
        inner &= block_support2
        masks = ((inner != 0) @ powers[:b1 - b0]).tolist()  # bit k: clashes with b0 + k
        joined: dict[int, int] = {}  # collection -> mask of the block's members in it
        fresh = 0  # mask of the block's members in collections it opened
        placed: list[int] = []
        for k, (j, mask) in enumerate(zip(first, masks)):
            if j < start and joined.get(j, 0) & mask:
                # a member of the block joined j and clashes: the next fit
                later = np.flatnonzero(clash[k, j + 1:start] == 0) + (j + 1)
                j = next((r for r in later.tolist() if not joined.get(r, 0) & mask), start)
            if j == start:
                # No collection open at the block's start fits.  Only one
                # opened in the block and holding a member that does not
                # clash can: the first of those without a clashing member.
                j = opened
                free = fresh & ~mask
                while free:
                    r = placed[(free & -free).bit_length() - 1]
                    if not joined[r] & mask:
                        j = min(j, r)
                    free &= ~joined[r]
                opened += j == opened
                fresh |= 1 << k
            joined[j] = joined.get(j, 0) | 1 << k
            placed.append(j)
        owner[b0:b1] = placed
        np.bitwise_or.at(group_keys, owner[b0:b1], keys[b0:b1])
        np.bitwise_or.at(group_support2, owner[b0:b1], support2[b0:b1])
        b0 = b1


def measurement_cost(h: Hamiltonian, epsilon: float, mode: str = "weighted_shots") -> float:
    """Model shot counts for accuracy epsilon, with term variances bounded by 1.

    uniform_shots:   L^2 * h_max^2 / eps^2
    weighted_shots:  (sum |h_i|)^2 / eps^2
    grouped:         (grouped Pauli norm / eps)^2 under sorted insertion

    A count that is not finite (a tiny eps) is refused with a ValueError.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    if len(h) == 0:
        raise ValueError("cannot cost the zero Hamiltonian")
    epsilon = float(epsilon)  # Python floats overflow by raising, not warning
    try:
        if mode == "uniform_shots":
            hmax = float(np.max(np.abs(h.coeffs)))
            count = len(h) ** 2 * hmax**2 / epsilon**2
        elif mode == "weighted_shots":
            count = pauli_norm(h) ** 2 / epsilon**2
        elif mode == "grouped":
            count = (sorted_insertion(h).grouped_norm / epsilon) ** 2
        else:
            raise ValueError(f"unknown mode {mode!r}")
    except (ZeroDivisionError, OverflowError):  # eps**2 underflows to 0, or a square overflows
        count = math.inf
    if not math.isfinite(count):
        raise ValueError(f"epsilon {epsilon} gives a shot count that is not finite")
    return count

