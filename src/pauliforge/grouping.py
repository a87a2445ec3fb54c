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
built per term from input to output.  ``collections`` is a view of
(coefficient, PauliString) members built on demand, for the shot
simulator; callers that hold objects build a result with
``GroupingResult.from_collections``.  The grouped norm comes from the
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

The shot simulator draws measurement outcomes per term, or per
collection after numerically diagonalizing the commuting family in a
shared eigenbasis, so the variance formulas behind the cost models can
be checked empirically.  These dense checks import
:mod:`~pauliforge.dense` when called, so grouping alone loads no dense
code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import Hamiltonian, _magnitude_order, pauli_norm
# Both predicates stay bound here: perfbench/tracing.py wraps them by name.
from .paulis import DENSE_MAX_QUBITS, PauliString, commutes, pauli_product, qubit_wise_commutes

COMMUTATION_KINDS = ("general", "qubit_wise")

# Entries of one block of the general test's parity matrix: 2**15 uint64
# temporaries are 256 KiB.
_BLOCK_ENTRIES = 1 << 15
# Bound on the entries of the general test's collection-conflict table:
# 4 MiB of bools, of which only the rows of opened collections are written.
# The first window is 2047 candidates wide, so a 2000-term sum needs no
# rebuild.
_TABLE_ENTRIES = 1 << 22


@dataclass(frozen=True)
class Collection:
    """Mutually commuting terms measured together."""

    members: tuple[tuple[float, PauliString], ...]


@dataclass(frozen=True, eq=False)
class GroupingResult:
    """A grouping held as arrays: the packed ``keys`` and ``coeffs`` of its
    terms in collection order, and within a collection in candidate order,
    with ``starts`` the CSR offsets of the collections (collection j holds
    entries starts[j]:starts[j + 1]).  The arrays are read-only copies;
    results compare and hash by value over all fields."""

    strategy: str
    n: int
    keys: np.ndarray = field(repr=False)
    coeffs: np.ndarray = field(repr=False)
    starts: np.ndarray = field(repr=False)

    def __post_init__(self):
        keys = np.array(self.keys, dtype=np.uint64)
        coeffs = np.array(self.coeffs, dtype=np.float64)
        starts = np.array(self.starts, dtype=np.intp)
        if (keys.ndim != 1 or keys.shape != coeffs.shape or starts.ndim != 1
                or starts.size < 2 or starts[0] != 0 or starts[-1] != keys.size):
            raise ValueError("need 1-D keys and coefficients of equal length, and "
                             "offsets from 0 to their length over at least one collection")
        empty = np.flatnonzero(starts[1:] <= starts[:-1])
        if empty.size:
            raise ValueError(f"collection {int(empty[0])} is empty")
        for name, arr in (("keys", keys), ("coeffs", coeffs), ("starts", starts)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @classmethod
    def from_collections(cls, strategy: str,
                         collections: tuple[Collection, ...]) -> "GroupingResult":
        """The result holding these collections of (coefficient, string)
        members, in order.  Refuses an empty collection, and one holding
        a string on another qubit count than the first string's."""
        sizes = [len(col.members) for col in collections]
        if 0 in sizes:
            raise ValueError(f"collection {sizes.index(0)} is empty")
        if not sizes:
            raise ValueError("a grouping needs at least one collection")
        n = collections[0].members[0][1].n
        for j, col in enumerate(collections):
            if any(p.n != n for _, p in col.members):
                raise ValueError(f"collection {j} holds a string not on {n} qubits")
        members = [m for col in collections for m in col.members]
        return cls(strategy, n, [p.key() for _, p in members], [c for c, _ in members],
                   np.concatenate(([0], np.cumsum(sizes))))

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
    def collections(self) -> tuple[Collection, ...]:
        """The collections as (coefficient, PauliString) members, built on
        each call: a view for callers that work on objects."""
        n, mask = self.n, (1 << self.n) - 1
        members = [(c, PauliString._from_valid_key(k, n, mask))
                   for k, c in zip(self.keys.tolist(), self.coeffs.tolist())]
        bounds = self.starts.tolist()
        return tuple(Collection(members=tuple(members[a:b]))
                     for a, b in zip(bounds, bounds[1:]))

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
            for a in range(0, w0, rows):
                chunk = placed[a:a + rows]
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


def allocate_shots(weights, shots: int) -> np.ndarray:
    """Integer shot counts proportional to the weights, summing to ``shots``.

    Every entry gets at least one shot; the remainder goes to the
    largest fractional parts (deterministic tie-break by position).
    """
    if isinstance(shots, bool) or not isinstance(shots, (int, np.integer)):
        raise ValueError(f"shots must be an int, got {shots!r}")
    weights = np.asarray(weights, dtype=np.float64)
    m = weights.size
    if not np.all(np.isfinite(weights)):
        raise ValueError("weights must be finite")
    if shots < m:
        raise ValueError(f"need at least {m} shots to cover every entry, got {shots}")
    if np.any(weights < 0) or weights.sum() == 0:
        raise ValueError("weights must be nonnegative and not all zero")
    raw = weights / weights.sum() * (shots - m)
    base = np.floor(raw).astype(np.int64)
    remainder = shots - m - int(base.sum())
    frac = raw - base
    order = np.lexsort((np.arange(m), -frac))
    base[order[:remainder]] += 1
    return base + 1


def _counts_per_term(counts, m: int) -> np.ndarray:
    """Explicit shot counts as int64, refused unless they are one int >= 1
    for each of the m terms.  NumPy reads a list mixing bools with ints
    as int64, so bool elements are refused one by one."""
    arr = np.asarray(counts)
    if (arr.shape != (m,) or (m and arr.dtype.kind not in "iu") or np.any(arr < 1)
            or any(isinstance(c, (bool, np.bool_)) for c in counts)):
        raise ValueError(f"need one int shot count >= 1 per term ({m} terms)")
    return arr.astype(np.int64)


def _check_grouping(h: Hamiltonian, g: GroupingResult) -> None:
    """Refuse a grouping that does not hold each of h's terms once with its
    coefficient, or whose collection holds an anticommuting pair: the
    packed-key parity rule popcount(K_i & S_p) odd, S = z << n | x."""
    order = np.argsort(g.keys)
    if (g.n != h.n or g.keys.size != len(h) or not np.array_equal(g.keys[order], h.keys)
            or not np.array_equal(g.coeffs[order], h.coeffs)):
        raise ValueError("grouping must hold each of the Hamiltonian's terms once, "
                         "with its coefficient")
    width = np.uint64(h.n)
    swapped = ((g.keys & np.uint64((1 << h.n) - 1)) << width) | (g.keys >> width)
    bounds = g.starts.tolist()
    for j, (a, b) in enumerate(zip(bounds, bounds[1:])):
        if (np.bitwise_count(g.keys[a:b, None] & swapped[a:b]) & 1).any():
            raise ValueError(f"collection {j} holds anticommuting members")


def _shared_eigenbasis(members, rng):
    """Orthonormal basis diagonalizing every member of a commuting family."""
    from .dense import pauli_matrix

    mats = [pauli_matrix(p) for _, p in members]
    for _ in range(5):
        combo = sum(rng.standard_normal() * m for m in mats)
        _, w = np.linalg.eigh(combo)
        ds = [w.conj().T @ m @ w for m in mats]
        if not any(np.max(np.abs(d - np.diag(np.diagonal(d)))) > 1e-8 for d in ds):
            return w, [np.real(np.diagonal(d)) for d in ds]
    raise ArithmeticError("failed to find a shared eigenbasis for a commuting family")


def shot_simulator(h: Hamiltonian, state: np.ndarray, allocation="weighted",
                   shots: int = 10_000, seed: int = 0):
    """Sampled estimate of <state|H|state> and its deviation from exact.

    ``allocation`` is "uniform" or "weighted" (per-term shot counts, the
    latter proportional to |h_i|), an explicit integer array per term,
    or a :class:`GroupingResult` (per-collection measurement in a shared
    eigenbasis, shots proportional to each collection's l2 weight); a
    grouping is refused before any sampling unless it holds each term of
    ``h`` once and its collections commute.
    Returns (estimate, |estimate - exact|).
    """
    from .dense import hamiltonian_expectation, pauli_expectation

    if len(h) == 0:
        raise ValueError("cannot estimate the zero Hamiltonian")
    if h.n > DENSE_MAX_QUBITS:
        raise ValueError("shot simulation is dense in the state; "
                         f"capped at {DENSE_MAX_QUBITS} qubits, got {h.n}")
    dim = 1 << h.n
    state = np.asarray(state, dtype=complex)
    if state.shape != (dim,):
        raise ValueError(f"state has shape {state.shape}, expected ({dim},)")
    if isinstance(allocation, GroupingResult):
        _check_grouping(h, allocation)  # before any sampling or dense work
    rng = np.random.default_rng(seed)
    exact = hamiltonian_expectation(h, state)

    if isinstance(allocation, GroupingResult):
        counts = allocate_shots(allocation.l2_norms(), shots)
        estimate = 0.0
        for col, s_i in zip(allocation.collections, counts):
            w, diags = _shared_eigenbasis(col.members, rng)
            probs = np.abs(w.conj().T @ state) ** 2
            probs = np.clip(probs, 0.0, None)
            probs /= probs.sum()
            outcome_counts = rng.multinomial(int(s_i), probs)
            for (c, _p), d in zip(col.members, diags):
                estimate += c * float(np.dot(outcome_counts, d)) / int(s_i)
        return float(estimate), abs(float(estimate) - exact)

    terms = h.terms_by_index()
    if isinstance(allocation, str):
        if allocation == "uniform":
            weights = np.ones(len(terms))
        elif allocation == "weighted":
            weights = np.array([abs(c) for _, c in terms])
        else:
            raise ValueError(f"unknown allocation {allocation!r}")
        counts = allocate_shots(weights, shots)
    else:
        counts = _counts_per_term(allocation, len(terms))

    estimate = 0.0
    for (p, c), s_i in zip(terms, counts):
        ev = pauli_expectation(p, state)
        p_plus = min(max((1.0 + ev) / 2.0, 0.0), 1.0)
        k = rng.binomial(int(s_i), p_plus)
        estimate += c * (2.0 * k / int(s_i) - 1.0)
    return float(estimate), abs(float(estimate) - exact)


def shot_error_prediction(h: Hamiltonian, state: np.ndarray, counts) -> float:
    """Predicted RMS error sqrt(sum_i h_i^2 Var[P_i] / S_i) at the given state."""
    from .dense import pauli_expectation

    terms = h.terms_by_index()
    counts = _counts_per_term(counts, len(terms))
    total = 0.0
    for (p, c), s_i in zip(terms, counts):
        ev = pauli_expectation(p, state)
        var = max(1.0 - ev * ev, 0.0)
        total += c * c * var / int(s_i)
    return float(np.sqrt(total))


def covariance_zero_check(p1: PauliString, p2: PauliString,
                          samples: int = 10_000, seed: int = 0):
    """Monte-Carlo mean covariance of two commuting observables over Haar states.

    For commuting, non-identical Pauli strings the expectation over the
    uniform state distribution vanishes; returns (mean, standard error).
    """
    from .dense import _pauli_rows, haar_state

    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
        raise ValueError(f"samples must be an int, got {samples!r}")
    if samples < 2:
        raise ValueError(f"need >= 2 samples, got {samples}")
    if p1 == p2:
        raise ValueError("strings must be non-identical")
    if not commutes(p1, p2):
        raise ValueError("strings must commute")
    prod = pauli_product(p1, p2)
    sign = float(np.real(prod.phase))  # commuting Hermitian product has phase +-1
    # the three row tables, built once (and refused past the dense cap)
    keys = np.array([prod.string.key(), p1.key(), p2.key()], dtype=np.uint64)
    rows = list(zip(*_pauli_rows(keys, p1.n)))
    rng = np.random.default_rng(seed)
    dim = 1 << p1.n
    covs = np.empty(samples)
    for k in range(samples):
        psi = haar_state(dim, rng)
        e12, e1, e2 = (float(np.vdot(psi, phase * psi[src]).real) for src, phase in rows)
        covs[k] = sign * e12 - e1 * e2
    mean = float(covs.mean())
    stderr = float(covs.std(ddof=1) / np.sqrt(samples))
    return mean, stderr
