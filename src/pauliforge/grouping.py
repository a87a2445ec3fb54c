"""Measurement grouping and shot-cost models for Pauli-sum estimation.

Sorted insertion greedily packs terms, largest |coefficient| first,
into the earliest collection whose members all commute with the
candidate (general commutation) or qubit-wise commute with it.  The
grouped Pauli norm sum_i sqrt(sum_j h_ij^2) then bounds the shot budget
the same way the plain Pauli norm does for term-by-term estimation.

Each candidate is tested against every collection at once on uint64
x/z masks.  Members of a qubit-wise collection agree on every qubit
they share, so the OR of their masks (gx, gz) summarizes the collection
exactly: the candidate fits iff
((x ^ gx) | (z ^ gz)) & (x | z) & (gx | gz) == 0.  For general
commutation the candidate's symplectic parity against every placed
term marks the collections holding a term it anticommutes with; it
joins the first unmarked one.

The shot simulator draws measurement outcomes per term, or per
collection after numerically diagonalizing the commuting family in a
shared eigenbasis, so the variance formulas behind the cost models can
be checked empirically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dense import (
    DENSE_MAX_QUBITS,
    haar_state,
    hamiltonian_expectation,
    pauli_expectation,
    pauli_matrix,
)
from .hamiltonian import Hamiltonian, _terms_by_magnitude, pauli_norm
# Both predicates stay bound here: perfbench/tracing.py wraps them by name.
from .paulis import PauliString, commutes, pauli_product, qubit_wise_commutes

COMMUTATION_KINDS = ("general", "qubit_wise")


@dataclass(frozen=True)
class Collection:
    """Mutually commuting terms measured together; index = creation order."""

    index: int
    members: tuple[tuple[float, PauliString], ...]

    def l2(self) -> float:
        return float(np.sqrt(sum(c * c for c, _ in self.members)))


@dataclass(frozen=True)
class GroupingResult:
    strategy: str
    collections: tuple[Collection, ...]

    @property
    def grouped_norm(self) -> float:
        """Sum over collections of the root-sum-square of member coefficients."""
        return float(sum(col.l2() for col in self.collections))

    @property
    def collection_count(self) -> int:
        return len(self.collections)


def sorted_insertion(h: Hamiltonian, commutation: str = "general") -> GroupingResult:
    """Greedy grouping in descending |coefficient| order.

    Ties in |coefficient| break on the lexicographic order of the text
    labels so the outcome is reproducible.  Each candidate joins the
    earliest collection it is compatible with, found by one array test
    over all collections (see the module docstring).
    """
    if commutation not in COMMUTATION_KINDS:
        raise ValueError(f"commutation must be one of {COMMUTATION_KINDS}")
    if len(h) == 0:
        raise ValueError("cannot group the zero Hamiltonian")
    terms = _terms_by_magnitude(h)
    m = len(terms)
    # n <= MAX_QUBITS = 32, so the masks fit uint64 exactly.
    x = np.array([p.x for p, _ in terms], dtype=np.uint64)
    z = np.array([p.z for p, _ in terms], dtype=np.uint64)
    # qubit-wise test: per collection, the OR of its members' masks
    gx = np.zeros(m, dtype=np.uint64)
    gz = np.zeros(m, dtype=np.uint64)
    # general test: per placed term, the collection it joined
    owner = np.zeros(m, dtype=np.intp)

    # Every test spans all m slots, opened or not: an unopened collection is
    # free, so argmax lands on the next new one when no open one fits.  Fixed
    # sizes also let the allocator reuse each step's temporaries; slices that
    # grow by one per step raised the peak RSS of a 2000-term pass by ~1 MB.
    groups: list[list[tuple[float, PauliString]]] = []
    for i, (p, c) in enumerate(terms):
        if commutation == "general":
            # popcount(a) + popcount(b) has the parity of popcount(a ^ b)
            anti = np.bitwise_count((x & z[i]) ^ (z & x[i]))
            anti &= 1  # in place, so the 0/1 counts view as a bool mask
            anti[i:] = 0  # terms not yet placed block nothing
            free = np.ones(m, dtype=bool)
            free[owner[anti.view(bool)]] = False
        else:
            free = (((x[i] ^ gx) | (z[i] ^ gz)) & (x[i] | z[i]) & (gx | gz)) == 0
        j = int(free.argmax())
        if j == len(groups):
            groups.append([])
        groups[j].append((c, p))
        owner[i] = j
        gx[j] |= x[i]
        gz[j] |= z[i]

    collections = tuple(
        Collection(index=i, members=tuple(members)) for i, members in enumerate(groups)
    )
    return GroupingResult(strategy=f"sorted_insertion/{commutation}", collections=collections)


def measurement_cost(h: Hamiltonian, epsilon: float, mode: str = "weighted_shots") -> float:
    """Model shot counts for accuracy epsilon, with term variances bounded by 1.

    uniform_shots:   L^2 * h_max^2 / eps^2
    weighted_shots:  (sum |h_i|)^2 / eps^2
    grouped:         (grouped Pauli norm / eps)^2 under sorted insertion
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    if len(h) == 0:
        raise ValueError("cannot cost the zero Hamiltonian")
    if mode == "uniform_shots":
        hmax = float(np.max(np.abs(h.coeffs)))
        return len(h) ** 2 * hmax**2 / epsilon**2
    if mode == "weighted_shots":
        return pauli_norm(h) ** 2 / epsilon**2
    if mode == "grouped":
        return (sorted_insertion(h).grouped_norm / epsilon) ** 2
    raise ValueError(f"unknown mode {mode!r}")


def allocate_shots(weights, shots: int) -> np.ndarray:
    """Integer shot counts proportional to the weights, summing to ``shots``.

    Every entry gets at least one shot; the remainder goes to the
    largest fractional parts (deterministic tie-break by position).
    """
    weights = np.asarray(weights, dtype=np.float64)
    m = weights.size
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


def _shared_eigenbasis(members, n, rng):
    """Orthonormal basis diagonalizing every member of a commuting family."""
    mats = [pauli_matrix(p) for _, p in members]
    for _ in range(5):
        combo = sum(rng.standard_normal() * m for m in mats)
        _, w = np.linalg.eigh(combo)
        diags = []
        ok = True
        for m in mats:
            d = w.conj().T @ m @ w
            if np.max(np.abs(d - np.diag(np.diagonal(d)))) > 1e-8:
                ok = False
                break
            diags.append(np.real(np.diagonal(d)))
        if ok:
            return w, diags
    raise ArithmeticError("failed to find a shared eigenbasis for a commuting family")


def shot_simulator(h: Hamiltonian, state: np.ndarray, allocation="weighted",
                   shots: int = 10_000, seed: int = 0):
    """Sampled estimate of <state|H|state> and its deviation from exact.

    ``allocation`` is "uniform" or "weighted" (per-term shot counts, the
    latter proportional to |h_i|), an explicit integer array per term,
    or a :class:`GroupingResult` (per-collection measurement in a shared
    eigenbasis, shots proportional to each collection's l2 weight).
    Returns (estimate, |estimate - exact|).
    """
    if len(h) == 0:
        raise ValueError("cannot estimate the zero Hamiltonian")
    if h.n > DENSE_MAX_QUBITS:
        raise ValueError("shot simulation is dense in the state; "
                         f"capped at {DENSE_MAX_QUBITS} qubits, got {h.n}")
    dim = 1 << h.n
    state = np.asarray(state, dtype=complex)
    if state.shape != (dim,):
        raise ValueError(f"state has shape {state.shape}, expected ({dim},)")
    rng = np.random.default_rng(seed)
    exact = hamiltonian_expectation(h, state)

    if isinstance(allocation, GroupingResult):
        weights = [col.l2() for col in allocation.collections]
        counts = allocate_shots(weights, shots)
        estimate = 0.0
        for col, s_i in zip(allocation.collections, counts):
            w, diags = _shared_eigenbasis(col.members, h.n, rng)
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
        counts = np.asarray(allocation, dtype=np.int64)
        if counts.shape != (len(terms),) or np.any(counts < 1):
            raise ValueError("explicit allocation needs a positive count per term")

    estimate = 0.0
    for (p, c), s_i in zip(terms, counts):
        ev = pauli_expectation(p, state)
        p_plus = min(max((1.0 + ev) / 2.0, 0.0), 1.0)
        k = rng.binomial(int(s_i), p_plus)
        estimate += c * (2.0 * k / int(s_i) - 1.0)
    return float(estimate), abs(float(estimate) - exact)


def shot_error_prediction(h: Hamiltonian, state: np.ndarray, counts) -> float:
    """Predicted RMS error sqrt(sum_i h_i^2 Var[P_i] / S_i) at the given state."""
    counts = np.asarray(counts, dtype=np.int64)
    terms = h.terms_by_index()
    if counts.shape != (len(terms),):
        raise ValueError("need one shot count per term")
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
    if p1 == p2:
        raise ValueError("strings must be non-identical")
    if not commutes(p1, p2):
        raise ValueError("strings must commute")
    prod = pauli_product(p1, p2)
    sign = float(np.real(prod.phase))  # commuting Hermitian product has phase +-1
    rng = np.random.default_rng(seed)
    dim = 1 << p1.n
    covs = np.empty(samples)
    for k in range(samples):
        psi = haar_state(dim, rng)
        e12 = sign * pauli_expectation(prod.string, psi)
        covs[k] = e12 - pauli_expectation(p1, psi) * pauli_expectation(p2, psi)
    mean = float(covs.mean())
    stderr = float(covs.std(ddof=1) / np.sqrt(samples))
    return mean, stderr
