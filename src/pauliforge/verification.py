"""Dense checks of the engine and of the cost models, for small registers.

No command loads this module.  The tests use it to check the sparse
engine and the grouping, shot and qDrift cost models against dense
linear algebra.

- Circuit unitaries: :func:`ansatz_unitary`, the dense 2^n x 2^n unitary
  of a layout, and :func:`build_encoded_v`, the 4^n x 4^n
  coefficient-space map that :mod:`~pauliforge.ansatz` applies sparsely.
- Evolution: :func:`trotter_first_order`, a first-order product formula,
  and :func:`sandwich_check`, the conjugation sandwich identity
  U^dag exp(-iH't) U = exp(-iHt) with H' = U H U^dag.
- Estimation: :func:`shot_simulator` draws measurement outcomes per term,
  or per collection of a :class:`~pauliforge.grouping.GroupingResult`
  after numerically diagonalizing the commuting family in a shared
  eigenbasis, so the variance formulas behind the cost models can be
  checked empirically; :func:`shot_error_prediction` is that formula, and
  :func:`covariance_zero_check` the vanishing Haar-average covariance of
  two commuting strings.
"""

from __future__ import annotations

import numpy as np

from .ansatz import (
    AnsatzLayout,
    apply_ansatz,
    apply_ansatz_inverse,
    as_parameter_vector,
    gate_axis,
)
from .dense import (
    _check_capacity,
    _pauli_rows,
    haar_state,
    hamiltonian_expectation,
    pauli_expectation,
    pauli_matrix,
)
from .dynamics import exact_evolution
from .grouping import GroupingResult, allocate_shots
from .hamiltonian import Hamiltonian, _terms_by_magnitude
from .paulis import DENSE_MAX_QUBITS, PauliString, commutes, pauli_product

SANDWICH_MAX_QUBITS = 6


def ansatz_unitary(layout: AnsatzLayout, theta) -> np.ndarray:
    """Dense unitary of a full ansatz, its gates applied in circuit order
    as row operations: a rotation about the Pauli A is u <- cos(t/2)*u
    - i*sin(t/2)*(A u), and CZ negates the rows where Z_a and Z_b both
    read -1, i.e. where both qubits are 1."""
    _check_capacity(layout.n)
    theta = as_parameter_vector(theta, layout.parameter_count)
    u = np.eye(1 << layout.n, dtype=complex)
    for g in layout.gates:
        axis = gate_axis(g, layout.n)
        if axis is None:
            _, z = _pauli_rows(np.array([1 << q for q in g.qubits], np.uint64), layout.n)
            u[(z.real < 0).all(axis=0)] *= -1
        else:
            src, phase = _pauli_rows(PauliString.from_label(axis).key(), layout.n)
            t = theta[g.param] / 2
            u = np.cos(t) * u - 1j * np.sin(t) * (phase[:, None] * u[src])
    return u


def build_encoded_v(layout: AnsatzLayout, theta) -> np.ndarray:
    """Dense 4^n x 4^n coefficient-space unitary of the ansatz, n being
    the layout's qubit count.

    Row i holds the Pauli coefficients of U^dag P_i U, so that
    V @ vectorize(H) equals vectorize(U H U^dag) entrywise.  Test-only;
    capped at 3 qubits.
    """
    n = layout.n
    if n > 3:
        raise ValueError(f"encoded unitary is dense in 4^n; capped at n=3, got {n}")
    v = np.zeros((4**n, 4**n), dtype=np.float64)
    for i in range(4**n):
        basis = Hamiltonian(n, {PauliString.from_index(i, n): 1.0})
        row = apply_ansatz_inverse(basis, layout, theta)
        v[i, row.indices()] = row.coeffs
    return v


def trotter_first_order(h: Hamiltonian, t: float, r: int) -> np.ndarray:
    """(prod_j exp(-i t h_j P_j / r))^r, terms by descending |h_j| then label."""
    if h.n > DENSE_MAX_QUBITS:
        raise ValueError(f"product formula capped at {DENSE_MAX_QUBITS} qubits, got {h.n}")
    if r < 1:
        raise ValueError(f"segment count must be >= 1, got {r}")
    segment = eye = np.eye(1 << h.n, dtype=complex)
    for p, c in _terms_by_magnitude(h):
        alpha = t * c / r
        gate = np.cos(alpha) * eye - 1j * np.sin(alpha) * pauli_matrix(p)
        segment = gate @ segment
    return np.linalg.matrix_power(segment, r)


def sandwich_check(h: Hamiltonian, layout: AnsatzLayout, theta, t: float) -> float:
    """Spectral-norm deviation of U^dag exp(-iH't) U from exp(-iHt),
    H' being the conjugated Hamiltonian; vanishes identically."""
    if h.n > SANDWICH_MAX_QUBITS:
        raise ValueError(f"sandwich check capped at {SANDWICH_MAX_QUBITS} qubits, got {h.n}")
    u = ansatz_unitary(layout, theta)
    h_eng = apply_ansatz(h, layout, theta)
    lhs = u.conj().T @ exact_evolution(h_eng, t) @ u
    return float(np.linalg.norm(lhs - exact_evolution(h, t), 2))


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
