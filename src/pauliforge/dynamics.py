"""Dense time-evolution tools: exact propagators, first-order product
formulas, randomized (qDrift-style) sampling, and the conjugation
sandwich identity.

qDrift draws gate indices i.i.d. with probability |h_j| / gamma
(gamma = sum |h_j|) and applies fixed-strength rotations
exp(-i*tau*sign(h_j)*P_j) with tau = t*gamma/G; the sign of a negative
coefficient is folded into the rotation direction.  Errors are measured
as the mean 2-norm state deviation over a fixed panel of Haar-random
test states, averaged over independently sampled plans.

Seed streams (the reproducibility contract): ``qdrift_sample`` uses
``default_rng(seed)``; trial k of ``qdrift_error`` uses the k-th child of
``SeedSequence(seed).spawn(trials)``, and of ``qdrift_channel_error`` that
of ``SeedSequence((seed, G)).spawn(trials)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .ansatz import AnsatzLayout, apply_ansatz
from .dense import (
    DENSE_MAX_QUBITS,
    ansatz_unitary,
    haar_state,
    hamiltonian_matrix,
    pauli_matrix,
)
from .hamiltonian import Hamiltonian, _terms_by_magnitude, pauli_norm

QDRIFT_MAX_QUBITS = 8
SANDWICH_MAX_QUBITS = 6
_PANEL_SIZE = 20


def exact_evolution(h: Hamiltonian, t: float) -> np.ndarray:
    """exp(-i H t) via dense eigendecomposition."""
    if h.n > DENSE_MAX_QUBITS:
        raise ValueError(f"exact evolution capped at {DENSE_MAX_QUBITS} qubits, got {h.n}")
    m = hamiltonian_matrix(h)
    evals, evecs = np.linalg.eigh(m)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def trotter_first_order(h: Hamiltonian, t: float, r: int) -> np.ndarray:
    """(prod_j exp(-i t h_j P_j / r))^r, terms by descending |h_j| then label."""
    if h.n > DENSE_MAX_QUBITS:
        raise ValueError(f"product formula capped at {DENSE_MAX_QUBITS} qubits, got {h.n}")
    if r < 1:
        raise ValueError(f"segment count must be >= 1, got {r}")
    dim = 1 << h.n
    segment = np.eye(dim, dtype=complex)
    eye = np.eye(dim, dtype=complex)
    for p, c in _terms_by_magnitude(h):
        alpha = t * c / r
        gate = np.cos(alpha) * eye - 1j * np.sin(alpha) * pauli_matrix(p)
        segment = gate @ segment
    return np.linalg.matrix_power(segment, r)


@dataclass(frozen=True)
class QDriftPlan:
    """One sampled gate sequence; indices refer to terms_by_index() order."""

    gamma: float
    tau: float
    gate_count: int
    indices: np.ndarray
    seed: int


class _QDrift:
    """The one qDrift path for a Hamiltonian and a gate count G: p_j over
    terms_by_index(), plans drawn from the caller's Generator, and plan
    application with dense term matrices built on first use only."""

    def __init__(self, h: Hamiltonian, gate_count: int):
        if gate_count < 1:
            raise ValueError(f"gate count must be >= 1, got {gate_count}")
        if len(h) == 0:
            raise ValueError("cannot sample the zero Hamiltonian")
        self.gate_count = gate_count
        self._terms = h.terms_by_index()
        weights = np.abs([c for _, c in self._terms])
        self.gamma = float(weights.sum())
        self._probs = weights / self.gamma
        self._signs = [1.0 if c >= 0 else -1.0 for _, c in self._terms]

    @cached_property
    def _mats(self) -> list[np.ndarray]:
        return [pauli_matrix(p) for p, _ in self._terms]

    def sample(self, t: float, rng: np.random.Generator, seed: int) -> QDriftPlan:
        indices = rng.choice(len(self._probs), size=self.gate_count, p=self._probs)
        return QDriftPlan(gamma=self.gamma, tau=t * self.gamma / self.gate_count,
                          gate_count=self.gate_count, indices=indices, seed=seed)

    def apply(self, plan: QDriftPlan, states: np.ndarray) -> np.ndarray:
        c, s = np.cos(plan.tau), np.sin(plan.tau)
        rot, mats = [1j * sign * s for sign in self._signs], self._mats
        out = states.astype(complex)
        for j in plan.indices:
            out = c * out - rot[j] * (mats[j] @ out)
        return out


def qdrift_sample(h: Hamiltonian, t: float, gate_count: int, seed: int = 0) -> QDriftPlan:
    """Draw a plan: G i.i.d. indices with p_j = |h_j|/gamma, tau = t*gamma/G."""
    return _QDrift(h, gate_count).sample(t, np.random.default_rng(seed), seed)


def qdrift_apply(h: Hamiltonian, plan: QDriftPlan, states: np.ndarray) -> np.ndarray:
    """Apply the plan's product of Pauli rotations to state columns.

    Each sampled step is exp(-i*tau*sign(h_j)*P_j) = cos(tau) I
    - i*sign(h_j)*sin(tau) P_j, a unitary applied exactly.
    """
    return _QDrift(h, plan.gate_count).apply(plan, states)


def _error_runs(h: Hamiltonian, t: float, gate_count: int, trials: int,
                seed: int, root: np.random.SeedSequence):
    """Exact outputs on the seeded Haar panel, and a lazy stream of the
    panel outputs of ``trials`` plans, one per child of ``root``."""
    if h.n > QDRIFT_MAX_QUBITS:
        raise ValueError(f"qdrift error runs capped at {QDRIFT_MAX_QUBITS} qubits, got {h.n}")
    if trials < 2:
        raise ValueError(f"need >= 2 trials, got {trials}")
    q = _QDrift(h, gate_count)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x9E3779B9)))
    panel = np.column_stack([haar_state(1 << h.n, rng) for _ in range(_PANEL_SIZE)])
    exact = exact_evolution(h, t) @ panel
    outputs = (q.apply(q.sample(t, np.random.default_rng(seq), seed), panel)
               for seq in root.spawn(trials))
    return exact, outputs


def qdrift_error(h: Hamiltonian, t: float, gate_count: int,
                 trials: int = 100, seed: int = 0):
    """Mean state error of sampled plans against the exact propagator.

    Averages || V_plan |psi> - exp(-iHt) |psi> ||_2 over a fixed panel of
    20 seeded Haar-random states and over ``trials`` independent plans;
    returns (mean, standard error over plans).
    """
    exact, outputs = _error_runs(h, t, gate_count, trials, seed, np.random.SeedSequence(seed))
    errors = np.array([np.mean(np.linalg.norm(out - exact, axis=0)) for out in outputs])
    return float(errors.mean()), float(errors.std(ddof=1) / np.sqrt(trials))


def qdrift_channel_error(h: Hamiltonian, t: float, gate_count: int,
                         trials: int = 200, seed: int = 0) -> float:
    """Error of the mean state: trace distance of the trial-averaged
    output to the exact output, averaged over the test panel.

    Complements :func:`qdrift_error`.  Individual sampled plans deviate
    from the exact propagator diffusively (state error ~ G^-1/2, the
    plan-to-plan fluctuation), while averaging the output density matrix
    over plans cancels the first-order fluctuations and leaves the
    ~ (gamma*t)^2/G channel bias that sets the gate-count model.
    """
    exact, outputs = _error_runs(h, t, gate_count, trials, seed,
                                 np.random.SeedSequence((seed, gate_count)))
    rho = sum(np.einsum("ik,jk->kij", out, out.conj()) for out in outputs) / trials
    dists = [0.5 * np.abs(np.linalg.eigvalsh(r - np.outer(e, e.conj()))).sum()
             for r, e in zip(rho, exact.T)]
    return float(np.mean(dists))


def sandwich_check(h: Hamiltonian, layout: AnsatzLayout, theta, t: float) -> float:
    """Spectral-norm deviation of U^dag exp(-iH't) U from exp(-iHt),
    H' being the conjugated Hamiltonian; vanishes identically."""
    if h.n > SANDWICH_MAX_QUBITS:
        raise ValueError(f"sandwich check capped at {SANDWICH_MAX_QUBITS} qubits, got {h.n}")
    u = ansatz_unitary(layout, theta)
    h_eng = apply_ansatz(h, layout, theta)
    lhs = u.conj().T @ exact_evolution(h_eng, t) @ u
    return float(np.linalg.norm(lhs - exact_evolution(h, t), 2))


@dataclass(frozen=True)
class QDriftCostModel:
    """Model gate counts (gamma*t)^2/eps before and after engineering."""

    g_original: float
    g_engineered: float
    ansatz_gate_count: int


def engineered_qdrift_cost(h: Hamiltonian, layout: AnsatzLayout, theta,
                           t: float, epsilon: float) -> QDriftCostModel:
    """Gate-count model for simulating H directly versus sandwiching the
    engineered H'; the fixed ansatz gate count is reported separately."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    gamma = pauli_norm(h)
    gamma_eng = pauli_norm(apply_ansatz(h, layout, theta))
    return QDriftCostModel(
        g_original=(gamma * t) ** 2 / epsilon,
        g_engineered=(gamma_eng * t) ** 2 / epsilon,
        ansatz_gate_count=len(layout.gates),
    )
