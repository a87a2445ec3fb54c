"""Emulation of the quantum circuit that estimates the concentration Q.

Q = sum_i |<i|psi>|^4 of a pure state.  The circuit uses four registers:
an ancilla, two copies of |psi>, and an n-qubit zero register.  CNOTs
copy the third register's basis index onto the fourth; discarding the
fourth leaves the dephased state rho = sum_i |c_i|^2 |i><i| on the third
register, and a swap test between the second and third registers then
measures the ancilla as +1 with probability 1/2 + tr[rho |psi><psi|]/2
= 1/2 + Q/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ANALYTIC_MAX_QUBITS = 7
CIRCUIT_MAX_QUBITS = 4


@dataclass(frozen=True)
class QEstimate:
    """Estimated ancilla probability and concentration value.

    shots == 0 marks the analytic (zero-variance) path.
    """

    p_plus: float
    q_value: float
    shots: int
    stderr: float


def _check_state(psi: np.ndarray, max_qubits: int) -> tuple[np.ndarray, int]:
    psi = np.asarray(psi, dtype=complex).ravel()
    dim = psi.size
    n = dim.bit_length() - 1
    if dim != 1 << n or n < 1:
        raise ValueError(f"state dimension {dim} is not a power of two >= 2")
    if n > max_qubits:
        raise ValueError(f"state register capped at {max_qubits} qubits, got {n}")
    if abs(np.linalg.norm(psi) - 1.0) > 1e-10:
        raise ValueError("state must be normalized to 1e-10")
    return psi, n


def q_analytic(psi: np.ndarray) -> QEstimate:
    """Exact P(+1) with Q = tr[rho |psi><psi|] = sum_i |psi_i|^4 for the
    dephased post-CNOT state rho (no sampling)."""
    psi, _n = _check_state(psi, ANALYTIC_MAX_QUBITS)
    q = float(np.sum(np.abs(psi) ** 4))
    return QEstimate(p_plus=0.5 + q / 2.0, q_value=q, shots=0, stderr=0.0)


def q_circuit_marginal(psi: np.ndarray) -> float:
    """Exact ancilla P(+1) from the full four-register statevector."""
    psi, n = _check_state(psi, CIRCUIT_MAX_QUBITS)
    dim = 1 << n

    zero_reg = np.zeros(dim, dtype=complex)
    zero_reg[0] = 1.0
    ancilla = np.array([1.0, 0.0], dtype=complex)
    state = np.kron(np.kron(np.kron(ancilla, psi), psi), zero_reg)
    state = state.reshape([2] * (3 * n + 1))

    # CNOTs copy register 3 (axes 1+n .. 2n) onto register 4 (axes 1+2n .. 3n)
    for k in range(n):
        control_axis = 1 + n + k
        target_axis = 1 + 2 * n + k
        block = state[(slice(None),) * control_axis + (1,)]
        state[(slice(None),) * control_axis + (1,)] = np.flip(block, axis=target_axis - 1)

    # swap test: H on ancilla, controlled swap of registers 2 and 3, H
    s0, s1 = state[0].copy(), state[1].copy()
    state[0] = (s0 + s1) / np.sqrt(2.0)
    state[1] = (s0 - s1) / np.sqrt(2.0)

    perm = list(range(3 * n))
    for k in range(n):
        perm[k], perm[n + k] = perm[n + k], perm[k]
    state[1] = np.transpose(state[1], perm)

    s0, s1 = state[0].copy(), state[1].copy()
    state[0] = (s0 + s1) / np.sqrt(2.0)
    state[1] = (s0 - s1) / np.sqrt(2.0)

    return float(np.sum(np.abs(state[0]) ** 2))


def q_full_circuit(psi: np.ndarray, shots: int, seed: int = 0) -> QEstimate:
    """Sample the circuit's ancilla ``shots`` times and estimate Q."""
    if shots < 1:
        raise ValueError("shots must be >= 1; use q_analytic for the exact value")
    p_plus = q_circuit_marginal(psi)
    rng = np.random.default_rng(seed)
    hits = int(rng.binomial(shots, min(max(p_plus, 0.0), 1.0)))
    p_hat = hits / shots
    stderr_p = float(np.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / shots))
    return QEstimate(p_plus=p_hat, q_value=2.0 * p_hat - 1.0,
                     shots=shots, stderr=2.0 * stderr_p)
