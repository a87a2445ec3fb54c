"""Dense-matrix and statevector helpers for small registers.

Basis convention: qubit 0 is the leftmost tensor factor, i.e. the most
significant bit of the computational-basis index.  Dense paths are
capped at 10 qubits (dimension 1024).
"""

from __future__ import annotations

import numpy as np

from .ansatz import Gate, gate_axis
from .hamiltonian import Hamiltonian
from .paulis import PauliString

DENSE_MAX_QUBITS = 10

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _check_capacity(n: int) -> None:
    if n > DENSE_MAX_QUBITS:
        raise ValueError(f"dense path capped at {DENSE_MAX_QUBITS} qubits, got {n}")


def _reverse_bits(v: int, n: int) -> int:
    out = 0
    for _ in range(n):
        out = (out << 1) | (v & 1)
        v >>= 1
    return out


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a Pauli string."""
    _check_capacity(p.n)
    out = np.array([[1.0 + 0.0j]])
    for ch in p.label:
        out = np.kron(out, PAULI_1Q[ch])
    return out


def hamiltonian_matrix(h: Hamiltonian) -> np.ndarray:
    """Dense Hermitian matrix of a sparse Pauli sum.

    Row i of P_j holds phase[i] in column src[i] (``_pauli_rows``), so
    each term is one scatter of c_j * phase into those entries, added in
    term order: the sum of Kronecker-product matrices bit for bit.
    """
    _check_capacity(h.n)
    dim = 1 << h.n
    out = np.zeros((dim, dim), dtype=complex)
    rows = np.arange(dim)
    for p, c in h:
        src, phase = _pauli_rows(p)
        out[rows, src] += c * phase
    return out


def _pauli_rows(p: PauliString) -> tuple[np.ndarray, np.ndarray]:
    """Source row and phase of every basis row under P, so that
    (P psi)[i] = phase[i] * psi[src[i]].

    Uses P = i^{|x&z|} X^x Z^z: the X part sends row i to source row
    i ^ x, the Z part flips the sign where the source row has an odd
    number of bits in z.
    """
    n = p.n
    src = np.arange(1 << n, dtype=np.intp) ^ _reverse_bits(p.x, n)
    # bitwise_count returns uint8, where 1 - 2*parity would wrap to 255
    parity = np.bitwise_count(src & _reverse_bits(p.z, n)).astype(np.intp) & 1
    return src, 1j ** ((p.x & p.z).bit_count() % 4) * (1 - 2 * parity)


def apply_pauli(p: PauliString, psi: np.ndarray) -> np.ndarray:
    """P @ psi without building the matrix: one row gather and phase."""
    dim = 1 << p.n
    if psi.shape != (dim,):
        raise ValueError(f"state has dimension {psi.shape}, expected ({dim},)")
    src, phase = _pauli_rows(p)
    return phase * psi[src]


def pauli_expectation(p: PauliString, psi: np.ndarray) -> float:
    """Real expectation value <psi|P|psi>."""
    return float(np.vdot(psi, apply_pauli(p, psi)).real)


def hamiltonian_expectation(h: Hamiltonian, psi: np.ndarray) -> float:
    return float(sum(c * pauli_expectation(p, psi) for p, c in h))


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state from a normalized complex Gaussian vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def gate_matrix(kind: str, qubits: tuple[int, ...], theta: float | None, n: int) -> np.ndarray:
    """Dense unitary of a single ansatz gate embedded on n qubits."""
    _check_capacity(n)
    axis = gate_axis(Gate(kind, qubits), n)
    if axis is not None:
        a = pauli_matrix(PauliString.from_label(axis))
        return np.cos(theta / 2) * np.eye(2**n) - 1j * np.sin(theta / 2) * a
    za, zb = (pauli_matrix(PauliString(n, 0, 1 << q)) for q in qubits)
    return (np.eye(2**n) + za + zb - za @ zb) / 2  # CZ


def ansatz_unitary(layout, theta) -> np.ndarray:
    """Dense unitary of a full ansatz (gates applied in circuit order)."""
    _check_capacity(layout.n)
    theta = np.asarray(theta, dtype=np.float64)
    u = np.eye(2**layout.n, dtype=complex)
    for g in layout.gates:
        t = float(theta[g.param]) if g.param is not None else None
        u = gate_matrix(g.kind, g.qubits, t, layout.n) @ u
    return u
