"""Dense-matrix and statevector helpers for small registers.

Basis convention: qubit 0 is the leftmost tensor factor, i.e. the most
significant bit of the computational-basis index.  Dense paths are
capped at 10 qubits (dimension 1024).  Every dense Pauli action is the
string's row table (:func:`_pauli_rows`), read off its packed key.
"""

from __future__ import annotations

import numpy as np

from .hamiltonian import Hamiltonian
from .paulis import DENSE_MAX_QUBITS, PauliString, digits_from_keys

# Row-table entries built at once for a Hamiltonian's terms: 1 MiB of phases
_TABLE_ENTRIES = 1 << 16
_Y_PHASES = np.array([1j**k for k in range(4)])  # i^|x&z|, by |x&z| mod 4


def _check_capacity(n: int) -> None:
    if n > DENSE_MAX_QUBITS:
        raise ValueError(f"dense path capped at {DENSE_MAX_QUBITS} qubits, got {n}")


def _check_state(psi: np.ndarray, n: int) -> None:
    _check_capacity(n)
    if psi.shape != (1 << n,):
        raise ValueError(f"state has dimension {psi.shape}, expected ({1 << n},)")


def _pauli_rows(keys, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Source row and phase of every basis row under the string of each
    packed key, so that (P psi)[i] = phase[i] * psi[src[i]]: length 2^n
    for one key, shape (m, 2^n) for m keys.

    Uses P = i^{|x&z|} X^x Z^z: the X part sends row i to source row
    i ^ x, the Z part flips the sign where the source row has an odd
    number of bits in z.  The row masks are read off the codec's digits.
    """
    _check_capacity(n)
    digits = digits_from_keys(keys, n)
    z = digits >> 1
    x = (digits & 1) ^ z
    bit = 1 << np.arange(n - 1, -1, -1)
    src = np.arange(1 << n) ^ (x @ bit)[:, None]
    # bitwise_count returns uint8, where 1 - 2*parity would wrap to 255
    parity = np.bitwise_count(src & (z @ bit)[:, None]).astype(np.intp) & 1
    phase = _Y_PHASES[(x & z).sum(axis=1) % 4][:, None] * (1 - 2 * parity)
    return (src[0], phase[0]) if np.ndim(keys) == 0 else (src, phase)


def _term_rows(h: Hamiltonian):
    """Each term's coefficient, source rows and phases in key order, the
    tables built _TABLE_ENTRIES at a time whatever the term count."""
    step = max(1, _TABLE_ENTRIES >> h.n)
    for i in range(0, len(h), step):
        yield from zip(h.coeffs[i:i + step].tolist(), *_pauli_rows(h.keys[i:i + step], h.n))


def pauli_matrix(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a Pauli string: its row table scattered."""
    src, phase = _pauli_rows(p.key(), p.n)
    out = np.zeros((src.size, src.size), dtype=complex)
    out[np.arange(src.size), src] = phase
    return out


def hamiltonian_matrix(h: Hamiltonian) -> np.ndarray:
    """Dense Hermitian matrix of a sparse Pauli sum.

    Row i of P_j holds phase[i] in column src[i] (``_pauli_rows``), so
    each term is one scatter of c_j * phase into those entries, added in
    term order: the sum of Kronecker-product matrices bit for bit.
    """
    _check_capacity(h.n)
    rows = np.arange(1 << h.n)
    out = np.zeros((rows.size, rows.size), dtype=complex)
    for c, src, phase in _term_rows(h):
        out[rows, src] += c * phase
    return out


def apply_pauli(p: PauliString, psi: np.ndarray) -> np.ndarray:
    """P @ psi without building the matrix: one row gather and phase."""
    _check_state(psi, p.n)
    src, phase = _pauli_rows(p.key(), p.n)
    return phase * psi[src]


def pauli_expectation(p: PauliString, psi: np.ndarray) -> float:
    """Real expectation value <psi|P|psi>."""
    return float(np.vdot(psi, apply_pauli(p, psi)).real)


def hamiltonian_expectation(h: Hamiltonian, psi: np.ndarray) -> float:
    """Real <psi|H|psi>, summed term by term in key order."""
    _check_state(psi, h.n)
    return float(sum(c * float(np.vdot(psi, phase * psi[src]).real)
                     for c, src, phase in _term_rows(h)))


def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random pure state from a normalized complex Gaussian vector."""
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)
