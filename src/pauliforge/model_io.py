"""Hamiltonian builders and the pauli-sum text format.

Format: one term per line, ``<decimal coefficient><whitespace><label>``
with labels over {I, X, Y, Z}; ``#`` starts a comment, blank lines are
ignored.  Qubit 0 is the leftmost label character, matching the base-4
index convention.  Serialization prints 17 significant digits so files
round-trip float64 coefficients exactly.
"""

from __future__ import annotations

import math

from .hamiltonian import MAX_QUBITS, Hamiltonian
from .paulis import PauliString

_LABEL_CHARS = set("IXYZ")


def ising_neighbor(n: int) -> Hamiltonian:
    """Open-chain transverse-field model: -sum Z_i Z_{i+1} + sum X_k,
    all couplings and fields set to 1.  Pauli norm is 2n - 1."""
    if n < 2:
        raise ValueError(f"chain needs at least 2 qubits, got {n}")
    terms = {}
    for i in range(n - 1):
        terms[PauliString(n, 0, 0b11 << i)] = -1.0
    for k in range(n):
        terms[PauliString(n, 1 << k, 0)] = 1.0
    return Hamiltonian(n, terms)


def ising_all_to_all(n: int) -> Hamiltonian:
    """All-pair couplings: -sum_{i<j} Z_i Z_j + sum X_k, unit strengths.
    Pauli norm is n(n+1)/2."""
    if n < 2:
        raise ValueError(f"all-to-all model needs at least 2 qubits, got {n}")
    terms = {}
    for i in range(n):
        for j in range(i + 1, n):
            terms[PauliString(n, 0, (1 << i) | (1 << j))] = -1.0
    for k in range(n):
        terms[PauliString(n, 1 << k, 0)] = 1.0
    return Hamiltonian(n, terms)


class PauliSumParseError(ValueError):
    """Malformed pauli-sum text; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def parse_pauli_sum(text: str) -> Hamiltonian:
    """Parse the text format; duplicate labels add up in file order, zero
    results drop."""
    keys: list[int] = []
    coeffs: list[float] = []
    n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise PauliSumParseError(lineno, f"expected 'coefficient label', got {raw!r}")
        coeff_text, label = fields
        try:
            coeff = float(coeff_text)
        except ValueError:
            raise PauliSumParseError(lineno, f"bad coefficient {coeff_text!r}") from None
        if not math.isfinite(coeff):
            raise PauliSumParseError(lineno, f"non-finite coefficient {coeff_text!r}")
        if not all(ch in _LABEL_CHARS for ch in label):
            raise PauliSumParseError(lineno, f"bad Pauli label {label!r}")
        if n is None:
            if len(label) > MAX_QUBITS:
                raise PauliSumParseError(
                    lineno, f"label {label!r} has length {len(label)}, above {MAX_QUBITS}"
                )
            n = len(label)
        elif len(label) != n:
            raise PauliSumParseError(
                lineno, f"label {label!r} has length {len(label)}, expected {n}"
            )
        keys.append(PauliString.from_label(label).key())
        coeffs.append(coeff)
    if n is None:
        raise PauliSumParseError(1, "no terms found")
    return Hamiltonian.from_arrays(n, keys, coeffs)


def serialize_pauli_sum(h: Hamiltonian) -> str:
    """One line per term in base-4 index order, full float precision."""
    lines = [f"{c:.17g} {p.label}" for p, c in h.terms_by_index()]
    return "\n".join(lines) + ("\n" if lines else "")


def load_pauli_sum(path) -> Hamiltonian:
    with open(path, "r", encoding="utf-8") as f:
        return parse_pauli_sum(f.read())


def save_pauli_sum(h: Hamiltonian, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_pauli_sum(h))
