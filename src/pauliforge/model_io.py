"""Hamiltonian builders and the pauli-sum text format.

Format: one term per line, ``<decimal coefficient><whitespace><label>``
with labels over {I, X, Y, Z}; ``#`` starts a comment, blank lines are
ignored.  Qubit 0 is the leftmost label character, matching the base-4
index convention.  The parser checks all lines in a few bulk passes and
reports the first bad line, with its number.  Serialization prints 17
significant digits so files round-trip float64 coefficients exactly.
"""

from __future__ import annotations

import math
from typing import NoReturn

from .hamiltonian import Hamiltonian
from .paulis import (
    MAX_QUBITS,
    LabelError,
    PauliString,
    _checked_int,
    digits_from_labels,
    keys_from_digits,
)


def ising_neighbor(n: int) -> Hamiltonian:
    """Open-chain transverse-field model: -sum Z_i Z_{i+1} + sum X_k,
    all couplings and fields set to 1.  Pauli norm is 2n - 1."""
    n = _checked_int(n, "chain qubit count", 2, MAX_QUBITS)
    terms = {}
    for i in range(n - 1):
        terms[PauliString(n, 0, 0b11 << i)] = -1.0
    for k in range(n):
        terms[PauliString(n, 1 << k, 0)] = 1.0
    return Hamiltonian(n, terms)


def ising_all_to_all(n: int) -> Hamiltonian:
    """All-pair couplings: -sum_{i<j} Z_i Z_j + sum X_k, unit strengths.
    Pauli norm is n(n+1)/2."""
    n = _checked_int(n, "all-to-all qubit count", 2, MAX_QUBITS)
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
    results drop.  Labels are checked in one batch after the lines are
    read: the first one that is not n characters from {I, X, Y, Z}, n
    being the first label's length, is reported with its line number."""
    labels, coeffs = _term_fields(text)
    n = len(labels[0])
    if n > MAX_QUBITS:
        raise PauliSumParseError(_term_line(text, 0), f"label {labels[0]!r} has length {n}, "
                                                      f"above {MAX_QUBITS}")
    try:
        digits = digits_from_labels(labels, n)
    except LabelError as err:
        raise PauliSumParseError(_term_line(text, err.position), str(err)) from None
    return Hamiltonian.from_arrays(n, keys_from_digits(digits), coeffs)


def _term_fields(text: str) -> tuple[list[str], list[float]]:
    """The labels and coefficients of the lines that hold a term.  Every
    line's field count is checked at once, then every coefficient; only
    when that fails are the lines walked one by one, to raise the first
    bad line's error."""
    body = text
    if "#" in text:
        body = "\n".join([line.split("#", 1)[0] for line in text.splitlines()])
    counts = set(map(len, map(str.split, body.splitlines())))
    counts.discard(0)  # blank and comment-only lines
    try:
        if counts != {2}:
            raise ValueError
        # Every line holds two fields or none, so the whole text's fields
        # alternate coefficient and label; no list per line is kept.
        fields = body.split()
        coeffs = list(map(float, fields[::2]))
        if not all(map(math.isfinite, coeffs)):
            raise ValueError
    except ValueError:
        _raise_first_bad_line(text)
    return fields[1::2], coeffs


def _raise_first_bad_line(text: str) -> NoReturn:
    """Raise the error of the first line whose fields or coefficient are
    bad, or, when every line is good, the error of a text with no term."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 2:
            raise PauliSumParseError(lineno, f"expected 'coefficient label', got {raw!r}")
        coeff_text = fields[0]
        try:
            coeff = float(coeff_text)
        except ValueError:
            raise PauliSumParseError(lineno, f"bad coefficient {coeff_text!r}") from None
        if not math.isfinite(coeff):
            raise PauliSumParseError(lineno, f"non-finite coefficient {coeff_text!r}")
    raise PauliSumParseError(1, "no terms found")


def _term_line(text: str, position: int) -> int:
    """The 1-based line number of the term at ``position``."""
    return [lineno for lineno, raw in enumerate(text.splitlines(), start=1)
            if raw.split("#", 1)[0].split()][position]


def serialize_pauli_sum(h: Hamiltonian) -> str:
    """One line per term in base-4 index order, full float precision."""
    labels, coeffs = h.labeled_terms()
    lines = [f"{c:.17g} {label}" for c, label in zip(coeffs.tolist(), labels)]
    return "\n".join(lines) + ("\n" if lines else "")


def load_pauli_sum(path) -> Hamiltonian:
    with open(path, "r", encoding="utf-8") as f:
        return parse_pauli_sum(f.read())


def save_pauli_sum(h: Hamiltonian, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_pauli_sum(h))
