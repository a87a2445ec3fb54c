"""The partition trick: tensor-factored parts engineered independently.

A part is a set of terms, by canonical (base-4 index) order, that carry
one factor on a subset of qubits; each term's rest, on the complementary
qubits in ascending order, is a term of the part's residual Hamiltonian.
No command loads this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hamiltonian import Hamiltonian
from .optimize import OptimizerConfig, optimize
from .paulis import PauliString, _checked_int


@dataclass(frozen=True)
class PartitionPart:
    """Terms (by canonical index order) sharing a fixed factor on a qubit
    subset; their residuals live on the complementary qubits."""

    factor_qubits: tuple[int, ...]
    factor: PauliString
    term_indices: tuple[int, ...]


def _checked_qubits(qubits, n: int) -> tuple[int, ...]:
    qubits = tuple(_checked_int(q, "factor qubit", 0, n - 1) for q in qubits)
    if not qubits or len(set(qubits)) != len(qubits):
        raise ValueError(f"factor qubits must be distinct qubits in 0..{n - 1}, got {qubits}")
    return qubits


def partition(h: Hamiltonian, parts) -> list[tuple[PauliString, Hamiltonian]]:
    """Split into (common factor, residual Hamiltonian) pairs, one per part.

    Part i reconstructs by placing the factor on its qubit subset and the
    residual terms on the complementary subset; the parts sum to the
    input exactly.  Every part is checked, and the cover, before any
    residual is built.
    """
    parts = tuple(parts)
    terms = h.terms_by_index()
    covered: set[int] = set()
    for part in parts:
        qubits = _checked_qubits(part.factor_qubits, h.n)
        if part.factor.n != len(qubits):
            raise ValueError("factor length does not match its qubit subset")
        for i in part.term_indices:
            i = _checked_int(i, "term index", 0, len(terms) - 1)
            if i in covered:
                raise ValueError(f"term index {i} appears in two parts")
            covered.add(i)
            if terms[i][0].restrict(qubits) != part.factor:
                raise ValueError(
                    f"term {terms[i][0].label} does not carry factor {part.factor.label}"
                )
    if covered != set(range(len(terms))):
        raise ValueError("partition does not cover every term")
    out = []
    for part in parts:
        rest = tuple(q for q in range(h.n) if q not in part.factor_qubits)
        if not rest:
            raise ValueError("a part must leave at least one residual qubit")
        residual = Hamiltonian(
            len(rest), {terms[i][0].restrict(rest): terms[i][1] for i in part.term_indices}
        )
        out.append((part.factor, residual))
    return out


def partition_by_restriction(h: Hamiltonian, factor_qubits) -> tuple[PartitionPart, ...]:
    """Group the terms by their restriction to the given qubits: one part
    per distinct factor, in the factors' canonical order, each listing its
    terms in canonical order."""
    qubits = _checked_qubits(factor_qubits, h.n)
    groups: dict[PauliString, list[int]] = {}
    for i, (p, _) in enumerate(h.terms_by_index()):
        groups.setdefault(p.restrict(qubits), []).append(i)
    return tuple(
        PartitionPart(qubits, factor, tuple(idx))
        for factor, idx in sorted(groups.items(), key=lambda kv: kv[0].index)
    )


def optimize_partitioned(h: Hamiltonian, parts, layouts,
                         config: OptimizerConfig | None = None):
    """Engineer each residual independently; returns (results, combined norm),
    result i carrying part i's layout.

    The combined norm is the sum of the engineered residual Pauli norms
    (the unit-modulus factors do not change term magnitudes).  This mode
    serves expectation estimation only: the evolution sandwich identity
    does not hold across parts conjugated by different unitaries.
    """
    pairs = partition(h, parts)
    layouts = list(layouts)
    if len(layouts) != len(pairs):
        raise ValueError(f"need one layout per part: {len(pairs)} parts, {len(layouts)} layouts")
    config = config or OptimizerConfig()
    results = [optimize(residual, layout, config)
               for (_factor, residual), layout in zip(pairs, layouts)]
    combined = float(sum(r.engineered_norm for r in results))
    return results, combined
