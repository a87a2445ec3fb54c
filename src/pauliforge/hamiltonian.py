"""Sparse Pauli-sum Hamiltonians and their coefficient-vector encoding.

Terms are held as a sorted array of packed symplectic keys plus a
parallel array of real float64 coefficients.  The packed key of a
string is ``(x << n) | z`` (see :mod:`pauliforge.paulis`), which caps
the engine at 32 qubits; physical inputs are far below that.

Coefficients are real; zero entries are deleted.  Transformations prune
coefficients below ``PRUNE_TOL`` so term counts stay bounded under deep
gate sequences.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .paulis import PauliString

PRUNE_TOL = 1e-12

MAX_QUBITS = 32


def _merge_raw(keys: np.ndarray, coeffs: np.ndarray):
    """Sort by key, sum duplicates, drop exact zeros."""
    if keys.size == 0:
        return keys.astype(np.uint64), coeffs.astype(np.float64)
    uniq, inverse = np.unique(keys, return_inverse=True)
    summed = np.bincount(inverse, weights=coeffs, minlength=uniq.size)
    keep = summed != 0.0
    return uniq[keep], summed[keep]


def _validated_merge(n: int, keys, coeffs):
    """The one validator behind both public constructors: a qubit count in
    1..MAX_QUBITS, equal-length 1-D arrays and finite coefficients; then
    sort, merge and drop exact zeros."""
    if not (1 <= n <= MAX_QUBITS):
        raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {n}")
    keys = np.asarray(keys, dtype=np.uint64)
    coeffs = np.asarray(coeffs, dtype=np.float64)
    if keys.ndim != 1 or keys.shape != coeffs.shape:
        raise ValueError(f"keys {keys.shape} and coefficients {coeffs.shape} "
                         "must be 1-D arrays of equal length")
    bad = np.flatnonzero(~np.isfinite(coeffs))
    if bad.size:
        label = PauliString.from_key(int(keys[bad[0]]), n).label
        raise ValueError(f"non-finite coefficient for {label!r}")
    return _merge_raw(keys, coeffs)


class Hamiltonian:
    """Immutable sparse real-coefficient Pauli sum on n qubits."""

    __slots__ = ("n", "_keys", "_coeffs")

    def __init__(self, n: int, terms=None):
        """Build from a mapping of PauliString (or label str) to coefficient."""
        keys = []
        coeffs = []
        for p, c in (terms or {}).items():
            if isinstance(p, str):
                p = PauliString.from_label(p)
            if p.n != n:
                raise ValueError(f"term {p.label!r} has {p.n} qubits, expected {n}")
            keys.append(p.key())
            coeffs.append(float(c))
        self.n = n
        self._keys, self._coeffs = _validated_merge(n, keys, coeffs)

    @classmethod
    def from_arrays(cls, n: int, keys: np.ndarray, coeffs: np.ndarray) -> "Hamiltonian":
        """Build from raw key/coefficient arrays (merged here)."""
        return cls._from_merged(n, *_validated_merge(n, keys, coeffs))

    @classmethod
    def _from_merged(cls, n: int, keys: np.ndarray, coeffs: np.ndarray) -> "Hamiltonian":
        """Wrap sorted unique keys and their nonzero finite coefficients
        as they are, without checks or copies."""
        h = cls.__new__(cls)
        h.n = n
        h._keys = keys
        h._coeffs = coeffs
        return h

    # -- access ---------------------------------------------------------

    @property
    def keys(self) -> np.ndarray:
        """Sorted packed keys (read-only view)."""
        v = self._keys.view()
        v.flags.writeable = False
        return v

    @property
    def coeffs(self) -> np.ndarray:
        v = self._coeffs.view()
        v.flags.writeable = False
        return v

    @property
    def terms(self) -> dict[PauliString, float]:
        return {PauliString.from_key(int(k), self.n): float(c)
                for k, c in zip(self._keys, self._coeffs)}

    def coefficient(self, p: PauliString | str) -> float:
        if isinstance(p, str):
            p = PauliString.from_label(p)
        if p.n != self.n:
            raise ValueError(f"qubit count mismatch: {p.n} vs {self.n}")
        i = np.searchsorted(self._keys, np.uint64(p.key()))
        if i < self._keys.size and int(self._keys[i]) == p.key():
            return float(self._coeffs[i])
        return 0.0

    def indices(self) -> np.ndarray:
        """Base-4 uint64 indices of the stored terms (same order as ``keys``)."""
        n = self.n
        x = self._keys >> np.uint64(n)
        z = self._keys & np.uint64((1 << n) - 1)
        idx = np.zeros(self._keys.size, dtype=np.uint64)
        for q in range(n):
            xq = (x >> np.uint64(q)) & np.uint64(1)
            zq = (z >> np.uint64(q)) & np.uint64(1)
            idx = (idx << np.uint64(2)) | (2 * zq + (xq ^ zq))
        return idx

    def terms_by_index(self) -> list[tuple[PauliString, float]]:
        """Terms sorted by base-4 index; the canonical public ordering."""
        order = np.argsort(self.indices(), kind="stable")
        return [(PauliString.from_key(int(self._keys[i]), self.n), float(self._coeffs[i]))
                for i in order]

    def __len__(self) -> int:
        return int(self._keys.size)

    def __iter__(self):
        for k, c in zip(self._keys, self._coeffs):
            yield PauliString.from_key(int(k), self.n), float(c)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Hamiltonian):
            return NotImplemented
        return (self.n == other.n
                and np.array_equal(self._keys, other._keys)
                and np.array_equal(self._coeffs, other._coeffs))

    def __add__(self, other: "Hamiltonian") -> "Hamiltonian":
        if not isinstance(other, Hamiltonian):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"qubit count mismatch: {self.n} vs {other.n}")
        return Hamiltonian.from_arrays(
            self.n,
            np.concatenate([self._keys, other._keys]),
            np.concatenate([self._coeffs, other._coeffs]),
        )

    def __rmul__(self, scalar: float) -> "Hamiltonian":
        return Hamiltonian.from_arrays(self.n, self._keys, float(scalar) * self._coeffs)

    def __neg__(self) -> "Hamiltonian":
        return (-1.0) * self

    def __sub__(self, other: "Hamiltonian") -> "Hamiltonian":
        return self + (-other)

    def __repr__(self) -> str:
        return f"Hamiltonian(n={self.n}, terms={len(self)})"


@dataclass(frozen=True)
class CoefficientVector:
    """Normalized coefficient vector of a Hamiltonian (its 2n-qubit state).

    ``entries`` maps base-4 indices to real amplitudes with unit l2 norm;
    ``lam`` is the l2 norm of the source coefficients, so
    coefficient_i = lam * entries[i].
    """

    n: int
    lam: float
    entries: dict[int, float] = field(repr=False)

    def __post_init__(self):
        if self.lam <= 0.0 or not np.isfinite(self.lam):
            raise ValueError(f"normalization factor must be positive, got {self.lam}")
        sq = sum(v * v for v in self.entries.values())
        if abs(sq - 1.0) > 1e-9:
            raise ValueError(f"entries are not normalized: sum of squares {sq}")

    def to_dense(self) -> np.ndarray:
        """Dense float64 vector of length 4**n (test scale: n <= 10)."""
        if self.n > 10:
            raise ValueError(f"dense coefficient vector capped at 10 qubits, got {self.n}")
        out = np.zeros(4**self.n, dtype=np.float64)
        for i, v in self.entries.items():
            out[i] = v
        return out


def _terms_by_magnitude(h: Hamiltonian) -> list[tuple[PauliString, float]]:
    """Terms in descending |coefficient|, ties broken on the text label;
    the fixed order of sorted insertion and the product formulas.  Labels
    of one length sort as their base-4 indices do, so no label is built."""
    keys, coeffs = h.keys, h.coeffs
    order = np.lexsort((h.indices(), -np.abs(coeffs)))
    return [(PauliString.from_key(int(keys[i]), h.n), float(coeffs[i])) for i in order]


def pauli_norm(h: Hamiltonian) -> float:
    """Sum of absolute coefficient values."""
    return float(np.abs(h.coeffs).sum())


def l2_norm(h: Hamiltonian) -> float:
    """Root-sum-square of coefficients; the vectorization factor."""
    return float(np.sqrt(np.dot(h.coeffs, h.coeffs)))


def vectorize(h: Hamiltonian) -> CoefficientVector:
    """Encode the Hamiltonian as its normalized coefficient vector."""
    if len(h) == 0:
        raise ValueError("cannot vectorize the zero Hamiltonian (normalization is 0)")
    lam = l2_norm(h)
    idx = h.indices()
    entries = {int(i): float(c / lam) for i, c in zip(idx, h.coeffs)}
    return CoefficientVector(n=h.n, lam=lam, entries=entries)


def devectorize(v: CoefficientVector) -> Hamiltonian:
    """Inverse of :func:`vectorize`; drops coefficients below ``PRUNE_TOL``."""
    terms = {}
    for i, e in v.entries.items():
        c = v.lam * e
        if abs(c) >= PRUNE_TOL:
            terms[PauliString.from_index(i, v.n)] = c
    return Hamiltonian(v.n, terms)


def state_l1_norm(v: CoefficientVector) -> float:
    """l1 norm of the coefficient vector; pauli_norm(h) = lam * this."""
    return float(sum(abs(e) for e in v.entries.values()))


def tensor(a: Hamiltonian, b: Hamiltonian) -> Hamiltonian:
    """Tensor product, with ``a`` on qubits 0..a.n-1 and ``b`` after it."""
    n = a.n + b.n
    if n > MAX_QUBITS:
        raise ValueError(f"tensor product exceeds {MAX_QUBITS} qubits")
    terms = {}
    for pa, ca in a:
        for pb, cb in b:
            p = PauliString(n, pa.x | (pb.x << a.n), pa.z | (pb.z << a.n))
            terms[p] = ca * cb
    return Hamiltonian(n, terms)


def embed(h: Hamiltonian, qubits: tuple[int, ...], n: int) -> Hamiltonian:
    """Place ``h`` on the given qubits of an n-qubit register (identity elsewhere)."""
    if len(qubits) != h.n:
        raise ValueError(f"need {h.n} target qubits, got {len(qubits)}")
    if len(set(qubits)) != len(qubits) or any(not 0 <= q < n for q in qubits):
        raise ValueError(f"invalid embedding target {qubits} for {n} qubits")
    terms = {}
    for p, c in h:
        x = z = 0
        for k, q in enumerate(qubits):
            x |= ((p.x >> k) & 1) << q
            z |= ((p.z >> k) & 1) << q
        terms[PauliString(n, x, z)] = c
    return Hamiltonian(n, terms)
