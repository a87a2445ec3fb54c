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

from .paulis import (
    DENSE_MAX_QUBITS,
    MAX_QUBITS,
    PauliString,
    _checked_int,
    _checked_width,
    digits_from_indices,
    digits_from_keys,
    digits_from_labels,
    indices_from_digits,
    keys_from_digits,
    labels_from_digits,
)

PRUNE_TOL = 1e-12


def _merge_raw(keys: np.ndarray, coeffs: np.ndarray):
    """Sort by key, sum duplicates, drop exact zeros."""
    if keys.size == 0:
        return keys.astype(np.uint64), coeffs.astype(np.float64)
    uniq, inverse = np.unique(keys, return_inverse=True)
    summed = np.bincount(inverse, weights=coeffs, minlength=uniq.size)
    keep = summed != 0.0
    return uniq[keep], summed[keep]


def _checked_keys(keys, n: int) -> np.ndarray:
    """Packed keys as uint64, each refused first unless it is an integer
    in 0..4**n - 1 (n already checked): the cast would truncate a float
    key and wrap a negative one.  A list is checked key by key, because
    NumPy reads a list that mixes ints past 2**63 with smaller ones as
    float64."""
    if not isinstance(keys, np.ndarray):
        keys = np.array([_checked_int(k, "key") for k in keys], dtype=object)
    elif keys.size and keys.dtype.kind not in "iu":
        raise ValueError(f"key must be an integer, got dtype {keys.dtype}")
    wide = np.flatnonzero((keys < 0) | (keys >= 4**n))
    if wide.size:
        raise ValueError(f"key {keys[wide[0]]} out of range for {n} qubits")
    return keys.astype(np.uint64, copy=False)


def _validated_merge(n: int, keys, coeffs):
    """The one validator behind both public constructors, given a checked
    qubit count: equal-length 1-D arrays, integer keys below 4**n and
    finite coefficients; then sort, merge and drop exact zeros."""
    keys = _checked_keys(keys, n)
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
        """Build from a mapping of PauliString (or label str) to coefficient;
        the labels are encoded in one codec call."""
        n = _checked_width(n)
        terms = terms or {}
        labels = [p for p in terms if isinstance(p, str)]
        label_keys = iter(keys_from_digits(digits_from_labels(labels, n)).tolist())
        keys = []
        for p in terms:
            if isinstance(p, str):
                keys.append(next(label_keys))
            elif p.n != n:
                raise ValueError(f"term {p.label!r} has {p.n} qubits, expected {n}")
            else:
                keys.append(p.key())
        self.n = n
        self._keys, self._coeffs = _validated_merge(n, keys, [float(c) for c in terms.values()])

    @classmethod
    def from_arrays(cls, n: int, keys: np.ndarray, coeffs: np.ndarray) -> "Hamiltonian":
        """Build from raw key/coefficient arrays (merged here)."""
        n = _checked_width(n)
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

    def _terms(self, order) -> list[tuple[PauliString, float]]:
        keys, coeffs = self._keys[order].tolist(), self._coeffs[order].tolist()
        n, mask, build = self.n, (1 << self.n) - 1, PauliString._from_valid_key
        return [(build(k, n, mask), c) for k, c in zip(keys, coeffs)]

    @property
    def terms(self) -> dict[PauliString, float]:
        return dict(self._terms(slice(None)))

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
        """Base-4 uint64 indices of the stored terms (same order as ``keys``):
        per qubit the digit 2z + (x xor z), qubit 0 the most significant."""
        one, two = np.uint64(1), np.uint64(2)
        z = self._keys & np.uint64((1 << self.n) - 1)
        low = (self._keys >> np.uint64(self.n)) ^ z
        high = z << one
        out = np.zeros_like(z)
        for q in map(np.uint64, range(self.n)):
            out <<= two
            out |= ((high >> q) & two) | ((low >> q) & one)
        return out

    def labeled_terms(self) -> tuple[list[str], np.ndarray]:
        """Labels and coefficients in base-4 index order, the order of the
        pauli-sum format and of result documents."""
        digits = digits_from_keys(self._keys, self.n)
        order = np.argsort(indices_from_digits(digits), kind="stable")
        return labels_from_digits(digits[order]), self._coeffs[order]

    def terms_by_index(self) -> list[tuple[PauliString, float]]:
        """Terms sorted by base-4 index; the canonical public ordering."""
        return self._terms(np.argsort(self.indices(), kind="stable"))

    def __len__(self) -> int:
        return int(self._keys.size)

    def __iter__(self):
        return iter(self._terms(slice(None)))

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


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """Normalized coefficient vector of a Hamiltonian (its 2n-qubit state).

    ``indices`` holds ascending, unique base-4 indices (uint64) and
    ``entries`` their real amplitudes (float64), with unit l2 norm;
    ``lam`` is the l2 norm of the source coefficients, so the string of
    index indices[k] has coefficient lam * entries[k].  Both arrays are
    read-only copies; vectors compare by identity, not by value.
    """

    n: int
    lam: float
    indices: np.ndarray = field(repr=False)
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _checked_width(self.n))
        if self.lam <= 0.0 or not np.isfinite(self.lam):
            raise ValueError(f"normalization factor must be positive, got {self.lam}")
        indices = np.array(self.indices, dtype=np.uint64)
        entries = np.array(self.entries, dtype=np.float64)
        if indices.ndim != 1 or indices.shape != entries.shape:
            raise ValueError(f"indices {indices.shape} and entries {entries.shape} "
                             "must be 1-D arrays of equal length")
        if np.any(indices[1:] <= indices[:-1]) or indices.size and int(indices[-1]) >= 4**self.n:
            raise ValueError(f"indices must be strictly increasing and below 4**{self.n}")
        sq = float(np.dot(entries, entries))
        if abs(sq - 1.0) > 1e-9:
            raise ValueError(f"entries are not normalized: sum of squares {sq}")
        indices.flags.writeable = False
        entries.flags.writeable = False
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "entries", entries)

    def to_dense(self) -> np.ndarray:
        """Dense float64 vector of length 4**n (n <= DENSE_MAX_QUBITS)."""
        if self.n > DENSE_MAX_QUBITS:
            raise ValueError(
                f"dense coefficient vector capped at {DENSE_MAX_QUBITS} qubits, got {self.n}")
        out = np.zeros(4**self.n, dtype=np.float64)
        out[self.indices] = self.entries
        return out


def _magnitude_order(h: Hamiltonian) -> np.ndarray:
    """Positions of the stored terms in descending |coefficient|, ties
    broken on the text label; the fixed order of sorted insertion and the
    product formulas.  Labels of one length sort as their base-4 indices
    do, so no label is built."""
    return np.lexsort((h.indices(), -np.abs(h.coeffs)))


def _terms_by_magnitude(h: Hamiltonian) -> list[tuple[PauliString, float]]:
    """Terms in :func:`_magnitude_order`."""
    return h._terms(_magnitude_order(h))


def pauli_norm(h: Hamiltonian) -> float:
    """Sum of absolute coefficient values."""
    return float(np.abs(h.coeffs).sum())


def l2_norm(h: Hamiltonian) -> float:
    """Root-sum-square of coefficients; the vectorization factor.  A sum
    of squares past the float range gives inf, unwarned."""
    with np.errstate(over="ignore"):
        return float(np.sqrt(np.dot(h.coeffs, h.coeffs)))


def vectorize(h: Hamiltonian) -> CoefficientVector:
    """Encode the Hamiltonian as its normalized coefficient vector."""
    if len(h) == 0:
        raise ValueError("cannot vectorize the zero Hamiltonian (normalization is 0)")
    lam = l2_norm(h)
    idx = h.indices()
    order = np.argsort(idx)
    return CoefficientVector(n=h.n, lam=lam, indices=idx[order], entries=h.coeffs[order] / lam)


def devectorize(v: CoefficientVector) -> Hamiltonian:
    """Inverse of :func:`vectorize`; drops coefficients below ``PRUNE_TOL``."""
    coeffs = v.lam * v.entries
    keep = np.abs(coeffs) >= PRUNE_TOL
    keys = keys_from_digits(digits_from_indices(v.indices[keep], v.n))
    return Hamiltonian.from_arrays(v.n, keys, coeffs[keep])


def state_l1_norm(v: CoefficientVector) -> float:
    """l1 norm of the coefficient vector; pauli_norm(h) = lam * this."""
    return float(np.abs(v.entries).sum())


def tensor(a: Hamiltonian, b: Hamiltonian) -> Hamiltonian:
    """Tensor product, with ``a`` on qubits 0..a.n-1 and ``b`` after it."""
    n = a.n + b.n
    if n > MAX_QUBITS:
        raise ValueError(f"tensor product exceeds {MAX_QUBITS} qubits")
    digits = np.hstack([np.repeat(digits_from_keys(a.keys, a.n), len(b), axis=0),
                        np.tile(digits_from_keys(b.keys, b.n), (len(a), 1))])
    coeffs = np.outer(a.coeffs, b.coeffs).ravel()
    return Hamiltonian.from_arrays(n, keys_from_digits(digits), coeffs)


def embed(h: Hamiltonian, qubits: tuple[int, ...], n: int) -> Hamiltonian:
    """Place ``h`` on the given qubits of an n-qubit register (identity elsewhere)."""
    n = _checked_width(n)
    if len(qubits) != h.n:
        raise ValueError(f"need {h.n} target qubits, got {len(qubits)}")
    targets = [_checked_int(q, "qubit", 0, n - 1) for q in qubits]
    if len(set(targets)) != len(targets):
        raise ValueError(f"invalid embedding target {qubits} for {n} qubits")
    digits = np.zeros((len(h), n), dtype=np.uint8)
    digits[:, targets] = digits_from_keys(h.keys, h.n)
    return Hamiltonian.from_arrays(n, keys_from_digits(digits), h.coeffs)
