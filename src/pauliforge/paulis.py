"""Pauli-string algebra on a symplectic bit representation.

A Pauli string on n qubits is stored as two n-bit masks: bit k of ``x``
is set when qubit k carries an X factor, bit k of ``z`` when it carries
a Z factor, and both bits are set for Y.  Qubit 0 is the leftmost
character of the text label and the most significant digit of the
base-4 integer index, with digit values I=0, X=1, Y=2, Z=3.  That index
convention is part of the public file-format contract.

The array codec below holds that convention once.  Its pivot is an
(m, n) uint8 digit array, qubit 0 in column 0, with converters each way
to packed keys ``(x << n) | z``, labels and base-4 indices (uint64).

Every integer argument of the package is checked by :func:`_checked_int`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 32  # 2n bits of a packed key or base-4 index fit one uint64
DENSE_MAX_QUBITS = 10  # dense vectors, matrices and states: dimension 1024

LABEL_ALPHABET = "IXYZ"
# digit -> label byte, and label byte -> digit (4 for a byte outside the alphabet)
_BYTES = np.frombuffer(LABEL_ALPHABET.encode("ascii"), dtype=np.uint8)
_DIGITS = np.full(256, 4, dtype=np.uint8)
_DIGITS[_BYTES] = np.arange(4)


class LabelError(ValueError):
    """A label that is not n characters from LABEL_ALPHABET, at ``position`` in its batch."""

    def __init__(self, label: str, position: int, n: int):
        super().__init__(f"bad Pauli label {label!r}: need {n} characters from {LABEL_ALPHABET}")
        self.position = position


def _checked_int(value, name: str, low: int | None = None, high: int | None = None) -> int:
    """``value`` as a Python int if it is a Python or NumPy integer, not a
    bool, in ``low..high`` (``high`` is only given with ``low``); anything
    else raises a ValueError that names the argument and its bounds."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if integer and (low is None or value >= low) and (high is None or value <= high):
        return int(value)
    bounds = "" if low is None else f" >= {low}" if high is None else f" in {low}..{high}"
    raise ValueError(f"{name} must be an integer{bounds}, got {value if integer else repr(value)}")


def _checked_width(n) -> int:
    """The qubit count n, refused outside 1..MAX_QUBITS, where uint64 would wrap."""
    return _checked_int(n, "qubit count", 1, MAX_QUBITS)


def digits_from_keys(keys, n: int) -> np.ndarray:
    """(m, n) digits of packed keys: 2z + (x xor z) per qubit."""
    n = _checked_width(n)
    bits = (np.asarray(keys, np.uint64).reshape(-1, 1) >> np.arange(2 * n, dtype=np.uint64)) & 1
    return (2 * bits[:, :n] + (bits[:, n:] ^ bits[:, :n])).astype(np.uint8)


def keys_from_digits(digits: np.ndarray) -> np.ndarray:
    """uint64 packed keys of (m, n) digits."""
    _checked_width(digits.shape[1])
    z = digits >> 1
    bits = np.concatenate([z, (digits & 1) ^ z], axis=1).astype(np.uint64)
    return (bits << np.arange(bits.shape[1], dtype=np.uint64)).sum(axis=1, dtype=np.uint64)


def digits_from_indices(indices, n: int) -> np.ndarray:
    """(m, n) digits of base-4 indices, qubit 0 the most significant."""
    n = _checked_width(n)
    indices = np.asarray(indices, np.uint64).reshape(-1, 1)
    return ((indices >> np.arange(2 * n - 2, -1, -2, dtype=np.uint64)) & 3).astype(np.uint8)


def indices_from_digits(digits: np.ndarray) -> np.ndarray:
    """uint64 base-4 indices of (m, n) digits."""
    shift = np.arange(2 * _checked_width(digits.shape[1]) - 2, -1, -2, dtype=np.uint64)
    return (digits.astype(np.uint64) << shift).sum(axis=1, dtype=np.uint64)


def labels_from_digits(digits: np.ndarray) -> list[str]:
    """Text labels of (m, n) digits."""
    m, n = digits.shape
    text = _BYTES[digits].tobytes().decode("ascii")
    return [text[i:i + n] for i in range(0, m * n, n)]


def digits_from_labels(labels, n: int) -> np.ndarray:
    """(m, n) digits of text labels; raises :class:`LabelError` for the
    first label that is not n characters from LABEL_ALPHABET."""
    # "replace" makes each non-ASCII character one b"?", outside the alphabet
    text = "".join(labels).encode("ascii", "replace")
    # one test over the whole batch; the offending label is sought only on failure
    if not {n}.issuperset(map(len, labels)) or text.translate(None, _BYTES.tobytes()):
        first = next(i for i, label in enumerate(labels)
                     if len(label) != n or label.strip(LABEL_ALPHABET))
        raise LabelError(labels[first], first, n)
    return _DIGITS[np.frombuffer(text, np.uint8)].reshape(len(labels), n)


class PauliString:
    """An n-qubit tensor product of {I, X, Y, Z} without coefficient."""

    __slots__ = ("n", "x", "z")

    def __init__(self, n: int, x: int, z: int):
        self.n = _checked_width(n)
        mask = (1 << self.n) - 1
        self.x = _checked_int(x, "x mask", 0, mask)
        self.z = _checked_int(z, "z mask", 0, mask)

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        return cls(n, 0, 0)

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a text label such as ``"XIZ"`` (qubit 0 leftmost)."""
        key = keys_from_digits(digits_from_labels([label], len(label)))[0]
        return cls.from_key(int(key), len(label))

    @classmethod
    def from_index(cls, index: int, n: int) -> "PauliString":
        """Build from the base-4 index (qubit 0 = most significant digit)."""
        n, index = _checked_width(n), _checked_int(index, "index")
        if not (0 <= index < 4**n):
            raise ValueError(f"index {index} out of range for {n} qubits")
        return cls.from_key(int(keys_from_digits(digits_from_indices(index, n))[0]), n)

    @classmethod
    def from_key(cls, key: int, n: int) -> "PauliString":
        """Build from the packed integer key ``(x << n) | z``, one of
        0..4**n - 1; any other key raises a ValueError."""
        n, key = _checked_width(n), _checked_int(key, "key")
        mask = (1 << n) - 1
        if not 0 <= key >> n <= mask:
            raise ValueError(f"key {key} out of range for {n} qubits")
        return cls(n, key >> n, key & mask)

    @classmethod
    def _from_valid_key(cls, key: int, n: int, mask: int) -> "PauliString":
        """``from_key`` without the width and mask checks, for the keys of a
        container that validated them; ``mask`` is ``(1 << n) - 1``."""
        p = object.__new__(cls)
        p.n = n
        p.x = key >> n
        p.z = key & mask
        return p

    def key(self) -> int:
        """Packed integer ``(x << n) | z``; unique per string at fixed n."""
        return (self.x << self.n) | self.z

    def digit(self, qubit: int) -> int:
        """Base-4 digit of the factor on ``qubit``."""
        qubit = _checked_int(qubit, "qubit", 0, self.n - 1)
        return int(digits_from_keys(self.key(), self.n)[0, qubit])

    @property
    def label(self) -> str:
        return labels_from_digits(digits_from_keys(self.key(), self.n))[0]

    @property
    def index(self) -> int:
        return int(indices_from_digits(digits_from_keys(self.key(), self.n))[0])

    @property
    def x_bits(self) -> tuple[int, ...]:
        return tuple((self.x >> q) & 1 for q in range(self.n))

    @property
    def z_bits(self) -> tuple[int, ...]:
        return tuple((self.z >> q) & 1 for q in range(self.n))

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def restrict(self, qubits: tuple[int, ...]) -> "PauliString":
        """The factor on a subset of qubits, reindexed to 0..len-1."""
        x = z = 0
        for k, q in enumerate(qubits):
            q = _checked_int(q, "qubit", 0, self.n - 1)
            x |= ((self.x >> q) & 1) << k
            z |= ((self.z >> q) & 1) << k
        return PauliString(len(qubits), x, z)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return self.n == other.n and self.x == other.x and self.z == other.z

    def __hash__(self) -> int:
        return hash((self.n, self.x, self.z))

    def __repr__(self) -> str:
        return f"PauliString({self.label!r})"


@dataclass(frozen=True)
class SignedPauli:
    """A Pauli string with a phase in {+1, -1, +i, -i}."""

    phase: complex
    string: PauliString


def _require_same_n(a: PauliString, b: PauliString) -> None:
    if a.n != b.n:
        raise ValueError(f"qubit count mismatch: {a.n} vs {b.n}")


def pauli_product(a: PauliString, b: PauliString) -> SignedPauli:
    """Matrix product a*b as a signed Pauli string.

    Uses the convention P = i^{|x&z|} X^x Z^z per string, from which the
    product phase is i^k with
    k = |a.x&a.z| + |b.x&b.z| - |c.x&c.z| + 2*|a.z&b.x|  (mod 4),
    c being the bitwise-XOR result string.
    """
    _require_same_n(a, b)
    cx = a.x ^ b.x
    cz = a.z ^ b.z
    k = (
        (a.x & a.z).bit_count()
        + (b.x & b.z).bit_count()
        - (cx & cz).bit_count()
        + 2 * (a.z & b.x).bit_count()
    ) % 4
    return SignedPauli(phase=1j**k, string=PauliString(a.n, cx, cz))


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff a*b = b*a (symplectic form has even parity)."""
    _require_same_n(a, b)
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def qubit_wise_commutes(a: PauliString, b: PauliString) -> bool:
    """True iff the single-qubit factors commute at every position.

    Equivalent to: wherever both strings are non-identity, the factors
    are equal.
    """
    _require_same_n(a, b)
    common = (a.x | a.z) & (b.x | b.z)
    return ((a.x ^ b.x) | (a.z ^ b.z)) & common == 0
