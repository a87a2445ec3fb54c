"""Adjoint action of hardware-efficient ansatz gates on Pauli sums.

Conjugating a Hamiltonian by a circuit, H -> U H U^dag, is applied gate
by gate directly on the sparse coefficient map.  A rotation
exp(-i*theta*A/2) leaves terms commuting with the axis Pauli A fixed
and mixes each anticommuting term B with its partner A*B as a planar
rotation:

    B -> cos(theta)*B - i*sin(theta)*(A*B),

where -i*(A*B) is again +/- a Hermitian Pauli string, so coefficients
stay real.  CZ is Clifford: each string maps to one string with a sign.
The induced linear map on coefficient space is real orthogonal;
:func:`build_encoded_v` materializes it densely for verification.

One engine, :class:`CompiledAnsatz`, runs every propagation.  For a
fixed input key set the support after each gate does not depend on the
angles, so each gate is compiled once: for every entry of its sorted
output support, the (at most two) input entries it reads and their +/-1
phase signs.  Applying the circuit is then a few array operations per
gate.  Pruning
at ``PRUNE_TOL`` sets entries to zero in place instead of dropping keys,
so the plans stay valid for every angle, theta = 0 and Clifford angles
included; nonzeros are compacted only where a Hamiltonian, a cost or a
dot product is formed.  Every output entry is a sum of at most two
products, so the engine matches gate-by-gate sort-and-merge bit for bit.
The gradient's reverse pass runs through the transposed plans on the
forward supports only (:meth:`CompiledAnsatz.pullback`).

The same plans carry a stack of angle vectors, shape ``(b, P)``, as
``(b, m)`` states, one row per vector: every gather takes along the last
axis, the cos/sin weights broadcast per row, pruning is elementwise and
each row's gradient entry is a dot over that row's compacted nonzeros.
Each row therefore equals its single-vector run bit for bit, so the
optimizer runs its restarts in lockstep through one pass per gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import PRUNE_TOL, Hamiltonian
from .paulis import PauliString, commutes, pauli_product

ROTATION_KINDS = ("RX", "RY", "RZ")

# axis (x, z) bit pair per rotation kind
_AXIS_BITS = {"RX": (1, 0), "RY": (1, 1), "RZ": (0, 1)}


@dataclass(frozen=True)
class Gate:
    """One ansatz gate: a parameterized rotation or a CZ entangler."""

    kind: str
    qubits: tuple[int, ...]
    param: int | None = None


@dataclass(frozen=True)
class AnsatzLayout:
    """Ordered gate list over n qubits with trainable rotation slots."""

    n: int
    depth: int
    gates: tuple[Gate, ...]
    parameter_count: int

    def __post_init__(self):
        seen = set()
        for g in self.gates:
            if g.kind in ROTATION_KINDS:
                if len(g.qubits) != 1 or g.param is None:
                    raise ValueError(f"rotation gate needs one qubit and a slot: {g}")
                if g.param in seen:
                    raise ValueError(f"parameter slot {g.param} used twice")
                seen.add(g.param)
            elif g.kind == "CZ":
                if len(g.qubits) != 2 or g.qubits[0] == g.qubits[1]:
                    raise ValueError(f"CZ needs two distinct qubits: {g}")
                if g.param is not None:
                    raise ValueError(f"CZ takes no parameter: {g}")
            else:
                raise ValueError(f"unknown gate kind {g.kind!r}")
            for q in g.qubits:
                if not (0 <= q < self.n):
                    raise ValueError(f"qubit {q} out of range for n={self.n}")
        if seen != set(range(self.parameter_count)):
            raise ValueError(
                f"parameter slots must be 0..{self.parameter_count - 1}, each once"
            )


def hardware_efficient_layout(n: int, depth: int,
                              rotations: tuple[str, ...] = ("RX", "RZ"),
                              entangler: str = "chain") -> AnsatzLayout:
    """Layered ansatz: per layer, the given rotations on every qubit,
    then CZ on neighboring pairs ("chain") or all pairs ("all")."""
    for kind in rotations:
        if kind not in ROTATION_KINDS:
            raise ValueError(f"unknown rotation kind {kind!r}")
    gates = []
    slot = 0
    for _ in range(depth):
        for kind in rotations:
            for q in range(n):
                gates.append(Gate(kind, (q,), slot))
                slot += 1
        if entangler == "chain":
            pairs = [(q, q + 1) for q in range(n - 1)]
        elif entangler == "all":
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
        else:
            raise ValueError(f"unknown entangler {entangler!r}")
        gates.extend(Gate("CZ", pair) for pair in pairs)
    return AnsatzLayout(n=n, depth=depth, gates=tuple(gates), parameter_count=slot)


def layout_from_gates(n: int, gates, depth: int = 0) -> AnsatzLayout:
    """Wrap an explicit gate list; parameter count inferred from the slots."""
    gates = tuple(gates)
    count = sum(1 for g in gates if g.param is not None)
    return AnsatzLayout(n=n, depth=depth, gates=gates, parameter_count=count)


def layout_to_dict(layout: AnsatzLayout) -> dict:
    return {
        "n": layout.n,
        "depth": layout.depth,
        "parameter_count": layout.parameter_count,
        "gates": [
            {"kind": g.kind, "qubits": list(g.qubits), "param": g.param}
            for g in layout.gates
        ],
    }


def layout_from_dict(d: dict) -> AnsatzLayout:
    gates = tuple(
        Gate(g["kind"], tuple(g["qubits"]), g["param"]) for g in d["gates"]
    )
    return AnsatzLayout(n=d["n"], depth=d["depth"], gates=gates,
                        parameter_count=d["parameter_count"])


def as_parameter_vector(theta, count: int) -> np.ndarray:
    """Validate and convert angles to a float64 array of the right length."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (count,):
        raise ValueError(f"expected {count} angles, got shape {theta.shape}")
    if not np.all(np.isfinite(theta)):
        raise ValueError("angles must be finite")
    return theta


# -- compiled propagation ------------------------------------------------


def _rotation_tables(kind: str):
    """Indexed by a string o's digit 2*x + z on the rotated qubit: whether
    o anticommutes with the axis A, and the sign with which its partner
    B = A*o feeds into it (0 where it commutes): -i*(A*B) is that sign
    times o, with the phase taken from :func:`~pauliforge.paulis.pauli_product`."""
    axis = PauliString(1, *_AXIS_BITS[kind])
    anti = np.zeros(4, dtype=bool)
    sign = np.zeros(4)
    for d in range(4):
        o = PauliString(1, d >> 1, d & 1)
        if not commutes(axis, o):
            anti[d] = True
            partner = pauli_product(axis, o).string
            sign[d] = 1.0 if pauli_product(axis, partner).phase == 1j else -1.0
    return anti, sign


_ROTATION_TABLES = {kind: _rotation_tables(kind) for kind in ROTATION_KINDS}


def _axis_key(kind: str, n: int, q: int) -> np.uint64:
    """Packed key of the rotation's axis Pauli on qubit q."""
    ax, az = _AXIS_BITS[kind]
    return np.uint64((ax << (n + q)) | (az << q))


def _digits(keys: np.ndarray, n: int, q: int) -> np.ndarray:
    """Each key's digit 2*x + z on qubit q."""
    one = np.uint64(1)
    x = (keys >> np.uint64(n + q)) & one
    return ((x << one) | ((keys >> np.uint64(q)) & one)).astype(np.intp)


def _locate(keys: np.ndarray, queries: np.ndarray):
    """Positions of ``queries`` in the sorted ``keys`` and whether each is there."""
    at = np.searchsorted(keys, queries)
    found = keys[np.minimum(at, keys.size - 1)] == queries
    return at, found


class _RotationGather:
    """A rotation's map from entries on ``source`` keys to ``target`` keys.

    Target entry o reads the source entry at its own key and, when o
    anticommutes with the axis A, the one at A*o:

        y[o] = (keep[o] + cos(t)*own[o]) * x[src1[o]] + sin(t)*sign[o] * x[src2[o]]

    ``keep`` marks commuting keys, ``own`` anticommuting ones present in
    the source, and ``sign`` is 0 where A*o is absent; an absent read
    points at a valid entry with weight 0.  Each entry is a sum of at
    most two products, so the result does not depend on summation order.
    ``x`` may be a (b, m) stack with c and s as (b, 1) columns.
    Built from the input onto the output keys this is the gate; built
    from the output onto the input keys and run at -t it is the transpose
    of the gate restricted to those keys.
    """

    __slots__ = ("src1", "src2", "keep", "own", "sign")

    def __init__(self, source, target, n, kind, qubit):
        anti_table, sign_table = _ROTATION_TABLES[kind]
        digits = _digits(target, n, qubit)
        anti = anti_table[digits]
        own_at, own_in = _locate(source, target)
        partner_at, partner_in = _locate(source, target ^ _axis_key(kind, n, qubit))
        partner_in &= anti
        self.src1 = np.where(own_in, own_at, partner_at)
        self.src2 = np.where(partner_in, partner_at, self.src1)
        self.keep = (own_in & ~anti).astype(np.float64)
        self.own = (own_in & anti).astype(np.float64)
        self.sign = np.where(partner_in, sign_table[digits], 0.0)

    def __call__(self, x, c, s):
        return ((self.keep + c * self.own) * x.take(self.src1, axis=-1)
                + (s * self.sign) * x.take(self.src2, axis=-1))

    def derivative(self, x, c, s):
        """d/dt of the map at angle t (commuting entries drop to 0)."""
        return ((-s * self.own) * x.take(self.src1, axis=-1)
                + (c * self.sign) * x.take(self.src2, axis=-1))


def _cz_bits(keys: np.ndarray, n: int, q1: int, q2: int):
    one = np.uint64(1)
    x1 = (keys >> np.uint64(n + q1)) & one
    z1 = (keys >> np.uint64(q1)) & one
    x2 = (keys >> np.uint64(n + q2)) & one
    z2 = (keys >> np.uint64(q2)) & one
    flip = (x2 << np.uint64(q1)) ^ (x1 << np.uint64(q2))
    neg = (x1 & x2 & (z1 ^ z2)) == one
    return flip, neg


class _CZGather:
    """CZ's signed permutation from ``source`` entries onto ``target`` keys.

    CZ is an involution and keeps each string's sign bit, so the same
    construction gives the gate and its transpose.
    """

    __slots__ = ("src", "sign")

    def __init__(self, source, target, n, q1, q2):
        flip, neg = _cz_bits(target, n, q1, q2)
        self.src = np.searchsorted(source, target ^ flip)
        self.sign = np.where(neg, -1.0, 1.0)

    def __call__(self, x):
        return self.sign * x.take(self.src, axis=-1)


def _output_keys(gate: Gate, keys: np.ndarray, n: int) -> np.ndarray:
    """Sorted support leaving the gate when ``keys`` enter it, before pruning."""
    if gate.kind == "CZ":
        flip, _ = _cz_bits(keys, n, *gate.qubits)
        return np.sort(keys ^ flip)
    q = gate.qubits[0]
    anti = _ROTATION_TABLES[gate.kind][0][_digits(keys, n, q)]
    # Sort and drop repeats by hand: np.union1d's hash-based np.unique
    # costs about 1.5 MB of resident memory on first use.
    partners = keys[anti] ^ _axis_key(gate.kind, n, q)
    merged = np.sort(np.concatenate([keys, partners]))
    first = np.ones(merged.size, dtype=bool)
    first[1:] = merged[1:] != merged[:-1]
    return merged[first]


def _gather(gate: Gate, source: np.ndarray, target: np.ndarray, n: int):
    if gate.kind == "CZ":
        return _CZGather(source, target, n, *gate.qubits)
    return _RotationGather(source, target, n, gate.kind, gate.qubits[0])


class _Step:
    """One gate compiled on the key set that enters it."""

    __slots__ = ("gate", "param", "keys_in", "keys", "gather", "_back", "_n")

    def __init__(self, gate: Gate, keys_in: np.ndarray, n: int):
        self.gate = gate
        self.param = gate.param
        self.keys_in = keys_in
        self.keys = _output_keys(gate, keys_in, n)
        self.gather = _gather(gate, keys_in, self.keys, n)
        self._back = None
        self._n = n

    def back(self):
        """The transposed gather, from the output keys onto the input keys,
        compiled on first use (only gradients need it)."""
        if self._back is None:
            self._back = _gather(self.gate, self.keys, self.keys_in, self._n)
        return self._back


def _angle_columns(theta):
    """cos and sin of every angle, indexed by slot: a scalar per slot for
    one vector, a (b, 1) column per slot for a (b, P) stack, so they
    broadcast against the states row by row."""
    c, s = np.cos(theta), np.sin(theta)
    if theta.ndim == 2:
        return c.T[:, :, None], s.T[:, :, None]
    return c, s


def _row_slices(mask: np.ndarray) -> list[slice]:
    """Per row of a ``(..., m)`` mask, the slice of ``x[mask]`` that holds
    the row's entries, so a row's compacted entries are taken from one
    mask over the whole stack."""
    out, start = [], 0
    for row in mask.reshape(-1, mask.shape[-1]):
        end = start + int(np.count_nonzero(row))
        out.append(slice(start, end))
        start = end
    return out


def _hit_dots(g: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Each row's dot product of ``g`` and ``d`` over the entries where both
    are nonzero, in key order: the dot of the row's compacted nonzeros,
    equal to the one taken on that row alone."""
    hit = (g != 0.0) & (d != 0.0)
    gv, dv = g[hit], d[hit]
    if hit.size == hit.shape[-1]:  # one row: its hits are all of them
        return np.dot(gv, dv)
    return np.array([np.dot(gv[k], dv[k]) for k in _row_slices(hit)])


class CompiledAnsatz:
    """A layout's gates compiled against one Hamiltonian's key set.

    Compiling walks the gates once and records, per gate, the support
    that enters it and the gather with signs onto the sorted support
    that leaves it.  For a fixed input those supports do not depend on
    the angles, so one compilation serves every angle vector.
    Coefficients below ``PRUNE_TOL`` are set to zero in place after each
    gate rather than dropped, which keeps the plans valid for every
    angle, Clifford angles and theta = 0 included; nonzeros are compacted
    only where a Hamiltonian is formed.  Values match gate-by-gate
    merging bit for bit, since adding an exact zero changes no sum.

    Angles come as one vector of shape ``(P,)`` or as a stack of shape
    ``(b, P)``.  A stack's states are ``(b, m)`` arrays, one row per angle
    vector: the gathers take along the last axis, the weights broadcast
    per row and pruning is elementwise, so each row equals the run of its
    angle vector alone bit for bit.  :attr:`entries` bounds the rows a
    caller batches.

    The gates run in layout order, giving U(theta) H U(theta)^dag; the
    inverse conjugation is the reversed layout at negated angles
    (:func:`apply_ansatz_inverse`).  This is the one place that checks a
    layout against a Hamiltonian.
    """

    def __init__(self, h: Hamiltonian, layout: AnsatzLayout):
        if layout.n != h.n:
            raise ValueError(f"layout is for {layout.n} qubits, Hamiltonian has {h.n}")
        self.h = h
        self.layout = layout
        steps = []
        keys = h.keys
        for gate in layout.gates:
            steps.append(_Step(gate, keys, h.n))
            keys = steps[-1].keys
        self.steps = tuple(steps)
        self.keys = keys

    @property
    def entries(self) -> int:
        """Entries of one angle vector's stored states: the input and
        every gate's output support."""
        return self.h.keys.size + sum(step.keys.size for step in self.steps)

    def propagate(self, theta):
        """Yield the input coefficients, then the coefficients on each
        gate's output support, for validated angles of shape (P,) or a
        (b, P) stack."""
        x = self.h.coeffs
        if theta.ndim == 2:
            x = np.broadcast_to(x, (theta.shape[0], x.size))
        cos, sin = _angle_columns(theta)
        yield x
        pruned = False
        for step in self.steps:
            if step.param is None:
                x = step.gather(x)  # keeps magnitudes: pruned stays pruned
            else:
                x = step.gather(x, cos[step.param], sin[step.param])
                pruned = False
            if not pruned:
                x[np.abs(x) < PRUNE_TOL] = 0.0
                pruned = True
            yield x

    def coefficients(self, theta) -> np.ndarray:
        """Output coefficients on ``self.keys`` (pruned entries are 0),
        one row per angle vector of a stack."""
        for x in self.propagate(theta):
            pass
        return x

    def hamiltonian(self, theta) -> Hamiltonian:
        """The conjugated Hamiltonian for validated angles of shape (P,)."""
        return self._output(self.coefficients(theta))

    def hamiltonians(self, theta) -> list[Hamiltonian]:
        """The conjugated Hamiltonian for validated angles of shape (P,),
        or for each row of a (b, P) stack from one batched pass."""
        return [self._output(x) for x in np.atleast_2d(self.coefficients(theta))]

    def _output(self, x: np.ndarray) -> Hamiltonian:
        nonzero = x != 0.0
        return Hamiltonian._from_merged(self.h.n, self.keys[nonzero], x[nonzero])

    def pullback(self, theta, states, cotangent: np.ndarray) -> np.ndarray:
        """Angle gradient of a cost whose gradient in the output
        coefficients is ``cotangent``; ``states`` lists ``propagate(theta)``.
        On a stack, row r of the result is the gradient of row r.

        The cotangent runs back through the transposed plans on the
        forward supports only.  Gate j's derivative lives on the support
        after gate j, so cotangent entries outside the forward supports
        would never reach a gradient entry.
        """
        grad = np.zeros(theta.shape)
        cos, sin = _angle_columns(theta)
        cos_back, sin_back = _angle_columns(-theta)
        g = cotangent
        for j in range(len(self.steps) - 1, -1, -1):
            step = self.steps[j]
            p = step.param
            if p is None:
                if j:
                    g = step.back()(g)
                continue
            d = step.gather.derivative(states[j], cos[p], sin[p])
            grad[..., p] = _hit_dots(g, d)
            if j:
                g = step.back()(g, cos_back[p], sin_back[p])
        return grad


def conjugate_rotation(h: Hamiltonian, axis: str, qubit: int, theta: float) -> Hamiltonian:
    """U H U^dag for U = exp(-i*theta*P_axis(qubit)/2)."""
    if axis not in ("X", "Y", "Z"):
        raise ValueError(f"axis must be X, Y or Z, got {axis!r}")
    return apply_ansatz(h, layout_from_gates(h.n, [Gate("R" + axis, (qubit,), 0)]), [theta])


def conjugate_cz(h: Hamiltonian, q1: int, q2: int) -> Hamiltonian:
    """CZ H CZ on qubits (q1, q2); a signed permutation of Pauli strings."""
    return apply_ansatz(h, layout_from_gates(h.n, [Gate("CZ", (q1, q2))]), [])


def apply_ansatz(h: Hamiltonian, layout: AnsatzLayout, theta) -> Hamiltonian:
    """U(theta) H U(theta)^dag with gates applied in circuit order."""
    theta = as_parameter_vector(theta, layout.parameter_count)
    return CompiledAnsatz(h, layout).hamiltonian(theta)


def apply_ansatz_inverse(h: Hamiltonian, layout: AnsatzLayout, theta) -> Hamiltonian:
    """U(theta)^dag H U(theta): reversed gate order, negated angles."""
    theta = as_parameter_vector(theta, layout.parameter_count)
    reverse = AnsatzLayout(layout.n, layout.depth, layout.gates[::-1], layout.parameter_count)
    return CompiledAnsatz(h, reverse).hamiltonian(-theta)


def build_encoded_v(layout: AnsatzLayout, theta, n: int) -> np.ndarray:
    """Dense 4^n x 4^n coefficient-space unitary of the ansatz.

    Row i holds the Pauli coefficients of U^dag P_i U, so that
    V @ vectorize(H) equals vectorize(U H U^dag) entrywise.  Test-only;
    capped at 3 qubits.
    """
    if n > 3:
        raise ValueError(f"encoded unitary is dense in 4^n; capped at n=3, got {n}")
    dim = 4**n
    v = np.zeros((dim, dim), dtype=np.float64)
    for i in range(dim):
        basis = Hamiltonian(n, {PauliString.from_index(i, n): 1.0})
        row = apply_ansatz_inverse(basis, layout, theta)
        idx = row.indices()
        v[i, idx] = row.coeffs
    return v
