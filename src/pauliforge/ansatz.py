"""Adjoint action of Pauli-rotation and CZ ansatz gates on Pauli sums.

A gate is ``CZ`` on two distinct qubits, or ``R`` followed by one letter
of X, Y, Z per distinct qubit: ``RXZ`` on (0, 3) is exp(-i*theta*A/2)
about the axis A = X_0 Z_3, and RX/RY/RZ are the one-qubit case.
Conjugating a Hamiltonian by a circuit, H -> U H U^dag, is applied gate
by gate directly on the sparse coefficient map.  A rotation leaves terms
commuting with A fixed and mixes each anticommuting term B with its
partner A*B as a planar rotation:

    B -> cos(theta)*B - i*sin(theta)*(A*B),

where -i*(A*B) is again +/- a Hermitian Pauli string, so coefficients
stay real.  CZ is Clifford: each string maps to one string with a sign.
The induced linear map on coefficient space is real orthogonal;
:func:`pauliforge.verification.build_encoded_v` materializes it densely.

One engine, :class:`CompiledAnsatz`, runs every propagation.  For a
fixed input key set the support after each gate does not depend on the
angles, so each gate is compiled once, from one sort of the keys that
leave it: ``np.unique`` with its inverse places every input key and
every partner on the sorted output support.  Those positions give the
gate's gather (for every output entry, the at most two input entries it
reads and their +/-1 phase signs) and, together with it, the transposed
gather back onto the input keys.  Applying the circuit is then a few
array operations per gate.  Pruning at ``PRUNE_TOL`` sets entries to
zero in place instead of dropping keys, so the plans stay valid for
every angle, theta = 0 and Clifford angles included; nonzeros are
compacted only where a Hamiltonian, a cost or a dot product is formed.
Every output entry is a sum of at most two products, so the engine
matches gate-by-gate sort-and-merge bit for bit.
The gradient's reverse pass runs through the transposed gathers on the
forward supports only (:meth:`CompiledAnsatz.pullback`).

Angles come only as a stack of vectors, shape ``(b, P)``, carried as
``(b, m)`` states, one row per vector: every gather takes along the last
axis, the cos/sin weights broadcast per row, pruning is elementwise and
each row's gradient entry is a dot over that row's compacted nonzeros.
Each row therefore equals its run as a one-row stack bit for bit, so the
optimizer runs its restarts in lockstep through one pass per gate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import PRUNE_TOL, Hamiltonian
from .paulis import MAX_QUBITS, _checked_int, digits_from_labels, keys_from_digits


@dataclass(frozen=True)
class Gate:
    """One ansatz gate: a parameterized Pauli rotation or a CZ entangler."""

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
        for name, low, high in (("n", 1, MAX_QUBITS), ("depth", 0, None),
                                ("parameter_count", 0, None)):
            object.__setattr__(self, name, _checked_int(getattr(self, name), name, low, high))
        seen = set()
        for g in self.gates:
            if gate_axis(g, self.n) is None:
                if g.param is not None:
                    raise ValueError(f"CZ takes no parameter: {g}")
                continue
            slot = _checked_int(g.param, f"parameter slot of {g}")
            if slot in seen:
                raise ValueError(f"rotation needs an int parameter slot of its own: {g}")
            seen.add(slot)
        if seen != set(range(self.parameter_count)):
            raise ValueError(
                f"parameter slots must be 0..{self.parameter_count - 1}, each once"
            )


def gate_axis(gate: Gate, n: int) -> str | None:
    """Parse a gate on n qubits: None for ``CZ``, and for a rotation its
    axis as an n-qubit Pauli label (``RXZ`` on (2, 0) gives ``"ZIX"``).

    ``CZ`` acts on two distinct qubits; ``R`` is followed by one letter
    of X, Y, Z per qubit, on distinct qubits.  Qubits are ints in
    0..n-1.  Anything else raises a ValueError that names the gate.
    """
    qubits = gate.qubits
    for q in qubits:
        _checked_int(q, f"qubit of {gate}", 0, n - 1)
    if gate.kind == "CZ":
        if len(qubits) != 2 or qubits[0] == qubits[1]:
            raise ValueError(f"CZ needs two distinct qubits: {gate}")
        return None
    letters = gate.kind[1:] if isinstance(gate.kind, str) and gate.kind[:1] == "R" else ""
    if not letters or letters.strip("XYZ"):
        raise ValueError(f"unknown gate kind {gate.kind!r}: {gate}")
    if len(letters) != len(qubits) or len(set(qubits)) != len(qubits):
        raise ValueError(f"rotation needs one axis letter per distinct qubit: {gate}")
    label = ["I"] * n
    for q, letter in zip(qubits, letters):
        label[q] = letter
    return "".join(label)


def hardware_efficient_layout(n: int, depth: int,
                              rotations: tuple[str, ...] = ("RX", "RZ"),
                              entangler: str = "chain") -> AnsatzLayout:
    """Layered ansatz: per layer, the given one-qubit rotations on every
    qubit, then CZ on neighboring pairs ("chain") or all pairs ("all")."""
    n, depth = _checked_int(n, "n", 1, MAX_QUBITS), _checked_int(depth, "depth", 0)
    for kind in rotations:
        gate_axis(Gate(kind, (0,), 0), 1)  # a one-qubit rotation, or ValueError
    if entangler == "chain":
        pairs = [(q, q + 1) for q in range(n - 1)]
    elif entangler == "all":
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    else:
        raise ValueError(f"unknown entangler {entangler!r}")
    gates = []
    slot = 0
    for _ in range(depth):
        for kind in rotations:
            for q in range(n):
                gates.append(Gate(kind, (q,), slot))
                slot += 1
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


def _anticommuting(keys: np.ndarray, axis: np.uint64, n: int) -> np.ndarray:
    """Whether each key anticommutes with the axis A: the symplectic form
    is the parity of popcount(key & A'), A' being A with its x and z
    halves swapped."""
    shift = np.uint64(n)
    swapped = ((axis & np.uint64((1 << n) - 1)) << shift) | (axis >> shift)
    return (np.bitwise_count(keys & swapped) & 1).astype(bool)


def _partner_signs(targets: np.ndarray, axis: np.uint64, n: int) -> np.ndarray:
    """For keys o anticommuting with the axis A, the sign s with
    -i*(A*B) = s*o for the partner B = A*o.

    :func:`~pauliforge.paulis.pauli_product` gives A*B = i^k * o with
    k = |A.x&A.z| + |B.x&B.z| - |o.x&o.z| + 2*|A.z&B.x| (mod 4), which
    is 1 (s = +1) or 3 (s = -1) for an anticommuting pair.
    """
    shift = np.uint64(n)
    partners = targets ^ axis
    # |P.x & P.z| is popcount(P & (P >> n)), and 3 is -1 mod 4.  axis << n
    # puts A.z on the x half; A.x lands above the 2n key bits, where
    # partners are 0.
    k = (np.bitwise_count(axis & (axis >> shift))
         + np.bitwise_count(partners & (partners >> shift))
         + 3 * np.bitwise_count(targets & (targets >> shift))
         + 2 * np.bitwise_count(partners & (axis << shift)))  # uint8, below 256
    return 1.0 - (k & 2)


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
    From the input onto the output keys this is the gate; from the output
    onto the input keys and run at -t it is the transpose of the gate
    restricted to those keys.
    """

    __slots__ = ("src1", "src2", "keep", "own", "sign")

    def __init__(self, src1, src2, keep, own, sign):
        self.src1, self.src2, self.keep, self.own, self.sign = src1, src2, keep, own, sign

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
    """CZ's signed permutation: target entry j is ``sign[j] * x[src[j]]``."""

    __slots__ = ("src", "sign")

    def __init__(self, src, sign):
        self.src, self.sign = src, sign

    def __call__(self, x):
        return self.sign * x.take(self.src, axis=-1)


class _Step:
    """One gate compiled on the key set that enters it: the sorted
    support ``keys`` that leaves it (None once :class:`CompiledAnsatz`
    has compiled the next gate on it), the ``gather`` onto those keys
    and its transpose ``back`` onto the input keys.  ``axis`` is the
    rotation's axis key, None for a CZ.

    One ``np.unique`` of the keys that leave the gate, with its inverse,
    places every input key and every partner, and both gathers are
    filled from those positions.
    """

    __slots__ = ("param", "keys", "gather", "back")

    def __init__(self, gate: Gate, axis, keys_in: np.ndarray, n: int):
        self.param = gate.param
        m = keys_in.size
        if axis is None:
            # CZ permutes the strings, and a string and its image share
            # their sign bit, so the keys have no repeats and one sign
            # vector serves both directions.
            flip, neg = _cz_bits(keys_in, n, *gate.qubits)
            self.keys, inv = np.unique(keys_in ^ flip, return_inverse=True)
            sign = np.where(neg, -1.0, 1.0)
            src = np.empty(m, dtype=np.intp)
            src[inv] = np.arange(m)
            self.gather = _CZGather(src, sign[src])
            self.back = _CZGather(inv, sign)
            return
        anti = _anticommuting(keys_in, axis, n)
        at = np.flatnonzero(anti)
        self.keys, inv = np.unique(np.concatenate([keys_in, keys_in[at] ^ axis]),
                                   return_inverse=True)
        own_slot, partner_slot = inv[:m].copy(), inv[m:]  # a view would keep all of inv
        signs = _partner_signs(keys_in[at], axis, n)  # the partners': sigma(A*o) = -sigma(o)
        size = self.keys.size
        rows = np.arange(m)
        src2 = np.empty(size, dtype=np.intp)
        src2[own_slot] = rows
        src2[partner_slot] = at
        src1 = src2.copy()
        src1[own_slot] = rows  # a key absent from the input reads its partner
        keep, own, sign = np.zeros(size), np.zeros(size), np.zeros(size)
        keep[own_slot] = ~anti
        own[own_slot] = anti
        sign[partner_slot] = -signs
        self.gather = _RotationGather(src1, src2, keep, own, sign)
        back_src2 = own_slot.copy()
        back_src2[at] = partner_slot
        back_sign = np.zeros(m)
        back_sign[at] = signs
        self.back = _RotationGather(own_slot, back_src2, (~anti).astype(np.float64),
                                    anti.astype(np.float64), back_sign)


def _angle_columns(theta):
    """cos and sin of every angle of a (b, P) stack, indexed by slot: a
    (b, 1) column per slot, so they broadcast against the states row by
    row."""
    return np.cos(theta).T[:, :, None], np.sin(theta).T[:, :, None]


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
    return np.array([np.dot(gv[k], dv[k]) for k in _row_slices(hit)])


class CompiledAnsatz:
    """A layout's gates compiled against one Hamiltonian's key set.

    Compiling walks the gates once and records, per gate, the gather
    with signs onto the sorted support that leaves it and the transposed
    gather back onto the support that enters it; of the supports only
    the last, ``keys``, is kept.  For a fixed input those supports do
    not depend on the angles, so one compilation serves every angle
    vector.
    Coefficients below ``PRUNE_TOL`` are set to zero in place after each
    gate rather than dropped, which keeps the plans valid for every
    angle, Clifford angles and theta = 0 included; nonzeros are compacted
    only where a Hamiltonian is formed.  Values match gate-by-gate
    merging bit for bit, since adding an exact zero changes no sum.

    Angles come as a stack of shape ``(b, P)``, one vector as a one-row
    stack, and the states are ``(b, m)`` arrays, one row per angle
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
        labels = [gate_axis(g, h.n) for g in layout.gates]  # None for a CZ
        rotations = [a for a in labels if a]
        axes = iter(keys_from_digits(digits_from_labels(rotations, h.n)) if rotations else ())
        steps = []
        keys = h.keys
        stored = 0
        for gate, label in zip(layout.gates, labels):
            if steps:
                steps[-1].keys = None  # only the final support is kept
            stored += keys.size if label else 0
            steps.append(_Step(gate, label and next(axes), keys, h.n))
            keys = steps[-1].keys
        self.steps = tuple(steps)
        self.keys = keys
        #: Entries of one angle vector's :meth:`stored_states`.
        self.entries = stored + keys.size

    def propagate(self, theta):
        """Yield the input coefficients, then the coefficients on each
        gate's output support, as (b, m) states for a validated (b, P)
        angle stack."""
        x = np.broadcast_to(self.h.coeffs, (len(theta), self.h.coeffs.size))
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

    def stored_states(self, theta) -> list:
        """``propagate(theta)`` as a list of what :meth:`pullback` reads:
        each rotation's input and the output; a CZ's input is None."""
        reads = [step.param is not None for step in self.steps] + [True]
        return [x if read else None for read, x in zip(reads, self.propagate(theta))]

    def coefficients(self, theta) -> np.ndarray:
        """Output coefficients on ``self.keys`` (pruned entries are 0),
        one row per angle vector of the stack."""
        for x in self.propagate(theta):
            pass
        return x

    def hamiltonians(self, theta) -> list[Hamiltonian]:
        """The conjugated Hamiltonian for each row of a validated (b, P)
        angle stack, from one batched pass."""
        return [self._output(x) for x in self.coefficients(theta)]

    def _output(self, x: np.ndarray) -> Hamiltonian:
        nonzero = x != 0.0
        return Hamiltonian._from_merged(self.h.n, self.keys[nonzero], x[nonzero])

    def pullback(self, theta, states, cotangent: np.ndarray) -> np.ndarray:
        """Angle gradient of a cost whose gradient in the output
        coefficients is ``cotangent``; ``states`` lists ``propagate(theta)``,
        of which only the inputs of rotation gates are read
        (:meth:`stored_states`).  Row r of the result is the gradient of
        row r of the stack.

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
                    g = step.back(g)
                continue
            d = step.gather.derivative(states[j], cos[p], sin[p])
            grad[..., p] = _hit_dots(g, d)
            if j:
                g = step.back(g, cos_back[p], sin_back[p])
        return grad


def conjugate_rotation(h: Hamiltonian, axis: str, qubit: int, theta: float) -> Hamiltonian:
    """U H U^dag for U = exp(-i*theta*P_axis(qubit)/2), ``axis`` one of X, Y, Z."""
    return apply_ansatz(h, layout_from_gates(h.n, [Gate("R" + axis, (qubit,), 0)]), [theta])


def conjugate_cz(h: Hamiltonian, q1: int, q2: int) -> Hamiltonian:
    """CZ H CZ on qubits (q1, q2); a signed permutation of Pauli strings."""
    return apply_ansatz(h, layout_from_gates(h.n, [Gate("CZ", (q1, q2))]), [])


def apply_ansatz(h: Hamiltonian, layout: AnsatzLayout, theta) -> Hamiltonian:
    """U(theta) H U(theta)^dag with gates applied in circuit order."""
    theta = as_parameter_vector(theta, layout.parameter_count)
    return CompiledAnsatz(h, layout).hamiltonians(theta[None])[0]


def apply_ansatz_inverse(h: Hamiltonian, layout: AnsatzLayout, theta) -> Hamiltonian:
    """U(theta)^dag H U(theta): reversed gate order, negated angles."""
    theta = as_parameter_vector(theta, layout.parameter_count)
    reverse = AnsatzLayout(layout.n, layout.depth, layout.gates[::-1], layout.parameter_count)
    return CompiledAnsatz(h, reverse).hamiltonians(-theta[None])[0]

