"""Independent oracles used across the test suite.

The dense ones are built from first principles (kron products and
explicit cos/sin gate matrices); the library itself acts with Pauli row
tables, so these are its only Kronecker products.  The sparse reference
propagation rotates one key at a time through the public ``commutes``
and ``pauli_product`` and merges terms gate by gate with np.unique.
Neither shares code with the compiled engine it checks.  The qDrift
reference is the sampling code as first written, one copy per function,
and the exact qDrift channel a dense superoperator power;
the sorted-insertion reference calls the public commutation predicate
once per pair, the grouped-norm and grouping-document references work
on collection objects, the serializer reference is the value formatter
as one isinstance chain, and the parser reference reads the pauli-sum
text one line at a time.  The restart reference at the end is
the optimizer loop as it ran one restart at a time, before restarts ran
in lockstep.
"""

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np
from hypothesis import strategies as st

from pauliforge.ansatz import CompiledAnsatz, Gate, hardware_efficient_layout, layout_from_gates
from pauliforge.grouping import COMMUTATION_KINDS, GroupingResult
from pauliforge.hamiltonian import Hamiltonian, _terms_by_magnitude
from pauliforge.model_io import PauliSumParseError
from pauliforge.paulis import (
    MAX_QUBITS,
    LabelError,
    PauliString,
    commutes,
    digits_from_keys,
    digits_from_labels,
    keys_from_digits,
    labels_from_digits,
    pauli_product,
    qubit_wise_commutes,
)
from pauliforge.dense import haar_state
from pauliforge.dynamics import QDRIFT_MAX_QUBITS, exact_evolution
from pauliforge.optimize import (
    _ADAM_BETA1,
    _ADAM_BETA2,
    _ADAM_EPS,
    _STALL_PATIENCE,
    _STALL_TOL,
    _forward_cost,
    _value_and_grad,
)
from pauliforge.verification import Collection, collections_of, grouping_from_collections

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def label_matrix(label):
    out = np.array([[1.0 + 0.0j]])
    for ch in label:
        out = np.kron(out, PAULIS[ch])
    return out


def dense_hamiltonian(h):
    """One Kronecker-product matrix per term, summed in term order: the
    reference dense.hamiltonian_matrix reproduces bit for bit, signed
    zeros included."""
    out = np.zeros((2**h.n, 2**h.n), dtype=complex)
    for p, c in h:
        out += c * label_matrix(p.label)
    return out


def dense_to_terms(m, n, tol=1e-12):
    """Extract Pauli coefficients of a matrix via tr[M P]/2^n."""
    terms = {}
    for i in range(4**n):
        p = PauliString.from_index(i, n)
        c = np.trace(m @ label_matrix(p.label)) / 2**n
        if abs(c) > tol:
            terms[p] = c
    return terms


def rotation_1q(axis, theta):
    a = PAULIS[axis]
    return np.cos(theta / 2) * I2 - 1j * np.sin(theta / 2) * a


def embed_1q(m, qubit, n):
    out = np.array([[1.0 + 0.0j]])
    for q in range(n):
        out = np.kron(out, m if q == qubit else I2)
    return out


def cz_matrix(q1, q2, n):
    dim = 2**n
    diag = np.ones(dim, dtype=complex)
    for i in range(dim):
        b1 = (i >> (n - 1 - q1)) & 1
        b2 = (i >> (n - 1 - q2)) & 1
        if b1 and b2:
            diag[i] = -1.0
    return np.diag(diag)


def axis_label_reference(gate, n):
    """The n-qubit label of a rotation's axis: letter k of ``R<letters>``
    on qubit ``gate.qubits[k]``."""
    label = ["I"] * n
    for q, letter in zip(gate.qubits, gate.kind[1:]):
        label[q] = letter
    return "".join(label)


def gate_unitary(gate, theta, n):
    if gate.kind == "CZ":
        return cz_matrix(gate.qubits[0], gate.qubits[1], n)
    t = theta[gate.param]
    a = label_matrix(axis_label_reference(gate, n))
    return np.cos(t / 2) * np.eye(2**n) - 1j * np.sin(t / 2) * a


def ansatz_unitary_oracle(layout, theta):
    """Dense U(theta) built gate by gate, independent of pauliforge.dense."""
    u = np.eye(2**layout.n, dtype=complex)
    for g in layout.gates:
        u = gate_unitary(g, theta, layout.n) @ u
    return u


def conjugate_dense(h, layout, theta):
    u = ansatz_unitary_oracle(layout, theta)
    return u @ dense_hamiltonian(h) @ u.conj().T


def haar_like_state(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_hamiltonian(n, n_terms, rng, allow_identity=True):
    """Random Pauli sum with distinct strings and O(1) coefficients."""
    lo = 0 if allow_identity else 1
    indices = rng.choice(np.arange(lo, 4**n), size=min(n_terms, 4**n - lo), replace=False)
    terms = {}
    for i in indices:
        terms[PauliString.from_index(int(i), n)] = float(rng.uniform(-2.0, 2.0))
        if abs(terms[PauliString.from_index(int(i), n)]) < 1e-3:
            terms[PauliString.from_index(int(i), n)] = 1.0
    return Hamiltonian(n, terms)


@st.composite
def pauli_sums(draw):
    """A sum on 1-32 qubits whose |coefficients| often tie.

    Strings either act on a few qubits shared by the whole sum, so that
    many pairs are compatible, or on any of the n qubits.
    """
    n = draw(st.one_of(st.integers(1, 32), st.just(32)))
    full = (1 << n) - 1
    window = 0
    for q in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4)):
        window |= 1 << q
    masks = st.one_of(st.integers(0, full).map(lambda m: m & window), st.integers(0, full))
    size = draw(st.integers(1, min(40, 4**n)))
    strings = draw(st.lists(st.tuples(masks, masks), min_size=size, max_size=size, unique=True))
    magnitudes = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(1e-3, 4.0))
    values = draw(st.lists(st.builds(lambda m, sign: sign * m, magnitudes,
                                     st.sampled_from([1.0, -1.0])),
                           min_size=len(strings), max_size=len(strings)))
    return Hamiltonian(n, {PauliString(n, x, z): v for (x, z), v in zip(strings, values)})


ROTATION_SETS = [("RX",), ("RY",), ("RZ",), ("RX", "RZ"), ("RY", "RZ"), ("RX", "RY"),
                 ("RX", "RY", "RZ")]
SPECIAL_ANGLES = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2, -np.pi / 2, 2 * np.pi]


@st.composite
def hardware_efficient_layouts(draw, max_qubits=4):
    n = draw(st.integers(1, max_qubits))
    return hardware_efficient_layout(
        n, draw(st.integers(1, 2)),
        rotations=draw(st.sampled_from(ROTATION_SETS)),
        entangler=draw(st.sampled_from(["chain", "all"])),
    )


@st.composite
def pauli_axis_layouts(draw, max_qubits=4):
    """A hardware-efficient layout with one to four rotations about Pauli
    axes of weight 1 to 3 inserted at random positions, on new slots."""
    layout = draw(hardware_efficient_layouts(max_qubits))
    gates = list(layout.gates)
    first = layout.parameter_count
    for slot in range(first, first + draw(st.integers(1, 4))):
        qubits = draw(st.lists(st.integers(0, layout.n - 1), min_size=1,
                               max_size=min(3, layout.n), unique=True))
        letters = draw(st.text("XYZ", min_size=len(qubits), max_size=len(qubits)))
        gates.insert(draw(st.integers(0, len(gates))), Gate("R" + letters, tuple(qubits), slot))
    return layout_from_gates(layout.n, gates, layout.depth)


@st.composite
def circuits(draw, rows=None, max_qubits=4, layouts=hardware_efficient_layouts):
    """A random Hamiltonian, layout and angle vector, or, given ``rows``,
    a (b, P) stack of 1 to ``rows`` angle vectors."""
    layout = draw(layouts(max_qubits))
    n = layout.n
    indices = draw(st.lists(st.integers(0, 4**n - 1), min_size=1, max_size=12, unique=True))
    # Magnitudes stay far above the range where the l2 norm underflows;
    # the two tiny ones sit below and above PRUNE_TOL.
    magnitudes = st.one_of(st.floats(1e-3, 2.0), st.sampled_from([1.0, 1e-13, 3e-12]))
    values = draw(st.lists(st.builds(lambda m, sign: sign * m, magnitudes,
                                     st.sampled_from([1.0, -1.0])),
                           min_size=len(indices), max_size=len(indices)))
    terms = {PauliString.from_index(i, n): v for i, v in zip(indices, values)}
    angles = st.one_of(st.sampled_from(SPECIAL_ANGLES),
                       st.floats(-2 * np.pi, 2 * np.pi, allow_nan=False, allow_subnormal=False))
    vectors = st.lists(angles, min_size=layout.parameter_count, max_size=layout.parameter_count)
    if rows is None:
        theta = np.array(draw(vectors), dtype=np.float64)
    else:
        theta = np.array(draw(st.lists(vectors, min_size=1, max_size=rows)), dtype=np.float64)
        theta = theta.reshape(-1, layout.parameter_count)
    return Hamiltonian(n, terms), layout, theta


def random_layout(n, rng, max_depth=2):
    """Random hardware-efficient layout variant."""
    depth = int(rng.integers(1, max_depth + 1))
    rotations = [("RX", "RZ"), ("RY", "RZ"), ("RX", "RY"), ("RX",), ("RY",)][
        int(rng.integers(0, 5))
    ]
    entangler = "chain" if n > 1 else "chain"
    return hardware_efficient_layout(n, depth, rotations=rotations, entangler=entangler)


def random_theta(layout, rng):
    return rng.uniform(0.0, 2 * np.pi, layout.parameter_count)


# -- reference sparse propagation ---------------------------------------
#
# Gate-by-gate propagation with a sort-and-merge after every gate: each
# gate concatenates its raw output terms and merges duplicates with
# np.unique, pruning below PRUNE_TOL.  The gradient carries the cotangent
# back through the full adjoint (no pruning, no restriction) and dots it
# with each rotation's derivative over the intersected keys.  Every output
# entry is a sum of at most two products, so the compiled engine has to
# match these numbers bit for bit.

REF_PRUNE_TOL = 1e-12


def merge_reference(keys, coeffs, tol):
    """Sort by key, sum duplicates, drop magnitudes below tol (0: exact zeros)."""
    if keys.size == 0:
        return keys.astype(np.uint64), coeffs.astype(np.float64)
    uniq, inverse = np.unique(keys, return_inverse=True)
    summed = np.bincount(inverse, weights=coeffs, minlength=uniq.size)
    keep = np.abs(summed) >= tol if tol > 0.0 else summed != 0.0
    return uniq[keep], summed[keep]


def rotation_raw_reference(keys, coeffs, n, gate, theta, derivative=False):
    """Unmerged output terms of a rotation about any Pauli axis A, or of
    its theta-derivative, one key at a time through the public algebra:
    a term B anticommuting with A gives cos*B and sin*s*C, where
    -i*(A*B) = s*C."""
    axis = PauliString.from_label(axis_label_reference(gate, n))
    c, s = np.cos(theta), np.sin(theta)
    out_keys, out_coeffs = [], []
    for key, coeff in zip(keys.tolist(), coeffs.tolist()):
        b = PauliString.from_key(key, n)
        if commutes(axis, b):
            if not derivative:
                out_keys.append(key)
                out_coeffs.append(coeff)
            continue
        product = pauli_product(axis, b)
        sign = (-1j * product.phase).real
        out_keys += [key, product.string.key()]
        if derivative:
            out_coeffs += [-s * coeff, c * sign * coeff]
        else:
            out_coeffs += [c * coeff, s * sign * coeff]
    return np.array(out_keys, dtype=np.uint64), np.array(out_coeffs, dtype=np.float64)


def cz_raw_reference(keys, coeffs, n, q1, q2):
    one = np.uint64(1)
    x1 = (keys >> np.uint64(n + q1)) & one
    z1 = (keys >> np.uint64(q1)) & one
    x2 = (keys >> np.uint64(n + q2)) & one
    z2 = (keys >> np.uint64(q2)) & one
    out_keys = keys ^ ((x2 << np.uint64(q1)) ^ (x1 << np.uint64(q2)))
    neg = (x1 & x2 & (z1 ^ z2)) == one
    return out_keys, np.where(neg, -coeffs, coeffs)


def gate_reference(keys, coeffs, n, gate, theta_value, tol=REF_PRUNE_TOL):
    if gate.kind == "CZ":
        raw = cz_raw_reference(keys, coeffs, n, *gate.qubits)
    else:
        raw = rotation_raw_reference(keys, coeffs, n, gate, theta_value)
    return merge_reference(raw[0], raw[1], tol)


def propagate_reference(h, layout, theta, inverse=False):
    """(keys, coeffs) of U H U^dag, or of U^dag H U with ``inverse``."""
    keys, coeffs = np.array(h.keys), np.array(h.coeffs)
    gates = reversed(layout.gates) if inverse else layout.gates
    for g in gates:
        t = None if g.param is None else float(theta[g.param])
        if inverse and t is not None:
            t = -t
        keys, coeffs = gate_reference(keys, coeffs, h.n, g, t)
    return keys, coeffs


def cost_reference(coeffs, lam, kind):
    if kind == "l1":
        return float(np.abs(coeffs).sum() / lam)
    return float(np.sum(coeffs**4) / lam**4)


def sparse_dot_reference(k1, v1, k2, v2):
    _, i1, i2 = np.intersect1d(k1, k2, assume_unique=True, return_indices=True)
    return float(np.dot(v1[i1], v2[i2]))


def value_and_grad_reference(h, layout, theta, kind):
    """Cost and analytic angle gradient through the full adjoint pass."""
    lam = float(np.sqrt(np.dot(h.coeffs, h.coeffs)))
    n, gates = h.n, layout.gates
    states = [(np.array(h.keys), np.array(h.coeffs))]
    for g in gates:
        t = None if g.param is None else float(theta[g.param])
        states.append(gate_reference(*states[-1], n, g, t))
    wk, wc = states[-1]
    value = cost_reference(wc, lam, kind)
    grad = np.zeros(layout.parameter_count)
    gk = wk
    gc = np.sign(wc) / lam if kind == "l1" else 4.0 * wc**3 / lam**4
    for j in range(len(gates) - 1, -1, -1):
        g = gates[j]
        if g.param is None:
            gk, gc = gate_reference(gk, gc, n, g, None, tol=0.0)
            continue
        t = float(theta[g.param])
        dk, dc = rotation_raw_reference(*states[j], n, g, t, derivative=True)
        dk, dc = merge_reference(dk, dc, 0.0)
        grad[g.param] = sparse_dot_reference(gk, gc, dk, dc)
        gk, gc = gate_reference(gk, gc, n, g, -t, tol=0.0)
    return value, grad


# -- qDrift reference ----------------------------------------------------
# The sampling, application and error runs as first written: each
# function builds its own distribution and RNG stream, and qdrift_apply
# rebuilds the dense term matrices for every plan.  The library's single
# qDrift path must reproduce them exactly.

_PANEL_SIZE = 20


@dataclass(frozen=True)
class QDriftPlan:
    """One sampled gate sequence; indices refer to terms_by_index() order."""

    gamma: float
    tau: float
    gate_count: int
    indices: np.ndarray
    seed: int


def qdrift_sample_reference(h: Hamiltonian, t: float, gate_count: int, seed: int = 0) -> QDriftPlan:
    """Draw a plan: G i.i.d. indices with p_j = |h_j|/gamma, tau = t*gamma/G."""
    if gate_count < 1:
        raise ValueError(f"gate count must be >= 1, got {gate_count}")
    if len(h) == 0:
        raise ValueError("cannot sample the zero Hamiltonian")
    coeffs = np.array([c for _, c in h.terms_by_index()])
    gamma = float(np.abs(coeffs).sum())
    probs = np.abs(coeffs) / gamma
    rng = np.random.default_rng(seed)
    indices = rng.choice(len(probs), size=gate_count, p=probs)
    return QDriftPlan(gamma=gamma, tau=t * gamma / gate_count,
                      gate_count=gate_count, indices=indices, seed=seed)


def qdrift_apply_reference(h: Hamiltonian, plan: QDriftPlan, states: np.ndarray) -> np.ndarray:
    """Apply the plan's product of Pauli rotations to state columns.

    Each sampled step is exp(-i*tau*sign(h_j)*P_j) = cos(tau) I
    - i*sign(h_j)*sin(tau) P_j, a unitary applied exactly.
    """
    terms = h.terms_by_index()
    mats = [label_matrix(p.label) for p, _ in terms]
    signs = [1.0 if c >= 0 else -1.0 for _, c in terms]
    c, s = np.cos(plan.tau), np.sin(plan.tau)
    out = states.astype(complex)
    for j in plan.indices:
        out = c * out - 1j * signs[j] * s * (mats[j] @ out)
    return out


def qdrift_panel_reference(h: Hamiltonian, seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x9E3779B9)))
    dim = 1 << h.n
    return np.column_stack([haar_state(dim, rng) for _ in range(_PANEL_SIZE)])


def qdrift_error_reference(h: Hamiltonian, t: float, gate_count: int,
                 trials: int = 100, seed: int = 0):
    """Mean state error of sampled plans against the exact propagator.

    Averages || V_plan |psi> - exp(-iHt) |psi> ||_2 over a fixed panel of
    20 seeded Haar-random states and over ``trials`` independent plans;
    returns (mean, standard error over plans).
    """
    if h.n > QDRIFT_MAX_QUBITS:
        raise ValueError(f"qdrift error runs capped at {QDRIFT_MAX_QUBITS} qubits, got {h.n}")
    if trials < 2:
        raise ValueError(f"need >= 2 trials for a standard error, got {trials}")
    panel = qdrift_panel_reference(h, seed)
    exact = exact_evolution(h, t) @ panel
    root = np.random.SeedSequence(seed)
    trial_seqs = root.spawn(trials)

    coeffs = np.array([c for _, c in h.terms_by_index()])
    gamma = float(np.abs(coeffs).sum())
    probs = np.abs(coeffs) / gamma
    errors = np.empty(trials)
    for k, seq in enumerate(trial_seqs):
        rng = np.random.default_rng(seq)
        indices = rng.choice(len(probs), size=gate_count, p=probs)
        plan = QDriftPlan(gamma=gamma, tau=t * gamma / gate_count,
                          gate_count=gate_count, indices=indices, seed=seed)
        approx = qdrift_apply_reference(h, plan, panel)
        errors[k] = float(np.mean(np.linalg.norm(approx - exact, axis=0)))
    return float(errors.mean()), float(errors.std(ddof=1) / np.sqrt(trials))


def qdrift_channel_error_reference(h: Hamiltonian, t: float, gate_count: int,
                         trials: int = 200, seed: int = 0) -> float:
    """Error of the mean state: trace distance of the trial-averaged
    output to the exact output, averaged over the test panel.

    Complements :func:`qdrift_error`.  Individual sampled plans deviate
    from the exact propagator diffusively (state error ~ G^-1/2, the
    plan-to-plan fluctuation), while averaging the output density matrix
    over plans cancels the first-order fluctuations and leaves the
    ~ (gamma*t)^2/G channel bias that sets the gate-count model.
    """
    if h.n > QDRIFT_MAX_QUBITS:
        raise ValueError(f"qdrift error runs capped at {QDRIFT_MAX_QUBITS} qubits, got {h.n}")
    if trials < 2:
        raise ValueError(f"need >= 2 trials, got {trials}")
    panel = qdrift_panel_reference(h, seed)
    exact = exact_evolution(h, t) @ panel
    coeffs = np.array([c for _, c in h.terms_by_index()])
    gamma = float(np.abs(coeffs).sum())
    probs = np.abs(coeffs) / gamma
    dim = 1 << h.n
    rho_acc = np.zeros((panel.shape[1], dim, dim), dtype=complex)
    for seq in np.random.SeedSequence((seed, gate_count)).spawn(trials):
        rng = np.random.default_rng(seq)
        indices = rng.choice(len(probs), size=gate_count, p=probs)
        plan = QDriftPlan(gamma=gamma, tau=t * gamma / gate_count,
                          gate_count=gate_count, indices=indices, seed=seed)
        out = qdrift_apply_reference(h, plan, panel)
        rho_acc += np.einsum("ik,jk->kij", out, out.conj())
    dists = np.empty(panel.shape[1])
    for k in range(panel.shape[1]):
        rho = rho_acc[k] / trials
        sigma = np.outer(exact[:, k], exact[:, k].conj())
        dists[k] = 0.5 * np.abs(np.linalg.eigvalsh(rho - sigma)).sum()
    return float(dists.mean())


# -- exact qDrift channel ------------------------------------------------
# The trial average of qDrift converges to a deterministic channel.  One
# step exp(-i*tau*sign(h_j)*P_j), drawn with p_j = |h_j|/gamma, averages to
#   Phi(rho) = c^2 rho + s^2 sum_j p_j P_j rho P_j - i c s [H/gamma, rho]
# with c = cos(tau), s = sin(tau), since sum_j p_j sign(h_j) P_j = H/gamma.
# On row-major vecs vec(A rho B) = (A kron B^T) vec(rho), so Phi is a
# 4^n x 4^n matrix and G steps are its G-th power.

def qdrift_channel_superoperator(h: Hamiltonian, t: float, gate_count: int) -> np.ndarray:
    """The one-step qDrift channel Phi as a matrix on row-major vecs, n <= 3."""
    if h.n > 3:
        raise ValueError(f"channel oracle capped at 3 qubits, got {h.n}")
    terms = h.terms_by_index()
    gamma = sum(abs(c) for _, c in terms)
    tau = t * gamma / gate_count
    c, s = np.cos(tau), np.sin(tau)
    eye = np.eye(1 << h.n)
    drift = dense_hamiltonian(h) / gamma
    phi = c * c * np.kron(eye, eye) - 1j * c * s * (np.kron(drift, eye) - np.kron(eye, drift.T))
    for p, coeff in terms:
        m = label_matrix(p.label)
        phi += s * s * abs(coeff) / gamma * np.kron(m, m.T)
    return phi


def qdrift_channel_exact_reference(h: Hamiltonian, t: float, gate_count: int,
                                   seed: int = 0):
    """The exact channel error: Phi^G applied to each state of the seeded
    Haar panel, and the mean trace distance of those outputs to the exact
    outputs; returns (that mean, the (k, 2^n, 2^n) channel outputs)."""
    dim = 1 << h.n
    power = np.linalg.matrix_power(qdrift_channel_superoperator(h, t, gate_count), gate_count)
    panel = qdrift_panel_reference(h, seed)
    exact = exact_evolution(h, t) @ panel
    rho = np.stack([(power @ np.outer(v, v.conj()).ravel()).reshape(dim, dim)
                    for v in panel.T])
    dists = [0.5 * np.abs(np.linalg.eigvalsh(r - np.outer(e, e.conj()))).sum()
             for r, e in zip(rho, exact.T)]
    return float(np.mean(dists)), rho


# -- sorted-insertion reference ------------------------------------------
# The greedy loop as first written: a candidate joins the first collection
# whose every member passes the public predicate with it.

def sorted_insertion_reference(h: Hamiltonian, commutation: str = "general") -> GroupingResult:
    if commutation not in COMMUTATION_KINDS:
        raise ValueError(f"commutation must be one of {COMMUTATION_KINDS}")
    if len(h) == 0:
        raise ValueError("cannot group the zero Hamiltonian")
    compatible = commutes if commutation == "general" else qubit_wise_commutes

    groups: list[list[tuple[float, PauliString]]] = []
    for p, c in _terms_by_magnitude(h):
        for members in groups:
            if all(compatible(p, q) for _, q in members):
                members.append((c, p))
                break
        else:
            groups.append([(c, p)])

    collections = tuple(Collection(members=tuple(members)) for members in groups)
    return grouping_from_collections(f"sorted_insertion/{commutation}", collections)


# -- grouped-norm and grouping-document references -----------------------
# The grouped norm as a sum over collection objects, each collection's sum
# of squares added left to right (as ``sum`` adds floats before Python
# 3.12), and the document built from the collection objects, one ``key()``
# per member.

def grouped_norm_reference(g: GroupingResult) -> float:
    total = 0.0
    for col in collections_of(g):
        squares = 0.0
        for c, _ in col.members:
            squares += c * c
        total += math.sqrt(squares)
    return total


def grouping_result_to_dict_reference(g: GroupingResult) -> dict:
    members = [p for col in collections_of(g) for _, p in col.members]
    keys = np.array([p.key() for p in members], dtype=np.uint64)
    labels = iter(labels_from_digits(digits_from_keys(keys, g.n)))
    return {
        "strategy": g.strategy,
        "collection_count": len(collections_of(g)),
        "grouped_norm": grouped_norm_reference(g),
        "collections": [
            [{"label": next(labels), "coefficient": c} for c, _ in col.members]
            for col in collections_of(g)
        ],
    }


# -- serializer reference -----------------------------------------------
# The value formatter as one isinstance chain, before exact-type dispatch
# (a 0-d array formats as its scalar, as NumPy scalars do).

def format_value_reference(obj) -> str:
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"non-finite value {x} cannot be serialized")
        if x == 0.0 and math.copysign(1.0, x) < 0.0:
            return "-0.0"
        return f"{x:.17g}"
    if isinstance(obj, dict):
        items = ",".join(f"{encode_basestring_ascii(str(k))}:{format_value_reference(v)}"
                         for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, np.ndarray) and obj.ndim == 0:
        return format_value_reference(obj.item())
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ",".join(map(format_value_reference, seq)) + "]"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# -- parser reference ---------------------------------------------------
# The pauli-sum parser as it read one line at a time, each line's fields
# and coefficient checked before the next line is read.

def parse_pauli_sum_reference(text: str) -> Hamiltonian:
    linenos: list[int] = []
    labels: list[str] = []
    coeffs: list[float] = []
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
        linenos.append(lineno)
        labels.append(label)
        coeffs.append(coeff)
    if not labels:
        raise PauliSumParseError(1, "no terms found")
    n = len(labels[0])
    if n > MAX_QUBITS:
        raise PauliSumParseError(linenos[0], f"label {labels[0]!r} has length {n}, "
                                             f"above {MAX_QUBITS}")
    try:
        digits = digits_from_labels(labels, n)
    except LabelError as err:
        raise PauliSumParseError(linenos[err.position], str(err)) from None
    return Hamiltonian.from_arrays(n, keys_from_digits(digits), coeffs)


# -- one restart at a time ----------------------------------------------


def run_single_reference(engine: CompiledAnsatz, theta0, config, lam):
    """One gradient run; returns (best-seen theta, cost trace ending with
    that theta's cost)."""
    kind = config.cost_kind
    sign = 1.0 if kind == "l1" else -1.0  # loss = sign * cost is minimized
    theta = theta0.copy()
    trace: list[float] = []
    still = 0
    prev = None
    best_loss = np.inf
    best_theta, best_value = theta, None
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    for it in range(1, config.max_iterations + 1):
        [value], [grad] = _value_and_grad(engine, theta[None], lam, config)
        trace.append(value)
        if sign * value < best_loss:
            best_loss = sign * value
            best_theta, best_value = theta.copy(), value
        if prev is not None:
            still = still + 1 if abs(value - prev) < _STALL_TOL else 0
            if still >= _STALL_PATIENCE:
                break
        prev = value

        direction = sign * grad  # descent direction of the loss
        if config.method == "adam":
            adam_m = _ADAM_BETA1 * adam_m + (1 - _ADAM_BETA1) * direction
            adam_v = _ADAM_BETA2 * adam_v + (1 - _ADAM_BETA2) * direction**2
            mhat = adam_m / (1 - _ADAM_BETA1**it)
            vhat = adam_v / (1 - _ADAM_BETA2**it)
            theta = theta - config.learning_rate * mhat / (np.sqrt(vhat) + _ADAM_EPS)
        else:
            gnorm = np.linalg.norm(direction)
            if gnorm == 0.0:
                break
            step = config.learning_rate
            accepted = False
            for _halving in range(60):
                cand = theta - step * direction
                cand_value = _forward_cost(engine, cand[None], lam, kind)[0]
                if sign * cand_value <= sign * value + 1e-12:
                    theta = cand
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
    trace.append(best_value)
    return best_theta, trace
