"""Dense time-evolution tools: exact propagators, randomized
(qDrift-style) sampling and its error runs, and the qDrift gate-count
model.

qDrift draws gate indices i.i.d. with probability |h_j| / gamma
(gamma = sum |h_j|) and applies fixed-strength rotations
exp(-i*tau*sign(h_j)*P_j) with tau = t*gamma/G; the sign of a negative
coefficient is folded into the rotation direction.  Errors are measured
as the mean 2-norm state deviation over a fixed panel of Haar-random
test states, averaged over independently sampled plans.

Plans are applied matrix-free: a Pauli string sends basis row i to one
source row with a phase in {+-1, +-i}, so a step is a row gather and one
multiply, and no term matrix is built.  Each apply call folds the
rotation into the phases once, rot_j * phase_j per term and row, as a
table as wide as the panel; a table that would hold more than
``_CHUNK_AMPLITUDES`` entries is built one column wide and broadcast.
An error run draws each trial's plan from its own seed stream as below,
searching one cdf table (Generator.choice's own, so the draws are
choice's bit for bit), then applies the plans of a chunk of trials
together, one gather per step; chunks hold at most
``_CHUNK_AMPLITUDES`` output amplitudes whatever ``trials`` is, and the
state errors are reduced a chunk at a time.  A chunk's plans are drawn
and applied a segment of gates at a time, so the table of draws holds
at most ``_CHUNK_DRAWS`` entries whatever G is; a generator's uniforms
drawn in pieces are those of one call.  The outputs and their
reductions, in trial order, are those of one dense product per trial
bit for bit.

Seed streams (the reproducibility contract): ``qdrift_sample`` uses
``default_rng(seed)``; trial k of ``qdrift_error`` uses the k-th child of
``SeedSequence(seed).spawn(trials)``, and of ``qdrift_channel_error`` that
of ``SeedSequence((seed, G)).spawn(trials)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

# pauli_matrix stays bound here: perfbench/tracing.py wraps it by name.
from .dense import _pauli_rows, haar_state, hamiltonian_matrix, pauli_matrix
from .hamiltonian import Hamiltonian

if TYPE_CHECKING:  # the record type, for annotations only
    from .optimize import EngineeredResult

QDRIFT_MAX_QUBITS = 8
_PANEL_SIZE = 20
# Output amplitudes per chunk of trials in an error run: 256 KiB per
# array, whatever the trial count and the qubit count.
_CHUNK_AMPLITUDES = 1 << 14
# Plan entries (trials x gates) drawn at once in an error run: 1 MiB of
# uniforms and 1 MiB of indices, whatever the gate count.
_CHUNK_DRAWS = 1 << 17


def exact_evolution(h: Hamiltonian, t: float) -> np.ndarray:
    """exp(-i H t) via dense eigendecomposition."""
    m = hamiltonian_matrix(h)  # refuses n past DENSE_MAX_QUBITS before allocating
    evals, evecs = np.linalg.eigh(m)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


@dataclass(frozen=True, eq=False)
class QDriftPlan:
    """One sampled gate sequence; indices refer to terms_by_index() order.

    ``indices`` is held as a read-only intp copy, so plans compare and
    hash by value over all fields.
    """

    gamma: float
    tau: float
    gate_count: int
    indices: np.ndarray
    seed: int

    def __post_init__(self):
        indices = np.array(self.indices, dtype=np.intp)
        indices.flags.writeable = False
        object.__setattr__(self, "indices", indices)

    def _fields(self) -> tuple:
        return (self.gamma, self.tau, self.gate_count, self.seed,
                self.indices.shape, self.indices.tobytes())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QDriftPlan):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())


class _QDrift:
    """The one qDrift path for a Hamiltonian and a gate count G: p_j over
    terms_by_index(), plans drawn from the caller's Generators, and plans
    applied matrix-free to a stack of trials.  Each term is a source-row
    table and a phase table (built on first use only), so one step of
    every trial is one row gather and one multiply."""

    def __init__(self, h: Hamiltonian, gate_count: int):
        if gate_count < 1:
            raise ValueError(f"gate count must be >= 1, got {gate_count}")
        if len(h) == 0:
            raise ValueError("cannot sample the zero Hamiltonian")
        self.gate_count = gate_count
        order = np.argsort(h.indices(), kind="stable")  # terms_by_index() order
        self._n, self._keys, coeffs = h.n, h.keys[order], h.coeffs[order]
        weights = np.abs(coeffs)
        self.gamma = float(weights.sum())
        # Generator.choice(p=weights/gamma) builds and searches this table
        self._cdf = (weights / self.gamma).cumsum()
        self._cdf /= self._cdf[-1]
        self._signs = [1.0 if c >= 0 else -1.0 for c in coeffs.tolist()]

    @cached_property
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        return _pauli_rows(self._keys, self._n)

    def tau(self, t: float) -> float:
        tau = float(t) * self.gamma / self.gate_count  # a float overflows to inf, unwarned
        if not np.isfinite(tau):
            raise ValueError(f"qdrift step t*gamma/G = {tau} is not finite for t = {t}")
        return tau

    def draw(self, rngs: list[np.random.Generator], size: int) -> np.ndarray:
        """(len(rngs), size) term indices; row r is what
        rngs[r].choice(terms, size=size, p=p) would return."""
        uniforms = np.stack([rng.random(size) for rng in rngs])
        return self._cdf.searchsorted(uniforms, side="right")

    def sample(self, t: float, rng: np.random.Generator, seed: int) -> QDriftPlan:
        return QDriftPlan(gamma=self.gamma, tau=self.tau(t), gate_count=self.gate_count,
                          indices=self.draw([rng], self.gate_count)[0], seed=seed)

    def apply(self, tau: float, indices: np.ndarray, out: np.ndarray) -> None:
        """Apply row r of ``indices`` (trials x steps) to the (2^n, k)
        panel out[r], in place; ``out`` is a C-contiguous complex
        (trials, 2^n, k) stack.

        Step by step this is the dense update c*out - rot_j*(P_j @ out).
        rot_j = i*sign(h_j)*sin(tau) and the phases are +-1 or +-i, so
        their product coef_j is exact, and coef_j * psi rounds as
        rot_j * (phase_j * psi) does: the outputs are the dense path's
        bit for bit.  The coef table is (terms, 2^n, k), so each step's
        multiply runs over contiguous operands, unless that would exceed
        _CHUNK_AMPLITUDES entries; then it is (terms, 2^n, 1) and
        broadcasts.  A step is one gather of the moved rows, one
        multiply by the gathered coefficients, c*out and the subtract.
        """
        c, s = np.cos(tau), np.sin(tau)
        rot = np.array([1j * sign * s for sign in self._signs])
        src, phase = self._rows
        trials, dim, k = out.shape
        width = k if rot.size * dim * k <= _CHUNK_AMPLITUDES else 1
        coef = np.repeat((rot[:, None] * phase)[:, :, None], width, axis=2)
        flat = out.reshape(trials * dim, k)
        first_row = np.arange(0, trials * dim, dim)[:, None]
        for js in indices.T:
            moved = flat.take(first_row + src.take(js, axis=0), axis=0)
            np.multiply(coef.take(js, axis=0), moved, out=moved)
            np.multiply(c, out, out=out)
            np.subtract(out, moved, out=out)


def qdrift_sample(h: Hamiltonian, t: float, gate_count: int, seed: int = 0) -> QDriftPlan:
    """Draw a plan: G i.i.d. indices with p_j = |h_j|/gamma, tau = t*gamma/G."""
    return _QDrift(h, gate_count).sample(t, np.random.default_rng(seed), seed)


def qdrift_apply(h: Hamiltonian, plan: QDriftPlan, states: np.ndarray) -> np.ndarray:
    """Apply the plan's product of Pauli rotations to a state or to the
    columns of a (2^n, k) panel.

    Each sampled step is exp(-i*tau*sign(h_j)*P_j) = cos(tau) I
    - i*sign(h_j)*sin(tau) P_j, a unitary applied exactly.  A plan drawn
    for another Hamiltonian (a different gamma, or an index past h's
    terms) is rejected, as is one whose indices are not one per gate.
    """
    q = _QDrift(h, plan.gate_count)
    if plan.indices.shape != (plan.gate_count,):
        raise ValueError(f"plan has indices of shape {plan.indices.shape}, "
                         f"expected ({plan.gate_count},) for its gate count")
    if plan.gamma != q.gamma:
        raise ValueError(f"plan was drawn for gamma={plan.gamma}, Hamiltonian has {q.gamma}")
    if np.any((plan.indices < 0) | (plan.indices >= len(h))):
        raise ValueError(f"plan indexes a term outside the Hamiltonian's {len(h)} terms")
    states = np.asarray(states)
    dim = 1 << h.n
    if states.ndim not in (1, 2) or states.shape[0] != dim:
        raise ValueError(f"states must have shape ({dim},) or ({dim}, k), got {states.shape}")
    out = np.array(states.reshape(1, dim, -1), dtype=complex, order="C")
    q.apply(plan.tau, plan.indices[None], out)
    return out.reshape(states.shape)


def _error_runs(h: Hamiltonian, t: float, gate_count: int, trials: int,
                seed: int, root: np.random.SeedSequence):
    """Exact outputs on the seeded Haar panel, and a lazy stream of the
    (b, 2^n, k) panel outputs of ``trials`` plans, one per child of
    ``root``, in trial order.  Plans are drawn and applied in chunks of
    at most _CHUNK_AMPLITUDES output amplitudes, and a chunk's plans a
    segment of at most _CHUNK_DRAWS draws at a time, and each chunk's
    children are spawned as the chunk starts, so the stream's memory grows
    with neither ``trials`` nor ``gate_count``; :func:`qdrift_error` then
    keeps one float per trial, its error."""
    if h.n > QDRIFT_MAX_QUBITS:
        raise ValueError(f"qdrift error runs capped at {QDRIFT_MAX_QUBITS} qubits, got {h.n}")
    if trials < 2:
        raise ValueError(f"need >= 2 trials, got {trials}")
    q = _QDrift(h, gate_count)
    tau = q.tau(t)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x9E3779B9)))
    panel = np.column_stack([haar_state(1 << h.n, rng) for _ in range(_PANEL_SIZE)])
    exact = exact_evolution(h, t) @ panel
    chunk = max(1, _CHUNK_AMPLITUDES // panel.size)
    steps = max(1, _CHUNK_DRAWS // chunk)

    def outputs(size):
        # spawn carries on from the last child, so the children are those
        # of one root.spawn(trials)
        rngs = [np.random.default_rng(s) for s in root.spawn(size)]
        out = np.repeat(panel[None], len(rngs), axis=0)
        for start in range(0, gate_count, steps):
            q.apply(tau, q.draw(rngs, min(steps, gate_count - start)), out)
        return out

    return exact, (outputs(min(chunk, trials - i)) for i in range(0, trials, chunk))


def qdrift_error(h: Hamiltonian, t: float, gate_count: int,
                 trials: int = 100, seed: int = 0):
    """Mean state error of sampled plans against the exact propagator.

    Averages || V_plan |psi> - exp(-iHt) |psi> ||_2 over a fixed panel of
    20 seeded Haar-random states and over ``trials`` independent plans;
    returns (mean, standard error over plans).
    """
    exact, chunks = _error_runs(h, t, gate_count, trials, seed, np.random.SeedSequence(seed))
    errors = np.concatenate([np.linalg.norm(outs - exact, axis=1).mean(axis=1)
                             for outs in chunks])
    return float(errors.mean()), float(errors.std(ddof=1) / np.sqrt(trials))


def qdrift_channel_error(h: Hamiltonian, t: float, gate_count: int,
                         trials: int = 200, seed: int = 0) -> float:
    """Error of the mean state: trace distance of the trial-averaged
    output to the exact output, averaged over the test panel.

    Complements :func:`qdrift_error`.  Individual sampled plans deviate
    from the exact propagator diffusively (state error ~ G^-1/2, the
    plan-to-plan fluctuation), while averaging the output density matrix
    over plans cancels the first-order fluctuations and leaves the
    ~ (gamma*t)^2/G channel bias that sets the gate-count model.
    """
    exact, chunks = _error_runs(h, t, gate_count, trials, seed,
                                np.random.SeedSequence((seed, gate_count)))
    rho = sum(np.einsum("ik,jk->kij", out, out.conj()) for outs in chunks for out in outs) / trials
    dists = [0.5 * np.abs(np.linalg.eigvalsh(r - np.outer(e, e.conj()))).sum()
             for r, e in zip(rho, exact.T)]
    return float(np.mean(dists))


@dataclass(frozen=True)
class QDriftCostModel:
    """Model gate counts (gamma*t)^2/eps for simulating H directly and
    for the engineered H', and the fixed gate count of the circuit that
    sandwiches H'."""

    g_original: float
    g_engineered: float
    ansatz_gate_count: int


def engineered_qdrift_cost(res: EngineeredResult, t: float, epsilon: float) -> QDriftCostModel:
    """Gate-count model of an engineered record: gamma is its original
    and its engineered Pauli norm, and the ansatz gate count that of the
    layout its angles index; nothing is recomputed.  Counts that are not
    finite (a huge t or a tiny epsilon) are refused with a ValueError."""
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    t, epsilon = float(t), float(epsilon)  # Python floats overflow by raising, not warning
    try:
        counts = [(g * t) ** 2 / epsilon for g in (res.original_norm, res.engineered_norm)]
    except OverflowError:
        counts = [math.inf]
    if not all(math.isfinite(g) for g in counts):
        raise ValueError(f"t {t} and epsilon {epsilon} give a gate count that is not finite")
    return QDriftCostModel(*counts, ansatz_gate_count=len(res.layout.gates))
