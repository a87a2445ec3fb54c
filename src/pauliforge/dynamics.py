"""Dense time-evolution tools: exact propagators, randomized
(qDrift-style) sampling and its error runs, and the qDrift gate-count
model.

qDrift draws gate indices i.i.d. with probability |h_j| / gamma
(gamma = sum |h_j|) and applies fixed-strength rotations
exp(-i*tau*sign(h_j)*P_j) with tau = t*gamma/G; the sign of a negative
coefficient is folded into the rotation direction.  Errors are measured
as the mean 2-norm state deviation over a fixed panel of Haar-random
test states, averaged over independently sampled plans.

Plans are applied matrix-free by :func:`qdrift_apply`, the one step
kernel: a Pauli string sends basis row i to one source row with a phase
in {+-1, +-i}, so a step is a row gather and one multiply, and no term
matrix is built.  Each kernel call folds the rotation into the phases
once, rot_j * phase_j per term and row, as a table as wide as the panel;
a table that would hold more than ``_CHUNK_AMPLITUDES`` entries is built
one column wide and broadcast.
What an error run needs apart from G (the seeded Haar panel, its exact
outputs, the cdf and the row tables) is one setup per (h, t, seed): the
``qdrift`` command builds it once and passes it to each run of its sweep
over G, and a run given none builds its own.  A run draws each trial's
plan from its own seed stream as below, searching the cdf table
(Generator.choice's own, so the draws are choice's bit for bit), then
applies the plans of a chunk of trials together, one gather per step;
chunks hold at most ``_CHUNK_AMPLITUDES`` output amplitudes whatever
``trials`` is, and the state errors are reduced a chunk at a time.  A
chunk's plans are drawn and applied a segment of gates at a time, so the
table of draws holds at most ``_CHUNK_DRAWS`` entries whatever G is; a
stream's uniforms drawn in pieces are those of one call.

The channel run forms only the lower triangle of each trial-averaged
density matrix, the part eigvalsh (UPLO="L") reads; the upper triangle
is never formed.  It cuts the rows into blocks of
``_CHUNK_AMPLITUDES // (20 * 2^n)`` rows (all of them at n <= 4); each
block's products, a batch of trials at a time, stay within
``max(_CHUNK_AMPLITUDES, 20 * 2^n)`` entries per einsum and add up in
trial order in a contiguous sum of the block's own.  The eigenvalues of a
group of panel columns are taken per eigvalsh call.  The outputs and
their reductions are those of one dense product per trial bit for bit,
with or without a shared setup.

Seed streams (the reproducibility contract, unchanged by the shared
setup): trial k of ``qdrift_error`` uses the k-th child of
``SeedSequence(seed).spawn(trials)``, and of ``qdrift_channel_error`` that
of ``SeedSequence((seed, G)).spawn(trials)``.
No NumPy SeedSequence or bit generator is built per trial: NumPy builds
the root, and so refuses a seed it would refuse; the SeedSequence hash of
a chunk's children then runs as uint32 array arithmetic, Python ints
turn each child's words into the PCG64 state that ``PCG64(child)``
starts in, and one Generator per run is put in each state in turn.  The
root's hashed words are kept on the setup, so the state run, whose root
is ``SeedSequence(seed)`` for every G, hashes them once per command.
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
from .paulis import _checked_int

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

# NumPy's SeedSequence hash (numpy/random/bit_generator.pyx) with its
# default pool of 4 words, and PCG64's 128-bit LCG multiplier.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def exact_evolution(h: Hamiltonian, t: float) -> np.ndarray:
    """exp(-i H t) via dense eigendecomposition."""
    m = hamiltonian_matrix(h)  # refuses n past DENSE_MAX_QUBITS before allocating
    evals, evecs = np.linalg.eigh(m)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


class _QDrift:
    """The one qDrift sampler for a Hamiltonian: p_j over
    terms_by_index(), and plans drawn through one Generator from the
    caller's stream states.  Nothing here depends on the gate count, so
    one instance serves every G.  Each term is a source-row table and a
    phase table (built on first use only), so one step of every trial is
    one row gather and one multiply in :func:`qdrift_apply`."""

    def __init__(self, h: Hamiltonian):
        if len(h) == 0:
            raise ValueError("cannot sample the zero Hamiltonian")
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

    def tau(self, t: float, gate_count: int) -> float:
        gate_count = _checked_int(gate_count, "gate count", 1)
        tau = float(t) * self.gamma / gate_count  # a float overflows to inf, unwarned
        if not np.isfinite(tau):
            raise ValueError(f"qdrift step t*gamma/G = {tau} is not finite for t = {t}")
        return tau

    def draw(self, rng: np.random.Generator, states: list[dict], size: int,
             done: int = 0) -> np.ndarray:
        """(len(states), size) term indices; row r is what
        rng.choice(terms, size=size, p=p) would return with rng's bit
        generator put in states[r] and advanced past ``done`` uniforms, so
        a plan drawn a segment at a time is the plan drawn whole.  One
        generator serves every row.  A ``size`` that is a bool or not an
        integer is refused before any draw; an empty segment is drawn."""
        uniforms = np.empty((len(states), _checked_int(size, "gate count", 0)))
        bit_generator = rng.bit_generator
        for state, row in zip(states, uniforms):
            bit_generator.state = state
            if done:
                bit_generator.advance(done)
            rng.random(out=row)
        return self._cdf.searchsorted(uniforms, side="right")


def _check_run_size(h: Hamiltonian) -> None:
    if h.n > QDRIFT_MAX_QUBITS:
        raise ValueError(f"qdrift error runs capped at {QDRIFT_MAX_QUBITS} qubits, got {h.n}")


def qdrift_apply(q: _QDrift, tau: float, indices: np.ndarray, out: np.ndarray) -> None:
    """Apply row r of ``indices`` (trials x steps, q's term indices) as
    rotations of step ``tau`` to the (2^n, k) panel out[r], in place;
    ``out`` is a C-contiguous complex (trials, 2^n, k) stack.  This is
    the error runs' one step kernel, and it checks nothing.

    Step by step this is the dense update c*out - rot_j*(P_j @ out).
    rot_j = i*sign(h_j)*sin(tau) and the phases are +-1 or +-i, so
    their product coef_j is exact, and coef_j * psi rounds as
    rot_j * (phase_j * psi) does: the outputs are the dense path's
    bit for bit.  The coef table is (terms, 2^n, k), so each step's
    multiply runs over contiguous operands, unless that would exceed
    _CHUNK_AMPLITUDES entries; then it is (terms, 2^n, 1) and
    broadcasts.  The source-row indices of a block of steps, at most
    _CHUNK_AMPLITUDES of them, are gathered by one take; a step is
    then one gather of the moved rows, one multiply by the gathered
    coefficients, c*out and the subtract.
    """
    c, s = np.cos(tau), np.sin(tau)
    rot = np.array([1j * sign * s for sign in q._signs])
    src, phase = q._rows
    trials, dim, k = out.shape
    width = k if rot.size * dim * k <= _CHUNK_AMPLITUDES else 1
    coef = np.repeat((rot[:, None] * phase)[:, :, None], width, axis=2)
    flat = out.reshape(trials * dim, k)
    first_row = np.arange(0, trials * dim, dim)[:, None]
    block = max(1, _CHUNK_AMPLITUDES // (trials * dim))
    for b0 in range(0, indices.shape[1], block):
        steps = indices[:, b0:b0 + block].T
        rows = src.take(steps, axis=0)  # (steps, trials, 2^n)
        rows += first_row
        for js, moved_rows in zip(steps, rows):
            moved = flat.take(moved_rows, axis=0)
            np.multiply(coef.take(js, axis=0), moved, out=moved)
            np.multiply(c, out, out=out)
            np.subtract(out, moved, out=out)


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix of a uint32 word, or of a uint32 array word
    by word: the hashed value and the next hash constant."""
    following = const * mult & _MASK32
    value = (value ^ const) * following & _MASK32
    return value ^ value >> 16, following


def _mix(x, y):
    x = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return x ^ x >> 16


def _entropy_words(entropy) -> tuple[int, ...]:
    """The uint32 words SeedSequence(entropy) hashes.  NumPy builds the
    root first, so a seed it refuses is refused as it refuses it, before
    any word is taken."""

    def words(x) -> list[int]:
        if isinstance(x, np.ndarray) and x.dtype == np.uint32:
            return x.tolist()
        if isinstance(x, str):  # NumPy takes text inside a sequence: hex or decimal
            x = int(x, 16 if x.startswith("0x") else 10)
        if isinstance(x, (int, np.integer)):
            x = int(x)
            out = [x & _MASK32]
            while x := x >> 32:
                out.append(x & _MASK32)
            return out
        return [w for v in x for w in words(v)]

    return tuple(words(np.random.SeedSequence(entropy).entropy))


class _SpawnRoot:
    """The children of SeedSequence(entropy), seeded in bulk.

    Child i of ``spawn`` hashes the root's entropy, padded to the pool,
    then its spawn key (i,).  Everything before the key is the same for
    every child, so it is hashed once here; the key words, and the
    generate_state(4, uint64) that PCG64 seeds from, are hashed for a
    range of children at once as uint32 arrays."""

    def __init__(self, words: tuple[int, ...]):
        words = words + (0,) * (_POOL_SIZE - len(words))
        const, pool = _INIT_A, []
        for word in words[:_POOL_SIZE]:
            value, const = _hashmix(word, const)
            pool.append(value)
        for src in range(_POOL_SIZE):
            for dst in range(_POOL_SIZE):
                if src != dst:
                    value, const = _hashmix(pool[src], const)
                    pool[dst] = _mix(pool[dst], value)
        for word in words[_POOL_SIZE:]:
            for dst in range(_POOL_SIZE):
                value, const = _hashmix(word, const)
                pool[dst] = _mix(pool[dst], value)
        self._pool, self._const = pool, const

    def states(self, start: int, count: int) -> list[dict]:
        """The PCG64 states that PCG64(child) starts in, for children
        start, ..., start + count - 1.  A key below 2**32 is one word,
        one below 2**64 two; children past that are refused."""
        stop = start + count
        if not 0 <= start <= stop <= 1 << 64:
            raise ValueError(f"children {start}..{stop - 1} are not within 0..2**64 - 1")
        split = min(max(start, 1 << 32), stop)
        return self._states(start, split, 1) + self._states(split, stop, 2)

    def _states(self, start: int, stop: int, key_words: int) -> list[dict]:
        if start >= stop:
            return []
        keys = start + np.arange(stop - start, dtype=np.uint64)
        pool = [np.full(len(keys), value, dtype=np.uint32) for value in self._pool]
        const = self._const
        for shift in range(0, 32 * key_words, 32):
            word = (keys >> shift & _MASK32).astype(np.uint32)
            for dst in range(_POOL_SIZE):
                value, const = _hashmix(word, const)
                pool[dst] = _mix(pool[dst], value)
        const, state = _INIT_B, []
        for i in range(2 * 4):  # generate_state(4, uint64): 8 words from the pool in turn
            value, const = _hashmix(pool[i % _POOL_SIZE], const, _MULT_B)
            state.append(value)
        # little-endian word pairs, as generate_state views them
        table = np.stack(state, axis=1).astype("<u4").view("<u8").tolist()
        out = []
        for s_hi, s_lo, i_hi, i_lo in table:
            # pcg64_set_seed: inc = 2*initseq + 1, then two LCG steps from 0
            # with the seed added in between
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            s = ((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128
            out.append({"bit_generator": "PCG64", "state": {"state": s, "inc": inc},
                        "has_uint32": 0, "uinteger": 0})
        return out


class _RunSetup:
    """What the error runs of one (h, t, seed) share whatever G is: the
    sampler, the seeded Haar panel and the panel's exact outputs, and the
    hashed seed roots.  A sweep over G builds one and passes it to every
    run, so the panel, the propagator's eigendecomposition, the row
    tables and the state run's root (SeedSequence(seed) for every G) are
    built once."""

    def __init__(self, h: Hamiltonian, t: float, seed: int):
        _check_run_size(h)
        self.key = (h, t, seed)
        self.q = _QDrift(h)
        self.q.tau(t, 1)  # a step is finite for every G iff t*gamma is
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0x9E3779B9)))
        self.panel = np.column_stack([haar_state(1 << h.n, rng) for _ in range(_PANEL_SIZE)])
        self.exact = exact_evolution(h, t) @ self.panel
        self._roots: dict[tuple[int, ...], _SpawnRoot] = {}

    def root(self, words: tuple[int, ...]) -> _SpawnRoot:
        if words not in self._roots:
            self._roots[words] = _SpawnRoot(words)
        return self._roots[words]


def _error_runs(h: Hamiltonian, t: float, gate_count: int, trials: int,
                seed: int, entropy, setup: _RunSetup | None):
    """Exact outputs on the seeded Haar panel, and a lazy stream of the
    (b, 2^n, k) panel outputs of ``trials`` plans, one per child of
    SeedSequence(entropy), in trial order.  Plans are drawn and applied in
    chunks of at most _CHUNK_AMPLITUDES output amplitudes, and a chunk's
    plans a segment of at most _CHUNK_DRAWS draws at a time, and each
    chunk's children are seeded as the chunk starts, so the stream's
    memory grows with neither ``trials`` nor ``gate_count``;
    :func:`qdrift_error` then keeps one float per trial, its error.
    ``setup`` is built here when absent, and refused when it was built for
    another (h, t, seed)."""
    trials = _checked_int(trials, "trials", 2)
    gate_count = _checked_int(gate_count, "gate count", 1)
    words = _entropy_words(entropy)
    _check_run_size(h)
    if setup is None:
        setup = _RunSetup(h, t, seed)
    elif setup.key != (h, t, seed):
        raise ValueError("the run setup was built for another (h, t, seed)")
    q, panel, root = setup.q, setup.panel, setup.root(words)
    tau = q.tau(t, gate_count)
    chunk = max(1, _CHUNK_AMPLITUDES // panel.size)
    steps = max(1, _CHUNK_DRAWS // chunk)
    rng = np.random.Generator(np.random.PCG64(0))  # its state is set per trial before each draw

    def outputs(first, size):
        states = root.states(first, size)
        out = np.repeat(panel[None], size, axis=0)
        for done in range(0, gate_count, steps):
            # a module global, looked up per call: perfbench/tracing.py wraps it by name
            qdrift_apply(q, tau, q.draw(rng, states, min(steps, gate_count - done), done), out)
        return out

    return setup.exact, (outputs(i, min(chunk, trials - i)) for i in range(0, trials, chunk))


def qdrift_error(h: Hamiltonian, t: float, gate_count: int,
                 trials: int = 100, seed: int = 0, *, setup: _RunSetup | None = None):
    """Mean state error of sampled plans against the exact propagator.

    Averages || V_plan |psi> - exp(-iHt) |psi> ||_2 over a fixed panel of
    20 seeded Haar-random states and over ``trials`` independent plans;
    returns (mean, standard error over plans).
    """
    exact, chunks = _error_runs(h, t, gate_count, trials, seed, seed, setup)
    errors = np.concatenate([np.linalg.norm(outs - exact, axis=1).mean(axis=1)
                             for outs in chunks])
    return float(errors.mean()), float(errors.std(ddof=1) / np.sqrt(errors.size))


def qdrift_channel_error(h: Hamiltonian, t: float, gate_count: int,
                         trials: int = 200, seed: int = 0, *,
                         setup: _RunSetup | None = None) -> float:
    """Error of the mean state: trace distance of the trial-averaged
    output to the exact output, averaged over the test panel.

    Complements :func:`qdrift_error`.  Individual sampled plans deviate
    from the exact propagator diffusively (state error ~ G^-1/2, the
    plan-to-plan fluctuation), while averaging the output density matrix
    over plans cancels the first-order fluctuations and leaves the
    ~ (gamma*t)^2/G channel bias that sets the gate-count model.
    """
    exact, chunks = _error_runs(h, t, gate_count, trials, seed, (seed, gate_count), setup)
    dim, k = exact.shape
    # eigvalsh (UPLO="L") reads the lower triangle of rho and no other
    # entry, so only that is formed: row block [lo, hi) of every panel
    # column adds up, trial by trial, in a contiguous (k, hi - lo, hi) sum
    rows = max(1, min(dim, _CHUNK_AMPLITUDES // (k * dim)))
    blocks = [(lo, min(lo + rows, dim)) for lo in range(0, dim, rows)]
    sums = [np.zeros((k, hi - lo, hi), dtype=complex) for lo, hi in blocks]
    batch = max(1, _CHUNK_AMPLITUDES // (k * rows * dim))  # trials per einsum
    for outs in chunks:
        for b0 in range(0, len(outs), batch):
            part = np.ascontiguousarray(outs[b0:b0 + batch].transpose(0, 2, 1))  # (b, k, 2^n)
            part_conj = part.conj()
            for (lo, hi), total in zip(blocks, sums):
                products = np.einsum("bki,bkj->bkij", part[:, :, lo:hi], part_conj[:, :, :hi])
                for product in products:
                    total += product
            del products, product  # a view would keep the batch alive into the next
    group = max(1, _CHUNK_AMPLITUDES // (dim * dim))  # panel columns per eigvalsh
    dists = []
    for c in range(0, k, group):
        rho = np.zeros((min(group, k - c), dim, dim), dtype=complex)
        for (lo, hi), total in zip(blocks, sums):
            rho[:, lo:hi, :hi] = total[c:c + group]
        rho /= trials
        for r, e in zip(rho, exact.T[c:c + group]):
            r -= np.outer(e, e.conj())  # as np.outer rounds; an einsum rounds otherwise
        dists.append(0.5 * np.abs(np.linalg.eigvalsh(rho)).sum(axis=1))
    return float(np.mean(np.concatenate(dists)))


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
