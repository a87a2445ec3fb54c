"""Cost functions, gradients, and the norm-minimization loop.

Two cost kinds are exposed on the normalized coefficient vector: the l1
norm (minimized; directly proportional to the Pauli norm since the
normalization factor is conjugation-invariant) and the concentration
measure Q = sum of fourth powers (maximized; the quantity a swap-test
circuit can estimate).  Both drive the angles of an ansatz whose
coefficient-space action is a product of planar rotations and signed
permutations, so the analytic gradient follows from the chain rule with
each rotation differentiated in closed form.

:func:`optimize` compiles the layout against the Hamiltonian once
(:class:`~pauliforge.ansatz.CompiledAnsatz`) and every restart,
iteration, line-search step and final conjugation reuses those plans.
:func:`cost_gradient` and the restart loop take their cost and gradient
from one function, which dispatches on ``gradient_mode`` and rejects
non-finite values.  A run stops after ``max_iterations``, after 20
consecutive iterations that move the cost by less than 1e-10, or when
the plain method meets a zero gradient or a failed line search.  The
best restart is kept; when its norm exceeds the original, the identity
circuit (restart -1) is returned instead.

The restarts run in lockstep as the rows of one ``(b, P)`` angle stack
(:func:`_run_restarts`): each iteration is one batched forward and
reverse pass for all active rows, the Adam update is elementwise on the
stack, and the plain method's halving rounds and the central
differences' 2P shifted vectors run as batched forward passes.  A run
that stops leaves the active rows, and every row's values are taken as
on that row alone, so each restart's angles and trace equal its run
alone bit for bit.  A batch's stored states hold at most
``_BATCH_ENTRIES`` entries: shallow circuits batch many restarts, while a
deep one whose supports fill the bound runs one restart at a time.

An analytic gradient is one forward pass that keeps each gate's
coefficients, then one reverse pass of the cost's cotangent through the
transposed plans, restricted to the forward supports: gate j's
derivative lives on the support after gate j, so nothing outside those
supports can reach a gradient entry.  Costs and gradient dot products
are taken over the compacted nonzeros in key order, which makes every
value identical to gate-by-gate sort-and-merge propagation.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .ansatz import AnsatzLayout, CompiledAnsatz, _row_slices, as_parameter_vector
from .hamiltonian import CoefficientVector, Hamiltonian, l2_norm, pauli_norm
from .paulis import PauliString

COST_KINDS = ("l1", "q")
GRADIENT_MODES = ("analytic", "central_difference")
METHODS = ("adam", "plain")

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8

# A run stops once its cost has moved by less than _STALL_TOL on
# _STALL_PATIENCE consecutive iterations.
_STALL_TOL = 1e-10
_STALL_PATIENCE = 20

# Restarts run as rows of one angle stack through the compiled engine.
# A batch's stored states (rows x CompiledAnsatz.entries) hold at most
# this many entries, which bounds the memory batching adds.
_BATCH_ENTRIES = 1 << 17


def cost_q(v: CoefficientVector) -> float:
    """Concentration cost: sum of fourth powers of the normalized entries.

    Lies in (0, 1]; equals 1 exactly on basis vectors.
    """
    return float(sum(e**4 for e in v.entries.values()))


@dataclass
class OptimizerConfig:
    """Knobs for :func:`optimize`.

    cost_kind "l1" minimizes the state l1 norm (the default: classically
    it is directly computable and is the true objective); "q" maximizes
    the concentration cost instead.  method "adam" uses adaptive steps
    with the conventional beta parameters (0.9, 0.999); "plain" is
    steepest ascent/descent with a backtracking halving line search,
    which makes the cost trace monotone up to 1e-12.
    """

    cost_kind: str = "l1"
    max_iterations: int = 200
    restarts: int = 10
    learning_rate: float = 0.1
    gradient_mode: str = "analytic"
    fd_step: float = 1e-5
    seed: int = 0
    method: str = "adam"

    def __post_init__(self):
        for name, allowed in (("cost_kind", COST_KINDS), ("gradient_mode", GRADIENT_MODES),
                              ("method", METHODS)):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        for name, low in (("max_iterations", 1), ("restarts", 1), ("seed", 0)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        for name in ("learning_rate", "fd_step"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


@dataclass
class EngineeredResult:
    """Outcome of one optimization: winning angles and conjugated Hamiltonian.

    cost_trace holds the winning restart's cost per iteration (state l1
    or Q, per cost_kind) with the returned angles' cost appended last;
    the identity fallback (restart_index -1) records a single entry.
    """

    theta_star: np.ndarray
    engineered: Hamiltonian
    original_norm: float
    engineered_norm: float
    cost_trace: list[float] = field(repr=False)
    restart_index: int
    cost_kind: str


# -- cost/gradient engine on raw arrays ---------------------------------


def _batches(engine: CompiledAnsatz, stack: np.ndarray):
    """Yield (row slice, angles) per batch of a (k, P) stack whose stored
    states hold at most ``_BATCH_ENTRIES`` entries (at least one row).  A
    batch of one row comes as its (P,) vector, which skips broadcasting
    a one-row stack."""
    size = max(1, _BATCH_ENTRIES // max(engine.entries, 1))
    for start in range(0, len(stack), size):
        rows = slice(start, start + size)
        angles = stack[rows]
        yield rows, angles[0] if len(angles) == 1 else angles


def _cost_values(x: np.ndarray, lam: float, kind: str) -> np.ndarray:
    """Each row's cost over its compacted nonzeros in key order, which is
    the sum taken on that row alone; shape ``x.shape[:-1]``."""
    nonzero = x != 0.0
    v = x[nonzero]
    terms, scale = (np.abs(v), lam) if kind == "l1" else (v**4, lam**4)
    return np.array([np.sum(terms[k]) / scale
                     for k in _row_slices(nonzero)]).reshape(x.shape[:-1])


def _cost_grad(coeffs: np.ndarray, lam: float, kind: str) -> np.ndarray:
    if kind == "l1":
        return np.sign(coeffs) / lam
    return 4.0 * coeffs**3 / lam**4


def _forward_cost(engine: CompiledAnsatz, theta, lam, kind):
    """The cost at angles of shape (P,), or at each row of a (k, P) stack
    (a (k,) array), the stack run in memory-bounded batches."""
    stack = np.atleast_2d(theta)
    values = np.empty(len(stack))
    for rows, angles in _batches(engine, stack):
        values[rows] = _cost_values(engine.coefficients(angles), lam, kind)
    return values if theta.ndim == 2 else values[0]


def _value_and_grad_analytic(engine: CompiledAnsatz, theta, lam, kind):
    states = list(engine.propagate(theta))
    x = states[-1]
    return _cost_values(x, lam, kind), engine.pullback(theta, states, _cost_grad(x, lam, kind))


def _grad_central(engine: CompiledAnsatz, theta, lam, kind, step):
    """Central differences at each row of a (k, P) stack, all 2P shifted
    angle vectors of every row taken in batched forward passes."""
    k, count = theta.shape
    shifted = np.repeat(theta[:, None, :], 2 * count, axis=1)
    slot = np.arange(count)
    shifted[:, slot, slot] += step
    shifted[:, count + slot, slot] -= step
    costs = _forward_cost(engine, shifted.reshape(k * 2 * count, count), lam, kind)
    costs = costs.reshape(k, 2 * count)
    return (costs[:, :count] - costs[:, count:]) / (2 * step)


def _value_and_grad(engine: CompiledAnsatz, theta, lam, config: OptimizerConfig):
    """The configured cost and its angle gradient, in the configured
    gradient mode, at angles of shape (P,) or at each row of a (k, P)
    stack; all must be finite."""
    kind = config.cost_kind
    stack = np.atleast_2d(theta)
    if config.gradient_mode == "analytic":
        values, grads = np.empty(len(stack)), np.empty(stack.shape)
        for rows, angles in _batches(engine, stack):
            values[rows], grads[rows] = _value_and_grad_analytic(engine, angles, lam, kind)
    else:
        values = _forward_cost(engine, stack, lam, kind)
        grads = _grad_central(engine, stack, lam, kind, config.fd_step)
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(grads))):
        raise ArithmeticError("non-finite cost or gradient")
    return (values, grads) if theta.ndim == 2 else (values[0], grads[0])


def cost_gradient(h: Hamiltonian, layout: AnsatzLayout, theta,
                  config: OptimizerConfig) -> np.ndarray:
    """Gradient of the configured cost with respect to the angles."""
    theta = as_parameter_vector(theta, layout.parameter_count)
    lam = l2_norm(h)
    if lam == 0.0:
        raise ValueError("zero Hamiltonian has no defined cost")
    return _value_and_grad(CompiledAnsatz(h, layout), theta, lam, config)[1]


def _run_restarts(engine: CompiledAnsatz, theta0: np.ndarray, config, lam):
    """Gradient runs from each row of ``theta0`` (b, P), in lockstep;
    returns each row's best-seen angles (b, P) and its cost trace ending
    with those angles' cost.

    Every step is elementwise per row or a batched engine pass whose rows
    equal single-row passes, and a run that stops (stall, or for the
    plain method a zero gradient or a failed line search) leaves the
    active rows, so each row's run equals running it alone bit for bit.
    """
    kind = config.cost_kind
    sign = 1.0 if kind == "l1" else -1.0  # loss = sign * cost is minimized
    theta = theta0.copy()
    best_theta = theta.copy()
    count = len(theta)
    traces: list[list[float]] = [[] for _ in range(count)]
    best_value: list[float | None] = [None] * count
    best_loss = [np.inf] * count
    prev = [0.0] * count
    still = [0] * count
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    active = np.arange(count)
    for it in range(1, config.max_iterations + 1):
        if not active.size:
            break
        values, grads = _value_and_grad(engine, theta[active], lam, config)
        going = np.ones(active.size, dtype=bool)
        for i, (row, value) in enumerate(zip(active.tolist(), values.tolist())):
            traces[row].append(value)
            if sign * value < best_loss[row]:
                best_loss[row] = sign * value
                best_theta[row], best_value[row] = theta[row], value
            if it > 1:
                still[row] = still[row] + 1 if abs(value - prev[row]) < _STALL_TOL else 0
                going[i] = still[row] < _STALL_PATIENCE
            prev[row] = value
        active, values = active[going], values[going]
        direction = sign * grads[going]  # descent direction of the loss

        if config.method == "adam":
            adam_m[active] = _ADAM_BETA1 * adam_m[active] + (1 - _ADAM_BETA1) * direction
            adam_v[active] = _ADAM_BETA2 * adam_v[active] + (1 - _ADAM_BETA2) * direction**2
            mhat = adam_m[active] / (1 - _ADAM_BETA1**it)
            vhat = adam_v[active] / (1 - _ADAM_BETA2**it)
            update = config.learning_rate * mhat / (np.sqrt(vhat) + _ADAM_EPS)
            theta[active] = theta[active] - update
            continue

        moving = np.linalg.norm(direction, axis=1) != 0.0
        searching, direction, values = active[moving], direction[moving], values[moving]
        accepted = []
        step = config.learning_rate
        for _halving in range(60):
            if not searching.size:
                break
            cand = theta[searching] - step * direction
            ok = sign * _forward_cost(engine, cand, lam, kind) <= sign * values + 1e-12
            theta[searching[ok]] = cand[ok]
            accepted.append(searching[ok])
            searching, direction, values = searching[~ok], direction[~ok], values[~ok]
            step *= 0.5
        active = np.sort(np.concatenate(accepted)) if accepted else searching[:0]
    for row in range(count):
        traces[row].append(best_value[row])
    return best_theta, traces


def optimize(h: Hamiltonian, layout: AnsatzLayout,
             config: OptimizerConfig | None = None) -> EngineeredResult:
    """Minimize the Pauli norm of U(theta) H U(theta)^dag over the angles.

    Runs ``restarts`` independent gradient optimizations from angles
    drawn uniformly in [0, 2pi), each with its own RNG stream derived
    from (seed, restart index), and keeps the run with the lowest
    engineered Pauli norm.  The identity circuit is always an implicit
    candidate (reported as restart_index -1), so the engineered norm
    never exceeds the original.  The restarts run in lockstep through
    one compiled engine, in batches whose stored states stay within
    ``_BATCH_ENTRIES`` entries; each gives the same result as run alone.
    """
    config = config or OptimizerConfig()
    if len(h) == 0:
        raise ValueError("cannot optimize the zero Hamiltonian")
    lam = l2_norm(h)
    original_norm = pauli_norm(h)
    engine = CompiledAnsatz(h, layout)

    theta0 = np.array([
        np.random.default_rng((config.seed, r)).uniform(0.0, 2.0 * np.pi, layout.parameter_count)
        for r in range(config.restarts)
    ])
    thetas, traces = _run_restarts(engine, theta0, config, lam)
    best = None  # (norm, restart, theta, engineered, trace)
    for rows, angles in _batches(engine, thetas):
        for r, engineered in zip(range(config.restarts)[rows], engine.hamiltonians(angles)):
            norm = pauli_norm(engineered)
            if best is None or norm < best[0]:
                best = (norm, r, thetas[r], engineered, traces[r])

    if best[0] > original_norm:
        theta = np.zeros(layout.parameter_count)
        best = (original_norm, -1, theta, h,
                [float(_forward_cost(engine, theta, lam, config.cost_kind))])
    norm, r, theta, engineered, trace = best
    return EngineeredResult(
        theta_star=theta,
        engineered=engineered,
        original_norm=original_norm,
        engineered_norm=norm,
        cost_trace=trace,
        restart_index=r,
        cost_kind=config.cost_kind,
    )


# -- partition trick -----------------------------------------------------


@dataclass(frozen=True)
class PartitionPart:
    """Terms (by canonical index order) sharing a fixed factor on a qubit subset."""

    factor_qubits: tuple[int, ...]
    factor: PauliString
    residual_qubits: tuple[int, ...]
    term_indices: tuple[int, ...]


@dataclass(frozen=True)
class PartitionSpec:
    parts: tuple[PartitionPart, ...]


def _validate_spec(h: Hamiltonian, spec: PartitionSpec):
    terms = h.terms_by_index()
    covered: set[int] = set()
    for part in spec.parts:
        if part.factor.n != len(part.factor_qubits):
            raise ValueError("factor length does not match its qubit subset")
        expected_residual = tuple(sorted(set(range(h.n)) - set(part.factor_qubits)))
        if tuple(sorted(part.residual_qubits)) != expected_residual:
            raise ValueError("residual qubits must be the complement of the factor qubits")
        for i in part.term_indices:
            if not (0 <= i < len(terms)):
                raise ValueError(f"term index {i} out of range")
            if i in covered:
                raise ValueError(f"term index {i} appears in two parts")
            covered.add(i)
            if terms[i][0].restrict(part.factor_qubits) != part.factor:
                raise ValueError(
                    f"term {terms[i][0].label} does not carry factor {part.factor.label}"
                )
    if covered != set(range(len(terms))):
        raise ValueError("partition does not cover every term")
    return terms


def partition(h: Hamiltonian, spec: PartitionSpec) -> list[tuple[PauliString, Hamiltonian]]:
    """Split into (common factor, residual Hamiltonian) pairs.

    Part i reconstructs by placing the factor on its qubit subset and the
    residual terms on the complementary subset; the parts sum to the
    input exactly.
    """
    terms = _validate_spec(h, spec)
    out = []
    for part in spec.parts:
        if not part.residual_qubits:
            raise ValueError("a part must leave at least one residual qubit")
        residual = Hamiltonian(
            len(part.residual_qubits),
            {terms[i][0].restrict(part.residual_qubits): terms[i][1] for i in part.term_indices},
        )
        out.append((part.factor, residual))
    return out


def partition_by_restriction(h: Hamiltonian, factor_qubits: tuple[int, ...]) -> PartitionSpec:
    """Greedy spec: group terms by their restriction to the given subset."""
    factor_qubits = tuple(factor_qubits)
    residual = tuple(sorted(set(range(h.n)) - set(factor_qubits)))
    groups: dict[PauliString, list[int]] = {}
    for i, (p, _) in enumerate(h.terms_by_index()):
        groups.setdefault(p.restrict(factor_qubits), []).append(i)
    parts = tuple(
        PartitionPart(factor_qubits, factor, residual, tuple(idx))
        for factor, idx in sorted(groups.items(), key=lambda kv: kv[0].index)
    )
    return PartitionSpec(parts=parts)


def optimize_partitioned(h: Hamiltonian, spec: PartitionSpec,
                         layouts, config: OptimizerConfig | None = None):
    """Engineer each residual independently; returns (results, combined norm).

    The combined norm is the sum of the engineered residual Pauli norms
    (the unit-modulus factors do not change term magnitudes).  This mode
    serves expectation estimation only: the evolution sandwich identity
    does not hold across parts conjugated by different unitaries.
    """
    pairs = partition(h, spec)
    layouts = list(layouts)
    if len(layouts) != len(pairs):
        raise ValueError(f"need one layout per part: {len(pairs)} parts, {len(layouts)} layouts")
    config = config or OptimizerConfig()
    results = [optimize(residual, layout, config)
               for (_factor, residual), layout in zip(pairs, layouts)]
    combined = float(sum(r.engineered_norm for r in results))
    return results, combined
