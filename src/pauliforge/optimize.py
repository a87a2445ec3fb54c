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
zero-angle circuit (restart -1) is priced with the restarts' best angles
and the first smallest norm wins, so ``engineered`` is always
U(theta*) H U(theta*)^dag.

The engine takes only ``(b, P)`` angle stacks, and the restarts run in
lockstep as the rows of one (:func:`_run_restarts`): each iteration is
one batched forward and reverse pass for all active rows, the Adam
update is elementwise on the stack, and the plain method's halving
rounds and the central differences' 2P shifted vectors run as batched
forward passes.  A run that stops leaves the active rows, and every
row's values are taken as on that row alone, so each restart's angles
and trace equal its run alone, a one-row stack, bit for bit.  A batch's
stored states hold at most ``_BATCH_ENTRIES`` entries: shallow circuits
batch all their restarts, and the depth-3 8-qubit chain up to four.

An analytic gradient is one forward pass that keeps the coefficients
entering each rotation gate and the output, then one reverse pass of the
cost's cotangent through the transposed plans, restricted to the forward
supports: gate j's derivative lives on the support after gate j, so
nothing outside those supports can reach a gradient entry.  Costs and
gradient dot products are taken over the compacted nonzeros in key
order, which makes every value identical to gate-by-gate sort-and-merge
propagation.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from .ansatz import AnsatzLayout, CompiledAnsatz, _row_slices, as_parameter_vector
from .hamiltonian import CoefficientVector, Hamiltonian, l2_norm, pauli_norm
from .paulis import _checked_int

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

# The angle step of the "central_difference" gradient mode.
_FD_STEP = 1e-5

# Restarts run as rows of one angle stack through the compiled engine.
# A batch's stored states (rows x CompiledAnsatz.entries: each rotation's
# input and the output) hold at most this many entries, 2 MiB of float64,
# which bounds the memory batching adds.
_BATCH_ENTRIES = 1 << 18


def cost_q(v: CoefficientVector) -> float:
    """Concentration cost: sum of fourth powers of the normalized entries.

    Lies in (0, 1]; equals 1 exactly on basis vectors.
    """
    return float(np.sum(v.entries**4))


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
    seed: int = 0
    method: str = "adam"

    def __post_init__(self):
        for name, allowed in (("cost_kind", COST_KINDS), ("gradient_mode", GRADIENT_MODES),
                              ("method", METHODS)):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        for name, low in (("max_iterations", 1), ("restarts", 1), ("seed", 0)):
            setattr(self, name, _checked_int(getattr(self, name), name, low))
        rate = self.learning_rate
        if not isinstance(rate, numbers.Real) or isinstance(rate, bool):
            raise ValueError(f"learning_rate must be a real number, got {rate!r}")
        if not (np.isfinite(rate) and rate > 0):
            raise ValueError(f"learning_rate must be finite and positive, got {rate}")


@dataclass
class EngineeredResult:
    """Outcome of one optimization: winning angles, the circuit they
    parameterize and the conjugated Hamiltonian.

    layout is the circuit :func:`optimize` ran, the one theta_star
    indexes, so the record prices and serializes without being handed it
    again.  cost_trace holds the winning restart's cost per iteration
    (state l1 or Q, per cost_kind) with the returned angles' cost
    appended last; the zero-angle circuit (restart_index -1) records its
    single cost.  engineered is U(theta_star) H U(theta_star)^dag in
    every case, and engineered_norm its Pauli norm.
    """

    theta_star: np.ndarray
    layout: AnsatzLayout = field(repr=False)
    engineered: Hamiltonian
    original_norm: float
    engineered_norm: float
    cost_trace: list[float] = field(repr=False)
    restart_index: int
    cost_kind: str


# -- cost/gradient engine on raw arrays ---------------------------------


def _batches(engine: CompiledAnsatz, stack: np.ndarray):
    """Yield (row slice, angle stack) per batch of a (k, P) stack whose
    stored states hold at most ``_BATCH_ENTRIES`` entries (at least one
    row); a batch of one row is a one-row stack."""
    size = max(1, _BATCH_ENTRIES // max(engine.entries, 1))
    for start in range(0, len(stack), size):
        rows = slice(start, start + size)
        yield rows, stack[rows]


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
    """The cost at each row of a (k, P) stack, a (k,) array, the stack run
    in memory-bounded batches."""
    values = np.empty(len(theta))
    for rows, angles in _batches(engine, theta):
        values[rows] = _cost_values(engine.coefficients(angles), lam, kind)
    return values


def _value_and_grad_analytic(engine: CompiledAnsatz, theta, lam, kind):
    states = engine.stored_states(theta)
    x = states[-1]
    return _cost_values(x, lam, kind), engine.pullback(theta, states, _cost_grad(x, lam, kind))


def _grad_central(engine: CompiledAnsatz, theta, lam, kind):
    """Central differences at each row of a (k, P) stack, all 2P shifted
    angle vectors of every row taken in batched forward passes."""
    k, count = theta.shape
    shifted = np.repeat(theta[:, None, :], 2 * count, axis=1)
    slot = np.arange(count)
    shifted[:, slot, slot] += _FD_STEP
    shifted[:, count + slot, slot] -= _FD_STEP
    costs = _forward_cost(engine, shifted.reshape(k * 2 * count, count), lam, kind)
    costs = costs.reshape(k, 2 * count)
    return (costs[:, :count] - costs[:, count:]) / (2 * _FD_STEP)


def _value_and_grad(engine: CompiledAnsatz, theta, lam, config: OptimizerConfig):
    """The configured cost and its angle gradient, in the configured
    gradient mode, at each row of a (k, P) stack; all must be finite."""
    kind = config.cost_kind
    if config.gradient_mode == "analytic":
        values, grads = np.empty(len(theta)), np.empty(theta.shape)
        for rows, angles in _batches(engine, theta):
            values[rows], grads[rows] = _value_and_grad_analytic(engine, angles, lam, kind)
    else:
        values = _forward_cost(engine, theta, lam, kind)
        grads = _grad_central(engine, theta, lam, kind)
    if not (np.all(np.isfinite(values)) and np.all(np.isfinite(grads))):
        raise ArithmeticError("non-finite cost or gradient")
    return values, grads


def cost_gradient(h: Hamiltonian, layout: AnsatzLayout, theta,
                  config: OptimizerConfig) -> np.ndarray:
    """Gradient of the configured cost with respect to the angles."""
    theta = as_parameter_vector(theta, layout.parameter_count)
    lam = l2_norm(h)
    if lam == 0.0:
        raise ValueError("zero Hamiltonian has no defined cost")
    if not np.isfinite(lam):
        raise ValueError("Hamiltonian's sum of squared coefficients overflows; no defined cost")
    return _value_and_grad(CompiledAnsatz(h, layout), theta[None], lam, config)[1][0]


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
    best_loss = np.full(count, np.inf)
    prev = np.full(count, np.nan)  # no stall is counted on the first value
    still = np.zeros(count, dtype=int)
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    active = np.arange(count)
    for it in range(1, config.max_iterations + 1):
        if not active.size:
            break
        values, grads = _value_and_grad(engine, theta[active], lam, config)
        for row, value in zip(active.tolist(), values.tolist()):
            traces[row].append(value)
        loss = sign * values
        improved = active[loss < best_loss[active]]
        best_theta[improved] = theta[improved]
        best_loss[active] = np.minimum(best_loss[active], loss)
        stalled = np.abs(values - prev[active]) < _STALL_TOL
        still[active] = np.where(stalled, still[active] + 1, 0)
        prev[active] = values
        going = still[active] < _STALL_PATIENCE
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
        accepted = np.zeros(count, dtype=bool)
        step = config.learning_rate
        for _halving in range(60):
            if not searching.size:
                break
            cand = theta[searching] - step * direction
            ok = sign * _forward_cost(engine, cand, lam, kind) <= sign * values + 1e-12
            theta[searching[ok]] = cand[ok]
            accepted[searching[ok]] = True
            searching, direction, values = searching[~ok], direction[~ok], values[~ok]
            step *= 0.5
        active = np.flatnonzero(accepted)
    for trace, best in zip(traces, (sign * best_loss).tolist()):
        trace.append(best)
    return best_theta, traces


def optimize(h: Hamiltonian, layout: AnsatzLayout,
             config: OptimizerConfig | None = None) -> EngineeredResult:
    """Minimize the Pauli norm of U(theta) H U(theta)^dag over the angles.

    Runs ``restarts`` independent gradient optimizations from angles
    drawn uniformly in [0, 2pi), each with its own RNG stream derived
    from (seed, restart index), and keeps the run with the lowest
    engineered Pauli norm.  The zero-angle circuit, where only the CZs
    act, is always a candidate (restart_index -1), priced in the final
    pass with the restarts' best angles; it wins only on a strictly
    smaller norm.  Its norm is the original's up to summation order and,
    in a layout with any gate, the coefficients below ``PRUNE_TOL`` that
    drop from it as from any row; so the engineered norm never exceeds
    the original up to summation order.  The restarts run in lockstep
    through one compiled engine, in batches whose stored states stay
    within ``_BATCH_ENTRIES`` entries; each gives the same result as run
    alone.
    """
    config = config or OptimizerConfig()
    if len(h) == 0:
        raise ValueError("cannot optimize the zero Hamiltonian")
    lam = l2_norm(h)
    if not np.isfinite(lam):
        raise ValueError("cannot optimize a Hamiltonian whose sum of squared coefficients "
                         "overflows")
    engine = CompiledAnsatz(h, layout)

    theta0 = np.array([
        np.random.default_rng((config.seed, r)).uniform(0.0, 2.0 * np.pi, layout.parameter_count)
        for r in range(config.restarts)
    ])
    thetas, traces = _run_restarts(engine, theta0, config, lam)
    thetas = np.vstack([thetas, np.zeros(layout.parameter_count)])  # the zero-angle row
    candidates = ((pauli_norm(e), r, e) for rows, angles in _batches(engine, thetas)
                  for r, e in zip(range(len(thetas))[rows], engine.hamiltonians(angles)))
    norm, r, engineered = min(candidates, key=lambda c: c[0])  # the first smallest norm
    if r == config.restarts:  # the zero row's one cost, from the same pass
        traces.append([float(_cost_values(engineered.coeffs[None], lam, config.cost_kind)[0])])
    return EngineeredResult(
        theta_star=thetas[r],
        layout=layout,
        engineered=engineered,
        original_norm=pauli_norm(h),
        engineered_norm=norm,
        cost_trace=traces[r],
        restart_index=-1 if r == config.restarts else r,
        cost_kind=config.cost_kind,
    )
