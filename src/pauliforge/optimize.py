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

An analytic gradient is one forward pass that keeps each gate's
coefficients, then one reverse pass of the cost's cotangent through the
transposed plans, restricted to the forward supports: gate j's
derivative lives on the support after gate j, so nothing outside those
supports can reach a gradient entry.  Costs and gradient dot products
are taken over the compacted nonzeros in key order, which makes every
value identical to gate-by-gate sort-and-merge propagation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ansatz import AnsatzLayout, CompiledAnsatz, as_parameter_vector
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
        if self.cost_kind not in COST_KINDS:
            raise ValueError(f"cost_kind must be one of {COST_KINDS}, got {self.cost_kind!r}")
        if self.gradient_mode not in GRADIENT_MODES:
            raise ValueError(f"gradient_mode must be one of {GRADIENT_MODES}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.max_iterations < 1 or self.restarts < 1:
            raise ValueError("iteration and restart counts must be positive")
        if self.fd_step <= 0 or self.learning_rate <= 0:
            raise ValueError("learning rate and finite-difference step must be positive")


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


def _cost_value(coeffs: np.ndarray, lam: float, kind: str) -> float:
    if kind == "l1":
        return float(np.abs(coeffs).sum() / lam)
    return float(np.sum(coeffs**4) / lam**4)


def _cost_grad(coeffs: np.ndarray, lam: float, kind: str) -> np.ndarray:
    if kind == "l1":
        return np.sign(coeffs) / lam
    return 4.0 * coeffs**3 / lam**4


def _forward_cost(engine: CompiledAnsatz, theta, lam, kind) -> float:
    x = engine.coefficients(theta)
    return _cost_value(x[x != 0.0], lam, kind)


def _value_and_grad_analytic(engine: CompiledAnsatz, theta, lam, kind):
    states = list(engine.propagate(theta))
    x = states[-1]
    value = _cost_value(x[x != 0.0], lam, kind)
    return value, engine.pullback(theta, states, _cost_grad(x, lam, kind))


def _grad_central(engine: CompiledAnsatz, theta, lam, kind, step):
    grad = np.zeros(theta.size)
    for k in range(theta.size):
        tp = theta.copy()
        tp[k] += step
        tm = theta.copy()
        tm[k] -= step
        grad[k] = (_forward_cost(engine, tp, lam, kind)
                   - _forward_cost(engine, tm, lam, kind)) / (2 * step)
    return grad


def _value_and_grad(engine: CompiledAnsatz, theta, lam, config: OptimizerConfig):
    """The configured cost and its angle gradient, in the configured
    gradient mode; both must be finite."""
    kind = config.cost_kind
    if config.gradient_mode == "analytic":
        value, grad = _value_and_grad_analytic(engine, theta, lam, kind)
    else:
        value = _forward_cost(engine, theta, lam, kind)
        grad = _grad_central(engine, theta, lam, kind, config.fd_step)
    if not np.isfinite(value) or not np.all(np.isfinite(grad)):
        raise ArithmeticError("non-finite cost or gradient")
    return value, grad


def cost_gradient(h: Hamiltonian, layout: AnsatzLayout, theta,
                  config: OptimizerConfig) -> np.ndarray:
    """Gradient of the configured cost with respect to the angles."""
    theta = as_parameter_vector(theta, layout.parameter_count)
    lam = l2_norm(h)
    if lam == 0.0:
        raise ValueError("zero Hamiltonian has no defined cost")
    return _value_and_grad(CompiledAnsatz(h, layout), theta, lam, config)[1]


def _run_single(engine: CompiledAnsatz, theta0, config, lam):
    """One gradient run; returns (best-seen theta, cost trace)."""
    kind = config.cost_kind
    sign = 1.0 if kind == "l1" else -1.0  # loss = sign * cost is minimized
    theta = theta0.copy()
    trace: list[float] = []
    still = 0
    prev = None
    best_loss = np.inf
    best_theta = theta
    adam_m = np.zeros_like(theta)
    adam_v = np.zeros_like(theta)
    for it in range(1, config.max_iterations + 1):
        value, grad = _value_and_grad(engine, theta, lam, config)
        trace.append(value)
        if sign * value < best_loss:
            best_loss = sign * value
            best_theta = theta.copy()
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
                cand_value = _forward_cost(engine, cand, lam, kind)
                if sign * cand_value <= sign * value + 1e-12:
                    theta = cand
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                break
    trace.append(_forward_cost(engine, best_theta, lam, kind))
    return best_theta, trace


def optimize(h: Hamiltonian, layout: AnsatzLayout,
             config: OptimizerConfig | None = None) -> EngineeredResult:
    """Minimize the Pauli norm of U(theta) H U(theta)^dag over the angles.

    Runs ``restarts`` independent gradient optimizations from angles
    drawn uniformly in [0, 2pi), each with its own RNG stream derived
    from (seed, restart index), and keeps the run with the lowest
    engineered Pauli norm.  The identity circuit is always an implicit
    candidate (reported as restart_index -1), so the engineered norm
    never exceeds the original.
    """
    config = config or OptimizerConfig()
    if len(h) == 0:
        raise ValueError("cannot optimize the zero Hamiltonian")
    lam = l2_norm(h)
    original_norm = pauli_norm(h)
    engine = CompiledAnsatz(h, layout)

    best = None  # (norm, restart, theta, engineered, trace)
    for r in range(config.restarts):
        rng = np.random.default_rng((config.seed, r))
        theta0 = rng.uniform(0.0, 2.0 * np.pi, layout.parameter_count)
        theta, trace = _run_single(engine, theta0, config, lam)
        engineered = engine.hamiltonian(theta)
        norm = pauli_norm(engineered)
        if best is None or norm < best[0]:
            best = (norm, r, theta, engineered, trace)

    if best[0] > original_norm:
        theta = np.zeros(layout.parameter_count)
        best = (original_norm, -1, theta, h,
                [_forward_cost(engine, theta, lam, config.cost_kind)])
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
