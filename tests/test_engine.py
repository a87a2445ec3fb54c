"""The compiled propagation engine against the per-gate merging reference.

Every number the engine produces must equal the reference exactly:
forward and inverse conjugation, the l1 and Q costs, and the analytic
gradient, including at theta = 0 and at Clifford angles where terms
cancel and plans keep zeros in place.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliforge import (
    Hamiltonian,
    PauliString,
    apply_ansatz,
    apply_ansatz_inverse,
    hardware_efficient_layout,
    l2_norm,
)
from pauliforge.ansatz import CompiledAnsatz
from pauliforge.optimize import (
    OptimizerConfig,
    _forward_cost,
    _value_and_grad_analytic,
    cost_gradient,
    optimize,
)

from oracles import propagate_reference, value_and_grad_reference

ROTATION_SETS = [("RX",), ("RY",), ("RZ",), ("RX", "RZ"), ("RY", "RZ"), ("RX", "RY"),
                 ("RX", "RY", "RZ")]
SPECIAL_ANGLES = [0.0, np.pi / 2, np.pi, 3 * np.pi / 2, -np.pi / 2, 2 * np.pi]


@st.composite
def circuits(draw):
    """A random Hamiltonian, hardware-efficient layout and angle vector."""
    n = draw(st.integers(1, 4))
    layout = hardware_efficient_layout(
        n, draw(st.integers(1, 2)),
        rotations=draw(st.sampled_from(ROTATION_SETS)),
        entangler=draw(st.sampled_from(["chain", "all"])),
    )
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
    theta = np.array(draw(st.lists(angles, min_size=layout.parameter_count,
                                   max_size=layout.parameter_count)), dtype=np.float64)
    return Hamiltonian(n, terms), layout, theta


def assert_same(h, ref):
    keys, coeffs = ref
    assert np.array_equal(h.keys, keys)
    assert np.array_equal(h.coeffs, coeffs)


@settings(max_examples=60, deadline=None)
@given(circuits())
def test_forward_and_inverse_match_reference(case):
    h, layout, theta = case
    assert_same(apply_ansatz(h, layout, theta), propagate_reference(h, layout, theta))
    assert_same(apply_ansatz_inverse(h, layout, theta),
                propagate_reference(h, layout, theta, inverse=True))


@settings(max_examples=60, deadline=None)
@given(circuits(), st.sampled_from(["l1", "q"]))
def test_costs_and_gradient_match_reference(case, kind):
    h, layout, theta = case
    ref_value, ref_grad = value_and_grad_reference(h, layout, theta, kind)
    lam = l2_norm(h)
    engine = CompiledAnsatz(h, layout)
    assert _forward_cost(engine, theta, lam, kind) == ref_value
    value, grad = _value_and_grad_analytic(engine, theta, lam, kind)
    assert value == ref_value
    assert np.array_equal(grad, ref_grad)
    assert np.array_equal(cost_gradient(h, layout, theta, OptimizerConfig(cost_kind=kind)),
                          ref_grad)


@settings(max_examples=60, deadline=None)
@given(circuits())
def test_inverse_undoes_forward(case):
    h, layout, theta = case
    back = apply_ansatz_inverse(apply_ansatz(h, layout, theta), layout, theta)
    scale = max(1.0, float(np.abs(h.coeffs).max()))
    for p in set(PauliString.from_key(int(k), h.n) for k in np.union1d(h.keys, back.keys)):
        assert abs(back.coefficient(p) - h.coefficient(p)) <= 1e-10 * scale


def test_plans_are_reused_across_angles():
    """One compilation serves generic, zero and Clifford angle vectors."""
    h = Hamiltonian(3, {"ZZI": -1.0, "IZZ": -1.0, "XII": 1.0, "IXI": 1.0, "IIX": 1.0})
    layout = hardware_efficient_layout(3, 2, rotations=("RY",), entangler="all")
    engine = CompiledAnsatz(h, layout)
    rng = np.random.default_rng(5)
    for theta in (rng.uniform(0, 2 * np.pi, layout.parameter_count),
                  np.zeros(layout.parameter_count),
                  rng.integers(0, 4, layout.parameter_count) * (np.pi / 2)):
        assert_same(engine.hamiltonian(theta), propagate_reference(h, layout, theta))


@pytest.mark.parametrize("call", [
    apply_ansatz,
    apply_ansatz_inverse,
    lambda h, layout, theta: cost_gradient(h, layout, theta, OptimizerConfig()),
    lambda h, layout, theta: optimize(h, layout, OptimizerConfig(restarts=1, max_iterations=1)),
], ids=["apply_ansatz", "apply_ansatz_inverse", "cost_gradient", "optimize"])
def test_layout_for_other_qubit_count_rejected(call):
    """The engine's one compatibility check reaches every public entry point."""
    h = Hamiltonian(2, {"ZZ": 1.0, "XI": 0.5})
    layout = hardware_efficient_layout(3, 1)
    with pytest.raises(ValueError, match="layout is for 3 qubits, Hamiltonian has 2"):
        call(h, layout, np.zeros(layout.parameter_count))
