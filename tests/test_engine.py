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

from pauliforge.ansatz import (
    CompiledAnsatz,
    apply_ansatz,
    apply_ansatz_inverse,
    hardware_efficient_layout,
)
from pauliforge.hamiltonian import Hamiltonian, l2_norm
from pauliforge.optimize import (
    OptimizerConfig,
    _cost_grad,
    _forward_cost,
    _value_and_grad_analytic,
    cost_gradient,
    optimize,
)
from pauliforge.paulis import PauliString

from oracles import circuits, propagate_reference, value_and_grad_reference

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


@settings(max_examples=60, deadline=None)
@given(circuits(rows=5), st.sampled_from(["l1", "q"]))
def test_angle_stack_rows_match_single_vectors(case, kind):
    """A (b, P) stack through propagate, pullback, the costs and the
    conjugated Hamiltonians gives each row's single-vector run exactly."""
    h, layout, theta = case
    lam = l2_norm(h)
    engine = CompiledAnsatz(h, layout)
    states = list(engine.propagate(theta))
    grad = engine.pullback(theta, states, _cost_grad(states[-1], lam, kind))
    values, grads = _value_and_grad_analytic(engine, theta, lam, kind)
    costs = _forward_cost(engine, theta, lam, kind)
    hams = engine.hamiltonians(theta)
    for r, row in enumerate(theta):
        alone = list(engine.propagate(row))
        assert len(alone) == len(states)
        for stacked, single in zip(states, alone):
            assert stacked.shape == (len(theta), single.size)
            assert np.array_equal(stacked[r], single)
        row_grad = engine.pullback(row, alone, _cost_grad(alone[-1], lam, kind))
        assert np.array_equal(grad[r], row_grad)
        value, row_grad = _value_and_grad_analytic(engine, row, lam, kind)
        assert values[r] == value == costs[r] == _forward_cost(engine, row, lam, kind)
        assert np.array_equal(grads[r], row_grad)
        single_h = engine.hamiltonian(row)
        assert np.array_equal(hams[r].keys, single_h.keys)
        assert np.array_equal(hams[r].coeffs, single_h.coeffs)


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
