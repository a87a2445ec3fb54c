"""The compiled propagation engine against the per-gate merging reference.

Every number the engine produces must equal the reference exactly:
forward and inverse conjugation, the l1 and Q costs, and the analytic
gradient, including at theta = 0 and at Clifford angles where terms
cancel and plans keep zeros in place, on hardware-efficient layouts and
on layouts with rotations about Pauli axes of weight up to 3.  The bit
rule the engine applies to packed keys is pinned against the scalar
Pauli algebra on its own, and so is one compiled gate: its support, its
gather, and its back gather as the gather's exact transpose.  The
compiled plan keeps only what later runs read, and the gradient only the
states its reverse pass reads; both are pinned in size.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliforge.ansatz import (
    CompiledAnsatz,
    Gate,
    _anticommuting,
    _partner_signs,
    apply_ansatz,
    apply_ansatz_inverse,
    hardware_efficient_layout,
    layout_from_gates,
)
from pauliforge.hamiltonian import Hamiltonian, l2_norm
from pauliforge.model_io import ising_neighbor
from pauliforge.optimize import (
    OptimizerConfig,
    _cost_grad,
    _forward_cost,
    _value_and_grad_analytic,
    cost_gradient,
    optimize,
)
from pauliforge.paulis import PauliString, commutes, pauli_product

from oracles import (
    circuits,
    cz_raw_reference,
    merge_reference,
    pauli_axis_layouts,
    propagate_reference,
    rotation_raw_reference,
    value_and_grad_reference,
)

def assert_same(h, ref):
    keys, coeffs = ref
    assert np.array_equal(h.keys, keys)
    assert np.array_equal(h.coeffs, coeffs)


def check_forward_and_inverse(case):
    h, layout, theta = case
    assert_same(apply_ansatz(h, layout, theta), propagate_reference(h, layout, theta))
    assert_same(apply_ansatz_inverse(h, layout, theta),
                propagate_reference(h, layout, theta, inverse=True))


def check_costs_and_gradient(case, kind):
    h, layout, theta = case
    ref_value, ref_grad = value_and_grad_reference(h, layout, theta, kind)
    lam = l2_norm(h)
    engine = CompiledAnsatz(h, layout)
    assert _forward_cost(engine, theta[None], lam, kind)[0] == ref_value
    [value], [grad] = _value_and_grad_analytic(engine, theta[None], lam, kind)
    assert value == ref_value
    assert np.array_equal(grad, ref_grad)
    assert np.array_equal(cost_gradient(h, layout, theta, OptimizerConfig(cost_kind=kind)),
                          ref_grad)


@settings(max_examples=60, deadline=None)
@given(circuits())
def test_forward_and_inverse_match_reference(case):
    check_forward_and_inverse(case)


@settings(max_examples=60, deadline=None)
@given(circuits(), st.sampled_from(["l1", "q"]))
def test_costs_and_gradient_match_reference(case, kind):
    check_costs_and_gradient(case, kind)


@settings(max_examples=60, deadline=None)
@given(circuits(layouts=pauli_axis_layouts), st.sampled_from(["l1", "q"]))
def test_pauli_axis_rotations_match_reference(case, kind):
    """Rotations about axes of weight 1 to 3 inserted anywhere in a
    layout: forward and inverse conjugation, the cost and the gradient
    equal the reference bit for bit."""
    check_forward_and_inverse(case)
    check_costs_and_gradient(case, kind)


@st.composite
def axis_and_strings(draw):
    """An axis and strings on n qubits, drawn as labels so that every
    qubit carries every factor; n = 32 is drawn on its own, since there
    the x and z halves of a key are shifted by 32 bits."""
    n = draw(st.one_of(st.integers(1, 32), st.just(32)))
    strings = st.text("IXYZ", min_size=n, max_size=n).map(PauliString.from_label)
    return n, draw(strings), draw(st.lists(strings, min_size=1, max_size=16))


@settings(max_examples=200, deadline=None)
@given(axis_and_strings())
def test_bit_rule_matches_pauli_algebra(case):
    """The engine's anticommutation mask and partner signs on packed keys
    against the scalar predicate and product: o anticommutes with A as
    ``commutes`` says, and -i*(A*B) = sign*o for B = A*o."""
    n, a, strings = case
    axis = np.uint64(a.key())
    keys = np.array([p.key() for p in strings], dtype=np.uint64)
    anti = _anticommuting(keys, axis, n)
    assert anti.tolist() == [not commutes(a, p) for p in strings]
    signs = _partner_signs(keys[anti], axis, n)
    for o, sign in zip(keys[anti].tolist(), signs.tolist()):
        partner = pauli_product(a, PauliString.from_key(o, n)).string
        product = pauli_product(a, partner)
        assert product.string == PauliString.from_key(o, n)
        assert -1j * product.phase == sign


@st.composite
def keys_and_gate(draw):
    """A sum with distinct random keys (possibly none) on n = 2..4 qubits,
    one gate of RX, RY, RZ, RXZ or CZ, and an angle."""
    n = draw(st.integers(2, 4))  # dense key sets reorder under CZ
    keys = sorted(draw(st.sets(st.integers(0, 4**n - 1), max_size=24)))
    coeffs = draw(st.lists(st.floats(-2.0, 2.0).filter(bool), min_size=len(keys),
                           max_size=len(keys)))
    h = Hamiltonian.from_arrays(n, np.array(keys, dtype=np.uint64), np.array(coeffs))
    kind = draw(st.sampled_from(["RX", "RY", "RZ", "RXZ", "CZ"]))
    width = 1 if kind in ("RX", "RY", "RZ") else 2
    qubits = tuple(draw(st.lists(st.integers(0, n - 1), min_size=width, max_size=width,
                                 unique=True)))
    gate = Gate(kind, qubits, None if kind == "CZ" else 0)
    t = draw(st.one_of(st.floats(-7.0, 7.0), st.sampled_from([0.0, np.pi / 2, np.pi])))
    return h, gate, t


@settings(max_examples=200, deadline=None)
@given(keys_and_gate())
def test_step_compiles_its_support_and_both_gathers(case):
    """One compiled gate: its keys are the sorted set of the input keys
    and their partners (a CZ's images), its gather gives the merged
    reference there with exact zeros kept, and its back gather at -t is
    exactly the transpose of the gather at t as dense matrices."""
    h, gate, t = case
    [step] = CompiledAnsatz(h, layout_from_gates(h.n, [gate])).steps
    if gate.kind == "CZ":
        raw = cz_raw_reference(h.keys, h.coeffs, h.n, *gate.qubits)
        args, back_args = (), ()
    else:
        raw = rotation_raw_reference(h.keys, h.coeffs, h.n, gate, t)
        args, back_args = (np.cos(t), np.sin(t)), (np.cos(-t), np.sin(-t))
    assert step.keys.dtype == np.uint64
    assert np.array_equal(step.keys, np.unique(raw[0]))
    ref_keys, ref_coeffs = merge_reference(raw[0], raw[1], 0.0)
    expected = np.zeros(step.keys.size)
    expected[np.searchsorted(step.keys, ref_keys)] = ref_coeffs
    assert np.array_equal(step.gather(h.coeffs, *args), expected)
    forward = step.gather(np.eye(h.keys.size), *args)  # row i: the image of entry i
    back = step.back(np.eye(step.keys.size), *back_args)
    assert back.shape == forward.T.shape
    assert np.array_equal(back, forward.T)


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
    conjugated Hamiltonians gives each row's run as a one-row stack
    exactly."""
    h, layout, theta = case
    lam = l2_norm(h)
    engine = CompiledAnsatz(h, layout)
    states = list(engine.propagate(theta))
    grad = engine.pullback(theta, states, _cost_grad(states[-1], lam, kind))
    values, grads = _value_and_grad_analytic(engine, theta, lam, kind)
    costs = _forward_cost(engine, theta, lam, kind)
    hams = engine.hamiltonians(theta)
    for r in range(len(theta)):
        row = theta[r:r + 1]
        alone = list(engine.propagate(row))
        assert len(alone) == len(states)
        for stacked, single in zip(states, alone):
            assert single.shape == (1, stacked.shape[-1])
            assert stacked.shape == (len(theta), single.shape[-1])
            assert np.array_equal(stacked[r], single[0])
        [row_grad] = engine.pullback(row, alone, _cost_grad(alone[-1], lam, kind))
        assert np.array_equal(grad[r], row_grad)
        [value], [row_grad] = _value_and_grad_analytic(engine, row, lam, kind)
        assert values[r] == value == costs[r] == _forward_cost(engine, row, lam, kind)[0]
        assert np.array_equal(grads[r], row_grad)
        [single_h] = engine.hamiltonians(row)
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
        assert_same(engine.hamiltonians(theta[None])[0], propagate_reference(h, layout, theta))


@settings(max_examples=60, deadline=None)
@given(circuits(rows=3), st.sampled_from(["l1", "q"]))
def test_entries_count_the_states_the_gradient_keeps(case, kind):
    """``entries`` is the per-row size of the states the analytic gradient
    hands to the pullback: the input of every rotation and the output; a
    CZ's input is dropped."""
    h, layout, theta = case
    engine = CompiledAnsatz(h, layout)
    kept = []
    pullback = engine.pullback

    def spy(theta, states, cotangent):
        kept.append(states)
        return pullback(theta, states, cotangent)

    engine.pullback = spy
    _value_and_grad_analytic(engine, theta, l2_norm(h), kind)
    [states] = kept
    assert len(states) == len(layout.gates) + 1
    assert [x is None for x in states] == [g.param is None for g in layout.gates] + [False]
    assert engine.entries == sum(x.shape[-1] for x in states if x is not None)


@pytest.mark.parametrize("gates", [
    [],
    [Gate("CZ", (0, 1))],
    [Gate("CZ", (0, 2)), Gate("CZ", (1, 2)), Gate("CZ", (2, 0))],
], ids=["depth-0", "one-cz", "cz-only"])
def test_layouts_without_rotations_compile_and_run(gates):
    """A layout with no gate or only CZs compiles; its coefficients,
    Hamiltonians, costs and (empty) gradient match the reference."""
    h = Hamiltonian(3, {"XXI": 1.0, "IYZ": -0.5, "ZIX": 2.0, "YYY": 0.25})
    layout = layout_from_gates(3, gates)
    engine = CompiledAnsatz(h, layout)
    theta = np.zeros(0)
    ref_keys, ref_coeffs = propagate_reference(h, layout, theta)
    assert np.array_equal(engine.keys, ref_keys)
    assert engine.entries == ref_keys.size
    assert np.array_equal(engine.coefficients(theta[None]), [ref_coeffs])
    assert np.array_equal(engine.coefficients(np.zeros((2, 0))), [ref_coeffs] * 2)
    for ham in engine.hamiltonians(np.zeros((2, 0))) + engine.hamiltonians(theta[None]):
        assert_same(ham, (ref_keys, ref_coeffs))
    states = list(engine.propagate(theta[None]))
    assert engine.pullback(theta[None], states, states[-1]).shape == (1, 0)
    check_costs_and_gradient((h, layout, theta), "l1")


def test_deep_plan_and_optimize_memory_is_bounded():
    """On the 8-qubit depth-3 chain the compiled plan holds under 5.5 MiB
    (keeping every gate's support and each rotation's whole inverse takes
    it to 6.1 MiB), and three restarts of four iterations, run as one
    batch, peak under 8.5 MiB."""
    h = ising_neighbor(8)
    layout = hardware_efficient_layout(8, 3)
    tracemalloc.start()
    try:
        engine = CompiledAnsatz(h, layout)
        plan, _ = tracemalloc.get_traced_memory()
        del engine
        tracemalloc.reset_peak()
        optimize(h, layout, OptimizerConfig(restarts=3, max_iterations=4, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan < 5.5 * 2**20
    assert peak < 8.5 * 2**20
    engine = CompiledAnsatz(h, layout)
    assert [step.keys is None for step in engine.steps[:-1]] == [True] * (len(layout.gates) - 1)
    assert engine.steps[-1].keys is engine.keys
    # a rotation's back gather owns its own-slot index rather than viewing
    # the whole np.unique inverse
    assert all(step.back.src1.base is None for step in engine.steps if step.param is not None)


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
