"""Adjoint gate action versus dense conjugation oracles."""

import json

import numpy as np
import pytest
from hypothesis import given, settings

from pauliforge.ansatz import (
    AnsatzLayout,
    CompiledAnsatz,
    Gate,
    apply_ansatz,
    apply_ansatz_inverse,
    conjugate_cz,
    conjugate_rotation,
    hardware_efficient_layout,
    layout_from_dict,
    layout_from_gates,
    layout_to_dict,
)
from pauliforge.hamiltonian import PRUNE_TOL, Hamiltonian, l2_norm, vectorize
from pauliforge.paulis import PauliString
from pauliforge.verification import ansatz_unitary, build_encoded_v

from oracles import (
    ansatz_unitary_oracle,
    circuits,
    conjugate_dense,
    cz_matrix,
    dense_hamiltonian,
    embed_1q,
    pauli_axis_layouts,
    random_hamiltonian,
    random_layout,
    random_theta,
    rotation_1q,
)


def assert_matches_dense(h_sparse, m_dense, atol=1e-10):
    assert np.allclose(dense_hamiltonian(h_sparse), m_dense, atol=atol)


def pruned_mass(engine, theta):
    """The l1 mass the engine's pruning drops over the whole circuit."""
    cos, sin = np.cos(theta), np.sin(theta)
    total = 0.0
    for step, x in zip(engine.steps, engine.propagate(theta[None])):
        y = step.gather(x) if step.param is None else step.gather(x, cos[step.param],
                                                                   sin[step.param])
        total += np.abs(y[np.abs(y) < PRUNE_TOL]).sum()
    return total


class TestConjugateRotation:
    @pytest.mark.parametrize("theta", [0.3, -1.2, np.pi / 2, 2.0])
    def test_x_axis_rotates_y_and_z(self, theta):
        h = Hamiltonian(1, {"Y": 1.0})
        out = conjugate_rotation(h, "X", 0, theta)
        assert np.isclose(out.coefficient("Y"), np.cos(theta), atol=1e-14)
        assert np.isclose(out.coefficient("Z"), np.sin(theta), atol=1e-14)
        h = Hamiltonian(1, {"Z": 1.0})
        out = conjugate_rotation(h, "X", 0, theta)
        assert np.isclose(out.coefficient("Z"), np.cos(theta), atol=1e-14)
        assert np.isclose(out.coefficient("Y"), -np.sin(theta), atol=1e-14)

    def test_theta_zero_is_identity(self):
        rng = np.random.default_rng(0)
        h = random_hamiltonian(2, 8, rng)
        assert conjugate_rotation(h, "Y", 1, 0.0) == h

    def test_z_quarter_turn_maps_x_to_y(self):
        h = Hamiltonian(1, {"X": 1.0})
        out = conjugate_rotation(h, "Z", 0, np.pi / 2)
        assert len(out) == 1
        assert np.isclose(out.coefficient("Y"), 1.0, atol=1e-14)

    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    def test_against_dense_oracle_single_qubit(self, axis):
        rng = np.random.default_rng(1)
        for _ in range(5):
            theta = rng.uniform(-np.pi, np.pi)
            h = random_hamiltonian(1, 4, rng)
            u = rotation_1q(axis, theta)
            assert_matches_dense(
                conjugate_rotation(h, axis, 0, theta),
                u @ dense_hamiltonian(h) @ u.conj().T,
            )

    @pytest.mark.parametrize("axis", ["X", "Y", "Z"])
    def test_against_dense_oracle_embedded(self, axis):
        rng = np.random.default_rng(2)
        for qubit in (0, 1, 2):
            theta = rng.uniform(-np.pi, np.pi)
            h = random_hamiltonian(3, 20, rng)
            u = embed_1q(rotation_1q(axis, theta), qubit, 3)
            assert_matches_dense(
                conjugate_rotation(h, axis, qubit, theta),
                u @ dense_hamiltonian(h) @ u.conj().T,
            )

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError):
            conjugate_rotation(Hamiltonian(2, {"XI": 1.0}), "X", 2, 0.1)

    @pytest.mark.parametrize("axis", ["Q", "I", "XZ", ""])
    def test_axis_other_than_x_y_z_rejected(self, axis):
        with pytest.raises(ValueError, match="R" + axis):
            conjugate_rotation(Hamiltonian(2, {"XI": 1.0}), axis, 0, 0.1)


class TestConjugateCZ:
    def test_generator_images(self):
        cases = {
            "XI": {"XZ": 1.0},
            "IX": {"ZX": 1.0},
            "ZZ": {"ZZ": 1.0},
            "XY": {"YX": -1.0},
            "YX": {"XY": -1.0},
            "XX": {"YY": 1.0},
            "YY": {"XX": 1.0},
        }
        for src, expected in cases.items():
            out = conjugate_cz(Hamiltonian(2, {src: 1.0}), 0, 1)
            assert out.terms == {
                PauliString.from_label(k): v for k, v in expected.items()
            }, src

    def test_exhaustive_against_dense(self):
        cz = cz_matrix(0, 1, 2)
        for i in range(16):
            p = PauliString.from_index(i, 2)
            out = conjugate_cz(Hamiltonian(2, {p: 1.0}), 0, 1)
            assert len(out) == 1
            assert_matches_dense(out, cz @ dense_hamiltonian(Hamiltonian(2, {p: 1.0})) @ cz)

    def test_three_qubit_pairs_against_dense(self):
        rng = np.random.default_rng(3)
        for q1, q2 in [(0, 1), (1, 2), (0, 2), (2, 0)]:
            h = random_hamiltonian(3, 25, rng)
            cz = cz_matrix(q1, q2, 3)
            assert_matches_dense(conjugate_cz(h, q1, q2), cz @ dense_hamiltonian(h) @ cz)

    def test_invalid_qubits(self):
        with pytest.raises(ValueError):
            conjugate_cz(Hamiltonian(2, {"XI": 1.0}), 1, 1)


class TestLayout:
    def test_default_layout_structure(self):
        layout = hardware_efficient_layout(3, 2)
        assert layout.parameter_count == 12
        kinds = [g.kind for g in layout.gates]
        # per layer: RX on all, RZ on all, then chain CZ
        assert kinds[:6] == ["RX"] * 3 + ["RZ"] * 3
        assert kinds[6:8] == ["CZ", "CZ"]

    def test_all_to_all_entangler(self):
        layout = hardware_efficient_layout(3, 1, entangler="all")
        cz = [g for g in layout.gates if g.kind == "CZ"]
        assert sorted(g.qubits for g in cz) == [(0, 1), (0, 2), (1, 2)]

    def test_duplicate_slot_rejected(self):
        with pytest.raises(ValueError):
            AnsatzLayout(1, 0, (Gate("RX", (0,), 0), Gate("RZ", (0,), 0)), 1)

    def test_dict_round_trip(self):
        layout = hardware_efficient_layout(2, 2, rotations=("RY", "RZ"))
        assert layout_from_dict(layout_to_dict(layout)) == layout

    def test_pauli_axis_gate_json_round_trip(self):
        layout = layout_from_gates(3, [Gate("RX", (1,), 0), Gate("RXZ", (2, 0), 1),
                                       Gate("CZ", (0, 1))])
        assert layout_from_dict(json.loads(json.dumps(layout_to_dict(layout)))) == layout

    @pytest.mark.parametrize("kind, qubits", [
        ("RI", (0,)), ("RQ", (0,)), ("R", ()), ("RXX", (1,)), ("RXZ", (1, 1)), ("rx", (0,)),
    ])
    def test_malformed_rotation_rejected(self, kind, qubits):
        with pytest.raises(ValueError, match=kind):
            layout_from_gates(3, [Gate(kind, qubits, 0)])

    @pytest.mark.parametrize("gate", [
        {"kind": "RX", "qubits": [0.0], "param": 0},
        {"kind": "RX", "qubits": [True], "param": 0},
        {"kind": "CZ", "qubits": [0, 1.0], "param": None},
        {"kind": "RX", "qubits": [0], "param": True},
        {"kind": "RX", "qubits": [0], "param": 0.0},
        {"kind": "RX", "qubits": [2.5], "param": 0},
        {"kind": "RX", "qubits": ["1"], "param": 0},
        {"kind": "RX", "qubits": [0], "param": 2.5},
        {"kind": "RX", "qubits": [0], "param": "0"},
    ])
    def test_non_int_qubit_or_slot_rejected(self, gate):
        """A float or bool qubit or slot in layout JSON is refused up front,
        naming the gate, instead of failing later inside the engine."""
        d = {"n": 2, "depth": 0, "parameter_count": 1 if gate["param"] is not None else 0,
             "gates": [gate]}
        with pytest.raises(ValueError, match=f"kind='{gate['kind']}'"):
            layout_from_dict(d)

    def test_options_checked_at_depth_zero(self):
        with pytest.raises(ValueError, match="unknown entangler"):
            hardware_efficient_layout(3, 0, entangler="bogus")
        with pytest.raises(ValueError, match="RXY"):
            hardware_efficient_layout(3, 0, rotations=("RXY",))

    @pytest.mark.parametrize("build", [
        lambda: hardware_efficient_layout(3, -2),
        lambda: layout_from_gates(2, [Gate("CZ", (0, 1))], depth=-1),
        lambda: layout_from_dict({"n": 2, "depth": -1, "parameter_count": 0, "gates": []}),
        lambda: layout_from_dict({"n": 2, "depth": 1.0, "parameter_count": 0, "gates": []}),
        lambda: layout_from_dict({"n": 2, "depth": True, "parameter_count": 0, "gates": []}),
        lambda: layout_from_dict({"n": 2, "depth": 2.5, "parameter_count": 0, "gates": []}),
        lambda: layout_from_dict({"n": 2, "depth": "3", "parameter_count": 0, "gates": []}),
    ], ids=["hardware_efficient", "from_gates", "from_dict", "float", "bool", "fraction", "str"])
    def test_bad_depth_rejected(self, build):
        """A depth that is not an int >= 0 is refused instead of yielding a
        layout that reports it."""
        with pytest.raises(ValueError, match="depth"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: hardware_efficient_layout(-1, 1),
        lambda: hardware_efficient_layout(0, 2),
        lambda: layout_from_dict({"n": 33, "depth": 0, "parameter_count": 0, "gates": []}),
        lambda: AnsatzLayout(True, 0, (), 0),
        lambda: AnsatzLayout(2.0, 0, (), 0),
        lambda: AnsatzLayout(2.5, 0, (), 0),
        lambda: AnsatzLayout("3", 0, (), 0),
    ], ids=["negative", "zero", "above_max", "bool", "float", "fraction", "str"])
    def test_bad_qubit_count_rejected(self, build):
        """A qubit count that is not an int in 1..MAX_QUBITS is refused
        instead of yielding a layout that reports it."""
        with pytest.raises(ValueError, match="n must be an integer in 1..32"):
            build()

    @pytest.mark.parametrize("build", [
        lambda: AnsatzLayout(2, 0, (), -1),
        lambda: AnsatzLayout(2, 0, (), True),
        lambda: layout_from_dict({"n": 2, "depth": 0, "parameter_count": 0.0, "gates": []}),
        lambda: layout_from_dict({"n": 2, "depth": 0, "parameter_count": "1", "gates": []}),
        lambda: AnsatzLayout(2, 0, (), 2.5),
    ], ids=["negative", "bool", "float", "str", "fraction"])
    def test_bad_parameter_count_rejected(self, build):
        """A parameter count that is not an int >= 0 is refused, naming the
        field, instead of yielding a layout that reports it."""
        with pytest.raises(ValueError, match="parameter_count must be an integer >= 0"):
            build()

    @pytest.mark.parametrize("cast", [np.int64, np.uint8])
    def test_numpy_integers_give_the_python_int_layout(self, cast):
        gates = (Gate("RX", (cast(1),), cast(0)), Gate("CZ", (cast(0), cast(1))))
        layout = AnsatzLayout(cast(2), cast(1), gates, cast(1))
        same = AnsatzLayout(2, 1, (Gate("RX", (1,), 0), Gate("CZ", (0, 1))), 1)
        assert layout == same
        assert all(type(v) is int for v in (layout.n, layout.depth, layout.parameter_count))
        h = Hamiltonian(2, {"XY": 1.0, "ZI": 0.5, "IZ": -0.25})
        assert apply_ansatz(h, layout, [0.3]) == apply_ansatz(h, same, [0.3])
        assert hardware_efficient_layout(cast(3), cast(2)) == hardware_efficient_layout(3, 2)


class TestApplyAnsatz:
    def test_zero_angles_identity(self):
        rng = np.random.default_rng(4)
        h = random_hamiltonian(3, 15, rng)
        layout = hardware_efficient_layout(3, 2)
        theta = np.zeros(layout.parameter_count)
        out = apply_ansatz(h, layout, theta)
        for p, c in h:
            assert abs(out.coefficient(p) - c) < 1e-12

    def test_single_gate_matches_conjugate_rotation(self):
        h = Hamiltonian(1, {"Y": 1.5, "Z": -0.5})
        layout = layout_from_gates(1, [Gate("RX", (0,), 0)])
        out = apply_ansatz(h, layout, [0.7])
        assert out == conjugate_rotation(h, "X", 0, 0.7)

    def test_random_two_qubit_against_dense(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            h = random_hamiltonian(2, 10, rng)
            layout = random_layout(2, rng)
            theta = random_theta(layout, rng)
            expected = conjugate_dense(h, layout, theta)
            got = dense_hamiltonian(apply_ansatz(h, layout, theta))
            assert np.max(np.abs(got - expected)) <= 1e-10

    def test_lambda_preserved(self):
        rng = np.random.default_rng(6)
        h = random_hamiltonian(3, 20, rng)
        layout = hardware_efficient_layout(3, 2)
        theta = random_theta(layout, rng)
        assert np.isclose(l2_norm(apply_ansatz(h, layout, theta)), l2_norm(h), atol=1e-10)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(7)
        for n in (2, 3, 4):
            h = random_hamiltonian(n, 3 * n, rng)
            layout = hardware_efficient_layout(n, 1)
            theta = random_theta(layout, rng)
            e0 = np.sort(np.linalg.eigvalsh(dense_hamiltonian(h)))
            e1 = np.sort(np.linalg.eigvalsh(dense_hamiltonian(apply_ansatz(h, layout, theta))))
            assert np.allclose(e0, e1, atol=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(circuits())
    def test_conjugation_preserves_l2_norm_and_spectrum(self, case):
        """Random RX/RY/RZ rotation sets and chain/all entanglers on up to
        4 qubits, forward and inverse: the map is orthogonal on
        coefficients and unitary on the operator."""
        h, layout, theta = case
        scale = max(1.0, float(np.abs(h.coeffs).max()))
        e0 = np.linalg.eigvalsh(dense_hamiltonian(h))
        for out in (apply_ansatz(h, layout, theta), apply_ansatz_inverse(h, layout, theta)):
            assert abs(l2_norm(out) - l2_norm(h)) <= 1e-10 * scale
            e1 = np.linalg.eigvalsh(dense_hamiltonian(out))
            assert np.max(np.abs(e1 - e0)) <= 1e-9 * scale

    @settings(max_examples=60, deadline=None)
    @given(circuits(layouts=pauli_axis_layouts))
    def test_pauli_axis_rotations_match_dense(self, case):
        """Rotations about axes of weight 1 to 3 on up to 4 qubits, forward
        and inverse, against dense U H U^dag.  Each prune moves the operator
        by at most the l1 mass it drops and the gates after it are unitary,
        so the distance is rounding (1e-12) plus the mass pruned in total."""
        h, layout, theta = case
        u = ansatz_unitary_oracle(layout, theta)
        m = dense_hamiltonian(h)
        reverse = AnsatzLayout(h.n, layout.depth, layout.gates[::-1], layout.parameter_count)
        for got, expected, engine, angles in (
            (apply_ansatz(h, layout, theta), u @ m @ u.conj().T, CompiledAnsatz(h, layout), theta),
            (apply_ansatz_inverse(h, layout, theta), u.conj().T @ m @ u,
             CompiledAnsatz(h, reverse), -theta),
        ):
            error = np.max(np.abs(dense_hamiltonian(got) - expected))
            assert error <= 1e-12 + pruned_mass(engine, angles)

    def test_theta_length_checked(self):
        h = Hamiltonian(2, {"XI": 1.0})
        layout = hardware_efficient_layout(2, 1)
        with pytest.raises(ValueError):
            apply_ansatz(h, layout, np.zeros(layout.parameter_count + 1))


class TestApplyAnsatzInverse:
    def test_round_trip(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            h = random_hamiltonian(3, 15, rng)
            layout = random_layout(3, rng)
            theta = random_theta(layout, rng)
            back = apply_ansatz_inverse(apply_ansatz(h, layout, theta), layout, theta)
            assert len(back) == len(h)
            for p, c in h:
                assert abs(back.coefficient(p) - c) < 1e-10

    def test_single_rotation_inverse_is_negated_angle(self):
        h = Hamiltonian(1, {"Y": 1.0, "X": 2.0})
        layout = layout_from_gates(1, [Gate("RY", (0,), 0)])
        assert apply_ansatz_inverse(h, layout, [0.4]) == apply_ansatz(h, layout, [-0.4])

    def test_identity_layout(self):
        h = Hamiltonian(2, {"XY": 1.0})
        layout = layout_from_gates(2, [Gate("CZ", (0, 1))])
        assert apply_ansatz_inverse(apply_ansatz(h, layout, []), layout, []) == h


class TestEncodedMapProperties:
    def test_composition(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            h = random_hamiltonian(2, 8, rng)
            l1 = random_layout(2, rng)
            l2 = random_layout(2, rng)
            t1, t2 = random_theta(l1, rng), random_theta(l2, rng)
            seq = apply_ansatz(apply_ansatz(h, l1, t1), l2, t2)
            gates = list(l1.gates) + [
                Gate(g.kind, g.qubits, None if g.param is None else g.param + l1.parameter_count)
                for g in l2.gates
            ]
            combined = layout_from_gates(2, gates)
            merged = apply_ansatz(h, combined, np.concatenate([t1, t2]))
            for p, c in seq:
                assert abs(merged.coefficient(p) - c) < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            h1 = random_hamiltonian(2, 6, rng)
            h2 = random_hamiltonian(2, 6, rng)
            a, b = rng.uniform(-2, 2, size=2)
            layout = random_layout(2, rng)
            theta = random_theta(layout, rng)
            lhs = apply_ansatz(a * h1 + b * h2, layout, theta)
            rhs = a * apply_ansatz(h1, layout, theta) + b * apply_ansatz(h2, layout, theta)
            keys = set(p for p, _ in lhs) | set(p for p, _ in rhs)
            for p in keys:
                assert abs(lhs.coefficient(p) - rhs.coefficient(p)) < 1e-10

    def test_tensor_factors(self):
        from pauliforge.hamiltonian import tensor

        rng = np.random.default_rng(11)
        for _ in range(10):
            ha = random_hamiltonian(1, 3, rng)
            hb = random_hamiltonian(1, 3, rng)
            la = random_layout(1, rng)
            lb = random_layout(1, rng)
            ta, tb = random_theta(la, rng), random_theta(lb, rng)
            gates = list(la.gates) + [
                Gate(g.kind, (g.qubits[0] + 1,), g.param + la.parameter_count)
                for g in lb.gates
            ]
            full = layout_from_gates(2, gates)
            lhs = apply_ansatz(tensor(ha, hb), full, np.concatenate([ta, tb]))
            rhs = tensor(apply_ansatz(ha, la, ta), apply_ansatz(hb, lb, tb))
            keys = set(p for p, _ in lhs) | set(p for p, _ in rhs)
            for p in keys:
                assert abs(lhs.coefficient(p) - rhs.coefficient(p)) < 1e-10


class TestEncodedV:
    def test_identity_circuit(self):
        layout = layout_from_gates(1, [Gate("RX", (0,), 0)])
        v = build_encoded_v(layout, [0.0])
        assert np.allclose(v, np.eye(4), atol=1e-14)

    def test_rx_block_structure(self):
        theta = 0.8
        layout = layout_from_gates(1, [Gate("RX", (0,), 0)])
        v = build_encoded_v(layout, [theta])
        expected = np.eye(4)
        expected[2, 2] = np.cos(theta)
        expected[2, 3] = -np.sin(theta)
        expected[3, 2] = np.sin(theta)
        expected[3, 3] = np.cos(theta)
        assert np.allclose(v, expected, atol=1e-12)

    def test_orthogonal(self):
        rng = np.random.default_rng(12)
        for n in (1, 2):
            layout = random_layout(n, rng)
            theta = random_theta(layout, rng)
            v = build_encoded_v(layout, theta)
            assert np.max(np.abs(v.T @ v - np.eye(4**n))) <= 1e-10

    def test_matches_vectorized_conjugation(self):
        rng = np.random.default_rng(13)
        layout = random_layout(2, rng)
        theta = random_theta(layout, rng)
        v = build_encoded_v(layout, theta)
        for _ in range(5):
            h = random_hamiltonian(2, 8, rng)
            lhs = v @ vectorize(h).to_dense()
            rhs = vectorize(apply_ansatz(h, layout, theta)).to_dense()
            assert np.max(np.abs(lhs - rhs)) <= 1e-10

    def test_capacity(self):
        layout = hardware_efficient_layout(4, 1)
        with pytest.raises(ValueError, match="capped at n=3, got 4"):
            build_encoded_v(layout, np.zeros(layout.parameter_count))


class TestDenseUnitary:
    """verification.ansatz_unitary applies gates as row operations; the oracle
    multiplies explicit Kronecker-product gate matrices."""

    @settings(max_examples=60, deadline=None)
    @given(circuits(layouts=pauli_axis_layouts))
    def test_matches_oracle(self, case):
        _, layout, theta = case
        u = ansatz_unitary(layout, theta)
        assert np.max(np.abs(u - ansatz_unitary_oracle(layout, theta))) <= 1e-12

    @pytest.mark.parametrize("extra", [-1, 3])
    def test_angle_count_checked(self, extra):
        layout = hardware_efficient_layout(2, 1)
        with pytest.raises(ValueError, match="angles"):
            ansatz_unitary(layout, np.zeros(layout.parameter_count + extra))

    @pytest.mark.parametrize("qubits", [(0, 1), (1, 0), (0, 2), (2, 1)])
    def test_cz_negates_rows(self, qubits):
        layout = layout_from_gates(3, [Gate("CZ", qubits)])
        assert np.array_equal(ansatz_unitary(layout, []), cz_matrix(*qubits, 3))
