"""Swap-test circuit emulation for the concentration value Q."""

import re

import numpy as np
import pytest

from pauliforge.hamiltonian import Hamiltonian, vectorize
from pauliforge.optimize import cost_q
from pauliforge.qestimate import (
    q_analytic,
    q_circuit_marginal,
    q_full_circuit,
)

from oracles import haar_like_state, random_hamiltonian


def real_random_state(dim, rng):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestQAnalytic:
    def test_basis_state(self):
        psi = np.zeros(8)
        psi[5] = 1.0
        est = q_analytic(psi)
        assert est.q_value == 1.0
        assert est.p_plus == 1.0
        assert est.shots == 0 and est.stderr == 0.0

    def test_plus_state(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        est = q_analytic(psi)
        assert np.isclose(est.q_value, 0.5, atol=1e-14)
        assert np.isclose(est.p_plus, 0.75, atol=1e-14)

    def test_matches_cost_q_on_hamiltonian_states(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            h = random_hamiltonian(2, 8, rng)
            v = vectorize(h)
            est = q_analytic(v.to_dense())
            assert abs(est.q_value - cost_q(v)) <= 1e-12

    def test_matches_direct_fourth_power_complex(self):
        rng = np.random.default_rng(2)
        for n in (1, 3, 5):
            psi = haar_like_state(2**n, rng)
            est = q_analytic(psi)
            assert np.isclose(est.q_value, float(np.sum(np.abs(psi) ** 4)), atol=1e-13)

    def test_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            psi = haar_like_state(2**n, rng)
            q = q_analytic(psi).q_value
            assert 1.0 / 2**n - 1e-12 <= q <= 1.0 + 1e-12

    def test_uniform_state_minimal(self):
        n = 3
        psi = np.full(2**n, 1.0 / np.sqrt(2**n))
        assert np.isclose(q_analytic(psi).q_value, 1.0 / 2**n, atol=1e-14)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            q_analytic(np.array([1.0, 1.0]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            q_analytic(np.array([np.nan, 0.0]))

    def test_capacity(self):
        with pytest.raises(ValueError):
            q_analytic(np.zeros(2**8))


class TestCircuitMarginal:
    def test_matches_analytic(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3, 4):
            for _ in range(3):
                psi = haar_like_state(2**n, rng)
                assert abs(q_circuit_marginal(psi) - q_analytic(psi).p_plus) <= 1e-12

    def test_basis_state_certain(self):
        psi = np.zeros(4)
        psi[2] = 1.0
        assert np.isclose(q_circuit_marginal(psi), 1.0, atol=1e-14)

    def test_capacity(self):
        with pytest.raises(ValueError):
            q_circuit_marginal(np.zeros(2**5))


class TestFullCircuit:
    def test_basis_state_all_plus(self):
        psi = np.zeros(4)
        psi[1] = 1.0
        est = q_full_circuit(psi, shots=1000, seed=0)
        assert est.q_value == 1.0
        assert est.stderr == 0.0

    def test_plus_state_sampling(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2.0)
        shots = 100_000
        est = q_full_circuit(psi, shots=shots, seed=1)
        sigma = np.sqrt(0.75 * 0.25 / shots)
        assert abs(est.p_plus - 0.75) <= 5 * sigma
        assert abs(est.q_value - 0.5) <= 10 * sigma

    def test_shots_zero_rejected(self):
        with pytest.raises(ValueError):
            q_full_circuit(np.array([1.0, 0.0]), shots=0)

    @pytest.mark.parametrize("shots", [2.5, 10.0, np.float64(10.0), True, False, "10", None],
                             ids=repr)
    def test_shots_not_an_int_rejected(self, shots):
        with pytest.raises(ValueError, match="shots must be an int"):
            q_full_circuit(np.array([1.0, 0.0]), shots=shots)

    def test_numpy_int_shots_accepted(self):
        psi = np.array([0.6, 0.8])
        for shots in (np.int64(50), np.uint8(50)):
            assert q_full_circuit(psi, shots, seed=3) == q_full_circuit(psi, 50, seed=3)

    @pytest.mark.parametrize("shots", [2**63, np.uint64(2**63), 10**23], ids=repr)
    def test_shots_past_int64_refused(self, shots):
        # NumPy's binomial raised OverflowError on these
        message = f"shots must be an integer in 1..{2**63 - 1}, got {shots}"
        with pytest.raises(ValueError, match=re.escape(message)):
            q_full_circuit(np.array([1.0, 0.0]), shots=shots)

    def test_int64_max_shots_accepted(self):
        est = q_full_circuit(np.array([1.0, 0.0]), shots=2**63 - 1)
        assert est.shots == 2**63 - 1 and est.q_value == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        psi = haar_like_state(8, rng)
        e1 = q_full_circuit(psi, shots=5000, seed=9)
        e2 = q_full_circuit(psi, shots=5000, seed=9)
        assert e1 == e2


class TestHamiltonianStates:
    def test_two_qubit_hamiltonian_through_circuit(self):
        # an n-qubit Hamiltonian state occupies 2n circuit qubits, so the
        # full-circuit path handles Hamiltonians up to n = 2
        h = Hamiltonian(2, {"XI": 3.0, "YY": -1.0, "ZZ": 2.0})
        v = vectorize(h)
        psi = v.to_dense()
        marginal = q_circuit_marginal(psi)
        assert abs(marginal - (0.5 + cost_q(v) / 2.0)) <= 1e-12
