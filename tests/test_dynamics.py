"""Exact evolution, product formulas, qDrift sampling, and the sandwich identity."""

import numpy as np
import pytest
import scipy.linalg

from pauliforge.ansatz import hardware_efficient_layout
from pauliforge.dense import pauli_matrix
from pauliforge.dynamics import (
    QDriftPlan,
    engineered_qdrift_cost,
    exact_evolution,
    qdrift_apply,
    qdrift_channel_error,
    qdrift_error,
    qdrift_sample,
    sandwich_check,
    trotter_first_order,
)
from pauliforge.grouping import shot_simulator
from pauliforge.hamiltonian import Hamiltonian, pauli_norm, vectorize
from pauliforge.model_io import ising_neighbor

from oracles import (
    dense_hamiltonian,
    qdrift_apply_reference,
    qdrift_channel_error_reference,
    qdrift_error_reference,
    qdrift_sample_reference,
    random_hamiltonian,
    random_layout,
    random_theta,
)

GOLDEN_2Q = {"XI": 3.0, "YY": -1.0, "ZZ": 2.0}


class TestExactEvolution:
    def test_t_zero_identity(self):
        h = Hamiltonian(2, GOLDEN_2Q)
        assert np.allclose(exact_evolution(h, 0.0), np.eye(4), atol=1e-14)

    def test_diagonal_case(self):
        h = Hamiltonian(1, {"Z": 1.0})
        u = exact_evolution(h, np.pi / 2)
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert np.allclose(u, expected, atol=1e-12)

    def test_against_scipy_expm(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            h = random_hamiltonian(3, 10, rng)
            t = float(rng.uniform(-2, 2))
            u = exact_evolution(h, t)
            ref = scipy.linalg.expm(-1j * t * dense_hamiltonian(h))
            assert np.linalg.norm(u - ref, 2) <= 1e-9

    def test_unitary_and_group_law(self):
        rng = np.random.default_rng(2)
        h = random_hamiltonian(2, 8, rng)
        u1 = exact_evolution(h, 0.4)
        u2 = exact_evolution(h, 0.9)
        u12 = exact_evolution(h, 1.3)
        assert np.linalg.norm(u1.conj().T @ u1 - np.eye(4), 2) <= 1e-10
        assert np.linalg.norm(u2 @ u1 - u12, 2) <= 1e-9


class TestTrotter:
    def test_commuting_terms_exact(self):
        h = Hamiltonian(3, {"ZZI": 0.7, "IZZ": -1.1, "ZIZ": 0.3})
        u = exact_evolution(h, 1.3)
        for r in (1, 3):
            assert np.linalg.norm(trotter_first_order(h, 1.3, r) - u, 2) <= 1e-10

    def test_first_order_slope(self):
        h = Hamiltonian(1, {"X": 1.0, "Z": 1.0})
        u = exact_evolution(h, 1.0)
        rs = [1, 2, 4, 8, 16, 32, 64]
        errs = [np.linalg.norm(trotter_first_order(h, 1.0, r) - u, 2) for r in rs]
        slope = np.polyfit(np.log(rs), np.log(errs), 1)[0]
        assert abs(slope - (-1.0)) <= 0.2

    def test_large_r_error_scale(self):
        # first-order scaling puts the r = 10^4 error near 7e-5 for this
        # Hamiltonian (computed; the prefactor is ~0.7 from ||[X, Z]||/2)
        h = Hamiltonian(1, {"X": 1.0, "Z": 1.0})
        u = exact_evolution(h, 1.0)
        err = np.linalg.norm(trotter_first_order(h, 1.0, 10_000) - u, 2)
        assert 1e-5 <= err <= 1e-4

    def test_bad_r(self):
        with pytest.raises(ValueError):
            trotter_first_order(Hamiltonian(1, {"X": 1.0}), 1.0, 0)


class TestQDriftSample:
    def test_sampling_probabilities(self):
        h = Hamiltonian(2, GOLDEN_2Q)
        plan = qdrift_sample(h, 1.0, 100, seed=0)
        assert plan.gamma == 6.0
        assert np.isclose(plan.tau, 0.06, atol=1e-15)
        # terms in index order: XI (3), YY (-1), ZZ (2) -> p = 1/2, 1/6, 1/3
        labels = [p.label for p, _ in h.terms_by_index()]
        assert labels == ["XI", "YY", "ZZ"]

    def test_empirical_frequencies(self):
        h = Hamiltonian(2, GOLDEN_2Q)
        draws = 100_000
        plan = qdrift_sample(h, 1.0, draws, seed=3)
        probs = np.array([0.5, 1.0 / 6.0, 1.0 / 3.0])
        for j, p in enumerate(probs):
            freq = np.mean(plan.indices == j)
            sigma = np.sqrt(p * (1 - p) / draws)
            assert abs(freq - p) <= 5 * sigma

    def test_per_step_unitary(self):
        h = Hamiltonian(2, GOLDEN_2Q)
        plan = qdrift_sample(h, 0.7, 5, seed=4)
        eye = np.eye(4, dtype=complex)
        out = qdrift_apply(h, plan, eye)
        assert np.linalg.norm(out.conj().T @ out - eye, 2) <= 1e-12

    def test_zero_hamiltonian_rejected(self):
        with pytest.raises(ValueError):
            qdrift_sample(Hamiltonian(1, {}), 1.0, 10)

    def test_plans_compare_and_hash_by_value(self):
        h = ising_neighbor(3)
        a, b = qdrift_sample(h, 1.0, 5, 0), qdrift_sample(h, 1.0, 5, 0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != qdrift_sample(h, 1.0, 5, 1)
        assert not a.indices.flags.writeable

    def test_plan_for_another_gamma_rejected(self):
        h = Hamiltonian(2, GOLDEN_2Q)
        plan = qdrift_sample(2.0 * h, 1.0, 5, seed=0)
        with pytest.raises(ValueError, match="gamma"):
            qdrift_apply(h, plan, np.eye(4, dtype=complex))

    def test_plan_index_outside_terms_rejected(self):
        plan = qdrift_sample(ising_neighbor(4), 1.0, 50, seed=0)
        h = Hamiltonian(4, {"XIII": plan.gamma})
        negative = QDriftPlan(plan.gamma, plan.tau, 1, np.array([-1]), 0)
        for bad in (plan, negative):
            with pytest.raises(ValueError, match="outside"):
                qdrift_apply(h, bad, np.eye(16, dtype=complex))


class TestQDriftError:
    def test_t_zero(self):
        h = Hamiltonian(2, GOLDEN_2Q)
        mean, stderr = qdrift_error(h, 0.0, 20, trials=5, seed=0)
        assert mean <= 1e-12

    def test_large_g_small_error(self):
        # gamma*t = 2 here; the diffusive floor ~ gamma*t/sqrt(G) puts the
        # mean error near 0.016 at G = 10^4 (computed)
        h = Hamiltonian(2, GOLDEN_2Q)
        mean, _ = qdrift_error(h, 1.0 / 3.0, 10_000, trials=10, seed=1)
        assert mean < 0.02

    def test_state_error_diffusive_slope(self):
        # per-plan state error shrinks ~ G^(-1/2): plan-to-plan fluctuation
        # dominates single realizations (computed; see qdrift_channel_error
        # for the 1/G channel bias)
        h = Hamiltonian(2, GOLDEN_2Q)
        gs = [10, 40, 160, 640]
        means = [qdrift_error(h, 0.5, g, trials=120, seed=5)[0] for g in gs]
        assert all(a > b for a, b in zip(means, means[1:]))
        slope = np.polyfit(np.log(gs), np.log(means), 1)[0]
        assert abs(slope - (-0.5)) <= 0.15

    def test_channel_error_inverse_g_slope(self):
        h = Hamiltonian(2, GOLDEN_2Q)
        gs = [10, 40, 160, 640]
        means = [qdrift_channel_error(h, 0.5, g, trials=200, seed=5) for g in gs]
        assert all(a > b for a, b in zip(means, means[1:]))
        slope = np.polyfit(np.log(gs), np.log(means), 1)[0]
        assert abs(slope - (-1.0)) <= 0.3

    def test_error_nonincreasing_in_g_statistically(self):
        h = Hamiltonian(2, GOLDEN_2Q)
        m1, s1 = qdrift_error(h, 0.5, 20, trials=150, seed=6)
        m2, s2 = qdrift_error(h, 0.5, 320, trials=150, seed=6)
        assert m1 - m2 > 5 * np.sqrt(s1**2 + s2**2)

    @pytest.mark.parametrize("run", [qdrift_error, qdrift_channel_error])
    def test_zero_gate_count_rejected(self, run):
        with pytest.raises(ValueError, match="gate count"):
            run(Hamiltonian(2, GOLDEN_2Q), 0.5, 0, trials=5, seed=0)


class TestQDriftAgainstReference:
    """The single qDrift path reproduces the per-function code it replaced
    bit for bit: same plans, same applied panels, same error values."""

    CASES = [(0.5, 1, 2, 0), (0.5, 10, 5, 7), (1.3, 40, 3, 11), (0.0, 7, 2, 3), (-0.8, 25, 4, 1)]

    @pytest.fixture(params=["golden", "ising-neighbor:3"])
    def h(self, request):
        return Hamiltonian(2, GOLDEN_2Q) if request.param == "golden" else ising_neighbor(3)

    @pytest.mark.parametrize("t, gates, trials, seed", CASES)
    def test_plans_and_panels(self, h, t, gates, trials, seed):
        plan = qdrift_sample(h, t, gates, seed=seed)
        ref = qdrift_sample_reference(h, t, gates, seed=seed)
        assert np.array_equal(plan.indices, ref.indices)
        assert (plan.gamma, plan.tau, plan.gate_count, plan.seed) == (
            ref.gamma, ref.tau, ref.gate_count, ref.seed)
        states = np.random.default_rng(seed).normal(size=(1 << h.n, trials)) + 0j
        assert np.array_equal(qdrift_apply(h, plan, states),
                              qdrift_apply_reference(h, ref, states))

    @pytest.mark.parametrize("t, gates, trials, seed", CASES)
    def test_error_values(self, h, t, gates, trials, seed):
        assert (qdrift_error(h, t, gates, trials=trials, seed=seed)
                == qdrift_error_reference(h, t, gates, trials=trials, seed=seed))
        assert (qdrift_channel_error(h, t, gates, trials=trials, seed=seed)
                == qdrift_channel_error_reference(h, t, gates, trials=trials, seed=seed))


class TestSandwich:
    def test_theta_zero(self):
        h = Hamiltonian(2, GOLDEN_2Q)
        layout = hardware_efficient_layout(2, 1)
        dev = sandwich_check(h, layout, np.zeros(layout.parameter_count), 0.9)
        assert dev <= 1e-12

    def test_t_zero(self):
        rng = np.random.default_rng(7)
        h = random_hamiltonian(2, 6, rng)
        layout = random_layout(2, rng)
        dev = sandwich_check(h, layout, random_theta(layout, rng), 0.0)
        assert dev <= 1e-12

    def test_random_three_qubit(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            h = random_hamiltonian(3, 10, rng)
            layout = random_layout(3, rng)
            theta = random_theta(layout, rng)
            t = float(rng.uniform(-1.5, 1.5))
            assert sandwich_check(h, layout, theta, t) <= 1e-10


class TestEngineeredQDriftCost:
    def test_theta_zero_equal(self):
        h = Hamiltonian(2, GOLDEN_2Q)
        layout = hardware_efficient_layout(2, 1)
        model = engineered_qdrift_cost(h, layout, np.zeros(layout.parameter_count),
                                       1.0, 0.01)
        assert np.isclose(model.g_original, model.g_engineered, atol=1e-9)
        assert model.ansatz_gate_count == len(layout.gates)

    def test_golden_value(self):
        h = Hamiltonian(2, GOLDEN_2Q)
        layout = hardware_efficient_layout(2, 1)
        model = engineered_qdrift_cost(h, layout, np.zeros(layout.parameter_count),
                                       1.0, 0.01)
        assert np.isclose(model.g_original, 3600.0, atol=1e-6)

    def test_monotone_in_engineered_norm(self):
        rng = np.random.default_rng(9)
        h = random_hamiltonian(2, 6, rng)
        layout = random_layout(2, rng)
        theta = random_theta(layout, rng)
        model = engineered_qdrift_cost(h, layout, theta, 1.0, 0.01)
        from pauliforge.ansatz import apply_ansatz

        gamma = pauli_norm(h)
        gamma_eng = pauli_norm(apply_ansatz(h, layout, theta))
        assert np.isclose(model.g_engineered / model.g_original,
                          (gamma_eng / gamma) ** 2, atol=1e-9)

    def test_epsilon_validated(self):
        h = Hamiltonian(2, GOLDEN_2Q)
        layout = hardware_efficient_layout(2, 1)
        with pytest.raises(ValueError):
            engineered_qdrift_cost(h, layout, np.zeros(layout.parameter_count), 1.0, 0.0)

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        h = Hamiltonian(2, GOLDEN_2Q)
        layout = hardware_efficient_layout(2, 1)
        with pytest.raises(ValueError, match="finite"):
            engineered_qdrift_cost(h, layout, np.zeros(layout.parameter_count), 1.0, epsilon)


# The caps listed under "Numerical scope" in the README: dense operators
# <= 10 qubits, repeated-trial qDrift runs <= 8, sandwich checks <= 6.
@pytest.mark.parametrize("cap, call", [
    (10, lambda h: pauli_matrix(next(iter(h))[0])),
    (10, lambda h: exact_evolution(h, 1.0)),
    (10, lambda h: trotter_first_order(h, 1.0, 1)),
    (10, lambda h: shot_simulator(h, np.zeros(2))),
    (10, lambda h: vectorize(h).to_dense()),
    (8, lambda h: qdrift_error(h, 1.0, 1, trials=2)),
    (8, lambda h: qdrift_channel_error(h, 1.0, 1, trials=2)),
    (6, lambda h: sandwich_check(h, hardware_efficient_layout(h.n, 0), [], 1.0)),
], ids=["pauli_matrix", "exact_evolution", "trotter_first_order", "shot_simulator",
        "to_dense", "qdrift_error", "qdrift_channel_error", "sandwich_check"])
def test_dense_cap_refused_one_qubit_above(cap, call):
    with pytest.raises(ValueError, match=f"capped at {cap} qubits, got {cap + 1}"):
        call(ising_neighbor(cap + 1))
