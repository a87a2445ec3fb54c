"""Exact evolution, product formulas, qDrift sampling, and the sandwich identity."""

import dataclasses
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliforge import dynamics
from pauliforge.ansatz import CompiledAnsatz, apply_ansatz, hardware_efficient_layout
from pauliforge.dense import apply_pauli, hamiltonian_expectation, pauli_expectation, pauli_matrix
from pauliforge.dynamics import (
    _CHUNK_AMPLITUDES,
    _PANEL_SIZE,
    QDriftPlan,
    engineered_qdrift_cost,
    exact_evolution,
    qdrift_apply,
    qdrift_channel_error,
    qdrift_error,
    qdrift_sample,
)
from pauliforge.hamiltonian import Hamiltonian, pauli_norm, vectorize
from pauliforge.model_io import ising_neighbor
from pauliforge.optimize import OptimizerConfig, optimize
from pauliforge.verification import (
    covariance_zero_check,
    sandwich_check,
    shot_simulator,
    trotter_first_order,
)

from oracles import (
    dense_hamiltonian,
    qdrift_apply_reference,
    qdrift_channel_error_reference,
    qdrift_channel_exact_reference,
    qdrift_error_reference,
    qdrift_panel_reference,
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

    @pytest.mark.parametrize("shape", [(3,), (8,), (5, 2), (4, 2, 1), ()])
    def test_bad_state_shape_rejected(self, shape):
        h = Hamiltonian(2, GOLDEN_2Q)
        plan = qdrift_sample(h, 0.7, 5, seed=4)
        with pytest.raises(ValueError, match=r"shape \(4,\) or \(4, k\)"):
            qdrift_apply(h, plan, np.ones(shape, dtype=complex))

    def test_state_equals_its_panel_column(self):
        h = ising_neighbor(3)
        plan = qdrift_sample(h, 0.9, 30, seed=2)
        panel = np.random.default_rng(2).normal(size=(8, 4)) + 0j
        out = qdrift_apply(h, plan, panel)
        for k in range(4):
            assert np.array_equal(qdrift_apply(h, plan, panel[:, k]), out[:, k])

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

    @pytest.mark.parametrize("t", [1e308, -1e308, np.float64(1e308)],
                             ids=["float", "negative", "float64"])
    def test_overflowing_step_refused(self, t):
        """t*gamma past the float range is refused, not sampled as an
        infinite step, and raises no overflow warning on the way."""
        h = Hamiltonian(2, GOLDEN_2Q)
        for call in (lambda: qdrift_sample(h, t, 1),
                     lambda: qdrift_error(h, t, 1, trials=2),
                     lambda: qdrift_channel_error(h, t, 1, trials=2)):
            with pytest.raises(ValueError, match="not finite"):
                call()

    def test_plan_indices_not_one_per_gate_rejected(self):
        """A plan applies exactly gate_count steps: fewer indices, more,
        or a 2-D array are refused instead of applied or broadcast."""
        h = Hamiltonian(2, GOLDEN_2Q)
        plan = qdrift_sample(h, 1.0, 5, seed=0)
        for indices in ([0, 1], [0] * 6, [[0, 1, 2, 0, 1]], [[0], [1], [2], [0], [1]]):
            bad = QDriftPlan(plan.gamma, plan.tau, 5, np.array(indices), 0)
            with pytest.raises(ValueError, match=r"indices of shape .*expected \(5,\)"):
                qdrift_apply(h, bad, np.eye(4, dtype=complex))


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



class TestExactQDriftChannel:
    """The channel oracle Phi^G against the Monte-Carlo trial average: on
    the golden sum at t = 0.5 and seed 1 the CLI's 200-trial value sits
    above the exact one by a margin that grows with G, and more trials
    close it."""

    GATES = (10, 40, 160, 640)

    def test_one_step_is_the_weighted_average_of_the_steps(self):
        rng = np.random.default_rng(21)
        h = random_hamiltonian(3, 7, rng, allow_identity=False)
        t = 0.4
        dim = 1 << h.n
        panel = qdrift_panel_reference(h, 3)
        gamma = pauli_norm(h)
        _, rho = qdrift_channel_exact_reference(h, t, 1, seed=3)
        want = np.zeros_like(rho)
        for j, (_p, c) in enumerate(h.terms_by_index()):
            plan = QDriftPlan(gamma, t * gamma, 1, np.array([j]), 0)
            out = qdrift_apply_reference(h, plan, panel)
            want += abs(c) / gamma * np.einsum("ik,jk->kij", out, out.conj())
        assert rho.shape == (panel.shape[1], dim, dim)
        assert np.max(np.abs(rho - want)) <= 1e-12

    def test_golden_values(self):
        h = Hamiltonian(2, GOLDEN_2Q)
        values = [qdrift_channel_exact_reference(h, 0.5, g, seed=1)[0] for g in self.GATES]
        assert [float(f"{v:.4g}") for v in values] == [0.3226, 0.1016, 0.02707, 0.006881]

    @pytest.mark.parametrize("gates", GATES)
    def test_monte_carlo_within_its_sampling_noise(self, gates):
        # Per panel state, the trial average rho_N deviates from its mean
        # Phi^G(rho) by at most (1/2)||rho_N - Phi^G(rho)||_1 in trace
        # distance, and E||.||_1 <= sqrt(d) sqrt((1 - tr Phi^G(rho)^2) / N)
        trials = 200
        h = Hamiltonian(2, GOLDEN_2Q)
        exact, rho = qdrift_channel_exact_reference(h, 0.5, gates, seed=1)
        purity = np.einsum("kij,kji->k", rho, rho).real
        noise = float(np.mean(0.5 * np.sqrt(1 << h.n) * np.sqrt((1.0 - purity) / trials)))
        sampled = qdrift_channel_error(h, 0.5, gates, trials=trials, seed=1)
        assert abs(sampled - exact) <= noise

    def test_monte_carlo_converges_as_trials_grow(self):
        h = Hamiltonian(2, GOLDEN_2Q)
        exact, _ = qdrift_channel_exact_reference(h, 0.5, 640, seed=1)
        ratios = [qdrift_channel_error(h, 0.5, 640, trials=trials, seed=1) / exact
                  for trials in (200, 2000)]
        assert [round(r, 2) for r in ratios] == [1.33, 1.06]

class TestDrawMatchesChoice:
    """_QDrift draws from Generator.choice's own cdf table, so a plan's
    indices are choice's, element for element and in dtype.  A NumPy whose
    choice draws differently fails here, not in a stream comparison."""

    @settings(max_examples=60, deadline=None)
    @given(weights=st.lists(st.one_of(st.floats(1e-3, 10.0), st.floats(1e-12, 1e-6),
                                      st.floats(5e-324, 1e-300)), min_size=1, max_size=40),
           data=st.data(), gates=st.integers(1, 700),
           seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
    def test_single_and_chunk_draws(self, weights, data, gates, seeds):
        signs = data.draw(st.lists(st.sampled_from([1.0, -1.0]),
                                   min_size=len(weights), max_size=len(weights)))
        # packed keys 0..63 are the 64 strings on 3 qubits
        h = Hamiltonian.from_arrays(3, np.arange(len(weights)), np.multiply(signs, weights))
        w = np.abs([c for _, c in h.terms_by_index()])
        p = w / w.sum()
        expected = [np.random.default_rng(seed).choice(len(p), size=gates, p=p) for seed in seeds]
        q = dynamics._QDrift(h, gates)
        for seed, want in zip(seeds, expected):
            single = q.draw([np.random.default_rng(seed)], gates)
            assert single.dtype == want.dtype and single.shape == (1, gates)
            assert np.array_equal(single[0], want)
        chunk = q.draw([np.random.default_rng(seed) for seed in seeds], gates)
        assert chunk.dtype == expected[0].dtype
        assert np.array_equal(chunk, np.stack(expected))
        # the same generators drawn a segment at a time give the same table
        rngs = [np.random.default_rng(seed) for seed in seeds]
        cut = data.draw(st.integers(0, gates))
        pieces = np.hstack([q.draw(rngs, cut), q.draw(rngs, gates - cut)])
        assert np.array_equal(pieces, np.stack(expected))


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


@st.composite
def qdrift_hamiltonians(draw):
    """1-4 qubits; Y-heavy strings (phase i^|x&z|) and negative
    coefficients (rotation direction) are common."""
    n = draw(st.integers(1, 4))
    labels = st.one_of(st.just("Y" * n), st.text(st.sampled_from("IXYYZ"), min_size=n, max_size=n))
    coeffs = st.one_of(st.floats(0.1, 3.0), st.floats(-3.0, -0.1))
    return Hamiltonian(n, draw(st.dictionaries(labels, coeffs, min_size=1, max_size=6)))


class TestBatchedAgainstReference:
    """Trial batching and chunking leave every output bit-identical to the
    per-trial dense reference."""

    @settings(max_examples=40, deadline=None)
    @given(h=qdrift_hamiltonians(),
           t=st.one_of(st.just(0.0), st.floats(-2.0, -0.05), st.floats(0.05, 2.0)),
           gates=st.integers(1, 12), trials=st.integers(2, 7),
           chunk_trials=st.integers(1, 8), chunk_draws=st.integers(1, 30),
           seed=st.integers(0, 2**16), vector=st.booleans())
    def test_matches_reference(self, h, t, gates, trials, chunk_trials, chunk_draws, seed,
                               vector):
        plan = qdrift_sample(h, t, gates, seed=seed)
        shape = (1 << h.n,) if vector else (1 << h.n, 3)
        states = np.random.default_rng(seed).normal(size=shape) + 0j
        assert np.array_equal(qdrift_apply(h, plan, states),
                              qdrift_apply_reference(h, plan, states))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_CHUNK_AMPLITUDES", chunk_trials * (_PANEL_SIZE << h.n))
            mp.setattr(dynamics, "_CHUNK_DRAWS", chunk_draws)
            assert (qdrift_error(h, t, gates, trials=trials, seed=seed)
                    == qdrift_error_reference(h, t, gates, trials=trials, seed=seed))
            assert (qdrift_channel_error(h, t, gates, trials=trials, seed=seed)
                    == qdrift_channel_error_reference(h, t, gates, trials=trials, seed=seed))

    def test_more_trials_than_one_chunk(self):
        h = ising_neighbor(4)
        trials = _CHUNK_AMPLITUDES // (_PANEL_SIZE << h.n) + 1
        assert (qdrift_error(h, 0.6, 3, trials=trials, seed=9)
                == qdrift_error_reference(h, 0.6, 3, trials=trials, seed=9))
        assert (qdrift_channel_error(h, -0.6, 3, trials=trials, seed=9)
                == qdrift_channel_error_reference(h, -0.6, 3, trials=trials, seed=9))


class TestPlanTableBound:
    """An error run draws its plans a segment of gates at a time, so the
    table of uniforms and indices stays within _CHUNK_DRAWS entries
    whatever G is, and the outputs do not change."""

    @pytest.fixture
    def tables(self, monkeypatch):
        shapes = []
        draw = dynamics._QDrift.draw

        def spy(self, *args):
            table = draw(self, *args)
            shapes.append(table.shape)
            return table

        monkeypatch.setattr(dynamics._QDrift, "draw", spy)
        return shapes

    def test_table_held_to_the_bound(self, tables, monkeypatch):
        # one 200 x 2000 table (400 000 entries) if G were not cut
        h = Hamiltonian(2, GOLDEN_2Q)
        got = qdrift_error(h, 0.5, 2000, trials=200, seed=3)
        assert max(rows * cols for rows, cols in tables) <= dynamics._CHUNK_DRAWS
        assert {rows for rows, _ in tables} == {200}
        assert sum(cols for _, cols in tables) == 2000
        monkeypatch.setattr(dynamics, "_CHUNK_DRAWS", 1 << 30)
        assert qdrift_error(h, 0.5, 2000, trials=200, seed=3) == got

    def test_peak_memory_does_not_grow_with_gates(self):
        # the uncut table peaks at about 3.2 KB per gate here (16 MB)
        h = Hamiltonian(2, GOLDEN_2Q)
        tracemalloc.start()
        try:
            qdrift_error(h, 0.5, 5000, trials=200, seed=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20

    def test_peak_memory_does_not_grow_with_trials(self):
        # spawning every trial's seed up front peaks at about 9 MiB here
        h = Hamiltonian(2, GOLDEN_2Q)
        tracemalloc.start()
        try:
            qdrift_error(h, 0.5, 1, trials=20_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    @pytest.mark.parametrize("h, gates, trials, shapes", [
        (Hamiltonian(2, GOLDEN_2Q), 640, 200, [(200, 640)]),
        (ising_neighbor(6), 160, 50, [(12, 160)] * 4 + [(2, 160)]),
    ])
    def test_benchmark_sizes_draw_whole_plans(self, tables, h, gates, trials, shapes):
        qdrift_error(h, 0.5, gates, trials=trials, seed=1)
        assert tables == shapes


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


def _record(h, layout, theta=None):
    """A short optimize record of h on layout; given angles, the record
    moved to them."""
    res = optimize(h, layout, OptimizerConfig(restarts=2, max_iterations=20, seed=9))
    if theta is None:
        return res
    engineered = apply_ansatz(h, layout, theta)
    return dataclasses.replace(res, theta_star=np.asarray(theta, dtype=float),
                               engineered=engineered, engineered_norm=pauli_norm(engineered))


class TestEngineeredQDriftCost:
    def test_theta_zero_equal(self):
        h = Hamiltonian(2, GOLDEN_2Q)
        layout = hardware_efficient_layout(2, 1)
        res = _record(h, layout, np.zeros(layout.parameter_count))
        model = engineered_qdrift_cost(res, 1.0, 0.01)
        assert np.isclose(model.g_original, model.g_engineered, atol=1e-9)
        assert model.ansatz_gate_count == len(layout.gates)

    def test_golden_value(self):
        model = engineered_qdrift_cost(
            _record(Hamiltonian(2, GOLDEN_2Q), hardware_efficient_layout(2, 1)), 1.0, 0.01)
        assert np.isclose(model.g_original, 3600.0, atol=1e-6)

    def test_monotone_in_engineered_norm(self):
        rng = np.random.default_rng(9)
        h = random_hamiltonian(2, 6, rng)
        res = _record(h, random_layout(2, rng))
        model = engineered_qdrift_cost(res, 1.0, 0.01)
        gamma = pauli_norm(h)
        gamma_eng = pauli_norm(apply_ansatz(h, res.layout, res.theta_star))
        assert np.isclose(model.g_engineered / model.g_original,
                          (gamma_eng / gamma) ** 2, atol=1e-9)

    def test_builds_no_engine(self):
        res = _record(Hamiltonian(2, GOLDEN_2Q), hardware_efficient_layout(2, 1))
        built = []
        init = CompiledAnsatz.__init__

        def spy(engine, h, layout):
            built.append(h.n)
            init(engine, h, layout)

        with mock.patch.object(CompiledAnsatz, "__init__", spy):
            model = engineered_qdrift_cost(res, 1.0, 0.01)
        assert built == []
        assert model.g_engineered == (res.engineered_norm * 1.0) ** 2 / 0.01

    def test_epsilon_validated(self):
        res = _record(Hamiltonian(2, GOLDEN_2Q), hardware_efficient_layout(2, 1))
        with pytest.raises(ValueError):
            engineered_qdrift_cost(res, 1.0, 0.0)

    @pytest.mark.parametrize("epsilon", [np.nan, np.inf])
    def test_non_finite_epsilon_rejected(self, epsilon):
        res = _record(Hamiltonian(2, GOLDEN_2Q), hardware_efficient_layout(2, 1))
        with pytest.raises(ValueError, match="finite"):
            engineered_qdrift_cost(res, 1.0, epsilon)

    @pytest.mark.parametrize("t, epsilon", [
        (1e200, 0.01),  # (gamma*t)**2 overflows
        (np.float64(1e200), 0.01),
        (1.0, 1e-320),  # the counts are inf
        (np.nan, 0.01),
    ], ids=["t-1e200", "float64-t-1e200", "eps-1e-320", "t-nan"])
    def test_count_that_is_not_finite_refused(self, t, epsilon):
        res = _record(Hamiltonian(2, GOLDEN_2Q), hardware_efficient_layout(2, 1))
        message = f"t {float(t)} and epsilon {epsilon} give a gate count that is not finite"
        with pytest.raises(ValueError, match=re.escape(message)):
            engineered_qdrift_cost(res, t, epsilon)


def _state(h):
    return np.eye(1 << h.n, 1, dtype=complex)[:, 0]


def _one_step_plan(h):
    return QDriftPlan(pauli_norm(h), 0.1, 1, np.array([0]), 0)


# The caps listed under "Numerical scope" in the README: dense operators
# and states <= 10 qubits, repeated-trial qDrift runs <= 8, sandwich
# checks <= 6.
@pytest.mark.parametrize("cap, call", [
    (10, lambda h: pauli_matrix(next(iter(h))[0])),
    (10, lambda h: apply_pauli(next(iter(h))[0], _state(h))),
    (10, lambda h: pauli_expectation(next(iter(h))[0], _state(h))),
    (10, lambda h: hamiltonian_expectation(h, _state(h))),
    (10, lambda h: hamiltonian_expectation(0 * h, _state(h))),
    (10, lambda h: qdrift_apply(h, _one_step_plan(h), _state(h))),
    (10, lambda h: covariance_zero_check(*[p for p, _ in h.terms_by_index()[:2]])),
    (10, lambda h: exact_evolution(h, 1.0)),
    (10, lambda h: trotter_first_order(h, 1.0, 1)),
    (10, lambda h: shot_simulator(h, np.zeros(2))),
    (10, lambda h: vectorize(h).to_dense()),
    (8, lambda h: qdrift_error(h, 1.0, 1, trials=2)),
    (8, lambda h: qdrift_channel_error(h, 1.0, 1, trials=2)),
    (6, lambda h: sandwich_check(h, hardware_efficient_layout(h.n, 0), [], 1.0)),
], ids=["pauli_matrix", "apply_pauli", "pauli_expectation", "hamiltonian_expectation",
        "expectation_of_zero_sum", "qdrift_apply", "covariance_zero_check", "exact_evolution",
        "trotter_first_order", "shot_simulator", "to_dense", "qdrift_error",
        "qdrift_channel_error", "sandwich_check"])
def test_dense_cap_refused_one_qubit_above(cap, call):
    """Refused before any dense array is built: one past the cap, a
    dense matrix would take 64 MiB and the row tables of the input's
    terms 1 MiB or more; the call peaks under 256 KiB."""
    h = ising_neighbor(cap + 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"capped at {cap} qubits, got {cap + 1}"):
            call(h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**10
