"""Exact evolution, product formulas, qDrift sampling, and the sandwich identity."""

import dataclasses
import json
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pauliforge import cli, dynamics
from pauliforge.ansatz import CompiledAnsatz, apply_ansatz, hardware_efficient_layout
from pauliforge.dense import pauli_matrix
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
    apply_pauli,
    covariance_zero_check,
    hamiltonian_expectation,
    pauli_expectation,
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

    @pytest.mark.parametrize("indices", [[0.7, 1.9], [0.0, np.nan], [0.0, np.inf], [0j, 1j],
                                         ["0", "1"], [True, False],
                                         np.array([1, 0], dtype=bool)], ids=repr)
    def test_plan_indices_that_are_not_integers_refused(self, indices):
        """Indices are refused, not truncated to [0, 1]."""
        with pytest.raises(ValueError, match="indices must be integers"):
            QDriftPlan(gamma=6.0, tau=0.1, gate_count=2, indices=indices, seed=0)

    def test_plan_indices_that_are_integers_kept(self):
        for indices in ([0, 2], [0.0, 2.0], np.array([0, 2], dtype=np.uint8)):
            plan = QDriftPlan(gamma=6.0, tau=0.1, gate_count=2, indices=indices, seed=0)
            assert plan.indices.dtype == np.intp and plan.indices.tolist() == [0, 2]

    @pytest.mark.parametrize("gamma, tau", [(6.0, np.nan), (6.0, np.inf), (np.nan, 0.1),
                                            (-np.inf, 0.1)])
    def test_plan_step_that_is_not_finite_refused(self, gamma, tau):
        """A NaN tau would apply as all-NaN states."""
        with pytest.raises(ValueError, match="must be finite"):
            QDriftPlan(gamma=gamma, tau=tau, gate_count=2, indices=[0, 1], seed=0)

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
        q = dynamics._QDrift(h)
        for seed, want in zip(seeds, expected):
            rng = np.random.default_rng(seed)
            single = q.draw(rng, [rng.bit_generator.state], gates)
            assert single.dtype == want.dtype and single.shape == (1, gates)
            assert np.array_equal(single[0], want)
        rng = np.random.default_rng()
        states = [np.random.default_rng(seed).bit_generator.state for seed in seeds]
        chunk = q.draw(rng, states, gates)
        assert chunk.dtype == expected[0].dtype
        assert np.array_equal(chunk, np.stack(expected))
        # the same streams drawn a segment at a time give the same table
        cut = data.draw(st.integers(0, gates))
        pieces = np.hstack([q.draw(rng, states, cut), q.draw(rng, states, gates - cut, cut)])
        assert np.array_equal(pieces, np.stack(expected))


class TestSeedStreams:
    """Trial streams are seeded in bulk, with no SeedSequence or bit
    generator per trial, and each is NumPy's spawned child bit for bit:
    the same PCG64 state, the same uniforms whole or in segments."""

    ENTROPIES = st.one_of(st.integers(0, 2**130 - 1),
                          st.tuples(st.integers(0, 2**64 + 5), st.integers(1, 10**6)))

    @staticmethod
    def root(entropy):
        return dynamics._SpawnRoot(dynamics._entropy_words(entropy))

    @settings(max_examples=40, deadline=None)
    @given(entropy=ENTROPIES, start=st.integers(0, 300), count=st.integers(0, 40),
           data=st.data())
    def test_children_are_spawned_children(self, entropy, start, count, data):
        states = self.root(entropy).states(start, count)
        children = np.random.SeedSequence(entropy).spawn(start + count)[start:]
        assert len(states) == count
        gen = np.random.Generator(np.random.PCG64(0))
        size = data.draw(st.integers(1, 50))
        cut = data.draw(st.integers(0, size))
        for state, child in zip(states, children):
            assert state == np.random.PCG64(child).state
            want = np.random.Generator(np.random.PCG64(child)).random(size)
            gen.bit_generator.state = state
            assert np.array_equal(gen.random(size), want)
            gen.bit_generator.state = state
            gen.bit_generator.advance(cut)
            assert np.array_equal(gen.random(size - cut), want[cut:])

    @settings(max_examples=20, deadline=None)
    @given(entropy=ENTROPIES, data=st.data(), count=st.integers(1, 6),
           start=st.one_of(st.integers(2**32 - 7, 2**32 + 7), st.integers(2**32, 2**64 - 7),
                           st.integers(2**64 - 7, 2**64 - 1)))
    def test_spawn_keys_past_one_word(self, entropy, data, count, start):
        # spawn() builds child i as SeedSequence(entropy, spawn_key=(i,)),
        # and a key past 2**32 - 1 hashes as two words
        count = min(count, 2**64 - start)
        states = self.root(entropy).states(start, count)
        assert len(states) == count
        for i, state in zip(range(start, start + count), states):
            child = np.random.SeedSequence(entropy, spawn_key=(i,))
            assert state == np.random.PCG64(child).state

    @pytest.mark.parametrize("start, count", [(-1, 2), (2**64 - 1, 2), (2**64, 1), (3, -4)])
    def test_children_outside_the_key_range_refused(self, start, count):
        with pytest.raises(ValueError, match="not within"):
            self.root(7).states(start, count)

    def test_one_generator_per_run(self, capsys, monkeypatch):
        made, pcg64 = [], np.random.PCG64

        def counted(*args, **kwargs):
            made.append(args)
            return pcg64(*args, **kwargs)

        monkeypatch.setattr(np.random, "PCG64", counted)
        gates = [10, 40, 160, 640]
        assert cli.main(["qdrift", "--ham", "ising-neighbor:2", "--time", "0.5", "--gates",
                         ",".join(map(str, gates)), "--trials", "50", "--seed", "1"]) == 0
        assert len(json.loads(capsys.readouterr().out)["results"]["rows"]) == len(gates)
        # one per state run and one per channel run; a generator per trial
        # would make 2 * 50 per G
        assert len(made) <= 2 * len(gates)

    # Seeds SeedSequence refuses, bare and as (seed, G): the state run's
    # root is SeedSequence(seed), the channel run's SeedSequence((seed, G)).
    REFUSED = [-1, -(2**70), 1.5, np.float64(2.0), 1j, [3, -1], (2, 1.5), "x"]

    @pytest.mark.parametrize("seed", REFUSED, ids=repr)
    @pytest.mark.parametrize("run, entropy", [(qdrift_error, lambda s: s),
                                              (qdrift_channel_error, lambda s: (s, 10))],
                             ids=["state", "channel"])
    def test_refused_as_seed_sequence_refuses(self, seed, run, entropy):
        with pytest.raises(Exception) as numpy_refusal:
            np.random.SeedSequence(entropy(seed))
        with pytest.raises(numpy_refusal.type):
            run(Hamiltonian(2, GOLDEN_2Q), 0.5, 10, trials=2, seed=seed)

    @pytest.mark.parametrize("seed", [True, np.uint64(5), np.int8(3), 2**64 + 1], ids=repr)
    def test_odd_accepted_seeds_keep_their_streams(self, seed):
        h = Hamiltonian(2, GOLDEN_2Q)
        assert (qdrift_error(h, 0.5, 30, trials=5, seed=seed)
                == qdrift_error_reference(h, 0.5, 30, trials=5, seed=seed))
        assert (qdrift_channel_error(h, 0.5, 30, trials=5, seed=seed)
                == qdrift_channel_error_reference(h, 0.5, 30, trials=5, seed=seed))
        assert np.array_equal(qdrift_sample(h, 0.5, 30, seed=seed).indices,
                              qdrift_sample_reference(h, 0.5, 30, seed=seed).indices)

    @pytest.mark.parametrize("seed", [[1, 2**40], np.array([3, 4], dtype=np.uint32),
                                      np.array([5, 2**33]), "0x1f", "017", "1_000"], ids=repr)
    def test_sequence_and_text_entropy_keep_their_streams(self, seed):
        # SeedSequence takes text only inside a sequence, so the state run
        # refuses "0x1f" where the channel run, seeded by (seed, G), takes it
        h = Hamiltonian(2, GOLDEN_2Q)
        if not isinstance(seed, str):
            assert (qdrift_error(h, 0.5, 30, trials=5, seed=seed)
                    == qdrift_error_reference(h, 0.5, 30, trials=5, seed=seed))
        assert (qdrift_channel_error(h, 0.5, 30, trials=5, seed=seed)
                == qdrift_channel_error_reference(h, 0.5, 30, trials=5, seed=seed))


class TestCountsRefused:
    """A gate count or trial count that is a bool or not an integer is
    refused with a ValueError before any work; NumPy integers pass."""

    H = Hamiltonian(2, GOLDEN_2Q)
    CALLS = {
        "error gates": lambda v: qdrift_error(TestCountsRefused.H, 0.5, v, trials=5),
        "error trials": lambda v: qdrift_error(TestCountsRefused.H, 0.5, 10, trials=v),
        "channel gates": lambda v: qdrift_channel_error(TestCountsRefused.H, 0.5, v, trials=5),
        "channel trials": lambda v: qdrift_channel_error(TestCountsRefused.H, 0.5, 10, trials=v),
        "sample gates": lambda v: qdrift_sample(TestCountsRefused.H, 0.5, v),
        "plan gates": lambda v: QDriftPlan(gamma=6.0, tau=0.1, gate_count=v, indices=[0] * 5,
                                           seed=0),
    }

    @pytest.mark.parametrize("value", [2.5, 2.0, 3.0, True, False, np.bool_(True), "3", None,
                                       np.float64(4.0)], ids=repr)
    @pytest.mark.parametrize("call", CALLS, ids=str)
    def test_refused_before_any_work(self, monkeypatch, call, value):
        def no_work(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(dynamics, "_QDrift", no_work)
        monkeypatch.setattr(dynamics, "_entropy_words", no_work)
        with pytest.raises(ValueError, match="must be an integer"):
            self.CALLS[call](value)

    @pytest.mark.parametrize("call", CALLS, ids=str)
    def test_numpy_integers_accepted(self, call):
        def result(v):
            out = self.CALLS[call](v)
            if isinstance(out, QDriftPlan):  # plans compare by value over all fields
                assert type(out.gate_count) is int
            return out

        assert result(np.int64(5)) == result(np.int32(5)) == result(np.uint8(5)) == result(5)


class TestChannelMemory:
    """The channel run forms only the lower triangle of rho, a block of
    rows per einsum, so no call forms more than one block's products for
    a batch of trials, and rho and one trial's square never coexist."""

    @pytest.mark.parametrize("n, trials", [(6, 12), (8, 6)])
    def test_einsum_products_bounded(self, monkeypatch, n, trials):
        # a whole square per trial is 20 * 4**n products: 81 920 at n = 6
        # and 1 310 720 at n = 8
        sizes = []
        einsum = np.einsum

        def spy(*args, **kwargs):
            out = einsum(*args, **kwargs)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(np, "einsum", spy)
        qdrift_channel_error(ising_neighbor(n), 0.5, 4, trials=trials, seed=1)
        assert sizes and max(sizes) <= max(_CHUNK_AMPLITUDES, _PANEL_SIZE << n)

    def test_peak_memory_at_the_qubit_cap(self):
        # the whole-square reduction peaked at 40.4 MiB here: rho and one
        # trial's products are 20 MiB each; the lower-triangle sums are
        # about 10 MiB
        h = ising_neighbor(8)
        tracemalloc.start()
        try:
            qdrift_channel_error(h, 0.5, 4, trials=6, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 << 20


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

    @settings(max_examples=40, deadline=None)
    @given(h=qdrift_hamiltonians(),
           t=st.one_of(st.just(0.0), st.floats(-2.0, -0.05), st.floats(0.05, 2.0)),
           gate_counts=st.lists(st.integers(1, 12), min_size=2, max_size=4),
           trials=st.integers(2, 7), chunk_amplitudes=st.integers(1, 3000),
           chunk_draws=st.integers(1, 30), seed=st.integers(0, 2**16))
    def test_shared_setup_matches_fresh_runs(self, h, t, gate_counts, trials, chunk_amplitudes,
                                             chunk_draws, seed):
        """One setup serves a sweep over G, in any order and with repeats:
        each run equals the run that builds its own, bit for bit, with
        trial chunks, channel batches and eigvalsh groups cut small."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_CHUNK_AMPLITUDES", chunk_amplitudes)
            mp.setattr(dynamics, "_CHUNK_DRAWS", chunk_draws)
            setup = dynamics._RunSetup(h, t, seed)
            for gates in gate_counts:
                assert (qdrift_error(h, t, gates, trials=trials, seed=seed, setup=setup)
                        == qdrift_error(h, t, gates, trials=trials, seed=seed))
                assert (qdrift_channel_error(h, t, gates, trials=trials, seed=seed, setup=setup)
                        == qdrift_channel_error(h, t, gates, trials=trials, seed=seed))

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


class TestRunSetup:
    """A qdrift sweep builds its panel, exact outputs and row tables once,
    whatever the number of gate counts."""

    @pytest.mark.parametrize("ham, gates", [("ising-neighbor:2", "10,40,160,640"),
                                            ("ising-neighbor:6", "10,40,160")])
    def test_one_command_sets_up_once(self, capsys, monkeypatch, ham, gates):
        calls = {"exact_evolution": 0, "haar_state": 0, "_pauli_rows": 0}

        def counted(name):
            original = getattr(dynamics, name)

            def spy(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return spy

        for name in calls:
            monkeypatch.setattr(dynamics, name, counted(name))
        assert cli.main(["qdrift", "--ham", ham, "--time", "0.5", "--gates", gates,
                         "--trials", "10", "--seed", "1"]) == 0
        assert len(json.loads(capsys.readouterr().out)["results"]["rows"]) == len(gates.split(","))
        assert calls == {"exact_evolution": 1, "haar_state": _PANEL_SIZE, "_pauli_rows": 1}

    @pytest.mark.parametrize("run", [qdrift_error, qdrift_channel_error])
    def test_setup_for_another_run_refused(self, run):
        h = Hamiltonian(2, GOLDEN_2Q)
        setup = dynamics._RunSetup(h, 0.5, 1)
        for other_h, t, seed in ((2.0 * h, 0.5, 1), (ising_neighbor(2), 0.5, 1),
                                 (h, 0.6, 1), (h, 0.5, 2)):
            with pytest.raises(ValueError, match="built for another"):
                run(other_h, t, 10, trials=2, seed=seed, setup=setup)
        run(Hamiltonian(2, GOLDEN_2Q), 0.5, 10, trials=2, seed=1, setup=setup)

    def test_benchmark_size_sweep_peak_memory(self):
        # the parent of the shared setup peaked at 2882 KiB in the G = 160
        # channel run, when one trial's einsum products and the whole rho were
        # 1.25 MiB each; the lower-triangle sums are about 0.75 MiB
        h = ising_neighbor(6)
        tracemalloc.start()
        try:
            setup = dynamics._RunSetup(h, 0.5, 1)
            for gates in (10, 40, 160):
                qdrift_error(h, 0.5, gates, trials=50, seed=1, setup=setup)
                qdrift_channel_error(h, 0.5, gates, trials=50, seed=1, setup=setup)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 << 20


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
