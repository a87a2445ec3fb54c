"""Cost functions, gradients, optimization loop, and the partition trick."""

import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pauliforge.optimize as optimize_module
from pauliforge.ansatz import (
    CompiledAnsatz,
    Gate,
    apply_ansatz,
    hardware_efficient_layout,
    layout_from_gates,
)
from pauliforge.dynamics import exact_evolution
from pauliforge.hamiltonian import Hamiltonian, embed, l2_norm, pauli_norm, vectorize
from pauliforge.model_io import ising_neighbor
from pauliforge.optimize import (
    COST_KINDS,
    GRADIENT_MODES,
    METHODS,
    OptimizerConfig,
    _batches,
    _run_restarts,
    cost_gradient,
    cost_q,
    optimize,
)
from pauliforge.partition import (
    PartitionPart,
    optimize_partitioned,
    partition,
    partition_by_restriction,
)
from pauliforge.paulis import PauliString

from oracles import (
    ansatz_unitary_oracle,
    circuits,
    dense_hamiltonian,
    haar_like_state,
    random_hamiltonian,
    random_layout,
    random_theta,
    run_single_reference,
)


class TestCostQ:
    def test_basis_vector(self):
        h = Hamiltonian(2, {"XY": 7.0})
        assert cost_q(vectorize(h)) == 1.0

    def test_uniform(self):
        d = 16
        h = Hamiltonian(2, {PauliString.from_index(i, 2): 1.0 for i in range(d)})
        assert np.isclose(cost_q(vectorize(h)), 1.0 / d, atol=1e-14)

    def test_section2_example(self):
        h = Hamiltonian(1, {"I": 1.0, "X": 2.0, "Y": 3.0, "Z": -4.0})
        # direct arithmetic: sum h_i^4 / lambda^4 = (1+16+81+256)/900
        assert np.isclose(cost_q(vectorize(h)), 354.0 / 900.0, atol=1e-14)


class TestGradient:
    def test_zero_gradient_when_hamiltonian_fixed(self):
        # ZZ commutes with every RZ and CZ generator
        h = Hamiltonian(2, {"ZZ": 1.0})
        layout = hardware_efficient_layout(2, 1, rotations=("RZ",))
        theta = np.full(layout.parameter_count, 0.3)
        for kind in ("l1", "q"):
            g = cost_gradient(h, layout, theta, OptimizerConfig(cost_kind=kind))
            assert np.allclose(g, 0.0, atol=1e-14)

    def test_single_parameter_closed_form(self):
        # H = Y under RX(theta): Q(theta) = cos^4 + sin^4, dQ/dtheta = -sin(4 theta)
        h = Hamiltonian(1, {"Y": 1.0})
        layout = layout_from_gates(1, [Gate("RX", (0,), 0)])
        config = OptimizerConfig(cost_kind="q")
        for theta in np.linspace(-3, 3, 13):
            g = cost_gradient(h, layout, np.array([theta]), config)
            assert np.isclose(g[0], -np.sin(4 * theta), atol=1e-12)

    @pytest.mark.parametrize("kind", ["l1", "q"])
    def test_analytic_matches_central_difference(self, kind):
        rng = np.random.default_rng(21)
        for _ in range(8):
            n = int(rng.integers(1, 4))
            h = random_hamiltonian(n, 3 * n + 2, rng)
            layout = random_layout(n, rng)
            theta = random_theta(layout, rng)
            ga = cost_gradient(h, layout, theta,
                               OptimizerConfig(cost_kind=kind, gradient_mode="analytic"))
            gc = cost_gradient(h, layout, theta,
                               OptimizerConfig(cost_kind=kind,
                                               gradient_mode="central_difference"))
            rel = np.linalg.norm(ga - gc) / max(np.linalg.norm(gc), 1e-12)
            assert rel <= 1e-5


class TestOptimize:
    def test_single_term_already_optimal(self):
        h = Hamiltonian(2, {"XZ": 2.5})
        layout = hardware_efficient_layout(2, 1)
        res = optimize(h, layout, OptimizerConfig(restarts=2, max_iterations=30, seed=1))
        assert res.engineered_norm == res.original_norm == 2.5
        assert np.isclose(cost_q(vectorize(res.engineered)), 1.0, atol=1e-12)

    def test_x_plus_z_single_ry_reaches_sqrt2(self):
        h = Hamiltonian(1, {"X": 1.0, "Z": 1.0})
        layout = layout_from_gates(1, [Gate("RY", (0,), 0)])
        # brute-force scan oracle over a 10^4 grid confirms the optimum value
        # (grid resolution limits the scan itself to ~5e-4 of the kink minimum)
        grid = np.linspace(0, 2 * np.pi, 10_000)
        norms = [pauli_norm(apply_ansatz(h, layout, [t])) for t in grid]
        assert np.isclose(min(norms), np.sqrt(2.0), atol=1e-3)
        config = OptimizerConfig(method="plain", restarts=4, max_iterations=400, seed=7)
        res = optimize(h, layout, config)
        assert abs(res.engineered_norm - np.sqrt(2.0)) <= 1e-6

    def test_never_worse_than_original(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            h = random_hamiltonian(2, 8, rng)
            layout = hardware_efficient_layout(2, 1)
            res = optimize(h, layout, OptimizerConfig(restarts=2, max_iterations=15,
                                                      seed=int(rng.integers(1000))))
            assert res.engineered_norm <= res.original_norm + 1e-12
            assert np.isclose(res.engineered_norm, pauli_norm(res.engineered), atol=1e-12)
            assert np.isclose(l2_norm(res.engineered), l2_norm(h), atol=1e-10)

    def test_plain_q_trace_monotone(self):
        rng = np.random.default_rng(23)
        h = random_hamiltonian(2, 8, rng)
        layout = hardware_efficient_layout(2, 1)
        res = optimize(h, layout, OptimizerConfig(cost_kind="q", method="plain",
                                                  restarts=3, max_iterations=80, seed=5))
        trace = np.asarray(res.cost_trace)
        assert np.all(np.diff(trace) >= -1e-12)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(24)
        h = random_hamiltonian(2, 6, rng)
        layout = hardware_efficient_layout(2, 1)
        config = OptimizerConfig(restarts=3, max_iterations=40, seed=99)
        r1 = optimize(h, layout, config)
        r2 = optimize(h, layout, config)
        assert np.array_equal(r1.theta_star, r2.theta_star)
        assert r1.engineered_norm == r2.engineered_norm
        assert r1.cost_trace == r2.cost_trace
        assert r1.restart_index == r2.restart_index

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(25)
        h = random_hamiltonian(3, 10, rng)
        layout = hardware_efficient_layout(3, 1)
        res = optimize(h, layout, OptimizerConfig(restarts=2, max_iterations=30, seed=3))
        e0 = np.sort(np.linalg.eigvalsh(dense_hamiltonian(h)))
        e1 = np.sort(np.linalg.eigvalsh(dense_hamiltonian(res.engineered)))
        assert np.allclose(e0, e1, atol=1e-8)

    def test_zero_hamiltonian_rejected(self):
        with pytest.raises(ValueError):
            optimize(Hamiltonian(1, {}), hardware_efficient_layout(1, 1))

    @pytest.mark.parametrize("run", [
        lambda h, layout: optimize(h, layout, OptimizerConfig(restarts=1, max_iterations=2)),
        lambda h, layout: cost_gradient(h, layout, np.zeros(layout.parameter_count),
                                        OptimizerConfig()),
    ], ids=["optimize", "cost_gradient"])
    @pytest.mark.parametrize("terms", [{"XX": 1e200, "ZZ": 1e200, "YY": 1e200},
                                       {"XI": 1e308, "ZI": 1e308}], ids=["squares", "norm"])
    def test_overflowing_sum_of_squares_rejected(self, run, terms):
        """Finite coefficients whose sum of squares overflows have no cost;
        they are refused, without a warning, instead of engineered to an
        l2 norm of inf."""
        h = Hamiltonian(2, terms)
        with pytest.raises(ValueError, match="sum of squared coefficients overflows"):
            run(h, hardware_efficient_layout(2, 1))

    def test_numpy_qubit_count_engineers_as_the_python_int(self):
        h = ising_neighbor(3)
        twin = Hamiltonian.from_arrays(np.int64(3), h.keys, h.coeffs)
        got = optimize(twin, hardware_efficient_layout(twin.n, 1))
        want = optimize(h, hardware_efficient_layout(3, 1))
        assert got.engineered == want.engineered
        assert np.array_equal(got.theta_star, want.theta_star)
        assert (got.cost_trace, got.restart_index) == (want.cost_trace, want.restart_index)


class TestZeroAngleCandidate:
    """The zero-angle circuit, where only the CZs act, is priced with the
    restarts and reported as restart_index -1; whichever row wins, the
    result is that circuit's own output."""

    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_engineered_is_the_output_at_theta_star(self, depth):
        rng = np.random.default_rng(depth)
        winners = []
        for iterations in (1, 40):
            for rotations in (("RX", "RZ"), ("RY",)):
                n = int(rng.integers(2, 4))
                h = random_hamiltonian(n, int(rng.integers(2, 7)), rng)
                layout = hardware_efficient_layout(n, depth, rotations=rotations)
                res = optimize(h, layout, OptimizerConfig(restarts=2, max_iterations=iterations,
                                                          seed=depth))
                assert res.layout is layout
                assert apply_ansatz(h, res.layout, res.theta_star) == res.engineered
                assert res.engineered_norm == pauli_norm(res.engineered)
                winners.append(res.restart_index)
        # with gates the zero row wins some runs, with none it never does
        assert (-1 in winners) == (depth > 0)

    def test_sandwich_identity_at_odd_cz_depth(self):
        h = ising_neighbor(4)
        layout = hardware_efficient_layout(4, 3)
        res = optimize(h, layout, OptimizerConfig(restarts=3, max_iterations=30, seed=1))
        assert res.restart_index == -1
        u = ansatz_unitary_oracle(layout, res.theta_star)
        t = 0.7
        lhs = u.conj().T @ exact_evolution(res.engineered, t) @ u
        assert np.linalg.norm(lhs - exact_evolution(h, t), 2) <= 1e-10

    def test_zero_row_costs_no_pass_of_its_own(self):
        """One pass per iteration and one final pass prices every row,
        the zero row included; its one-entry trace comes from that pass."""
        h = ising_neighbor(3)
        layout = hardware_efficient_layout(3, 1)
        config = OptimizerConfig(restarts=2, max_iterations=2, seed=1)
        calls = []
        propagate = CompiledAnsatz.propagate

        def spy(engine, theta):
            calls.append(len(theta))
            return propagate(engine, theta)

        with mock.patch.object(CompiledAnsatz, "propagate", spy):
            res = optimize(h, layout, config)
        assert res.restart_index == -1
        assert calls == [2, 2, 3]
        zero = np.zeros((1, layout.parameter_count))
        want = optimize_module._forward_cost(CompiledAnsatz(h, layout), zero, l2_norm(h), "l1")
        assert res.cost_trace == want.tolist()


def batched(engine, rows):
    """Patch the batch bound so that each batch of ``engine`` holds ``rows`` rows."""
    return mock.patch.object(optimize_module, "_BATCH_ENTRIES", engine.entries * rows)


def assert_lockstep_matches_reference(h, layout, theta0, config):
    """_run_restarts, with batches of 1, 2 and all rows, gives every
    restart the angles and trace of its run alone; returns those runs
    (none when a run meets a non-finite value, which must then raise
    in lockstep too)."""
    engine = CompiledAnsatz(h, layout)
    lam = l2_norm(h)
    try:
        refs = [run_single_reference(engine, row, config, lam) for row in theta0]
    except ArithmeticError:
        for rows in (1, 2, len(theta0)):
            with batched(engine, rows), pytest.raises(ArithmeticError):
                _run_restarts(engine, theta0, config, lam)
        return []
    for rows in (1, 2, len(theta0)):
        with batched(engine, rows):
            thetas, traces = _run_restarts(engine, theta0, config, lam)
        assert thetas.shape == theta0.shape
        for r, (ref_theta, ref_trace) in enumerate(refs):
            assert np.array_equal(thetas[r], ref_theta)
            assert traces[r] == ref_trace
    return refs


@st.composite
def restart_cases(draw):
    mode = draw(st.sampled_from(GRADIENT_MODES))
    # Central differences take 2P forward passes per row and iteration.
    h, layout, theta0 = draw(circuits(rows=4, max_qubits=3 if mode == "analytic" else 2))
    if draw(st.booleans()):
        # theta = 0 is often stationary: there Adam stalls after
        # _STALL_PATIENCE iterations and the plain method stops at once.
        theta0[0] = 0.0
    config = OptimizerConfig(
        cost_kind=draw(st.sampled_from(COST_KINDS)),
        method=draw(st.sampled_from(METHODS)),
        gradient_mode=mode,
        max_iterations=draw(st.integers(1, 30)),
        learning_rate=draw(st.sampled_from([0.05, 0.3, 2.0])),
        restarts=len(theta0),
    )
    return h, layout, theta0, config


class TestLockstepRestarts:
    @settings(max_examples=60, deadline=None)
    @given(restart_cases())
    def test_each_restart_matches_its_run_alone(self, case):
        h, layout, theta0, config = case
        assume(l2_norm(h) > 0.0)
        assert_lockstep_matches_reference(h, layout, theta0, config)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("kind", COST_KINDS)
    @pytest.mark.parametrize("mode", GRADIENT_MODES)
    def test_restarts_stopping_at_different_iterations(self, method, kind, mode):
        # theta = 0 is a stationary point of both costs of X + Z under RY:
        # there the plain method stops at once on a zero gradient, while
        # the other restarts run on until they stall or run out.
        h = Hamiltonian(1, {"X": 1.0, "Z": 1.0})
        layout = layout_from_gates(1, [Gate("RY", (0,), 0)])
        theta0 = np.array([[0.0], [0.3], [2.0], [4.0]])
        config = OptimizerConfig(cost_kind=kind, method=method, gradient_mode=mode,
                                 max_iterations=120, restarts=len(theta0))
        refs = assert_lockstep_matches_reference(h, layout, theta0, config)
        lengths = [len(trace) for _, trace in refs]
        assert len(set(lengths)) > 1
        if method == "plain":
            assert lengths[0] == 2  # one iteration, then the best value

    @pytest.mark.parametrize("kind", COST_KINDS)
    @pytest.mark.parametrize("mode", GRADIENT_MODES)
    def test_failed_line_search_stops_only_its_restart(self, kind, mode):
        # pi/4 minimizes the l1 cost of X + Z under RY (and maximizes Q) at
        # a kink, where the gradient is a few ulps but not zero.  With a
        # huge learning rate every halving step lands on an arbitrary angle
        # that does worse, so that restart's line search fails.
        h = Hamiltonian(1, {"X": 1.0, "Z": 1.0})
        layout = layout_from_gates(1, [Gate("RY", (0,), 0)])
        theta0 = np.array([[0.3], [np.pi / 4], [2.0]])
        config = OptimizerConfig(cost_kind=kind, method="plain", gradient_mode=mode,
                                 learning_rate=1e60, max_iterations=40,
                                 restarts=len(theta0))
        refs = assert_lockstep_matches_reference(h, layout, theta0, config)
        assert [len(trace) == 2 for _, trace in refs] == [False, True, False]

    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_optimize_does_not_depend_on_batch_size(self, rows):
        h = ising_neighbor(3)
        layout = hardware_efficient_layout(3, 2)
        config = OptimizerConfig(restarts=5, max_iterations=15, seed=4)
        want = optimize(h, layout, config)
        with batched(CompiledAnsatz(h, layout), rows):
            got = optimize(h, layout, config)
        assert np.array_equal(got.theta_star, want.theta_star)
        assert got.cost_trace == want.cost_trace
        assert got.restart_index == want.restart_index
        assert got.engineered == want.engineered

    def test_batch_size_follows_the_compiled_supports(self):
        """The depth-3 8-qubit chain's three restarts fit one batch, as do
        shallow circuits'."""
        for n, depth, rows in ((8, 3, 3), (8, 2, 3), (4, 2, 3)):
            engine = CompiledAnsatz(ising_neighbor(n), hardware_efficient_layout(n, depth))
            stack = np.zeros((3, engine.layout.parameter_count))
            assert [len(angles) for _, angles in _batches(engine, stack)] \
                == [rows] * (3 // rows)


class TestConfig:
    @pytest.mark.parametrize("field, value", [
        ("cost_kind", "l2"),
        ("gradient_mode", "forward"),
        ("method", "sgd"),
        ("max_iterations", 0),
        ("max_iterations", 2.5),
        ("max_iterations", 20.0),
        ("max_iterations", True),
        ("restarts", 0),
        ("restarts", 1.5),
        ("restarts", "3"),
        ("restarts", True),
        ("restarts", 2.0),
        ("max_iterations", "3"),
        ("seed", -1),
        ("seed", 1.5),
        ("seed", None),
        ("seed", True),
        ("seed", 2.0),
        ("seed", "3"),
        ("learning_rate", 0.0),
        ("learning_rate", np.nan),
        ("learning_rate", np.inf),
        ("learning_rate", True),
        ("learning_rate", "0.1"),
        ("learning_rate", None),
        ("learning_rate", 1j),
    ])
    def test_bad_value_rejected_naming_its_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        config = OptimizerConfig(restarts=np.int64(2), max_iterations=np.int32(3),
                                 seed=np.uint8(7))
        assert (config.restarts, config.max_iterations, config.seed) == (2, 3, 7)
        assert all(type(v) is int for v in (config.restarts, config.max_iterations, config.seed))


def test_optimize_module_is_its_own_import_path():
    import pauliforge
    import pauliforge.optimize as m

    assert isinstance(m, types.ModuleType)
    assert m.optimize is optimize and m.OptimizerConfig is OptimizerConfig
    # the partition helper lives in pauliforge.partition alone
    assert not any(hasattr(m, name) for name in
                   ("PartitionPart", "partition", "partition_by_restriction",
                    "optimize_partitioned", "PauliString"))
    # The package root re-exports nothing: its public attributes are the
    # submodules imported so far.
    assert all(isinstance(v, types.ModuleType)
               for k, v in vars(pauliforge).items() if not k.startswith("_"))


def _complement(qubits, n):
    """The residual qubits of a part: those outside its factor, ascending."""
    return tuple(q for q in range(n) if q not in qubits)


SIX_QUBIT_FACTORED = {
    "XIXYYZ": 3.0,
    "XIXZYI": 2.0,
    "XIXIIZ": -1.0,
    "IZXIYI": 1.0,
    "IZZIYI": 2.0,
}


class TestPartition:
    def _factored_parts(self):
        # canonical index order of the five terms above
        h = Hamiltonian(6, SIX_QUBIT_FACTORED)
        order = [p.label for p, _ in h.terms_by_index()]
        front = tuple(order.index(lbl) for lbl in ("XIXYYZ", "XIXZYI", "XIXIIZ"))
        back = tuple(order.index(lbl) for lbl in ("IZXIYI", "IZZIYI"))
        parts = (
            PartitionPart((0, 1, 2), PauliString.from_label("XIX"), front),
            PartitionPart((3, 4, 5), PauliString.from_label("IYI"), back),
        )
        return h, parts

    def test_factored_example(self):
        h, parts = self._factored_parts()
        pairs = partition(h, parts)
        (f1, r1), (f2, r2) = pairs
        assert f1.label == "XIX"
        assert r1.terms == {
            PauliString.from_label("YYZ"): 3.0,
            PauliString.from_label("ZYI"): 2.0,
            PauliString.from_label("IIZ"): -1.0,
        }
        assert f2.label == "IYI"
        assert r2.terms == {
            PauliString.from_label("IZX"): 1.0,
            PauliString.from_label("IZZ"): 2.0,
        }

    def test_parts_resum_to_input(self):
        h, parts = self._factored_parts()
        pairs = partition(h, parts)
        total = None
        for part, (factor, residual) in zip(parts, pairs):
            emb_f = embed(Hamiltonian(factor.n, {factor: 1.0}), part.factor_qubits, h.n)
            emb_r = embed(residual, _complement(part.factor_qubits, h.n), h.n)
            piece = Hamiltonian(h.n, {  # product of the two embedded commuting pieces
                PauliString(h.n, pf.x | pr.x, pf.z | pr.z): cf * cr
                for pf, cf in emb_f for pr, cr in emb_r
            })
            total = piece if total is None else total + piece
        assert total == h

    def test_identity_factor_single_part(self):
        # every term is identity on qubit 0, so one part with factor I
        # covers the whole Hamiltonian and the residual is h itself
        h = Hamiltonian(3, {"IXX": 1.5, "IZZ": -0.5, "IYI": 2.0})
        parts = (PartitionPart((0,), PauliString.from_label("I"), (0, 1, 2)),)
        [(factor, residual)] = partition(h, parts)
        assert factor.is_identity()
        assert residual.terms == {
            PauliString.from_label("XX"): 1.5,
            PauliString.from_label("ZZ"): -0.5,
            PauliString.from_label("YI"): 2.0,
        }

    def test_empty_factor_subset_rejected(self):
        rng = np.random.default_rng(26)
        h = random_hamiltonian(3, 8, rng)
        bad = (PartitionPart((), PauliString.identity(1), tuple(range(len(h)))),)
        with pytest.raises(ValueError, match="factor qubits must be distinct qubits in 0..2"):
            partition(h, bad)
        with pytest.raises(ValueError, match="factor qubits must be distinct qubits in 0..2"):
            partition_by_restriction(h, ())

    def test_greedy_helper_reconstructs(self):
        rng = np.random.default_rng(27)
        h = random_hamiltonian(4, 12, rng)
        parts = partition_by_restriction(h, (0, 1))
        pairs = partition(h, parts)
        resum = None
        for part, (factor, residual) in zip(parts, pairs):
            emb_f = embed(Hamiltonian(factor.n, {factor: 1.0}), part.factor_qubits, h.n)
            emb_r = embed(residual, _complement(part.factor_qubits, h.n), h.n)
            piece = Hamiltonian(h.n, {
                PauliString(h.n, pf.x | pr.x, pf.z | pr.z): cf * cr
                for pf, cf in emb_f for pr, cr in emb_r
            })
            resum = piece if resum is None else resum + piece
        assert resum == h

    def test_overlapping_spec_rejected(self):
        h = Hamiltonian(2, {"XI": 1.0, "XZ": 2.0})
        part = PartitionPart((0,), PauliString.from_label("X"), (0, 0))
        with pytest.raises(ValueError, match="term index 0 appears in two parts"):
            partition(h, (part,))
        parts = (PartitionPart((0,), PauliString.from_label("X"), (0, 1)),
                 PartitionPart((1,), PauliString.from_label("Z"), (1,)))
        with pytest.raises(ValueError, match="term index 1 appears in two parts"):
            partition(h, parts)

    @pytest.mark.parametrize("parts, message", [
        ((PartitionPart((0,), PauliString.from_label("X"), (0,)),),
         "partition does not cover every term"),
        ((PartitionPart((0,), PauliString.from_label("X"), (0, 2)),), "term index must be an integer in 0..1, got 2"),
        ((PartitionPart((0,), PauliString.from_label("X"), (0, True)),),
         "term index must be an integer in 0..1, got True"),
        ((PartitionPart((0, 1), PauliString.from_label("XI"), (0,)),
          PartitionPart((0, 1), PauliString.from_label("XZ"), (1,))),
         "a part must leave at least one residual qubit"),
        ((PartitionPart((0,), PauliString.from_label("XI"), (0, 1)),),
         "factor length does not match its qubit subset"),
        # every part and the cover are checked before any residual is built
        ((PartitionPart((0,), PauliString.from_label("X"), (0, 0)),
          PartitionPart((0, 1), PauliString.from_label("XZ"), (1,))),
         "term index 0 appears in two parts"),
        ((PartitionPart((0, 1), PauliString.from_label("XI"), (0,)),),
         "partition does not cover every term"),
        # a factor qubit is refused by its own check, not later by restrict's
        ((PartitionPart(("0",), PauliString.from_label("X"), (0, 1)),),
         "factor qubit must be an integer in 0..1, got '0'"),
        ((PartitionPart((0.0,), PauliString.from_label("X"), (0, 1)),),
         "factor qubit must be an integer in 0..1, got 0.0"),
        ((PartitionPart((True,), PauliString.from_label("X"), (0, 1)),),
         "factor qubit must be an integer in 0..1, got True"),
    ], ids=["missing_cover", "index_out_of_range", "bool_index", "no_residual_qubit", "factor_length",
            "overlap_before_residual", "cover_before_residual", "str_factor_qubit",
            "float_factor_qubit", "bool_factor_qubit"])
    def test_malformed_parts_rejected(self, parts, message):
        h = Hamiltonian(2, {"XI": 1.0, "XZ": 2.0})
        with pytest.raises(ValueError, match=message):
            partition(h, parts)

    @pytest.mark.parametrize("parts, message", [
        ((PartitionPart((0, 0), PauliString.from_label("XX"), (0, 1)),),
         "factor qubits must be distinct qubits in 0..2"),
        ((PartitionPart((0, 1), PauliString.from_label("XX"), (0, 1)),
          PartitionPart((0, 3), PauliString.from_label("XI"), ())),
         "factor qubit must be an integer in 0..2, got 3"),
    ], ids=["repeated", "out_of_range"])
    def test_bad_factor_qubits_rejected(self, parts, message):
        """Both part lists carry every term's factor and cover every term, so
        only the factor qubits themselves can refuse them."""
        h = Hamiltonian(3, {"XXI": 1.0, "XXZ": 2.0})
        with pytest.raises(ValueError, match=message):
            partition(h, parts)

    def test_wrong_factor_rejected(self):
        h = Hamiltonian(2, {"XI": 1.0, "ZZ": 2.0})
        part = PartitionPart((0,), PauliString.from_label("X"), (0, 1))
        with pytest.raises(ValueError, match="term ZZ does not carry factor X"):
            partition(h, (part,))


class TestOptimizePartitioned:
    def test_each_result_carries_its_parts_layout(self):
        h = Hamiltonian(6, SIX_QUBIT_FACTORED)
        parts = TestPartition()._factored_parts()[1]
        layouts = [hardware_efficient_layout(3, 2), hardware_efficient_layout(3, 1, ("RY",))]
        config = OptimizerConfig(restarts=2, max_iterations=10, seed=11)
        results, _ = optimize_partitioned(h, parts, layouts, config)
        for (_factor, residual), res, layout in zip(partition(h, parts), results, layouts):
            assert res.layout is layout
            assert res.theta_star.shape == (layout.parameter_count,)
            assert apply_ansatz(residual, res.layout, res.theta_star) == res.engineered

    def test_six_qubit_two_factor_split(self):
        h = Hamiltonian(6, SIX_QUBIT_FACTORED)
        parts = TestPartition()._factored_parts()[1]
        layouts = [hardware_efficient_layout(3, 1), hardware_efficient_layout(3, 1)]
        config = OptimizerConfig(restarts=3, max_iterations=60, seed=11)
        results, combined = optimize_partitioned(h, parts, layouts, config)
        assert len(results) == 2
        assert np.isclose(combined, sum(r.engineered_norm for r in results), atol=1e-12)
        assert combined <= pauli_norm(h) + 1e-12

    def test_identity_factor_part_matches_plain_optimize(self):
        h = Hamiltonian(3, {"IXX": 1.5, "IZZ": -0.5, "IYI": 2.0})
        parts = (PartitionPart((0,), PauliString.from_label("I"), (0, 1, 2)),)
        layout = hardware_efficient_layout(2, 1)
        config = OptimizerConfig(restarts=3, max_iterations=40, seed=17)
        results, combined = optimize_partitioned(h, parts, [layout], config)
        residual = partition(h, parts)[0][1]
        plain = optimize(residual, layout, config)
        assert results[0].engineered_norm == plain.engineered_norm
        assert np.array_equal(results[0].theta_star, plain.theta_star)
        assert combined == plain.engineered_norm

    def test_combined_expectation_preserved(self):
        h = Hamiltonian(4, {"XYIZ": 1.3, "XYZI": -0.4, "ZIXX": 0.8, "ZIYX": 0.5})
        parts = partition_by_restriction(h, (0, 1))
        pairs = partition(h, parts)
        layouts = [hardware_efficient_layout(2, 1) for _ in pairs]
        config = OptimizerConfig(restarts=2, max_iterations=40, seed=13)
        results, _ = optimize_partitioned(h, parts, layouts, config)

        rng = np.random.default_rng(31)
        psi = haar_like_state(2**4, rng)
        total = 0.0
        for part, (factor, _residual), res in zip(parts, pairs, results):
            u_res = ansatz_unitary_oracle(res.layout, res.theta_star)
            # embed the residual unitary on the residual qubits (factor side untouched)
            rest = _complement(part.factor_qubits, 4)
            u_full = _embed_unitary(u_res, rest, 4)
            emb_f = embed(Hamiltonian(factor.n, {factor: 1.0}), part.factor_qubits, 4)
            emb_r = embed(res.engineered, rest, 4)
            h_part_eng = Hamiltonian(4, {
                PauliString(4, pf.x | pr.x, pf.z | pr.z): cf * cr
                for pf, cf in emb_f for pr, cr in emb_r
            })
            m = dense_hamiltonian(h_part_eng)
            total += float(np.real(np.vdot(psi, u_full.conj().T @ m @ u_full @ psi)))
        exact = float(np.real(np.vdot(psi, dense_hamiltonian(h) @ psi)))
        assert abs(total - exact) <= 1e-8


def _embed_unitary(u, qubits, n):
    """Lift a unitary on the given qubits to the full register (tests only)."""
    dim = 2**n
    out = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(n) if q not in qubits]
    for i in range(dim):
        bits_i = [(i >> (n - 1 - q)) & 1 for q in range(n)]
        a = sum(bits_i[q] << (len(qubits) - 1 - k) for k, q in enumerate(qubits))
        for j in range(dim):
            bits_j = [(j >> (n - 1 - q)) & 1 for q in range(n)]
            if any(bits_i[q] != bits_j[q] for q in rest):
                continue
            b = sum(bits_j[q] << (len(qubits) - 1 - k) for k, q in enumerate(qubits))
            out[i, j] = u[a, b]
    return out
