"""Spans around pauliforge's public layer boundaries, and layer replays.

Tracing is done from the benchmark's side only: a traced run swaps the
names the CLI and the library look up at call time (``pauliforge.cli``'s
imported functions, ``grouping.commutes``, ``dynamics.pauli_matrix`` ...)
for wrappers that record spans, and puts the originals back afterwards.
Spans are kept in memory and written out when the run ends.  Untraced
runs never install a wrapper.

The replays call the public gate conjugators and optimizer entry points
directly, at the angles the optimizer's first restart starts from, to
give per-gate times, support sizes per circuit layer and the cost of a
gradient against a forward pass.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from pauliforge.ansatz import (
    Gate,
    apply_ansatz,
    conjugate_cz,
    conjugate_rotation,
    hardware_efficient_layout,
    layout_from_gates,
)
from pauliforge.hamiltonian import Hamiltonian, l2_norm, pauli_norm
from pauliforge.model_io import ising_neighbor
from pauliforge.paulis import PauliString, commutes, qubit_wise_commutes

from checks import parse_terms

# `import pauliforge.optimize` yields the optimize *function*: the package
# re-exports it under the submodule's name (ROADMAP item 4).  The module
# itself is reached through sys.modules, or with a from-import as here.
from pauliforge.optimize import OptimizerConfig, cost_gradient

_perf = time.perf_counter

# (module, attribute, span name) wrapped with a span per call.
SPANNED = (
    ("pauliforge.cli", "parse_pauli_sum", "model_io.parse"),
    ("pauliforge.cli", "save_pauli_sum", "model_io.save"),
    ("pauliforge.cli", "hardware_efficient_layout", "ansatz.layout"),
    ("pauliforge.cli", "optimize", "optimize.optimize"),
    ("pauliforge.cli", "sorted_insertion", "grouping.sorted_insertion"),
    ("pauliforge.cli", "pauli_norm", "hamiltonian.pauli_norm"),
    ("pauliforge.cli", "qdrift_error", "dynamics.qdrift_error"),
    ("pauliforge.cli", "qdrift_channel_error", "dynamics.channel_error"),
    ("pauliforge.cli", "engineered_result_to_dict", "results.to_dict"),
    ("pauliforge.cli", "grouping_result_to_dict", "results.to_dict"),
    ("pauliforge.cli", "stable_json", "results.stable_json"),
    ("pauliforge.dynamics", "exact_evolution", "dynamics.exact_evolution"),
    ("pauliforge.dynamics", "qdrift_apply", "dynamics.qdrift_apply"),
)
# (module, attribute, counter name) wrapped with a call counter only:
# these run millions of times per op, too often for one span each.
COUNTED = (
    ("pauliforge.grouping", "commutes", "paulis.commutes"),
    ("pauliforge.grouping", "qubit_wise_commutes", "paulis.qubit_wise_commutes"),
)
# Counted and timed in aggregate (tens of thousands of calls per op).
TIMED = (
    ("pauliforge.dynamics", "pauli_matrix", "dense.pauli_matrix"),
)


class Recorder:
    """In-memory spans (name, start, end, parent, op) and per-op counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.op = ""
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            record = [name, _perf(), 0.0, self._stack[-1] if self._stack else None, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = _perf()
                self._stack.pop()
        return wrapper

    def _counter(self, name: str, fn):
        def wrapper(*args):
            self.counts[self.op, name] += 1
            return fn(*args)
        return wrapper

    def _timer(self, name: str, fn):
        def wrapper(*args):
            t0 = _perf()
            try:
                return fn(*args)
            finally:
                self.seconds[self.op, name] += _perf() - t0
                self.counts[self.op, name] += 1
        return wrapper

    def install(self, counters: bool = False) -> None:
        """Wrap the SPANNED and TIMED names, or with ``counters`` only the
        COUNTED ones: a counter per predicate call slows grouping by more
        than half, so counts come from a pass of their own."""
        tables = ((COUNTED, self._counter),) if counters else (
            (SPANNED, self.span), (TIMED, self._timer))
        for table, make in tables:
            for module_name, attr, name in table:
                module = sys.modules[module_name]
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, make(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- aggregation ----------------------------------------------------

    def total(self, name: str, ops) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name and s[4] in ops)

    def self_time(self, name: str, ops) -> float:
        """Duration of the named spans minus the time their children cover."""
        own = {i for i, s in enumerate(self.spans) if s[0] == name and s[4] in ops}
        children = sum(s[2] - s[1] for s in self.spans if s[3] in own)
        return sum(self.spans[i][2] - self.spans[i][1] for i in own) - children

    def write(self, path: Path) -> None:
        doc = {
            "spans": [dict(zip(("name", "start", "end", "parent", "op"), s))
                      for s in self.spans],
            "counts": [{"op": op, "name": name, "count": c, "seconds": self.seconds[op, name]}
                       for (op, name), c in sorted(self.counts.items())],
        }
        path.write_text(json.dumps(doc), encoding="utf-8")


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = _perf()
        fn()
        times.append(_perf() - t0)
    return statistics.median(times)


def restart0_angles(seed: int, count: int) -> np.ndarray:
    """The angles optimize() starts its restart 0 from."""
    return np.random.default_rng((seed, 0)).uniform(0.0, 2.0 * np.pi, count)


def _conjugate(h: Hamiltonian, gate, theta: np.ndarray, sign: float = 1.0) -> Hamiltonian:
    if gate.kind == "CZ":
        return conjugate_cz(h, *gate.qubits)
    return conjugate_rotation(h, gate.kind[1], gate.qubits[0], sign * float(theta[gate.param]))


def gate_replay(seed: int, sizes=(4, 6, 8), depth: int = 2, repeats: int = 5) -> dict:
    """µs per public conjugate_rotation / conjugate_cz call, replaying the
    engineer-shallow circuits gate by gate at restart-0 angles."""
    per_kind = {"rotation": [], "cz": []}
    for _ in range(repeats):
        sums = {"rotation": [0.0, 0], "cz": [0.0, 0]}
        for n in sizes:
            layout = hardware_efficient_layout(n, depth)
            theta = restart0_angles(seed, layout.parameter_count)
            h = ising_neighbor(n)
            for gate in layout.gates:
                t0 = _perf()
                h = _conjugate(h, gate, theta)
                kind = "cz" if gate.kind == "CZ" else "rotation"
                sums[kind][0] += _perf() - t0
                sums[kind][1] += 1
        for kind, (seconds, calls) in sums.items():
            per_kind[kind].append(seconds / calls)
    return {
        "ansatz.rotation_us": 1e6 * statistics.median(per_kind["rotation"]),
        "ansatz.cz_us": 1e6 * statistics.median(per_kind["cz"]),
    }


def deep_replay(seed: int, n: int = 8, depth: int = 3, repeats: int = 3) -> dict:
    """Support and time per circuit layer, forward/reverse term counts and
    forward versus gradient cost on the engineer-deep circuit."""
    h0 = ising_neighbor(n)
    layout = hardware_efficient_layout(n, depth)
    theta = restart0_angles(seed, layout.parameter_count)
    out = {}

    # Circuit layer k: the gates hardware_efficient_layout adds for layer k,
    # applied to the output of layers 1..k-1 (same result as the k-prefix).
    h = h0
    start = 0
    for k in range(1, depth + 1):
        stop = len(hardware_efficient_layout(n, k).gates)
        gates = layout.gates[start:stop]
        offset = min(g.param for g in gates if g.param is not None)
        layer = layout_from_gates(n, [
            Gate(g.kind, g.qubits, None if g.param is None else g.param - offset)
            for g in gates
        ])
        layer_theta = theta[offset:offset + layer.parameter_count]
        prev = h
        out[f"ansatz.layer_s.{k}"] = _median_time(
            lambda: apply_ansatz(prev, layer, layer_theta), repeats)
        h = apply_ansatz(prev, layer, layer_theta)
        out[f"ansatz.support_layer.{k}"] = len(h)
        start = stop

    # Gate-by-gate forward pass, then the cotangent sign(c)/lambda of the
    # l1 cost carried back through the inverse gates.  Both go through the
    # public conjugators, which prune at PRUNE_TOL; the optimizer's own
    # reverse pass does not prune, so its supports are at least these.
    h = h0
    forward_terms = 0
    for gate in layout.gates:
        h = _conjugate(h, gate, theta)
        forward_terms += len(h)
    g = Hamiltonian.from_arrays(n, h.keys, np.sign(h.coeffs) / l2_norm(h0))
    reverse_terms = 0
    reverse_peak = 0
    for gate in reversed(layout.gates):
        g = _conjugate(g, gate, theta, sign=-1.0)
        reverse_terms += len(g)
        reverse_peak = max(reverse_peak, len(g))
    out["ansatz.forward_terms"] = forward_terms
    out["ansatz.reverse_terms"] = reverse_terms
    out["ansatz.reverse_support_peak"] = reverse_peak

    config = OptimizerConfig()
    forward = _median_time(lambda: pauli_norm(apply_ansatz(h0, layout, theta)), 2 * repeats)
    gradient = _median_time(lambda: cost_gradient(h0, layout, theta, config), repeats)
    out["optimize.forward_s"] = forward
    out["optimize.gradient_s"] = gradient
    out["optimize.gradient_to_forward"] = gradient / forward
    return out


def predicate_replay(terms: list[tuple[str, float]], seed: int, pairs: int = 20000,
                     repeats: int = 3) -> dict:
    """ns per call of the public commutation predicates on term pairs of
    the group input."""
    rng = random.Random(seed)
    strings = [PauliString.from_label(label) for label, _ in terms]
    sample = [(rng.choice(strings), rng.choice(strings)) for _ in range(pairs)]

    def run():
        for a, b in sample:
            commutes(a, b)
            qubit_wise_commutes(a, b)

    return {"paulis.check_ns": 1e9 * _median_time(run, repeats) / (2 * pairs)}


def _results(outputs: dict, op_name: str) -> dict:
    """The op's result document; empty when the op failed (counted there)."""
    return json.loads(outputs[op_name])["results"] if outputs[op_name] else {}


def layer_metrics(rec: Recorder, catalogue: dict, outputs: dict, seed: int) -> dict:
    """Every per-layer metric but trace.overhead, from the traced pass over
    all workloads' ops (``outputs`` by op name) and the layer replays.
    Each metric is taken from the ops README.md names for it."""
    ops = {name: [op.name for op in w.ops] for name, w in catalogue.items()}
    engineer_ops = [op for name in ("engineer-shallow", "engineer-deep")
                    for op in catalogue[name].ops]
    sorted_op, qwc_op = ops["group"]
    golden_op, n6_op = ops["qdrift"]

    def flag(op, name):
        return op.argv[op.argv.index(name) + 1]

    restarts = sum(int(flag(op, "--restarts")) for op in engineer_ops)
    # qdrift_error and qdrift_channel_error each apply `trials` plans of G steps.
    steps = sum(2 * int(flag(op, "--trials")) * sum(map(int, flag(op, "--gates").split(",")))
                for op in catalogue["qdrift"].ops)
    group_terms = parse_terms(catalogue["group"].inputs["pauli_sum.txt"])
    qdrift_ops = [golden_op, n6_op]
    group_ops = [sorted_op, qwc_op]

    m = {}
    m.update(gate_replay(seed))
    m.update(deep_replay(seed))
    m["optimize.restart_s"] = rec.total("optimize.optimize", [op.name for op in engineer_ops]) / restarts
    m["optimize.improved_ratio"] = statistics.fmean(
        _results(outputs, op.name).get("restart_index", -1) >= 0 for op in engineer_ops)
    for kind, op_name in (("general", sorted_op), ("qwc", qwc_op)):
        m[f"grouping.{kind}_s"] = rec.total("grouping.sorted_insertion", [op_name])
        m[f"grouping.collections.{kind}"] = _results(outputs, op_name).get("collection_count", 0)
    m["grouping.checks.general"] = rec.counts[sorted_op, "paulis.commutes"]
    m["grouping.checks.qwc"] = rec.counts[qwc_op, "paulis.qubit_wise_commutes"]
    m.update(predicate_replay(group_terms, seed))
    m["dynamics.exact_s"] = rec.total("dynamics.exact_evolution", qdrift_ops)
    m["dynamics.qdrift_error_s"] = rec.total("dynamics.qdrift_error", qdrift_ops)
    m["dynamics.channel_error_s"] = rec.total("dynamics.channel_error", qdrift_ops)
    m["dynamics.apply_us_per_step"] = 1e6 * rec.total("dynamics.qdrift_apply", qdrift_ops) / steps
    m["dense.pauli_matrix_calls"] = rec.counts[n6_op, "dense.pauli_matrix"]
    m["dense.pauli_matrix_s"] = rec.seconds[n6_op, "dense.pauli_matrix"]
    m["model_io.parse_s"] = rec.total("model_io.parse", group_ops)
    m["results.serialize_s"] = (rec.total("results.to_dict", group_ops)
                                + rec.total("results.stable_json", group_ops))
    m["cli.overhead_s"] = rec.self_time("cli.main", group_ops)
    return m
