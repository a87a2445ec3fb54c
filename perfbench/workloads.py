"""Seeded workload generator: the fixed operation list of each workload.

An operation is one `pauliforge` CLI call.  The program only ever sees
the files written here and the `--seed` flag; everything else about a
workload is fixed, so the same seed gives the same inputs and the same
outputs byte for byte (apart from the `timings` field).

Why each workload exists, and which layer it loads, is in README.md.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

# The development seed was used while the benchmark was tuned; the held-out
# seed was not.  A claimed gain should also hold on the held-out seed.
DEV_SEED = 1
HELDOUT_SEED = 7919

GROUP_QUBITS = 14
GROUP_TERMS = 2000

# Golden two-qubit Hamiltonian of the c09 acceptance gate: 3 XI - YY + 2 ZZ.
GOLDEN_TEXT = "3 XI\n-1 YY\n2 ZZ\n"


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``argv`` names inputs relative to the work directory."""

    name: str
    command: str
    argv: tuple[str, ...]
    n: int = 0  # qubits of an engineer input (for the spectrum check)
    golden: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    warmup: Op
    inputs: dict  # file name -> text, written into the work directory


def ising_chain_text(n: int) -> str:
    """Text form of `ising-neighbor:n` (-Z_i Z_i+1 couplings, +X_k fields),
    written independently of the program so the checks have an oracle."""
    lines = []
    for i in range(n - 1):
        lines.append(f"-1 {'I' * i}ZZ{'I' * (n - i - 2)}")
    for k in range(n):
        lines.append(f"1 {'I' * k}X{'I' * (n - k - 1)}")
    return "\n".join(lines) + "\n"


def random_pauli_sum_text(seed: int, n: int = GROUP_QUBITS, terms: int = GROUP_TERMS) -> str:
    """`terms` distinct non-identity labels on n qubits, coefficients in [-1, 1)."""
    rng = random.Random(seed)
    labels: set[str] = set()
    while len(labels) < terms:
        label = "".join(rng.choice("IXYZ") for _ in range(n))
        if label != "I" * n:
            labels.add(label)
    return "".join(f"{rng.uniform(-1.0, 1.0)!r} {label}\n" for label in sorted(labels))


def _engineer(n: int, depth: int, restarts: int, iterations: int, seed: int) -> Op:
    return Op(
        name=f"engineer ising-neighbor:{n} depth {depth}",
        command="engineer",
        argv=("engineer", "--ham", f"ising-neighbor:{n}", "--depth", str(depth),
              "--restarts", str(restarts), "--iterations", str(iterations),
              "--method", "adam", "--seed", str(seed)),
        n=n,
    )


def _group(strategy: str, seed: int) -> Op:
    return Op(
        name=f"group --strategy {strategy}",
        command="group",
        argv=("group", "--input", "pauli_sum.txt", "--strategy", strategy, "--seed", str(seed)),
    )


def _qdrift(name: str, source: tuple[str, ...], gates: str, trials: int, seed: int,
            golden: bool = False) -> Op:
    return Op(
        name=name,
        command="qdrift",
        argv=("qdrift", *source, "--time", "0.5", "--gates", gates,
              "--trials", str(trials), "--seed", str(seed)),
        golden=golden,
    )


def build(name: str, seed: int) -> Workload:
    """The workload's operation list, warm-up operation and input files."""
    if name == "engineer-shallow":
        # Supports stay below ~640 terms: per-gate cost is NumPy dispatch.
        ops = tuple(_engineer(n, 2, 3, 20, seed) for n in (4, 6, 8))
        return Workload(name, ops, _engineer(3, 1, 1, 2, seed), {})
    if name == "engineer-deep":
        # Depth 3 on 8 qubits: the reverse (adjoint) pass reaches ~60k terms.
        ops = (_engineer(8, 3, 3, 4, seed),)
        return Workload(name, ops, _engineer(3, 1, 1, 2, seed), {})
    if name == "group":
        text = random_pauli_sum_text(seed)
        warm = "".join(text.splitlines(keepends=True)[:100])
        warmup = Op("group warm-up", "group",
                    ("group", "--input", "warmup.txt", "--strategy", "sorted"))
        return Workload(name, (_group("sorted", seed), _group("qwc", seed)), warmup,
                        {"pauli_sum.txt": text, "warmup.txt": warm})
    if name == "qdrift":
        ops = (
            _qdrift("qdrift golden", ("--input", "golden.txt"), "10,40,160,640", 200, seed,
                    golden=True),
            _qdrift("qdrift ising-neighbor:6", ("--ham", "ising-neighbor:6"), "10,40,160", 50,
                    seed),
        )
        warmup = _qdrift("qdrift warm-up", ("--input", "golden.txt"), "10", 2, seed)
        return Workload(name, ops, warmup, {"golden.txt": GOLDEN_TEXT})
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("engineer-shallow", "engineer-deep", "group", "qdrift")


def write_inputs(workload: Workload, workdir: Path) -> None:
    for file_name, text in workload.inputs.items():
        (workdir / file_name).write_text(text, encoding="utf-8")


def op_input_text(op: Op, workload: Workload) -> str:
    """The Hamiltonian an op reads, as pauli-sum text."""
    if op.command == "engineer":
        return ising_chain_text(op.n)
    return workload.inputs[op.argv[op.argv.index("--input") + 1]]
