"""Command-line frontend: reproducible runs with machine-readable output.

Every run is fully determined by its flags (seeds default to 0 and are
echoed in the output), JSON goes to stdout or --output, and diagnostics
go to stderr.  Exit codes: 0 on success, 2 for input problems (missing
or malformed files, bad flags), 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

import numpy as np

from .ansatz import hardware_efficient_layout
from .dynamics import engineered_qdrift_cost, qdrift_channel_error, qdrift_error
from .grouping import sorted_insertion
from .hamiltonian import Hamiltonian, pauli_norm, vectorize
from .model_io import (
    PauliSumParseError,
    ising_all_to_all,
    ising_neighbor,
    parse_pauli_sum,
    save_pauli_sum,
)
from .optimize import COST_KINDS, GRADIENT_MODES, METHODS, OptimizerConfig, optimize
from .qestimate import q_analytic, q_full_circuit
from .results import (
    engineered_result_to_dict,
    grouping_result_to_dict,
    input_digest,
    qestimate_to_dict,
    stable_json,
)

_BUILDERS = {
    "ising-neighbor": ising_neighbor,
    "ising-all-to-all": ising_all_to_all,
    "ising-all": ising_all_to_all,
}


class _InputError(ValueError):
    """User-input problem mapped to exit code 2."""


def _build_from_spec(spec: str) -> Hamiltonian:
    name, sep, size_text = spec.partition(":")
    if not sep or name not in _BUILDERS:
        known = ", ".join(sorted(set(_BUILDERS)))
        raise _InputError(f"bad builder spec {spec!r}; expected <name>:<n> with name in {{{known}}}")
    try:
        size = int(size_text)
    except ValueError:
        raise _InputError(f"bad builder size in {spec!r}") from None
    return _BUILDERS[name](size)


def _load_input(args) -> tuple[Hamiltonian, str]:
    """Resolve --ham/--input into a Hamiltonian and its digest."""
    if getattr(args, "ham", None):
        return _build_from_spec(args.ham), input_digest(args.ham)
    with open(args.input, "rb") as f:
        data = f.read()
    h = parse_pauli_sum(data.decode("utf-8"))
    if len(h) == 0:
        raise _InputError(f"{args.input}: all terms cancel; zero Hamiltonian")
    return h, input_digest(data)


def _load_state(path) -> tuple[np.ndarray, str]:
    """Raw state file: one amplitude per line as 're' or 're im'."""
    with open(path, "rb") as f:
        data = f.read()
    values = []
    for lineno, raw in enumerate(data.decode("utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        try:
            if len(fields) == 1:
                values.append(complex(float(fields[0]), 0.0))
            elif len(fields) == 2:
                values.append(complex(float(fields[0]), float(fields[1])))
            else:
                raise ValueError
        except ValueError:
            raise _InputError(f"{path}: line {lineno}: expected 're' or 're im'") from None
        if not np.isfinite(values[-1]):
            raise _InputError(f"{path}: line {lineno}: non-finite amplitude {line!r}")
    if not values:
        raise _InputError(f"{path}: empty state file")
    return np.asarray(values, dtype=complex), input_digest(data)


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


def _envelope(command: str, digest: str, seed: int, results, seconds: float) -> str:
    return stable_json({
        "command": command,
        "input_digest": digest,
        "seed": seed,
        "results": results,
        "timings": {"seconds": seconds},
    })


def cmd_engineer(args) -> int:
    h, digest = _load_input(args)
    layout = hardware_efficient_layout(h.n, args.depth)
    t0 = time.perf_counter()
    res = optimize(h, layout, args.config)
    seconds = time.perf_counter() - t0
    if args.engineered_out:
        save_pauli_sum(res.engineered, args.engineered_out)
    print(
        f"pauli norm: original {res.original_norm:.12g} -> engineered {res.engineered_norm:.12g}",
        file=sys.stderr,
    )
    _emit(args, _envelope("engineer", digest, args.seed,
                          engineered_result_to_dict(res, layout), seconds))
    return 0


def cmd_group(args) -> int:
    h, digest = _load_input(args)
    commutation = {"sorted": "general", "gc-sorted": "general", "qwc": "qubit_wise"}[args.strategy]
    t0 = time.perf_counter()
    g = sorted_insertion(h, commutation)
    seconds = time.perf_counter() - t0
    doc = grouping_result_to_dict(g)
    doc["pauli_norm"] = pauli_norm(h)
    _emit(args, _envelope("group", digest, args.seed, doc, seconds))
    return 0


def cmd_qdrift(args) -> int:
    h, digest = _load_input(args)
    gamma = pauli_norm(h)
    t0 = time.perf_counter()
    rows = []
    for g in args.gates:
        mean, stderr = qdrift_error(h, args.time, g, trials=args.trials, seed=args.seed)
        channel = qdrift_channel_error(h, args.time, g, trials=args.trials, seed=args.seed)
        rows.append({
            "gates": g,
            "tau": args.time * gamma / g,
            "state_error_mean": mean,
            "state_error_stderr": stderr,
            "mean_state_error": channel,
        })
    seconds = time.perf_counter() - t0
    results = {"gamma": gamma, "time": args.time, "trials": args.trials, "rows": rows}
    _emit(args, _envelope("qdrift", digest, args.seed, results, seconds))
    return 0


def cmd_estimate_q(args) -> int:
    if args.ham or args.input:
        h, digest = _load_input(args)
        psi = vectorize(h).to_dense()
    else:
        psi, digest = _load_state(args.state)
        norm = np.linalg.norm(psi)
        if norm == 0:
            raise _InputError("state file holds the zero vector")
        psi = psi / norm
    t0 = time.perf_counter()
    if args.shots == 0:
        est = q_analytic(psi)
    else:
        est = q_full_circuit(psi, shots=args.shots, seed=args.seed)
    seconds = time.perf_counter() - t0
    _emit(args, _envelope("estimate-q", digest, args.seed, qestimate_to_dict(est), seconds))
    return 0


def _parse_sizes(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            sizes = list(range(int(lo), int(hi) + 1))
        else:
            sizes = [int(s) for s in text.split(",")]
    except ValueError:
        raise _InputError(f"bad --sizes value {text!r}; expected 'a..b' or comma list") from None
    if not sizes or any(s < 2 for s in sizes):
        raise _InputError(f"sizes must be >= 2, got {text!r}")
    return sizes


def cmd_compare(args) -> int:
    if args.family not in _BUILDERS:
        raise _InputError(f"unknown family {args.family!r}")
    sizes = _parse_sizes(args.sizes)
    lines = ["family,size,terms,norm_p,norm_p_engineered,norm_gp,norm_gp_engineered,"
             "qdrift_g,qdrift_g_engineered"]
    for size in sizes:
        h = _BUILDERS[args.family](size)
        layout = hardware_efficient_layout(h.n, args.depth)
        res = optimize(h, layout, args.config)
        gp = sorted_insertion(h).grouped_norm
        gp_eng = sorted_insertion(res.engineered).grouped_norm
        model = engineered_qdrift_cost(h, layout, res.theta_star, args.time, args.epsilon)
        row = [args.family, str(size), str(len(h))] + [
            f"{x:.17g}" for x in (
                res.original_norm, res.engineered_norm, gp, gp_eng,
                model.g_original, model.g_engineered,
            )
        ]
        lines.append(",".join(row))
        print(f"size {size}: norm {res.original_norm:.6g} -> {res.engineered_norm:.6g}",
              file=sys.stderr)
    _emit(args, "\n".join(lines) + "\n")
    return 0


def _add_input_flags(p: argparse.ArgumentParser, with_state: bool = False) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ham", help="builder spec, e.g. ising-neighbor:4")
    group.add_argument("--input", help="pauli-sum text file")
    if with_state:
        group.add_argument("--state", help="raw state file (one amplitude per line)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--output", help="write the result document here instead of stdout")


def _add_optimizer_flags(p: argparse.ArgumentParser) -> None:
    defaults = OptimizerConfig()
    p.add_argument("--depth", type=int, default=2, help="ansatz layers (default 2)")
    p.add_argument("--restarts", type=int, default=defaults.restarts)
    p.add_argument("--iterations", type=int, default=defaults.max_iterations)
    p.add_argument("--learning-rate", type=float, default=defaults.learning_rate)
    p.add_argument("--cost", choices=COST_KINDS, default=defaults.cost_kind)
    p.add_argument("--method", choices=METHODS, default=defaults.method)
    p.add_argument("--gradient", choices=GRADIENT_MODES, default=defaults.gradient_mode)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pauliforge",
        description="Shrink the Pauli norm of a qubit Hamiltonian by conjugation "
                    "and quantify measurement/simulation savings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("engineer", help="optimize the conjugating circuit")
    _add_input_flags(p)
    _add_common(p)
    _add_optimizer_flags(p)
    p.add_argument("--engineered-out", help="also write the engineered pauli-sum file here")
    p.set_defaults(func=cmd_engineer)

    p = sub.add_parser("group", help="sorted-insertion measurement grouping")
    _add_input_flags(p)
    _add_common(p)
    p.add_argument("--strategy", choices=["sorted", "qwc", "gc-sorted"], default="sorted")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("qdrift", help="randomized-product simulation error sweep")
    _add_input_flags(p)
    _add_common(p)
    p.add_argument("--time", type=float, default=1.0)
    p.add_argument("--gates", default="100", help="comma-separated gate counts")
    p.add_argument("--trials", type=int, default=200)
    p.set_defaults(func=cmd_qdrift)

    p = sub.add_parser("estimate-q", help="swap-test estimate of the concentration Q")
    _add_input_flags(p, with_state=True)
    _add_common(p)
    p.add_argument("--shots", type=int, default=0, help="0 = analytic")
    p.set_defaults(func=cmd_estimate_q)

    p = sub.add_parser("compare", help="norm/cost sweep over a model family (CSV)")
    _add_common(p)
    p.add_argument("--family", required=True, help="ising-neighbor or ising-all-to-all")
    p.add_argument("--sizes", required=True, help="range 'a..b' or comma list")
    _add_optimizer_flags(p)
    p.add_argument("--epsilon", type=float, default=0.01)
    p.add_argument("--time", type=float, default=1.0)
    p.set_defaults(func=cmd_compare)

    return parser


def _check_flags(args) -> None:
    """Reject flag values no command can run with, before any work; parse
    --gates, and build the optimizer config, whose validator holds the
    rules for the optimizer flags."""
    if args.seed < 0:
        raise _InputError(f"--seed must be >= 0, got {args.seed}")
    depth = getattr(args, "depth", None)
    if depth is not None and depth < 0:
        raise _InputError(f"--depth must be >= 0, got {depth}")
    time_ = getattr(args, "time", None)
    if time_ is not None and not np.isfinite(time_):
        raise _InputError(f"--time must be finite, got {time_}")
    trials = getattr(args, "trials", None)
    if trials is not None and trials < 2:
        raise _InputError(f"--trials must be >= 2, got {trials}")
    gates = getattr(args, "gates", None)
    if gates is not None:
        try:
            args.gates = [int(g) for g in gates.split(",")]
            if min(args.gates) < 1:
                raise ValueError
        except ValueError:
            raise _InputError(f"--gates must be comma-separated ints >= 1, got {gates!r}") from None
    epsilon = getattr(args, "epsilon", None)
    if epsilon is not None and not (np.isfinite(epsilon) and epsilon > 0):
        raise _InputError(f"--epsilon must be finite and positive, got {epsilon}")
    shots = getattr(args, "shots", None)
    if shots is not None and shots < 0:
        raise _InputError(f"--shots must be >= 0, got {shots}")
    if hasattr(args, "restarts"):
        try:
            args.config = OptimizerConfig(
                cost_kind=args.cost,
                max_iterations=args.iterations,
                restarts=args.restarts,
                learning_rate=args.learning_rate,
                gradient_mode=args.gradient,
                seed=args.seed,
                method=args.method,
            )
        except ValueError as err:
            raise _InputError(str(err)) from None


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_flags(args)
        return args.func(args)
    except FileNotFoundError as err:
        print(f"error: file not found: {err.filename}", file=sys.stderr)
        return 2
    except (PauliSumParseError, _InputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ArithmeticError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
