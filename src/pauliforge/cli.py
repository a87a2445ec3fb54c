"""Command-line frontend: reproducible runs with machine-readable output.

Every run is fully determined by its flags (seeds default to 0 and are
echoed in the output), and diagnostics go to stderr.  Each ``cmd_*``
returns its document text, JSON or CSV, and ``main`` alone writes it to
stdout or --output.  Exit codes: 0 on success, 2 for input problems
(malformed files, bad flags or builder sizes, and any path that cannot
be read or written, output paths being checked before any work), 1 for
runtime failures, capacity caps on valid input included.

Each command loads only the library modules it runs.  The front end
(``paulis``, ``hamiltonian``, ``model_io``, ``results``) is imported
here; each command's library functions are listed in ``_LAZY`` by the
module that defines them, and the first lookup of one as an attribute
of this module (``__getattr__``, PEP 562) imports that module and binds
the function here.  The commands call them through ``_lib``, which
reads what is bound here at call time, so a function rebound on this
module (a tracing wrapper, a test spy) is the one that runs.  The
optimizer flags default to absent: ``OptimizerConfig`` holds their
defaults and allowed values, and is given only the flags passed.
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys
import time

import numpy as np

from .hamiltonian import Hamiltonian, l2_norm, pauli_norm, vectorize
from .model_io import (
    PauliSumParseError,
    ising_all_to_all,
    ising_neighbor,
    parse_pauli_sum,
    save_pauli_sum,
)
from .paulis import MAX_QUBITS
from .results import (
    engineered_result_to_dict,
    grouping_result_to_dict,
    input_digest,
    qestimate_to_dict,
    stable_json,
)

# Each command's library functions, by the module that defines them.
_LAZY = {
    "hardware_efficient_layout": "ansatz",
    "OptimizerConfig": "optimize",
    "optimize": "optimize",
    "sorted_insertion": "grouping",
    "engineered_qdrift_cost": "dynamics",
    "_RunSetup": "dynamics",
    "qdrift_channel_error": "dynamics",
    "qdrift_error": "dynamics",
    "_check_register": "qestimate",
    "q_analytic": "qestimate",
    "q_full_circuit": "qestimate",
}


def __getattr__(name: str):
    """Import the module that defines a ``_LAZY`` name and bind the name
    here, where later lookups find it without this call."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = f"{__package__}.{_LAZY[name]}"
    __import__(module)  # as an import statement does, so `python -X importtime` logs it
    value = getattr(sys.modules[module], name)
    globals()[name] = value
    return value


def _lib(name: str):
    """The library function bound to ``name`` here now, loaded on first use."""
    return globals()[name] if name in globals() else __getattr__(name)


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
    if not 2 <= size <= MAX_QUBITS:
        raise _InputError(f"builder size in {spec!r} must be in 2..{MAX_QUBITS}, got {size}")
    return _BUILDERS[name](size)


def _read_text(path) -> tuple[str, str]:
    """A UTF-8 input file's text and digest."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        raise _InputError(f"{path}: not UTF-8 text") from None
    return text, input_digest(data)


def _load_input(args) -> tuple[Hamiltonian, str]:
    """Resolve --ham/--input into a Hamiltonian and its digest."""
    if getattr(args, "ham", None):
        return _build_from_spec(args.ham), input_digest(args.ham)
    text, digest = _read_text(args.input)
    h = parse_pauli_sum(text)
    if len(h) == 0:
        raise _InputError(f"{args.input}: all terms cancel; zero Hamiltonian")
    # sum c^2 >= (sum |c|)^2 / m, so a Pauli norm past the float range
    # overflows the sum of squares as well: one test refuses both
    if not np.isfinite(l2_norm(h)):
        raise _InputError(f"{args.input}: coefficients too large; the Pauli norm or the "
                          "sum of their squares overflows")
    return h, digest


def _load_state(path) -> tuple[np.ndarray, str]:
    """Raw state file: one amplitude per line as 're' or 're im'; the
    amplitude count must be a power of two >= 2."""
    text, digest = _read_text(path)
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
    if len(values) < 2 or len(values) & (len(values) - 1):
        raise _InputError(f"{path}: {len(values)} amplitudes; need a power of two >= 2")
    return np.asarray(values, dtype=complex), digest


def _envelope(command: str, digest: str, seed: int, results, seconds: float) -> str:
    return stable_json({
        "command": command,
        "input_digest": digest,
        "seed": seed,
        "results": results,
        "timings": {"seconds": seconds},
    })


def cmd_engineer(args) -> str:
    h, digest = _load_input(args)
    t0 = time.perf_counter()
    res = _lib("optimize")(h, _lib("hardware_efficient_layout")(h.n, args.depth), args.config)
    seconds = time.perf_counter() - t0
    if args.engineered_out:
        save_pauli_sum(res.engineered, args.engineered_out)
    print(
        f"pauli norm: original {res.original_norm:.12g} -> engineered {res.engineered_norm:.12g}",
        file=sys.stderr,
    )
    return _envelope("engineer", digest, args.seed,
                     engineered_result_to_dict(res), seconds)


def cmd_group(args) -> str:
    h, digest = _load_input(args)
    commutation = {"sorted": "general", "gc-sorted": "general", "qwc": "qubit_wise"}[args.strategy]
    t0 = time.perf_counter()
    g = _lib("sorted_insertion")(h, commutation)
    seconds = time.perf_counter() - t0
    doc = grouping_result_to_dict(g)
    doc["pauli_norm"] = pauli_norm(h)
    return _envelope("group", digest, args.seed, doc, seconds)


def cmd_qdrift(args) -> str:
    h, digest = _load_input(args)
    gamma = pauli_norm(h)
    if not np.isfinite(args.time * gamma):
        raise _InputError(f"--time {args.time} times the Pauli norm {gamma} is not finite")
    t0 = time.perf_counter()
    rows = []
    setup = _lib("_RunSetup")(h, args.time, args.seed)
    for g in args.gates:
        mean, stderr = _lib("qdrift_error")(h, args.time, g, trials=args.trials, seed=args.seed,
                                            setup=setup)
        channel = _lib("qdrift_channel_error")(h, args.time, g, trials=args.trials,
                                               seed=args.seed, setup=setup)
        rows.append({
            "gates": g,
            "tau": args.time * gamma / g,
            "state_error_mean": mean,
            "state_error_stderr": stderr,
            "mean_state_error": channel,
        })
    seconds = time.perf_counter() - t0
    results = {"gamma": gamma, "time": args.time, "trials": args.trials, "rows": rows}
    return _envelope("qdrift", digest, args.seed, results, seconds)


def cmd_estimate_q(args) -> str:
    if args.ham or args.input:
        h, digest = _load_input(args)
        # the 2n-qubit register is refused before its 4**n amplitudes are built
        _lib("_check_register")(2 * h.n, circuit=args.shots > 0)
        psi = vectorize(h).to_dense()
    else:
        psi, digest = _load_state(args.state)
        norm = np.linalg.norm(psi)
        if norm == 0:
            raise _InputError("state file holds the zero vector")
        psi = psi / norm
    t0 = time.perf_counter()
    if args.shots == 0:
        est = _lib("q_analytic")(psi)
    else:
        est = _lib("q_full_circuit")(psi, shots=args.shots, seed=args.seed)
    seconds = time.perf_counter() - t0
    return _envelope("estimate-q", digest, args.seed, qestimate_to_dict(est), seconds)


def _parse_sizes(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            sizes = range(int(lo), int(hi) + 1)  # checked before it is listed
        else:
            sizes = [int(s) for s in text.split(",")]
    except ValueError:
        raise _InputError(f"bad --sizes value {text!r}; expected 'a..b' or comma list") from None
    if not sizes:
        raise _InputError(f"sizes range {text!r} is empty; need a..b with a <= b")
    if any(not 2 <= s <= MAX_QUBITS for s in sizes):
        raise _InputError(f"sizes must be in 2..{MAX_QUBITS}, got {text!r}")
    return list(sizes)


def cmd_compare(args) -> str:
    if args.family not in _BUILDERS:
        raise _InputError(f"unknown family {args.family!r}")
    sizes = _parse_sizes(args.sizes)
    hams = [_BUILDERS[args.family](size) for size in sizes]
    for size, h in zip(sizes, hams):
        gamma_t = pauli_norm(h) * args.time  # a Python float: inf, not an error, on overflow
        if not np.isfinite(gamma_t * gamma_t / args.epsilon):
            raise _InputError(f"--time {args.time} and --epsilon {args.epsilon} give a qDrift "
                              f"gate count that is not finite at size {size}")
    lines = ["family,size,terms,norm_p,norm_p_engineered,norm_gp,norm_gp_engineered,"
             "qdrift_g,qdrift_g_engineered"]
    for size, h in zip(sizes, hams):
        res = _lib("optimize")(h, _lib("hardware_efficient_layout")(h.n, args.depth),
                               args.config)
        gp = _lib("sorted_insertion")(h).grouped_norm
        gp_eng = _lib("sorted_insertion")(res.engineered).grouped_norm
        model = _lib("engineered_qdrift_cost")(res, args.time, args.epsilon)
        row = [args.family, str(size), str(len(h))] + [
            f"{x:.17g}" for x in (
                res.original_norm, res.engineered_norm, gp, gp_eng,
                model.g_original, model.g_engineered,
            )
        ]
        lines.append(",".join(row))
        print(f"size {size}: norm {res.original_norm:.6g} -> {res.engineered_norm:.6g}",
              file=sys.stderr)
    return "\n".join(lines) + "\n"


def _add_input_flags(p: argparse.ArgumentParser, with_state: bool = False) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ham", help="builder spec, e.g. ising-neighbor:4")
    group.add_argument("--input", help="pauli-sum text file")
    if with_state:
        group.add_argument("--state", help="raw state file (one amplitude per line)")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument("--output", help="write the result document here instead of stdout")


# The optimizer flags: (flag, type, the OptimizerConfig field it sets).
_OPTIMIZER_FLAGS = (
    ("--restarts", int, "restarts"),
    ("--iterations", int, "max_iterations"),
    ("--learning-rate", float, "learning_rate"),
    ("--cost", str, "cost_kind"),
    ("--method", str, "method"),
    ("--gradient", str, "gradient_mode"),
)


def _add_optimizer_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--depth", type=int, default=2, help="ansatz layers (default 2)")
    for flag, kind, field in _OPTIMIZER_FLAGS:
        # absent unless given: OptimizerConfig's defaults and rules apply
        p.add_argument(flag, type=kind, dest=field, default=argparse.SUPPRESS,
                       help=f"OptimizerConfig.{field} (its default if not given)")


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


def _check_output_path(path) -> None:
    """Refuse, by stat alone, an output path that is a directory or whose
    parent directory is missing: nothing is created or truncated."""
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(os.path.dirname(path) or "."):
        code = errno.ENOENT
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _check_flags(args) -> None:
    """Reject flag values no command can run with, and output paths that
    cannot be written, before any work; parse --gates, and build the
    optimizer config from the optimizer flags given, its validator
    holding their defaults and rules."""
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
    if shots is not None and not 0 <= shots < 2**63:  # NumPy samples int64 counts
        raise _InputError(f"--shots must be in 0..2**63 - 1, got {shots}")
    for path in (args.output, getattr(args, "engineered_out", None)):
        if path:
            _check_output_path(path)
    if depth is not None:  # the commands that take the optimizer flags
        given = {field: getattr(args, field) for _, _, field in _OPTIMIZER_FLAGS
                 if hasattr(args, field)}
        try:
            args.config = _lib("OptimizerConfig")(seed=args.seed, **given)
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
        text = args.func(args)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as f:
                f.write(text)
        else:
            sys.stdout.write(text)
        return 0
    except OSError as err:
        if err.filename is None:
            raise
        print(f"error: {err.filename}: {err.strerror}", file=sys.stderr)
        return 2
    except (PauliSumParseError, _InputError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
