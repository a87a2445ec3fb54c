"""End-to-end benchmark of the pauliforge CLI, with a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload engineer-shallow --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each run is one process and one closed-loop client: the workload's CLI
operations (`pauliforge.cli.main(argv)`, called in-process on inputs
generated from --seed) run back to back, one after the other, in passes
over the workload's fixed operation list until --seconds have elapsed.
Every operation's output is checked.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones of a separate traced run (see tracing.py and README.md).
"""

import os

# Cap BLAS threads here, before NumPy loads, so one run uses one core and
# nothing about the program changes.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"

import workloads  # noqa: E402

SETUP_REPEATS = 3
MIN_PASSES = 3


# The development host (2 shared vCPUs) drifts in speed by up to ~1.7x in
# episodes lasting tens of seconds, so raw pass times spread by 0.13-0.28
# (quartiles over runs) however long a run is.  A fixed reference kernel is
# timed between ops, and each op's time is scaled by PROBE_REF_S / probe,
# the probe being the mean of the kernel times just before and after the op.
# That cut the spread two- to four-fold.  PROBE_REF_S is about the kernel's
# time on that host at full speed, so scaled times read as seconds there.
PROBE_REF_S = 0.008


def _parity(a: int, b: int) -> bool:
    return ((a & b).bit_count() + (a ^ b).bit_count()) % 2 == 0


class HostProbe:
    """Summed best-of-3 times of four small kernels, each like one kind of
    the program's work: Python calls on int bit masks, small-array NumPy
    dispatch, a sort-and-merge of 60k keys, and a dense matmul."""

    def __init__(self):
        import numpy as np
        self._np = np
        rng = np.random.default_rng(0)
        self._vec = rng.standard_normal(300)
        self._keys = rng.integers(0, 1 << 40, 60000, dtype=np.uint64)
        self._mat = rng.standard_normal((64, 64)) + 0j

    def _calls(self):
        total = 0
        for k in range(10000):
            total += _parity(k, k >> 3)

    def _dispatch(self):
        for _ in range(100):
            self._np.unique(self._np.concatenate([self._vec, self._vec]), return_inverse=True)

    def _merge(self):
        uniq, inverse = self._np.unique(self._keys, return_inverse=True)
        self._np.bincount(inverse, minlength=uniq.size)

    def _matmul(self):
        for _ in range(50):
            self._mat @ self._mat

    def __call__(self) -> float:
        total = 0.0
        for kernel in (self._calls, self._dispatch, self._merge, self._matmul):
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                kernel()
                best = min(best, time.perf_counter() - t0)
            total += best
        return total


class SetupError(RuntimeError):
    """The program could not be loaded or a warm-up operation failed."""


def load_program():
    """Import pauliforge from this checkout's src/; returns (cli.main, seconds)."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    try:
        cli = importlib.import_module("pauliforge.cli")
    except ImportError as err:
        raise SetupError(f"cannot import pauliforge from {src}: {err}") from None
    seconds = time.perf_counter() - t0
    origin = Path(sys.modules["pauliforge"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SetupError(f"pauliforge was imported from {origin}, not from {src}")
    return cli.main, seconds


class Runner:
    """Runs ops in a work directory and checks every output."""

    def __init__(self, main, workdir: Path, probe: HostProbe):
        self.main = main
        self.workdir = workdir
        self.probe = probe
        self.attempted = 0
        self.failed = 0
        self.first_output: dict[str, tuple[str, str]] = {}
        self._oracles: dict[str, object] = {}

    def call(self, op: workloads.Op) -> tuple[float, int, str, str]:
        """One CLI call; returns (seconds, exit code, stdout-or-output, stderr)."""
        argv = [str(self.workdir / a) if prev == "--input" else a
                for prev, a in zip(("",) + op.argv, op.argv)]
        out = self.workdir / "out.json"
        argv += ["--output", str(out)]
        if op.command == "engineer":
            argv += ["--engineered-out", str(self.workdir / "engineered.txt")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.main(argv)
            except SystemExit as exc:  # argparse rejects bad flags this way
                rc = exc.code if isinstance(exc.code, int) else 2
            seconds = time.perf_counter() - t0
        output = out.read_text(encoding="utf-8") if rc == 0 else ""
        return seconds, rc, output, err.getvalue()

    def _oracle(self, op: workloads.Op, wl: workloads.Workload):
        key = f"{wl.name}/{op.name}"
        if key not in self._oracles:
            import checks
            terms = checks.parse_terms(workloads.op_input_text(op, wl))
            if op.command == "engineer":
                self._oracles[key] = checks.spectrum(terms, op.n)
            else:
                self._oracles[key] = terms
        return self._oracles[key]

    def check(self, op: workloads.Op, wl: workloads.Workload, output: str) -> list[str]:
        import checks
        engineered = ""
        if op.command == "engineer":
            engineered = (self.workdir / "engineered.txt").read_text(encoding="utf-8")
            problems = checks.check_engineer(output, engineered, self._oracle(op, wl), op.n)
        elif op.command == "group":
            strategy = op.argv[op.argv.index("--strategy") + 1]
            problems = checks.check_group(output, self._oracle(op, wl), strategy)
        elif op.golden:
            problems = checks.check_qdrift_golden(output)
        else:
            problems = []
        key = f"{wl.name}/{op.name}"
        current = (checks.without_timings(output), engineered)
        first = self.first_output.setdefault(key, current)
        if current != first:
            problems.append("output differs from the first pass (timings excluded)")
        return problems

    def run(self, op: workloads.Op, wl: workloads.Workload) -> tuple[float, str]:
        """Run and check one measured op; returns (seconds, output)."""
        self.attempted += 1
        try:
            seconds, rc, output, err = self.call(op)
            problems = [f"exit code {rc}: {err.strip()}"] if rc != 0 else self.check(op, wl, output)
        except Exception:  # one broken op must not end the run: count it
            seconds, output, problems = 0.0, "", [traceback.format_exc()]
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {wl.name} / {op.name}: {problem}", file=sys.stderr)
        return seconds, output

    def run_pass(self, wl: workloads.Workload, outputs: dict | None = None) -> tuple[float, float]:
        """One pass over the op list; returns (raw, host-speed-scaled) seconds."""
        raw = scaled = 0.0
        before = self.probe()
        for op in wl.ops:
            seconds, output = self.run(op, wl)
            after = self.probe()
            raw += seconds
            scaled += seconds * PROBE_REF_S / (0.5 * (before + after))
            before = after
            if outputs is not None:
                outputs[op.name] = output
        return raw, scaled


def timed_setup(main, probe: HostProbe, name: str, seed: int,
                root: Path) -> tuple[workloads.Workload, list[float]]:
    """Generate and write the inputs and run one warm-up op, several times;
    returns the workload and the host-speed-scaled time of each repeat."""
    times = []
    for k in range(SETUP_REPEATS):
        workdir = root / f"setup{k}"
        workdir.mkdir()
        t0 = time.perf_counter()
        wl = workloads.build(name, seed)
        workloads.write_inputs(wl, workdir)
        _, rc, _, err = Runner(main, workdir, probe).call(wl.warmup)
        times.append((time.perf_counter() - t0) * PROBE_REF_S / probe())
        if rc != 0:
            raise SetupError(f"warm-up op {wl.warmup.name!r} exited {rc}: {err.strip()}")
    return wl, times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(runner: Runner, wl: workloads.Workload,
            seconds: float) -> tuple[list[tuple[float, float]], dict]:
    """Passes over the op list until `seconds` elapse; returns each pass's
    (raw, scaled) time and the first pass's outputs."""
    outputs: dict[str, str] = {}
    passes: list[tuple[float, float]] = []
    deadline = time.perf_counter() + seconds
    # Start another pass only while it can still end before the deadline.
    while (len(passes) < MIN_PASSES
           or time.perf_counter() + min(raw for raw, _ in passes) < deadline):
        passes.append(runner.run_pass(wl, None if passes else outputs))
    return passes, outputs


def end_to_end(main, import_s: float, name: str, seed: int, seconds: float,
               root: Path) -> tuple[Runner, dict]:
    import checks
    probe = HostProbe()
    import_s *= PROBE_REF_S / probe()
    wl, setup_times = timed_setup(main, probe, name, seed, root)
    runner = Runner(main, root / "setup0", probe)
    passes, outputs = measure(runner, wl, seconds)
    engineered = [checks.engineered_norm_ratio(outputs[op.name])
                  for op in wl.ops if op.command == "engineer" and outputs[op.name]]
    grouped = [checks.grouped_norm_ratio(outputs[op.name])
               for op in wl.ops if op.command == "group" and outputs[op.name]]
    q1, wall, q3 = quartiles([scaled for _, scaled in passes])
    r1, raw_wall, r3 = quartiles([raw for raw, _ in passes])
    s1, setup_rep, s3 = quartiles(setup_times)
    print(f"{name} seed {seed}: {len(passes)} passes of {len(wl.ops)} ops, "
          f"{runner.attempted} attempted, {runner.failed} failed "
          f"(failed_ratio {runner.failed / runner.attempted:.4g})")
    print(f"  wall_s per pass, scaled: median {wall:.6g} s, q1 {q1:.6g}, q3 {q3:.6g}, "
          f"n={len(passes)}")
    print(f"  wall_s per pass, raw:    median {raw_wall:.6g} s, q1 {r1:.6g}, q3 {r3:.6g}, "
          f"n={len(passes)}")
    print(f"  setup_s: import {import_s:.6g} s + median {setup_rep:.6g} s "
          f"(q1 {s1:.6g}, q3 {s3:.6g}, n={len(setup_times)})")
    # Where a workload runs no op of a kind, the ratio is the no-op value 1:
    # without engineering (or with one term per collection) the norm is kept.
    metrics = {
        "setup_s": import_s + setup_rep,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "engineered_norm_ratio": statistics.fmean(engineered) if engineered else 1.0,
        "grouped_norm_ratio": statistics.fmean(grouped) if grouped else 1.0,
    }
    return runner, with_units(metrics, "end_to_end")


def traced(main, import_s: float, name: str, seed: int, seconds: float,
           root: Path) -> tuple[Runner, dict]:
    """The per-layer run: every workload's ops once under spans, the layer
    replays, and untraced/traced passes of `name`, alternating for half of
    `seconds`, for the tracing overhead."""
    import tracing
    probe = HostProbe()
    wl, _ = timed_setup(main, probe, name, seed, root)
    workdir = root / "setup0"
    catalogue = {n: workloads.build(n, seed) for n in workloads.NAMES}
    for other in catalogue.values():
        workloads.write_inputs(other, workdir)
    runner = Runner(main, workdir, probe)
    rec = tracing.Recorder()
    traced_runner = Runner(rec.span("cli.main", main), workdir, probe)
    traced_runner.first_output = runner.first_output

    outputs: dict[str, str] = {}
    speed = [probe()]  # probe times across the run, to scale the layer times
    rec.install()
    try:
        for other in catalogue.values():
            for op in other.ops:
                rec.op = op.name
                outputs[op.name] = traced_runner.run(op, other)[1]
                speed.append(probe())
    finally:
        rec.uninstall()
    rec.install(counters=True)
    try:
        for op in catalogue["group"].ops:
            rec.op = op.name
            runner.run(op, catalogue["group"])
    finally:
        rec.uninstall()

    plain, spanned = [], []
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < seconds / 2:
        plain.append(runner.run_pass(wl)[1])
        rec.op = "overhead"
        rec.install()
        try:
            spanned.append(traced_runner.run_pass(wl)[1])
        finally:
            rec.uninstall()
    runner.attempted += traced_runner.attempted
    runner.failed += traced_runner.failed

    m = tracing.layer_metrics(rec, catalogue, outputs, seed)
    speed.append(probe())
    m["trace.overhead"] = statistics.median(spanned) / statistics.median(plain) - 1.0
    metrics = with_units(m, "per_layer")
    scale = PROBE_REF_S / statistics.median(speed)
    for metric in metrics.values():
        if metric["unit"] in ("s", "us", "ns"):
            metric["value"] *= scale

    WORK.mkdir(exist_ok=True)
    rec.write(WORK / f"trace-{name}-seed{seed}.json")
    print(f"{name} seed {seed} traced: {len(plain)} untraced / {len(spanned)} traced passes, "
          f"{runner.attempted} attempted, {runner.failed} failed; spans in "
          f"{(WORK / f'trace-{name}-seed{seed}.json').relative_to(ROOT)}; "
          f"layer times scaled by host speed factor {scale:.4g}")
    return runner, metrics


def with_units(values: dict, section: str) -> dict:
    """Attach each metric's unit from BENCHMARK.json, which must list
    exactly the metrics measured."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec[section]}
    if set(units) != set(values):
        raise RuntimeError(f"{section} metrics out of step with BENCHMARK.json: "
                           f"{sorted(set(units) ^ set(values))}")
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def run_one(args) -> int:
    try:
        main, import_s = load_program()
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    WORK.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        measure_fn = traced if args.trace else end_to_end
        runner, metrics = measure_fn(main, import_s, args.workload, args.seed, args.seconds, root)
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for key, metric in metrics.items():
        print(f"  {key} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def run_child(name: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict]:
    """One run in its own process; returns its report lines and result."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SetupError(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    return lines[:-1], json.loads(lines[-1])


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        try:
            lines, result = run_child(name, args.seed, args.seconds, args.trace)
        except SetupError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
        print("\n".join(lines))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=workloads.DEV_SEED,
                        help=f"input seed (development seed {workloads.DEV_SEED}, "
                             f"held-out seed {workloads.HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measure for this long (at least three passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
