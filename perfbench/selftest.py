"""Prove the benchmark's output checks are not vacuous.

    python3 perfbench/selftest.py

Runs one real op of each kind, confirms every check accepts its output,
then feeds each check a deliberately corrupted copy and confirms that the
check rejects it.  Exits 1 if a check accepts a corrupted output or
rejects a correct one.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (caps BLAS threads before NumPy loads)
import workloads  # noqa: E402

SEED = workloads.DEV_SEED


def _edit(output: str, fn) -> str:
    doc = json.loads(output)
    fn(doc["results"])
    return json.dumps(doc)


def engineer_cases(runner, wl):
    import checks
    op = wl.ops[0]
    _, output = runner.run(op, wl)
    engineered = (runner.workdir / "engineered.txt").read_text(encoding="utf-8")
    reference = checks.spectrum(checks.parse_terms(workloads.op_input_text(op, wl)), op.n)

    def check(out=output, text=engineered):
        return checks.check_engineer(out, text, reference, op.n)

    # A sign flip would not do here: on the open Ising chain flipping one
    # coefficient's sign is a unitary gauge change, so the spectrum is kept.
    # Moving weight from one term to another keeps the l1 norm but not the
    # spectrum (the sum of squares changes).
    terms = checks.parse_terms(engineered)
    (l0, c0), (l1, c1) = terms[0], terms[1]
    shift = 0.5 * min(abs(c0), abs(c1))
    moved = [(l0, c0 + shift * (1 if c0 > 0 else -1)), (l1, c1 - shift * (1 if c1 > 0 else -1))]
    moved_text = "".join(f"{c!r} {label}\n" for label, c in moved + terms[2:])

    def raise_norm(res):
        res["engineered_norm"] = res["original_norm"] * 1.01

    def lower_norm(res):
        res["engineered_norm"] *= 0.99

    return [
        ("engineer output accepted", check(), None),
        ("engineered norm above the original", check(out=_edit(output, raise_norm)), "exceeds"),
        ("reported norm not the file's", check(out=_edit(output, lower_norm)), "differs from reported"),
        ("engineered file with weight moved between terms", check(text=moved_text), "spectrum"),
    ]


def group_cases(runner, wl):
    import checks
    cases = []
    for op in wl.ops:
        strategy = op.argv[op.argv.index("--strategy") + 1]
        _, output = runner.run(op, wl)
        terms = checks.parse_terms(workloads.op_input_text(op, wl))

        def check(out, strategy=strategy, terms=terms):
            return checks.check_group(out, terms, strategy)

        def swap_incompatible(res, strategy=strategy):
            # Swap the head of a collection with a term from another one
            # that clashes with the rest of it.
            cols = [c for c in res["collections"] if len(c) > 1]
            for a in cols:
                for b in res["collections"]:
                    for k, term in enumerate(b):
                        rest = [t["label"] for t in a[1:]]
                        if b is not a and checks.incompatible_pair([term["label"]] + rest,
                                                                   strategy):
                            a[0], b[k] = term, a[0]
                            return
            raise AssertionError("no incompatible swap found")

        def duplicate_term(res):
            res["collections"][0].append(dict(res["collections"][0][0]))

        def nudge_grouped_norm(res):
            res["grouped_norm"] *= 1 + 1e-9

        cases += [
            (f"group {strategy} output accepted", check(output), None),
            (f"group {strategy}: swapped pair breaks a collection",
             check(_edit(output, swap_incompatible)), "not compatible"),
            (f"group {strategy}: term listed twice", check(_edit(output, duplicate_term)),
             "exactly once"),
            (f"group {strategy}: grouped norm off by 1e-9", check(_edit(output, nudge_grouped_norm)),
             "grouped norm"),
        ]
    return cases


def qdrift_cases(runner, wl):
    import checks
    op = next(op for op in wl.ops if op.golden)
    _, output = runner.run(op, wl)

    def swap_rows(res):
        rows = res["rows"]
        rows[1]["mean_state_error"], rows[2]["mean_state_error"] = (
            rows[2]["mean_state_error"], rows[1]["mean_state_error"])

    def flat_state_error(res):
        res["rows"][-1]["state_error_mean"] = res["rows"][-2]["state_error_mean"]

    # The runner has kept this first output; a later pass must match it
    # byte for byte outside `timings`.
    retimed = output.replace('"timings":{"seconds":', '"timings":{"seconds":1', 1)
    digit = output.index('"gamma":') + len('"gamma":')
    altered = output[:digit] + str((int(output[digit]) + 1) % 10) + output[digit + 1:]
    return [
        ("qdrift golden output accepted", checks.check_qdrift_golden(output), None),
        ("channel error not falling with G",
         checks.check_qdrift_golden(_edit(output, swap_rows)), "mean_state_error"),
        ("state error flat between two G",
         checks.check_qdrift_golden(_edit(output, flat_state_error)), "state_error_mean"),
        ("a later pass with other timings accepted", runner.check(op, wl, retimed), None),
        ("a later pass with one digit changed", runner.check(op, wl, altered), "first pass"),
    ]


def main() -> int:
    main_fn, _ = run.load_program()
    run.WORK.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.WORK))
    try:
        cases = []
        for name, make in (("engineer-shallow", engineer_cases), ("group", group_cases),
                           ("qdrift", qdrift_cases)):
            wl = workloads.build(name, SEED)
            workdir = root / name
            workdir.mkdir()
            workloads.write_inputs(wl, workdir)
            runner = run.Runner(main_fn, workdir, run.HostProbe())
            cases += make(runner, wl)
            if runner.failed:
                cases.append((f"{name} ops ran", ["an op failed its checks"], None))
    finally:
        shutil.rmtree(root, ignore_errors=True)

    bad = 0
    for label, problems, expect in cases:
        if expect is None:
            ok = not problems
        else:
            ok = any(expect in p for p in problems)
        bad += not ok
        print(f"{'ok  ' if ok else 'FAIL'} {label}" + ("" if ok else f": {problems}"))
    print(f"{len(cases) - bad}/{len(cases)} self-test cases passed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
