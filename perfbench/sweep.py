"""Repeat benchmark runs over several seeds and summarize their spread.

    python3 perfbench/sweep.py --workload qdrift --seeds 1-5
    python3 perfbench/sweep.py --seeds 1-10 --baseline perfbench/BASELINE.json

Each (workload, seed) is one `run.py` process, run one after the other.
For every end-to-end metric it prints the median, the quartiles and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json.
With --baseline it also makes one traced run per workload on the first
seed and writes everything, with the machine it ran on, to that file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (sets the BLAS caps its child processes inherit)
import workloads  # noqa: E402


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def parse_seeds(text: str) -> list[int]:
    lo, sep, hi = text.partition("-")
    return list(range(int(lo), int(hi) + 1)) if sep else [int(s) for s in text.split(",")]


def machine() -> dict:
    import numpy
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("model name")),
               platform.processor())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": run.BLAS_THREADS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.NAMES,
                        help="repeat to pick several (default: all)")
    parser.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    parser.add_argument("--baseline", type=Path, help="write the summary here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    doc = {"machine": machine(), "run_seconds": spec["run_seconds"], "seeds": seeds,
           "dev_seed": workloads.DEV_SEED, "heldout_seed": workloads.HELDOUT_SEED,
           "workloads": {}}
    ok = True
    for name in args.workload or workloads.NAMES:
        results = [run.run_child(name, seed, spec["run_seconds"], 0)[1] for seed in seeds]
        ok &= all(r["correct"] for r in results)
        entry = {"attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        for metric, bound in bounds.items():
            s = summarize([r["metrics"][metric]["value"] for r in results])
            s["unit"] = results[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = s
            print(f"{name:17s} {metric:22s} median {s['median']:.6g} {s['unit']:5s} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                  f"(bound {bound}, {s['spread'] / bound:.2f} of it)")
        if args.baseline:
            traced = run.run_child(name, seeds[0], spec["run_seconds"], 1)[1]
            ok &= traced["correct"]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        doc["workloads"][name] = entry
    if args.baseline:
        args.baseline.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
