"""Run the benchmark over several seeds, report each metric's spread and
write the baseline.

    python3 perfbench/spread.py [--seeds 1-10]

Run from the repository root.  For every workload in BENCHMARK.json it
makes one ``--trace 0`` run per seed and prints, for every end-to-end
metric, the median over the seeds and the spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound.  It then makes one
``--trace 1`` run at the first seed.  Everything goes to
``perfbench/baseline.json``.  Exits 1 if any spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
import platform
import statistics
import subprocess
import sys

import numpy as np
import scipy

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
BASELINE = ROOT / "perfbench" / "baseline.json"
ENV_KEYS = ("env.nproc", "env.blas_threads", "env.probe_ms",
            "tracing.overhead")


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def program_commit() -> str | None:
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def machine() -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas['version']}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = {
        "program_commit": program_commit(), "machine": machine(),
        "timed_metrics": "per config the median wall seconds of its "
                         "operations, scaled by run.PROBE_REF_S over the "
                         "pass's mean speed probe; set-up in wall seconds; "
                         "spreads are (q3 - q1) / median over the seeds",
        "run_seconds": bench["run_seconds"], "seeds": args.seeds,
        "workloads": {}}
    steady = True
    for w in bench["workloads"]:
        name = w["name"]
        runs = []
        for seed in args.seeds:
            runs.append(run_once(bench, name, seed, 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        end_to_end = {}
        for m in bench["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            end_to_end[m["name"]] = {"median": med, "spread": spread,
                                     "bound": m["bound"], "unit": m["unit"]}
            flag = "" if spread < m["bound"] / 3 else "  <-- above bound/3"
            if spread > m["bound"]:
                steady = False
                flag = "  <-- ABOVE BOUND"
            print(f"  {m['name']:14s} median {med:12.6g} {m['unit']:6s} "
                  f"spread {spread:.4f} bound {m['bound']}{flag}")
        traced = run_once(bench, name, args.seeds[0], 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        print("  traced: " + ", ".join(
            f"{k}={layers[k]:.4g}" for k in WORKLOADS[name].SHARES), flush=True)
        baseline["workloads"][name] = {
            "why": w["why"], "inputs": WORKLOADS[name].inputs(),
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": end_to_end,
            "measured_from_outside_the_program": {
                k: layers[k] for k in WORKLOADS[name].SHARES},
            "env": {k: layers[k] for k in ENV_KEYS},
            "traced_run": layers}
    BASELINE.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
