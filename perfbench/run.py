"""Benchmark for sle-dyson: one workload per run, one JSON line of results.

    python3 perfbench/run.py --workload sample-n2 --seed 1 --seconds 26 --trace 0

Run from the repository root.  The program is imported from ``src/`` of the
checkout this file sits in; outputs go to ``.perfbench_out/``.  The timed
pass repeats the workload's cycle of operations for about ``--seconds``: it
always runs one whole cycle, then starts no operation that would likely end
past them.  Its seconds are scaled to a reference machine speed with a probe
kernel timed between operations (see ``speed_probe``).  The checks run after
it, untimed.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same pass
again with spans around every call into the program's layers and prints the
per-layer metrics, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib
import itertools
import json
import os
from pathlib import Path
import resource
import shutil
import statistics
import subprocess
import sys
import time

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread, set before numpy loads (the imports below load it): the
# speed probe runs on one core and cannot see how busy the others are.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
BLAS_THREADS = int(os.environ["OPENBLAS_NUM_THREADS"])

import numpy as np  # noqa: E402

from tracing import Target, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    KNOWN_DEFECTS, WORKLOADS, SampleMany, SampleN2)

SETUP_REPEATS = 3
# The reference speed that timed metrics are scaled to: they read as if
# speed_probe() had taken this long on average over the timed pass.  A fixed
# constant, not a measurement; the probe's actual mean is reported as
# env.probe_ms.
PROBE_REF_S = 0.0175
MODULES = ("cli", "dyson", "ensembles", "loewner", "spectral")
LAYERS = ("cli", "dyson", "ensembles", "loewner", "spectral", "bench")
END_TO_END = {"setup_s": "s", "results_per_s": "1/s", "ess_per_s": "1/s",
              "peak_rss_mb": "MB", "ok_ratio": "ratio"}
CHECK_CONFIGS = SampleN2.CONFIG_NAMES + SampleMany.CONFIG_NAMES
PER_LAYER = {
    "dyson.sample_stationary.s": "s", "dyson.chain_steps": "count",
    "dyson.ns_per_chain_step": "ns", "dyson.fallbacks": "count",
    "dyson.simulate.s": "s",
    "dyson.simulate.steps": "count", "dyson.simulate.share": "ratio",
    "ensembles.gap_cdf_n2.s": "s", "ensembles.sample_batch.s": "s",
    "ensembles.sample_batch.samples": "count", "ensembles.ks.s": "s",
    "loewner.trace_points.s": "s", "loewner.trace_points.points": "count",
    "loewner.trace_points.unresolved": "count", "loewner.ms_per_point": "ms",
    "spectral.build_adjoint_n2.s.m4096": "s",
    "spectral.build_adjoint_n2.s.m512": "s",
    "spectral.lowest_eigenpair.s.m4096": "s",
    "spectral.survival_decay_rate.s": "s",
    "spectral.fp_residual_order.s": "s", "spectral.cs_ground_state.s": "s",
    "spectral.max_abs_error": "1",
    "cli.main.s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.self_share": "ratio" for layer in LAYERS},
    **{f"dyson.fallback_share.{c}": "ratio" for c in CHECK_CONFIGS},
    **{f"check.ks_ratio.{c}": "ratio" for c in CHECK_CONFIGS},
    **{f"check.ks_ess_ratio.{c}": "ratio" for c in CHECK_CONFIGS},
    **{f"check.lag1_err.{c}": "1" for c in SampleN2.CONFIG_NAMES},
    "tracing.overhead": "ratio", "tracing.spans": "count",
    "env.nproc": "count", "env.blas_threads": "count", "env.probe_ms": "ms",
}


def import_program():
    """Import sle_dyson from this checkout's src/, or exit without a result."""
    if not (SRC / "sle_dyson" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'sle_dyson'}")
    sys.path.insert(0, str(SRC))
    sd = importlib.import_module("sle_dyson")
    for name in MODULES:
        importlib.import_module(f"sle_dyson.{name}")
    if Path(sd.__file__).resolve().parent != SRC / "sle_dyson":
        sys.exit(f"perfbench: imported sle_dyson from {sd.__file__}, "
                 f"not from {SRC}")
    return sd


def speed_probe() -> float:
    """Median of five timings of a fixed kernel independent of the program.

    The kernel mixes the kinds of work the program's time goes to: a
    pure-Python loop, NumPy calls on tiny arrays and on (1024, 4, 4)
    arrays.  Its time tracks the machine's current speed, which drifts on a
    shared host by tens of percent over minutes.
    """
    def once():
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        a = np.arange(64.0)
        for _ in range(3000):
            a = np.sin(a) + 1.0
        b = np.linspace(0.0, 1.0, 4096 * 4).reshape(1024, 4, 4)
        for _ in range(12):
            b = np.sort(np.mod(np.tan(b), 1.0), axis=-1)
        return time.perf_counter() - t0
    return statistics.median(once() for _ in range(5))


def child_import_seconds() -> float:
    """Import time of the program in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import sle_dyson.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.strip())


def _chain_steps(out, params, n_samples, n_chains=None):
    # mirrors sample_stationary: min(n, 1024) chains, burn-in then thinning
    chains = n_chains or min(n_samples, 1024)
    per = -(-n_samples // chains)
    steps = (round(params.effective_burn_in / params.dt)
             + per * round(params.thinning / params.dt))
    return {"dyson.chain_steps": chains * steps}


def targets(sd) -> list[Target]:
    spec = sd.spectral
    return [
        Target(sd.cli, "main", "cli.main"),
        Target(sd.dyson, "sample_stationary", "dyson.sample_stationary",
               count=_chain_steps),
        Target(sd.dyson, "simulate", "dyson.simulate",
               count=lambda out, *a, **k: {"dyson.simulate.steps":
                                           len(out.times) - 1}),
        # the per-chain scalar fallback inside the batched stepper: counted,
        # not spanned (thousands of calls per operation)
        Target(sd.dyson, "_advance", "dyson._advance", span=False,
               count=lambda *a, **k: {"dyson.fallbacks": 1}),
        Target(sd.ensembles, "gap_cdf_n2", "ensembles.gap_cdf_n2"),
        Target(sd.ensembles, "sample_batch", "ensembles.sample_batch",
               count=lambda out, *a, **k: {"ensembles.sample_batch.samples":
                                           len(out.rows)}),
        Target(sd.ensembles, "ks_statistic", "ensembles.ks"),
        Target(sd.ensembles, "ks_two_sample", "ensembles.ks"),
        Target(sd.loewner, "trace_points", "loewner.trace_points",
               count=lambda out, *a, **k: {
                   "loewner.trace_points.points": len(out),
                   "loewner.trace_points.unresolved":
                       sum(p.status.value == "unresolved" for p in out)}),
        Target(spec, "build_adjoint_n2", "spectral.build_adjoint_n2",
               label=lambda kappa, m, *a, **k: f".m{m}"),
        Target(spec, "lowest_eigenpair", "spectral.lowest_eigenpair",
               label=lambda op: f".m{op.grid.size}"),
        Target(spec, "survival_decay_rate", "spectral.survival_decay_rate"),
        Target(spec, "fp_residual_order", "spectral.fp_residual_order"),
        Target(spec, "cs_ground_state", "spectral.cs_ground_state"),
    ]


def attempt(op, path: Path):
    """Run one operation; an exception it raises becomes its output."""
    try:
        return op.fn(path)
    except (Exception, SystemExit) as exc:
        print(f"perfbench: {op.config} raised {exc!r}", file=sys.stderr)
        return exc


def schedule(workload):
    """(cycle, output name, operation) of the workload's cycles, no end.

    A CLI workload's first operation runs twice in a row; the second run,
    named ``repro``, must reproduce the first byte for byte.
    """
    for cycle in itertools.count():
        for i, op in enumerate(workload.ops(cycle)):
            yield cycle, f"c{cycle}-{i}-{op.config}", op
            if cycle == 0 and i == 0 and op.cli:
                yield cycle, "repro", op


def measure(workload, seconds: float, outdir: Path, tracer: Tracer,
            repeats: int):
    """Set up, run the timed pass, check; return metrics and counts.

    ``tracer`` records the benchmark's own spans (set-up, operations,
    checks) and, when its wrappers are installed, the program's.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    # Set-up stays in wall seconds: one probe around a step of a second or
    # less adds more noise than it removes.
    imports = [child_import_seconds() for _ in range(repeats)]
    oracles = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with tracer.span("bench.setup"):
            workload.setup()
        oracles.append(time.perf_counter() - t0)

    probes = [speed_probe()]
    records = []  # (name, op, output, wall seconds)
    last = {}  # config -> wall seconds of its latest operation
    start = time.perf_counter()
    for cycle, name, op in schedule(workload):
        # the first cycle always runs whole; later, no operation starts
        # that would likely end past the pass's seconds
        if cycle and time.perf_counter() - start + last[op.config] > seconds:
            break
        tracer.op = len(records)
        t0 = time.perf_counter()
        with tracer.span("bench.op"):
            out = attempt(op, outdir / f"{name}.csv")
        last[op.config] = time.perf_counter() - t0
        records.append((name, op, out, last[op.config]))
        probes.append(speed_probe())
    tracer.op = None

    with tracer.span("bench.check"):
        workload.prepare([(op, out) for _, op, out, _ in records])
        outcomes = [workload.judge(op, out) for _, op, out, _ in records]
    attempted, failures = 0, []
    if len(records) > 1 and records[1][0] == "repro":
        (_, first, out, _), (_, _, again, _) = records[:2]
        attempted += 1
        if (isinstance(out, BaseException) or isinstance(again, BaseException)
                or not filecmp.cmp(out, again, shallow=False)):
            failures.append(f"cli.repro.{first.config}")

    # Per config: the median over its operations of their seconds and
    # verified work, and its worst outcome, so that neither the counts nor
    # the rates depend on how many operations the host's speed let fit.
    # The seconds are scaled by the probes' mean over the whole pass: the
    # host's speed drifts over minutes, and one probe beside one operation
    # is noisier than that drift within a pass.
    by_config = {}
    for (_, op, _, dt), o in zip(records, outcomes):
        by_config.setdefault(op.config, []).append((dt, o))
    cycle_s = cycle_results = cycle_ess = 0.0
    for runs in by_config.values():
        cycle_s += statistics.median(dt for dt, _ in runs)
        cycle_results += statistics.median(o.results for _, o in runs)
        cycle_ess += statistics.median(o.ess for _, o in runs)
        attempted += max(o.attempted for _, o in runs)
        failures += max((o.failures for _, o in runs), key=len)
    scale = PROBE_REF_S / statistics.mean(probes)
    found = {}
    for o in outcomes:
        for key, val in o.checks.items():
            found[key] = max(val, found.get(key, val))
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(oracles),
        "results_per_s": cycle_results / (cycle_s * scale),
        "ess_per_s": cycle_ess / (cycle_s * scale),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                       / 1024.0,
        "ok_ratio": 1.0 - len(failures) / attempted,
    }
    return {"metrics": metrics, "checks": found, "attempted": attempted,
            "configs": [op.config for _, op, _, _ in records],
            "failures": failures,
            "correct": all(f in KNOWN_DEFECTS for f in failures),
            "probe_ms": 1e3 * statistics.mean(probes),
            "wall": time.perf_counter() - start + sum(oracles)}


def layer_metrics(tracer: Tracer, traced: dict, untraced: dict) -> dict:
    total, self_time = tracer.totals()
    n = tracer.counts
    wall = traced["wall"]
    steps = n["dyson.chain_steps"]
    points = n["loewner.trace_points.points"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {key: 0.0 for key in PER_LAYER}
    m.update(traced["checks"])
    m.update({
        "dyson.sample_stationary.s": total["dyson.sample_stationary"],
        "dyson.chain_steps": steps,
        "dyson.ns_per_chain_step":
            1e9 * ratio(total["dyson.sample_stationary"], steps),
        "dyson.fallbacks": n["dyson.fallbacks"],
        "dyson.simulate.s": total["dyson.simulate"],
        "dyson.simulate.steps": n["dyson.simulate.steps"],
        "dyson.simulate.share": total["dyson.simulate"] / wall,
        "ensembles.gap_cdf_n2.s": total["ensembles.gap_cdf_n2"],
        "ensembles.sample_batch.s": total["ensembles.sample_batch"],
        "ensembles.sample_batch.samples": n["ensembles.sample_batch.samples"],
        "ensembles.ks.s": total["ensembles.ks"],
        "loewner.trace_points.s": total["loewner.trace_points"],
        "loewner.trace_points.points": points,
        "loewner.trace_points.unresolved":
            n["loewner.trace_points.unresolved"],
        "loewner.ms_per_point": 1e3 * ratio(total["loewner.trace_points"],
                                            points),
        "cli.main.s": total["cli.main"],
        "tracing.overhead": ratio(untraced["metrics"]["results_per_s"],
                                  traced["metrics"]["results_per_s"]) - 1.0,
        "tracing.spans": len(tracer.spans),
        "env.nproc": NPROC, "env.blas_threads": BLAS_THREADS,
        "env.probe_ms": traced["probe_ms"],
    })
    for name in ("survival_decay_rate", "fp_residual_order",
                 "cs_ground_state"):
        m[f"spectral.{name}.s"] = total[f"spectral.{name}"]
    for g in (4096, 512):
        m[f"spectral.build_adjoint_n2.s.m{g}"] = total[
            f"spectral.build_adjoint_n2.m{g}"]
    m["spectral.lowest_eigenpair.s.m4096"] = total[
        "spectral.lowest_eigenpair.m4096"]
    by_config = {}
    for i, config in enumerate(traced["configs"]):
        acc = by_config.setdefault(config, [0.0, 0.0])
        acc[0] += tracer.op_counts[i]["dyson.fallbacks"]
        acc[1] += tracer.op_counts[i]["dyson.chain_steps"]
    for config, (fallbacks, chain_steps) in by_config.items():
        if chain_steps:
            m[f"dyson.fallback_share.{config}"] = fallbacks / chain_steps
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
        m[f"{layer}.self_share"] = self_time[layer] / wall
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in [v for v in os.environ if v.startswith("SLE_")]:
        del os.environ[var]  # the program sees only the generated arguments

    sd = import_program()
    outdir = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}"
    shutil.rmtree(outdir, ignore_errors=True)
    workload = WORKLOADS[args.workload](sd, args.seed)
    res = measure(workload, args.seconds, outdir / "untraced", Tracer(),
                  SETUP_REPEATS)
    if args.trace:
        tracer = Tracer()
        with tracer.installed(targets(sd)):
            traced = measure(workload, args.seconds, outdir / "traced",
                             tracer, 1)
        tracer.dump(outdir / "spans.jsonl")
        values = layer_metrics(tracer, traced, res)
        units = PER_LAYER
        correct = res["correct"] and traced["correct"]
        res = traced
    else:
        values, units, correct = res["metrics"], END_TO_END, res["correct"]
    print(f"perfbench: speed probe mean {res['probe_ms']:.3f} ms",
          file=sys.stderr)
    for f in res["failures"]:
        print(f"failed: {f}" + (" (known defect)" if f in KNOWN_DEFECTS
                                else ""), file=sys.stderr)
    print(json.dumps({
        "correct": bool(correct), "attempted": int(res["attempted"]),
        "failed": len(res["failures"]),
        "metrics": {k: {"value": float(values[k]), "unit": u}
                    for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
