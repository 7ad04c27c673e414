"""Self-tests of the benchmark's own code; kept out of the repository's tests.

    python3 perfbench/selftest.py

Exits non-zero if any test fails.
"""

from __future__ import annotations

import json
import math
import re
import sys

import numpy as np

import run
from stats import autocorrelations, effective_sample_size, ks_bound
from tracing import Tracer
from workloads import Op, Outcome, Workload

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def expect(cond, msg):
    if not cond:
        raise AssertionError(msg)


def test_ess_on_ar1():
    """Lag correlations and ESS of AR(1) chains match their closed forms."""
    phi, length, chains = 0.6, 32, 20000
    rng = np.random.default_rng(7)
    x = np.empty((length, chains))
    x[0] = rng.standard_normal(chains)
    for t in range(1, length):
        x[t] = phi * x[t - 1] + math.sqrt(1 - phi ** 2) * rng.standard_normal(chains)
    rho = autocorrelations(x)
    expect(abs(rho[0] - phi) < 0.02, f"lag-1 {rho[0]:.4f} vs {phi}")
    expect(abs(rho[2] - phi ** 3) < 0.02, f"lag-3 {rho[2]:.4f} vs {phi ** 3}")
    exact = chains * length / (1 + 2 * sum((1 - k / length) * phi ** k
                                           for k in range(1, length)))
    ess = effective_sample_size(x)
    expect(abs(ess / exact - 1) < 0.03, f"ESS {ess:.0f} vs {exact:.0f}")
    white = effective_sample_size(rng.standard_normal((length, chains)))
    expect(abs(white / (length * chains) - 1) < 0.05, f"white ESS {white:.0f}")


def test_ks_bound_is_c1_pin():
    expect(abs(ks_bound(1e5) - 0.01) < 1e-15, "one-sample bound at 1e5")
    expect(math.isclose(ks_bound(100, 100), ks_bound(50)), "two-sample bound")


def test_wrappers_restore_every_attribute():
    sd = run.import_program()
    targets = run.targets(sd)
    before = [getattr(t.module, t.attr) for t in targets]
    tracer = Tracer()
    try:
        with tracer.installed(targets):
            for t, orig in zip(targets, before):
                expect(getattr(t.module, t.attr) is not orig,
                       f"{t.name} not wrapped")
            sd.spectral.cs_ground_state(2.0, 64)
            raise KeyError("leave the block by an exception")
    except KeyError:
        pass
    for t, orig in zip(targets, before):
        expect(getattr(t.module, t.attr) is orig, f"{t.attr} not restored")
    expect([s.name for s in tracer.spans] == ["spectral.cs_ground_state"],
           f"spans {tracer.spans}")


def test_raising_operation_is_a_failure():
    """An operation or a check that raises fails that operation only."""
    class Raises(Workload):
        LAYER = "spectral"

        def ops(self, cycle):
            return [Op("raises", lambda _p: 1 / 0), Op("bad", lambda _p: 1)]

        def check(self, op, out):
            raise ValueError("unreadable output")

    res = run.measure(Raises(run.import_program(), 1), 0.0,
                      run.ROOT / ".perfbench_out" / "selftest", Tracer(), 1)
    expect(res["failures"] == ["spectral.raises.error", "spectral.bad.error"],
           f"failures {res['failures']}")
    expect(res["attempted"] == 2 and res["metrics"]["ok_ratio"] == 0.0,
           f"attempted {res['attempted']}")
    expect(not res["correct"], "a raising operation left the run correct")


def test_counts_do_not_depend_on_cycles():
    """attempted and failed read the same however many cycles fit."""
    class Steady(Workload):
        LAYER = "spectral"

        def ops(self, cycle):
            return [Op("good", lambda _p: 1), Op("bad", lambda _p: 0)]

        def check(self, op, out):
            return Outcome(2, [] if out else [f"spectral.{op.config}"], out,
                           out)

    sd = run.import_program()
    outdir = run.ROOT / ".perfbench_out" / "selftest"
    one = run.measure(Steady(sd, 1), 0.0, outdir, Tracer(), 1)
    many = run.measure(Steady(sd, 1), 0.5, outdir, Tracer(), 1)
    expect(len(many["configs"]) > len(one["configs"]) == 2,
           f"operations {len(one['configs'])}, {len(many['configs'])}")
    for res in (one, many):
        expect(res["attempted"] == 4 and res["failures"] == ["spectral.bad"],
               f"attempted {res['attempted']}, failures {res['failures']}")


def test_metric_names():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    for key, table in (("end_to_end", run.END_TO_END),
                       ("per_layer", run.PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        expect(declared == table, f"{key} in BENCHMARK.json differs from run.py")
        for name, unit in table.items():
            expect(NAME.fullmatch(name), f"bad metric name {name!r}")
            expect(UNIT.fullmatch(unit), f"bad unit {unit!r}")
    names = [w["name"] for w in bench["workloads"]]
    expect(sorted(names) == sorted(run.WORKLOADS), "workload names")


def main() -> int:
    failed = 0
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            try:
                fn()
                print(f"ok   {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
