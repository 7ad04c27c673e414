"""Command-line harness: simulate, validate, spectrum, exponents, trace.

Configuration is a flat key=value namespace per subcommand.  Precedence,
lowest to highest: built-in defaults, a plain-text config file
(``--config``, lines ``key = value``, '#' comments), environment
variables ``SLE_<KEY>``, then command-line flags.  Unknown config-file
keys are rejected outright.

All CSV output carries '#'-prefixed metadata lines and prints floats with
17 significant digits so files round-trip bit-exactly; given the same
seed and config, every output byte is reproducible.

The library's rates are all in the half-speed LSW_HALF clock; ``spectrum
--convention DYSON`` alone converts them, by the factor in ``CLOCKS``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import __version__, dyson, ensembles, exponents, loewner, spectral
from .validation import ALL_CRITERIA, provenance, run_criteria

FLOAT_FMT = ".17g"
CLOCKS = {"LSW_HALF": 1.0, "DYSON": 2.0}  # rate factor of each clock


def _fmt(x) -> str:
    if isinstance(x, float) or isinstance(x, np.floating):
        return format(float(x), FLOAT_FMT)
    return str(x)


# key -> (parser, default, help)
SCHEMAS = {
    "simulate": {
        "n_particles": (int, 2, "number of particles on the circle"),
        "kappa": (float, 2.0, "diffusion parameter"),
        "seed": (int, 0, "RNG seed"),
        "dt": (float, 2e-3, "nominal time step"),
        "t_end": (float, 1.0, "trajectory length (trajectory mode)"),
        "n_samples": (int, 0, "if > 0, emit stationary samples instead"),
        "burn_in": (float, None, "burn-in time; omitted = 10 + 2 ln N"),
        "thinning": (float, 0.4, "time between retained samples"),
    },
    "validate": {
        "quick": (int, 0, "1 = reduced samples, looser KS bounds; 0 = full"),
        "criteria": (str, "", "comma list of criterion ids; empty = all"),
    },
    "spectrum": {
        "kappas": (str, "4.5,5,6,7,8", "comma list of kappa values"),
        "m": (int, 4096, "grid size"),
        "convention": (str, "LSW_HALF", "LSW_HALF or DYSON"),
    },
    "exponents": {
        "kappas": (str, "2,8/3,3,4,6", "comma list, fractions allowed"),
        "p_max": (int, 4, "largest leg number in the fusion columns"),
    },
    "trace": {
        "n_particles": (int, 2, "number of curves"),
        "kappa": (float, 3.0, "diffusion parameter"),
        "t_end": (float, 1.0, "growth time"),
        "seed": (int, 0, "RNG seed"),
        "dt": (float, 1e-3, "driving-process time step"),
        "n_points": (int, 20, "trace points per curve"),
    },
}


def _parse(schema: dict, key: str, val: str, where: str):
    """Convert a config value to its schema type, or exit naming its source."""
    typ = schema[key][0]
    try:
        return typ(val)
    except ValueError:
        raise SystemExit(f"{where}: {key} = {val!r} is not a valid "
                         f"{typ.__name__}") from None


def _read_config_file(path: str, schema: dict) -> dict:
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SystemExit(f"{path}:{lineno}: expected key = value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in schema:
                raise SystemExit(f"{path}:{lineno}: unknown key '{key}'")
            out[key] = _parse(schema, key, val, f"{path}:{lineno}")
    return out


def resolve_config(args: argparse.Namespace, schema: dict) -> dict:
    """Defaults < config file < SLE_* environment < explicit flags."""
    cfg = {k: v[1] for k, v in schema.items()}
    if args.config:
        cfg.update(_read_config_file(args.config, schema))
    for key in schema:
        var = f"SLE_{key.upper()}"
        env = os.environ.get(var)
        if env is not None:
            cfg[key] = _parse(schema, key, env, var)
    for key in schema:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _open_out(path):
    # stdout is borrowed, not owned: leaving the block must not close it
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def _write_csv(fh, meta: dict, header: list, rows):
    for k, v in meta.items():
        fh.write(f"# {k} = {_fmt(v)}\n")
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(x) for x in row) + "\n")


def cmd_simulate(cfg: dict, out_path: str) -> int:
    if cfg["n_samples"] < 0:
        raise ValueError("n_samples must be >= 0")
    params = dyson.ProcessParams(
        n_particles=cfg["n_particles"], kappa=cfg["kappa"], dt=cfg["dt"],
        seed=cfg["seed"], burn_in=cfg["burn_in"], thinning=cfg["thinning"])
    meta = {"version": __version__, "seed": params.seed,
            "kappa": params.kappa, "beta": params.beta,
            "n_particles": params.n_particles, "dt": params.dt,
            "burn_in": params.effective_burn_in,
            "thinning": params.thinning}
    names = [f"theta_{j + 1}" for j in range(params.n_particles)]
    if cfg["n_samples"] > 0:
        batch = dyson.sample_stationary(params, cfg["n_samples"])
        meta["n_samples"] = cfg["n_samples"]
        meta.update((k, batch.meta[k]) for k in dyson.PATH_COUNTERS)
        header = ["sample", *names]
        rows = ([i, *row] for i, row in enumerate(batch.rows))
    else:
        rec = dyson.simulate(params, cfg["t_end"])
        meta["t_end"] = cfg["t_end"]
        header = ["t", *names]
        rows = ([t, *row] for t, row in zip(rec.times, rec.states))
    with _open_out(out_path) as fh:
        _write_csv(fh, meta, header, rows)
    return 0


def cmd_validate(cfg: dict, out_path: str) -> int:
    if cfg["quick"] not in (0, 1):
        raise ValueError(f"quick must be 0 or 1, not {cfg['quick']}")
    only = None
    if cfg["criteria"]:
        n = len(ALL_CRITERIA)
        ids = [s.strip() for s in cfg["criteria"].split(",")]
        bad = [s for s in ids if not (s.isdecimal() and 1 <= int(s) <= n)]
        if bad:
            raise ValueError(f"unknown criterion id(s) {bad}; "
                             f"valid ids are 1 to {n}")
        only = {int(s) for s in ids}
    results = run_criteria(quick=bool(cfg["quick"]), only=only)
    report = {
        "version": __version__,
        "quick": bool(cfg["quick"]),
        "results": [r.to_dict() for r in results],
        "all_pass": all(r.passed for r in results),
        "provenance": provenance(),
    }
    with _open_out(out_path) as fh:
        json.dump(report, fh, indent=2, default=float)
        fh.write("\n")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"criterion {r.criterion_id:2d} {r.name:32s} "
              f"value={r.value:.6g} threshold={r.threshold:g} {status}",
              file=sys.stderr)
    return 0 if report["all_pass"] else 1


def cmd_spectrum(cfg: dict, out_path: str) -> int:
    factor = CLOCKS.get(cfg["convention"])
    if factor is None:
        raise ValueError(f"unknown convention {cfg['convention']!r}; "
                         f"valid values are {', '.join(CLOCKS)}")
    kappas = [float(s) for s in cfg["kappas"].split(",")]
    rows = []
    for kappa in kappas:
        exact = spectral.one_arm_lambda_exact(kappa) * factor
        lam = spectral.adjoint_decay_rate(kappa, cfg["m"]) * factor
        rows.append([kappa, lam, exact, abs(lam - exact)])
    meta = {"version": __version__, "m": cfg["m"],
            "convention": cfg["convention"]}
    with _open_out(out_path) as fh:
        _write_csv(fh, meta,
                   ["kappa", "lambda_numeric", "lambda_exact", "abs_error"],
                   rows)
    return 0


def cmd_exponents(cfg: dict, out_path: str) -> int:
    kappas = [Fraction(s.strip()) for s in cfg["kappas"].split(",")]
    table = exponents.exponent_table(kappas, p_max=cfg["p_max"])
    header = list(table[0].keys())
    rows = [[str(row[k]) for k in header] for row in table]
    with _open_out(out_path) as fh:
        _write_csv(fh, {"version": __version__, "p_max": cfg["p_max"]},
                   header, rows)
    return 0


def cmd_trace(cfg: dict, out_path: str) -> int:
    if cfg["n_points"] < 1:
        raise ValueError("n_points must be >= 1")
    params = dyson.ProcessParams(n_particles=cfg["n_particles"],
                                 kappa=cfg["kappa"], dt=cfg["dt"],
                                 seed=cfg["seed"])
    rec = dyson.simulate(params, cfg["t_end"])
    drive = loewner.DriveHistory.from_trajectory(rec)
    times = np.linspace(0.0, cfg["t_end"], cfg["n_points"])
    meta = {"version": __version__, "seed": params.seed,
            "kappa": params.kappa, "n_particles": params.n_particles,
            "t_end": cfg["t_end"], "dt": params.dt}
    curves = np.repeat(np.arange(params.n_particles), times.size)
    times = np.tile(times, params.n_particles)
    rows = [[j, t, pt.z.real, pt.z.imag, pt.status.value]
            for j, t, pt in zip(curves, times,
                                loewner.trace_points(drive, curves, times))]
    meta["unresolved"] = sum(row[4] == "unresolved" for row in rows)
    with _open_out(out_path) as fh:
        _write_csv(fh, meta, ["curve", "t", "re", "im", "status"], rows)
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "validate": cmd_validate,
    "spectrum": cmd_spectrum,
    "exponents": cmd_exponents,
    "trace": cmd_trace,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sle-dyson",
        description="Simulate and validate interacting circular diffusions, "
                    "their Loewner flows and spectral/exponent structure.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, schema in SCHEMAS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("-o", "--output",
                       help="output file (default: stdout)")
        for key, (typ, default, help_text) in schema.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           type=typ, default=None,
                           help=f"{help_text} (default: {default})")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = resolve_config(args, SCHEMAS[args.command])
    try:
        return COMMANDS[args.command](cfg, args.output)
    except ValueError as exc:
        raise SystemExit(f"{args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
