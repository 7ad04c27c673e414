"""Command-line harness: simulate, validate, spectrum, exponents, trace.

Each subcommand's options are its command-line flags alone, with the
types, defaults and help of ``SCHEMAS``; a value of the wrong type exits
with argparse's message naming the flag.

Each CSV command computes and returns its table, ``(meta, header, rows)``;
``main`` alone opens ``-o`` once the command has returned and writes the
table, its '#'-prefixed metadata lines led by the version line. Floats
print with 17 significant digits, so files round-trip bit-exactly; given
the same seed and flags, every output byte is reproducible. ``validate``
writes its own JSON report, and its exit code is its verdict.

``spectrum`` computes its one-arm rates in the backward generator's
half-speed LSW_HALF clock; ``--convention DYSON`` alone converts them, by
the factor in ``CLOCKS``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys

import numpy as np

from . import __version__, _count, dyson, loewner

FLOAT_FMT = ".17g"
CLOCKS = {"LSW_HALF": 1.0, "DYSON": 2.0}  # rate factor of each clock


def _spec(t) -> str:
    """The %-format of a CSV field of type ``t``: FLOAT_FMT for a Python or
    numpy float (%-formatting one formats float(x)), str() for the rest."""
    return "%" + FLOAT_FMT if issubclass(t, (float, np.floating)) else "%s"


# key -> (parser, default, help)
SCHEMAS = {
    "simulate": {
        "n_particles": (int, 2, "number of particles on the circle"),
        "kappa": (float, 2.0, "diffusion parameter"),
        "seed": (int, 0, "RNG seed"),
        "dt": (float, 2e-3, "nominal time step"),
        "t_end": (float, None, "trajectory length; omitted = 1"),
        "n_samples": (int, 0, "if > 0, emit stationary samples instead"),
        "burn_in": (float, None,
                    "burn-in time; omitted = 10 + 2 ln N on the dt grid"),
        "thinning": (float, None, "time between samples; omitted = 0.4"),
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


def _open_out(path):
    # stdout is borrowed, not owned: leaving the block must not close it
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def _write_csv(fh, meta: dict, header: list, rows):
    for k, v in meta.items():
        fh.write(f"# {k} = {_spec(type(v)) % (v,)}\n")
    fh.write(",".join(header) + "\n")
    templates = {}  # a row's %-template, by the types of its fields
    for row in rows:
        types = tuple(map(type, row))
        if types not in templates:
            templates[types] = ",".join(map(_spec, types)) + "\n"
        fh.write(templates[types] % tuple(row))


def cmd_simulate(cfg: dict) -> tuple:
    sampling = _count("n_samples", cfg["n_samples"], 0) > 0
    for key in ("t_end",) if sampling else ("burn_in", "thinning"):
        if cfg[key] is not None:
            raise ValueError(f"--{key.replace('_', '-')} is read only when "
                             f"--n-samples is {'0' if sampling else '> 0'}")
    given = {k: cfg[k] for k in ("burn_in", "thinning") if cfg[k] is not None}
    params = dyson.ProcessParams(
        n_particles=cfg["n_particles"], kappa=cfg["kappa"], dt=cfg["dt"],
        seed=cfg["seed"], **given)
    meta = {"seed": params.seed, "kappa": params.kappa, "beta": params.beta,
            "n_particles": params.n_particles, "dt": params.dt}
    names = [f"theta_{j + 1}" for j in range(params.n_particles)]
    if sampling:
        batch = dyson.sample_stationary(params, cfg["n_samples"])
        meta.update(burn_in=params.effective_burn_in,
                    thinning=params.thinning, n_samples=cfg["n_samples"])
        meta.update((k, batch.meta[k]) for k in dyson.PATH_COUNTERS)
        header = ["sample", *names]
        rows = ([i, *row] for i, row in enumerate(batch.rows.tolist()))
    else:
        t_end = 1.0 if cfg["t_end"] is None else cfg["t_end"]
        rec = dyson.simulate(params, t_end)
        meta["t_end"] = t_end
        header = ["t", *names]
        rows = ([t, *row]
                for t, row in zip(rec.times.tolist(), rec.states.tolist()))
    return meta, header, rows


def cmd_validate(cfg: dict, out_path: str) -> int:
    from .validation import ALL_CRITERIA, provenance, run_criteria
    if cfg["quick"] not in (0, 1):
        raise ValueError(f"quick must be 0 or 1, not {cfg['quick']}")
    only = None
    if cfg["criteria"]:
        ids = [s.strip() for s in cfg["criteria"].split(",")]
        bad = [s for s in ids
               if not (s.isdecimal() and int(s) in ALL_CRITERIA)]
        if bad:
            raise ValueError(f"unknown criterion id(s) {bad}; valid ids are "
                             f"{', '.join(map(str, ALL_CRITERIA))}")
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


def cmd_spectrum(cfg: dict) -> tuple:
    from . import spectral
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
    return ({"m": cfg["m"], "convention": cfg["convention"]},
            ["kappa", "lambda_numeric", "lambda_exact", "abs_error"], rows)


def cmd_exponents(cfg: dict) -> tuple:
    from . import exponents
    table = exponents.exponent_table(cfg["kappas"].split(","),
                                     p_max=cfg["p_max"])
    # exact Fractions, which the writer prints as str(x)
    return ({"p_max": cfg["p_max"]}, list(table[0]),
            [row.values() for row in table])


def cmd_trace(cfg: dict) -> tuple:
    _count("n_points", cfg["n_points"], 1)
    params = dyson.ProcessParams(n_particles=cfg["n_particles"],
                                 kappa=cfg["kappa"], dt=cfg["dt"],
                                 seed=cfg["seed"])
    rec = dyson.simulate(params, cfg["t_end"])
    drive = loewner.DriveHistory(rec.times, rec.states)
    times = np.linspace(0.0, cfg["t_end"], cfg["n_points"])
    meta = {"seed": params.seed, "kappa": params.kappa,
            "n_particles": params.n_particles, "t_end": cfg["t_end"],
            "dt": params.dt}
    curves = np.repeat(np.arange(params.n_particles), times.size)
    times = np.tile(times, params.n_particles)
    rows = [[j, t, pt.z.real, pt.z.imag, pt.status.value]
            for j, t, pt in zip(curves.tolist(), times.tolist(),
                                loewner.trace_points(drive, curves, times))]
    meta["unresolved"] = sum(row[4] == "unresolved" for row in rows)
    return meta, ["curve", "t", "re", "im", "status"], rows


COMMANDS = {  # the CSV commands
    "simulate": cmd_simulate,
    "spectrum": cmd_spectrum,
    "exponents": cmd_exponents,
    "trace": cmd_trace,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and reused
    (parse_args leaves it as it was)."""
    parser = argparse.ArgumentParser(
        prog="sle-dyson",
        description="Simulate and validate interacting circular diffusions, "
                    "their Loewner flows and spectral/exponent structure.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, schema in SCHEMAS.items():
        p = sub.add_parser(name)
        p.add_argument("-o", "--output",
                       help="output file (default: stdout)")
        for key, (typ, default, help_text) in schema.items():
            p.add_argument(f"--{key.replace('_', '-')}", dest=key,
                           type=typ, default=default,
                           help=f"{help_text} (default: {default})")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return cmd_validate(vars(args), args.output)
        meta, header, rows = COMMANDS[args.command](vars(args))
        with _open_out(args.output) as fh:
            _write_csv(fh, {"version": __version__, **meta}, header, rows)
        return 0
    except ValueError as exc:
        raise SystemExit(f"{args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
