"""The package's one input policy, entry point by entry point.

Every count goes through ``sle_dyson._count`` and every real parameter
through ``sle_dyson._real``, so each rejects the same values with the same
message: a bool, NaN, an infinity, a value below its floor and a value of
the wrong type; and each accepts a numpy integer.
"""

import math

import numpy as np
import pytest

from sle_dyson import cli
from sle_dyson.dyson import (ProcessParams, equally_spaced,
                             sample_stationary, simulate)
from sle_dyson.ensembles import (gap_cdf_n2, ks_threshold,
                                 ks_two_sample_threshold, row_gaps,
                                 sample_batch)
from sle_dyson.exponents import (ansatz_exponent, beta_from_kappa,
                                 exponent_table, fusion_exponent, h21,
                                 kac_h_1_s)
from sle_dyson.loewner import slit_drivers
from sle_dyson.spectral import (adjoint_decay_rate, build_adjoint_n2,
                                build_fp_generator_n2, cs_ground_state,
                                fp_equilibrium_residual,
                                measured_convergence_order,
                                one_arm_eigenfunction, one_arm_lambda_exact,
                                stationary_gap_density, survival_decay_rate)

FAST = ProcessParams(n_particles=2, kappa=2.0, burn_in=0.0, thinning=4e-3)


def run(command, **given):
    """A CLI command on its flag defaults, with ``given`` in their place."""
    cfg = {k: default for k, (_, default, _) in cli.SCHEMAS[command].items()}
    return cli.COMMANDS[command]({**cfg, **given})


# id -> (name, floor, call, a numpy integer it accepts)
COUNTS = {
    "ProcessParams.n_particles": (
        "n_particles", 1, lambda v: ProcessParams(n_particles=v, kappa=2.0),
        np.int64(3)),
    "ProcessParams.seed": (
        "seed", 0, lambda v: ProcessParams(2, 2.0, seed=v), np.int64(0)),
    "sample_stationary.n_samples": (
        "n_samples", 1, lambda v: sample_stationary(FAST, v), np.int64(2)),
    "sample_stationary.n_chains": (
        "n_chains", 1, lambda v: sample_stationary(FAST, 2, n_chains=v),
        np.int64(2)),
    "equally_spaced.n": ("n", 1, equally_spaced, np.int64(3)),
    "build_adjoint_n2.m": (
        "m", 16, lambda v: build_adjoint_n2(6.0, v), np.int64(16)),
    "build_fp_generator_n2.m": (
        "m", 16, lambda v: build_fp_generator_n2(6.0, v), np.int64(16)),
    "cs_ground_state.m": (
        "m", 16, lambda v: cs_ground_state(2.0, v), np.int64(16)),
    "cs_ground_state.n_states": (
        "n_states", 1, lambda v: cs_ground_state(2.0, 64, v), np.int64(2)),
    "adjoint_decay_rate.m": (
        "m", 16, lambda v: adjoint_decay_rate(6.0, v), np.int64(16)),
    "survival_decay_rate.m": (
        "m", 16, lambda v: survival_decay_rate(6.0, v), np.int64(16)),
    "sample_batch.n": (
        "n", 1, lambda v: sample_batch("CUE", v, 2, 0), np.int64(2)),
    "sample_batch.n_samples": (
        "n_samples", 1, lambda v: sample_batch("COE", 2, v, 0), np.int64(2)),
    "sample_batch.seed": (
        "seed", 0, lambda v: sample_batch("CUE", 2, 2, v), np.int64(0)),
    "ks_threshold.n": ("n", 1, ks_threshold, np.int64(5)),
    "ks_two_sample_threshold.n": (
        "n", 1, lambda v: ks_two_sample_threshold(v, 5), np.int64(5)),
    "ks_two_sample_threshold.m": (
        "m", 1, lambda v: ks_two_sample_threshold(5, v), np.int64(5)),
    "kac_h_1_s.p": ("p", 1, lambda v: kac_h_1_s(6, v), np.int64(1)),
    "fusion_exponent.p": (
        "p", 2, lambda v: fusion_exponent(v, 6), np.int64(3)),
    "ansatz_exponent.p": (
        "p", 2, lambda v: ansatz_exponent(v, 1), np.int64(3)),
    "exponent_table.p_max": (
        "p_max", 2, lambda v: exponent_table([6], v), np.int64(3)),
    "cli.simulate.n_samples": (
        "n_samples", 0, lambda v: run("simulate", n_samples=v, t_end=0.02),
        np.int64(0)),
    "cli.trace.n_points": (
        "n_points", 1, lambda v: run("trace", n_points=v, t_end=0.01),
        np.int64(2)),
}

# id -> (name, zero allowed, call, a numpy integer it accepts)
REALS = {
    "ProcessParams.kappa": (
        "kappa", False, lambda v: ProcessParams(2, v), np.int64(2)),
    "ProcessParams.dt": (
        "dt", False, lambda v: ProcessParams(2, 2.0, dt=v, thinning=1.0),
        np.int64(1)),
    "ProcessParams.burn_in": (
        "burn_in", True, lambda v: ProcessParams(2, 2.0, burn_in=v),
        np.int64(0)),
    "ProcessParams.thinning": (
        "thinning", False, lambda v: ProcessParams(2, 2.0, thinning=v),
        np.int64(1)),
    "simulate.t_end": (
        "t_end", False,
        lambda v: simulate(ProcessParams(2, 2.0, dt=0.5, thinning=0.5), v),
        np.int64(1)),
    "one_arm_lambda_exact.kappa": (
        "kappa", False, one_arm_lambda_exact, np.int64(6)),
    "one_arm_eigenfunction.kappa": (
        "kappa", False, lambda v: one_arm_eigenfunction(v, 1.0), np.int64(6)),
    "survival_decay_rate.kappa": (
        "kappa", False, survival_decay_rate, np.int64(6)),
    "measured_convergence_order.kappa": (
        "kappa", False, measured_convergence_order, np.int64(6)),
    "adjoint_decay_rate.kappa": (
        "kappa", False, lambda v: adjoint_decay_rate(v, 64), np.int64(6)),
    "build_adjoint_n2.kappa": (
        "kappa", False, lambda v: build_adjoint_n2(v, 64), np.int64(6)),
    "build_fp_generator_n2.kappa": (
        "kappa", False, lambda v: build_fp_generator_n2(v, 64), np.int64(6)),
    "stationary_gap_density.kappa": (
        "kappa", False, lambda v: stationary_gap_density(v, 1.0),
        np.int64(6)),
    "cs_ground_state.kappa": (
        "kappa", False, lambda v: cs_ground_state(v, 64), np.int64(2)),
    "fp_equilibrium_residual.kappa": (
        "kappa", False, lambda v: fp_equilibrium_residual(v, 64),
        np.int64(6)),
    "slit_drivers.dt": (
        "dt", False, lambda v: slit_drivers([0.0, 3.0], [0.0, 0.0], v),
        np.int64(1)),
    "gap_cdf_n2.beta": ("beta", True, gap_cdf_n2, np.int64(2)),
}

# The exact-arithmetic entry points of ``exponents`` take a positive
# rational and refuse a float with a TypeError; any other number that is
# not a positive rational gets the package's real-parameter message.
# id -> (name, call)
EXACT = {
    "beta_from_kappa.kappa": ("kappa", beta_from_kappa),
    "kac_h_1_s.kappa": ("kappa", lambda v: kac_h_1_s(v, 1)),
    "fusion_exponent.kappa": ("kappa", lambda v: fusion_exponent(2, v)),
    "ansatz_exponent.beta": ("beta", lambda v: ansatz_exponent(2, v)),
    "h21.kappa": ("kappa", h21),
    "exponent_table.kappas": ("kappa", lambda v: exponent_table([v])),
}

BAD = {"True": True, "np.bool_": np.bool_(True), "nan": math.nan,
       "inf": math.inf, "-inf": -math.inf, "str": "3"}


def count_cases():
    for entry, (name, low, call, _) in COUNTS.items():
        bad = {**BAD, "2.5": 2.5, "float": float(low + 1), "below": low - 1}
        for case, value in bad.items():
            yield pytest.param(call, value, f"^{name} must be an integer "
                                            f">= {low}$",
                               id=f"{entry}-{case}")


def real_cases():
    for entry, (name, zero_ok, call, _) in REALS.items():
        bad = {**BAD, "-1": -1.0, "complex": 1j}
        if not zero_ok:
            bad["0"] = 0.0
        sign = "nonnegative" if zero_ok else "positive"
        for case, value in bad.items():
            yield pytest.param(call, value, f"^{name} must be {sign} and "
                                            f"finite$",
                               id=f"{entry}-{case}")


def exact_cases():
    for entry, (name, call) in EXACT.items():
        bad = {"complex": 1j, "np.complex128": np.complex128(2.0),
               "np.float32": np.float32(2.0), "None": None, "0": 0,
               "-1": -1, "str": "-1/2"}
        for case, value in bad.items():
            yield pytest.param(call, value, f"^{name} must be positive and "
                                            f"finite$",
                               id=f"{entry}-{case}")


@pytest.mark.parametrize("call, value, problem",
                         [*count_cases(), *real_cases(), *exact_cases()])
def test_rejected_with_the_unified_message(call, value, problem):
    with pytest.raises(ValueError, match=problem):
        call(value)


@pytest.mark.parametrize("call, value", [
    *(pytest.param(call, ok, id=entry)
      for entry, (_, _, call, ok) in {**COUNTS, **REALS}.items()),
    *(pytest.param(call, np.int64(6), id=entry)
      for entry, (_, call) in EXACT.items())])
def test_numpy_integer_accepted(call, value):
    call(value)


@pytest.mark.parametrize("rows", [[[1.0]], [1.0], np.empty((3, 1)),
                                  np.empty((2, 2, 2))],
                         ids=["one-row", "1-d", "one-column", "3-d"])
def test_row_gaps_needs_rows_of_two_angles(rows):
    with pytest.raises(ValueError,
                       match="^rows must hold at least 2 angles each$"):
        row_gaps(rows)


@pytest.mark.parametrize("db", [[0.0, 0.1, 0.2], [0.1], np.zeros((2, 1)),
                                np.zeros((1, 2)), 0.1],
                         ids=["long", "short", "column", "row", "scalar"])
def test_slit_drivers_needs_one_increment_per_driver(db):
    # a longer db would lose its extra increments, a shorter one IndexError
    with pytest.raises(ValueError, match="^db must have the shape of theta$"):
        slit_drivers([0.0, 3.0], db, 0.01)


def test_accepted_values_pass_through():
    # the checks return each value as given, so no numeric path changes
    p = ProcessParams(np.int64(2), 2.0, seed=np.uint64(7), dt=0.01)
    assert type(p.n_particles) is np.int64 and type(p.seed) is np.uint64


def test_numpy_leg_count_stays_exact():
    # p (p - 1) in numpy's int64 would wrap
    big = 2 ** 32
    assert fusion_exponent(np.int64(big), 1) == fusion_exponent(big, 1)
    assert ansatz_exponent(np.int64(big), 1) == ansatz_exponent(big, 1)
    assert kac_h_1_s(6, np.int64(big)) == kac_h_1_s(6, big)
