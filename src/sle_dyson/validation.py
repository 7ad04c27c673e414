"""End-to-end validation suite: nine numbered criteria with pinned thresholds.

Each runner returns a :class:`CriterionResult` whose ``value`` is the
measured statistic and whose ``threshold`` is the pinned bound; ``passed``
is derived, never asserted by fiat.  The CLI ``validate`` subcommand and
the acceptance test module both take the runners, keyed by criterion id,
from :data:`ALL_CRITERIA`.

``quick=True`` trades statistical resolution for speed on the two
Monte-Carlo criteria only (fewer samples, correspondingly looser KS
bounds); every deterministic criterion runs at full strength either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
import subprocess
import time

import numpy as np
import scipy

from . import __version__, dyson, ensembles, exponents, loewner, spectral

RNG_SEED = 20230


def _paths(batch: dyson.SampleBatch) -> dict:
    """The sampler's PATH_COUNTERS for one batch."""
    return {k: batch.meta[k] for k in dyson.PATH_COUNTERS}


@dataclass(frozen=True)
class CriterionResult:
    criterion_id: int
    name: str
    value: float
    threshold: float
    passed: bool
    detail: dict = field(default_factory=dict)
    seconds: float | None = None  # wall time, set by run_criteria

    def to_dict(self) -> dict:
        return {
            "criterion_id": self.criterion_id,
            "name": self.name,
            "value": float(self.value),
            "threshold": float(self.threshold),
            "pass": bool(self.passed),
            "seconds": self.seconds,
            "detail": self.detail,
        }


def criterion_1_stationary_law(quick: bool = False) -> CriterionResult:
    """KS distance of stationary N=2 gap samples vs the exact gap CDF; the
    detail's ``paths`` holds each kappa's PATH_COUNTERS."""
    n_samples = 20_000 if quick else 100_000
    threshold = 0.022 if quick else 0.01
    kappas = (2.0, 3.0, 4.0, 8.0 / 3.0)
    per, paths = {}, {}
    for kappa in kappas:
        params = dyson.ProcessParams(n_particles=2, kappa=kappa,
                                     seed=RNG_SEED)
        batch = dyson.sample_stationary(params, n_samples)
        gaps = ensembles.row_gaps(batch.rows)
        cdf = ensembles.gap_cdf_n2(4.0 / kappa)
        key = f"kappa={kappa:g}"
        per[key], paths[key] = ensembles.ks_statistic(gaps, cdf), _paths(batch)
    worst = max(per.values())
    return CriterionResult(1, "stationary_law_n2", worst, threshold,
                           worst < threshold, {**per, "paths": paths})


def criterion_2_classical_beta(quick: bool = False) -> CriterionResult:
    """Two-sample KS: Dyson-SDE gaps vs COE/CUE/CSE matrix gaps; the
    detail's ``paths`` holds each SDE config's PATH_COUNTERS."""
    n_samples = 2_000 if quick else 10_000
    pairs = ((4.0, "COE"), (2.0, "CUE"), (1.0, "CSE"))
    per, paths = {}, {}
    ratios = []
    for n in (2, 3):
        for kappa, sampler in pairs:
            params = dyson.ProcessParams(n_particles=n, kappa=kappa,
                                         seed=RNG_SEED + n)
            sde = dyson.sample_stationary(params, n_samples)
            mat = ensembles.sample_batch(sampler, n, n_samples,
                                         seed=RNG_SEED + 7 * n)
            g1 = ensembles.pairwise_gap_statistics(sde)
            g2 = ensembles.pairwise_gap_statistics(mat)
            d = ensembles.ks_two_sample(g1, g2)
            thr = ensembles.ks_two_sample_threshold(n_samples, n_samples)
            key = f"n={n},{sampler.lower()}"
            per[key], paths[key] = {"d": d, "threshold": thr}, _paths(sde)
            ratios.append(d / thr)
    worst = max(ratios)
    return CriterionResult(2, "classical_beta_crosscheck", worst, 1.0,
                           worst < 1.0, {**per, "paths": paths})


def criterion_3_one_arm_eigenvalue(quick: bool = False) -> CriterionResult:
    """Lowest decay rate at kappa=6, 8 vs the closed form, plus grid order."""
    per = {}
    errs = []
    orders_ok = True
    for kappa in (6.0, 8.0):
        exact = spectral.one_arm_lambda_exact(kappa)
        lam = spectral.adjoint_decay_rate(kappa, 4096)
        order = spectral.measured_convergence_order(kappa)
        errs.append(abs(lam - exact))
        orders_ok &= abs(order - 2.0) <= 0.3
        per[f"kappa={kappa:g}"] = {"lambda": lam, "exact": exact,
                                   "order": order}
    worst = max(errs)
    return CriterionResult(3, "one_arm_eigenvalue", worst, 1e-3,
                           worst < 1e-3 and orders_ok, per)


def criterion_4_eigenfunction(quick: bool = False) -> CriterionResult:
    """Overlap of the computed kappa=6 mode with sin(theta/4)^(1/3)."""
    op = spectral.build_adjoint_n2(6.0, 4096)
    _, vec = spectral.lowest_eigenpair(op)
    ref = spectral.one_arm_eigenfunction(6.0, op.grid)
    overlap = spectral.normalized_overlap(vec, ref)
    return CriterionResult(4, "one_arm_eigenfunction", overlap, 0.999,
                           overlap >= 0.999)


def criterion_5_stationarity_residual(quick: bool = False) -> CriterionResult:
    """Refinement order of the density-generator residual on P_eq."""
    per = {f"kappa={k:g}": spectral.fp_residual_order(k)
           for k in (2.0, 4.0, 6.0)}
    worst = max(abs(o - 2.0) for o in per.values())
    return CriterionResult(5, "stationarity_residual_order", worst, 0.3,
                           worst <= 0.3, per)


def criterion_6_similarity_ground_state(quick: bool = False) -> CriterionResult:
    """Ground state of the symmetrized operator: zero eigenvalue, P_eq^{1/2}.

    The detail also reports the first excited level E_1 and its distance
    from Sutherland's 1 + kappa/4; neither enters the pass.
    """
    kappa = 2.0
    vals, vecs, th = spectral.cs_ground_state(kappa, 4096)
    ref = spectral.stationary_gap_density(kappa, th) ** 0.5
    overlap = spectral.normalized_overlap(vecs[:, 0], ref)
    lam0 = abs(float(vals[0]))
    e1 = float(vals[1])
    return CriterionResult(6, "similarity_ground_state", lam0, 1e-3,
                           lam0 < 1e-3 and overlap >= 0.999,
                           {"kappa": kappa, "overlap": overlap, "e1": e1,
                            "e1_error": abs(e1 - (1.0 + kappa / 4.0))})


def criterion_9_exponent_identities(quick: bool = False) -> CriterionResult:
    """Exact-rational identities; zero tolerance, value = failure count."""
    kappas = [Fraction(n, 7) + Fraction(1, 3) for n in range(1, 21)]
    failures = 0
    for p in range(2, 11):
        for kap in kappas:
            lhs = exponents.fusion_exponent(p, kap)
            if lhs != (exponents.kac_h_1_s(kap, p)
                       - p * exponents.kac_h_1_s(kap, 1)):
                failures += 1
            if exponents.ansatz_exponent(
                    p, exponents.beta_from_kappa(kap)) != 2 * lhs:
                failures += 1
    return CriterionResult(9, "exponent_identities", float(failures), 0.0,
                           failures == 0,
                           {"p_max": 10, "kappa_grid": len(kappas)})


def criterion_10_gradient_consistency(quick: bool = False) -> CriterionResult:
    """Drift vs central-difference -grad V on random configurations."""
    rng = np.random.default_rng(RNG_SEED)
    eps = 1e-5
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        # random configurations kept clear of near-collisions, where the
        # finite-difference step itself would change the nearest pair
        angles = dyson.equally_spaced(n).angles + rng.uniform(
            -0.3 * np.pi / n, 0.3 * np.pi / n, size=n)
        angles = np.sort(dyson.wrap_angle(angles))
        config = dyson.AngleConfig(angles)
        mu = dyson.drift(config)
        for j in range(n):
            up, dn = angles.copy(), angles.copy()
            up[j] += eps
            dn[j] -= eps
            fd = -(dyson.potential(dyson.AngleConfig(up))
                   - dyson.potential(dyson.AngleConfig(dn))) / (2.0 * eps)
            worst = max(worst, abs(mu[j] - fd))
    return CriterionResult(10, "gradient_consistency", worst, 1e-5,
                           worst < 1e-5)


def criterion_11_slit_drivers(quick: bool = False) -> CriterionResult:
    """Drivers moved by each other's slit maps vs Euler-Maruyama on the
    production drift, both fed one Brownian path summed onto each dt grid.

    Per (N, kappa), the median over paths of the largest angular
    difference at t = 0.25 must fall at order 1 +/- 0.2 in dt; the value is
    the worst median at the finest dt.  A drift off by 5% leaves a
    difference that does not fall with dt.  kappa >= 6 is left out: there
    the drivers come close and the comparison is noise.
    """
    rng = np.random.default_rng(RNG_SEED)
    dts, t_end, n_paths = (2e-3, 1e-3, 5e-4, 2.5e-4), 0.25, 32
    per, worst, orders_ok = {}, 0.0, True
    for n in (2, 3, 4):
        for kappa in (2.0, 3.0):
            start = (dyson.equally_spaced(n).angles[:, None]
                     + rng.uniform(-0.3 * np.pi / n, 0.3 * np.pi / n,
                                   (n, n_paths))
                     + rng.uniform(0.0, 2.0 * np.pi, n_paths))
            db = np.sqrt(kappa * dts[-1]) * rng.standard_normal(
                (round(t_end / dts[-1]), n, n_paths))
            diffs = []
            for dt in dts:
                inc = db.reshape(round(t_end / dt), -1, n, n_paths).sum(1)
                slit, em = start, start
                for d in inc:
                    slit = loewner.slit_drivers(slit, d, dt)
                    em = em + dyson._drift(em) * dt + d
                diffs.append(float(np.median(np.abs(slit - em).max(axis=0))))
            order, _ = np.polyfit(np.log(dts), np.log(diffs), 1)
            orders_ok &= abs(order - 1.0) <= 0.2
            worst = max(worst, diffs[-1])
            per[f"n={n},kappa={kappa:g}"] = {"diff": diffs,
                                             "order": float(order)}
    return CriterionResult(11, "slit_drivers_dyson_drift", worst, 2e-3,
                           worst < 2e-3 and orders_ok,
                           {"dt": list(dts), **per})


ALL_CRITERIA = {
    1: criterion_1_stationary_law,
    2: criterion_2_classical_beta,
    3: criterion_3_one_arm_eigenvalue,
    4: criterion_4_eigenfunction,
    5: criterion_5_stationarity_residual,
    6: criterion_6_similarity_ground_state,
    9: criterion_9_exponent_identities,
    10: criterion_10_gradient_consistency,
    11: criterion_11_slit_drivers,
}  # id -> runner; the ids are cited labels, never renumbered


def run_criteria(quick: bool = False, only=None) -> list[CriterionResult]:
    """Run the criteria whose ids are in ``only`` (all by default) and
    collect results."""
    results = []
    for cid, fn in ALL_CRITERIA.items():
        if only is not None and cid not in only:
            continue
        start = time.perf_counter()
        result = fn(quick=quick)
        results.append(replace(result, seconds=time.perf_counter() - start))
    return results


def _git(*args):
    """git's output in this package's directory, or None where it fails."""
    try:
        run = subprocess.run(["git", *args], cwd=Path(__file__).parent,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return run.stdout.strip() if run.returncode == 0 else None


def provenance() -> dict:
    """What produced a report: package, numpy and scipy versions, the git
    commit of the checkout that tracks this package (None where none does,
    as for a copy inside another project's repository), whether the
    package's tracked files differ from that commit (None with the sha)
    and the seed."""
    tracked = _git("ls-files", "--error-unmatch", Path(__file__).name)
    sha = None if tracked is None else _git("rev-parse", "HEAD")
    status = None if sha is None else _git(
        "status", "--porcelain", "--untracked-files=no", "--", ".")
    return {"version": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__, "git_sha": sha,
            "git_dirty": None if status is None else status != "",
            "rng_seed": RNG_SEED}
