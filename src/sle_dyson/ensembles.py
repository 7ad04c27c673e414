"""Circular beta-ensemble densities, matrix-model samplers and KS statistics.

The N=2 gap law with density sin^beta(s/2)/Z(beta) on (0, 2*pi), normalized
by adaptive quadrature, is the trusted oracle against which both the SDE
sampler and the classical matrix ensembles (COE/CUE/CSE, beta = 1, 2, 4)
are checked.
"""

from __future__ import annotations

from enum import Enum
import math

import numpy as np
from scipy import integrate, interpolate

from .dyson import AngleConfig, CollisionError, SampleBatch, TWO_PI, wrap_angle


class BetaConvention(Enum):
    """Mapping from the SLE parameter kappa to the ensemble beta."""

    DYSON_4_OVER_KAPPA = 4.0   # realized by the simulated SDE
    CFT_2_OVER_KAPPA = 2.0
    CORRECTED_8_OVER_KAPPA = 8.0

    def beta(self, kappa: float) -> float:
        return self.value / kappa


def log_density_unnormalized(config: AngleConfig, beta: float) -> float:
    """log of prod_{j<k} |e^{i theta_j} - e^{i theta_k}|^beta.

    Equals beta * sum_{j<k} ln(2 |sin((theta_j - theta_k)/2)|); rotation and
    permutation invariant.
    """
    a = config.angles
    if a.size == 1:
        return 0.0
    j, k = np.triu_indices(a.size, 1)
    chord = 2.0 * np.abs(np.sin((a[j] - a[k]) / 2.0))
    if np.any(chord < 1e-300):
        raise CollisionError("coincident angles: log-density is -infinity")
    return float(beta * np.sum(np.log(chord)))


def gap_normalization(beta: float) -> float:
    """Z(beta) = int_0^{2*pi} sin^beta(s/2) ds by adaptive quadrature."""
    if beta < 0.0:
        raise ValueError("beta must be nonnegative")
    z, _ = integrate.quad(lambda s: math.sin(s / 2.0) ** beta, 0.0, TWO_PI,
                          epsabs=0.0, epsrel=1e-12, limit=200)
    return z


def gap_cdf_n2(beta: float, grid_size: int = 32769):
    """CDF of the two-particle gap, density sin^beta(s/2)/Z(beta) on (0, 2*pi).

    Built from a cubic-spline antiderivative of the density on a fine grid;
    this quadrature construction is the independent oracle for all N=2 tests.
    """
    z = gap_normalization(beta)
    s = np.linspace(0.0, TWO_PI, grid_size)
    dens = np.sin(s / 2.0) ** beta / z
    anti = interpolate.CubicSpline(s, dens).antiderivative()

    def cdf(x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, TWO_PI)
        return np.clip(anti(x), 0.0, 1.0)

    return cdf


def _haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary via Ginibre + QR with phase correction.

    The naive QR decomposition is not Haar: the R diagonal phases must be
    absorbed into Q.
    """
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _as_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def sample_cue(n: int, seed) -> AngleConfig:
    """Eigenvalue angles of a Haar unitary (beta = 2), sorted."""
    rng = _as_rng(seed)
    u = _haar_unitary(n, rng)
    return AngleConfig(np.sort(wrap_angle(np.angle(np.linalg.eigvals(u)))))


def sample_coe(n: int, seed) -> AngleConfig:
    """Eigenangles of U^T U with U Haar (beta = 1), sorted."""
    rng = _as_rng(seed)
    u = _haar_unitary(n, rng)
    return AngleConfig(np.sort(wrap_angle(np.angle(np.linalg.eigvals(u.T @ u)))))


def sample_cse(n: int, seed) -> AngleConfig:
    """Eigenangles of the self-dual construction U^R U (beta = 4), sorted.

    U is Haar on U(2n); U^R = J U^T J^{-1} is the quaternion dual.  Each
    Kramers-degenerate angle is listed once, so n distinct angles return.
    """
    rng = _as_rng(seed)
    u = _haar_unitary(2 * n, rng)
    jsym = np.zeros((2 * n, 2 * n))
    jsym[:n, n:] = -np.eye(n)
    jsym[n:, :n] = np.eye(n)
    ur = jsym @ u.T @ jsym.T
    ang = np.sort(wrap_angle(np.angle(np.linalg.eigvals(ur @ u))))
    # collapse Kramers pairs: keep every other angle of the sorted doubled list
    return AngleConfig(ang[::2])


def sample_batch(sampler: str, n: int, n_samples: int, seed) -> SampleBatch:
    """Draw ``n_samples`` independent configurations from a matrix ensemble."""
    fn = {"CUE": sample_cue, "COE": sample_coe, "CSE": sample_cse}[sampler]
    rng = _as_rng(seed)
    rows = np.empty((n_samples, n))
    for i in range(n_samples):
        rows[i] = fn(n, rng).angles
    return SampleBatch(rows=rows, created_by=sampler,
                       meta={"seed": seed, "n_particles": n})


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov sup-distance against ``cdf``."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("samples must be nonempty")
    f = np.asarray(cdf(x), dtype=float)
    up = np.arange(1, n + 1) / n - f
    lo = f - np.arange(0, n) / n
    return float(max(up.max(), lo.max()))


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov sup-distance."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("samples must be nonempty")
    allv = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, allv, side="right") / a.size
    cdf_b = np.searchsorted(b, allv, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_threshold(n: int, alpha: float = 0.01) -> float:
    """One-sample KS rejection threshold at level alpha (asymptotic)."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


def ks_two_sample_threshold(n: int, m: int, alpha: float = 0.01) -> float:
    """Two-sample KS rejection threshold at level alpha (asymptotic)."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt((n + m) / (n * m))


def pairwise_gap_statistics(batch: SampleBatch) -> np.ndarray:
    """Circular nearest-neighbor gaps of every row, flattened.

    Each row of N angles contributes its N gaps, which sum to 2*pi.
    """
    rows = batch.rows
    s = np.sort(rows, axis=-1)
    gaps = np.mod(np.diff(s, axis=-1, append=s[..., :1] + TWO_PI), TWO_PI)
    return gaps.ravel()


def row_gaps(rows: np.ndarray) -> np.ndarray:
    """One gap per configuration: (theta_1 - theta_0) mod 2*pi."""
    rows = np.atleast_2d(rows)
    return np.mod(rows[:, 1] - rows[:, 0], TWO_PI)
