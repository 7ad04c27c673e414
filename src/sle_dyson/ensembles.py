"""Circular beta-ensemble densities, matrix-model samplers and KS statistics.

The N=2 gap law with density sin^beta(s/2)/Z(beta) on (0, 2*pi), whose
exact incomplete-beta CDF is the trusted oracle against which both the SDE
sampler and the classical matrix ensembles (COE/CUE/CSE, beta = 1, 2, 4)
are checked.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import betainc

from . import _count, _real
from .dyson import SampleBatch, TWO_PI, _gaps, wrap_angle


def gap_cdf_n2(beta: float):
    """CDF of the two-particle gap, density sin^beta(s/2)/Z(beta) on (0, 2*pi).

    Substituting x = sin^2(s/4), so that sin(s/2) = 2 sqrt(x(1-x)) and
    ds = 2 dx / sqrt(x(1-x)), turns the density into x^(a-1) (1-x)^(a-1)
    with a = (beta+1)/2: the CDF is the regularized incomplete beta
    function I_x(a, a).  Above s = pi it is taken as 1 - F(2*pi - s), by
    the density's symmetry, since x rounds near 1 and I_x would lose the
    upper tail to that rounding.
    """
    a = (_real("beta", beta, zero_ok=True) + 1.0) / 2.0

    def cdf(x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, TWO_PI)
        f = betainc(a, a, np.sin(np.minimum(x, TWO_PI - x) / 4.0) ** 2)
        return np.where(x <= np.pi, f, 1.0 - f)

    return cdf


ENSEMBLES = ("CUE", "COE", "CSE")
KS_LEVEL = 0.01  # significance level of the KS rejection thresholds
_BLOCK = 128  # samples per stacked draw; bounds the temporaries' memory


def sample_batch(ensemble: str, n: int, n_samples: int, seed) -> SampleBatch:
    """Draw ``n_samples`` independent eigenangle configurations, each sorted.

    U is Haar on U(n), or on U(2n) for CSE: a Ginibre matrix whose QR
    factor Q takes up the phases of diag(R) (the bare Q is not Haar).
    CUE returns the eigenangles of U (beta = 2), COE those of U^T U
    (beta = 1) and CSE those of the self-dual U^R U with U^R = J U^T J^T
    (beta = 4), listing each Kramers-degenerate angle once.  Each block of
    samples makes one ``standard_normal`` call for every sample's real
    then imaginary part and runs its factorizations stacked; successive
    calls continue one stream, so the rows do not depend on the block size.
    The seed is an integer >= 0, as ``ProcessParams.seed`` is; None and a
    SeedSequence are refused.
    """
    if ensemble not in ENSEMBLES:
        raise ValueError(f"unknown ensemble {ensemble!r}; valid ensembles "
                         f"are {', '.join(ENSEMBLES)}")
    _count("n", n, 1)
    _count("n_samples", n_samples, 1)
    m = 2 * n if ensemble == "CSE" else n
    rng = np.random.default_rng(_count("seed", seed, 0))
    rows = np.empty((n_samples, n))
    for start in range(0, n_samples, _BLOCK):
        block = rows[start:start + _BLOCK]
        g = rng.standard_normal((len(block), 2, m, m))
        q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
        d = np.diagonal(r, axis1=-2, axis2=-1)
        u = q * (d / np.abs(d))[:, None, :]
        ut = np.swapaxes(u, -1, -2)
        if ensemble == "COE":
            u = ut @ u
        elif ensemble == "CSE":
            jsym = np.zeros((m, m))
            jsym[:n, n:] = -np.eye(n)
            jsym[n:, :n] = np.eye(n)
            u = jsym @ ut @ jsym.T @ u
        ang = np.sort(wrap_angle(np.angle(np.linalg.eigvals(u))), axis=-1)
        # CSE: keep every other angle of each sorted, doubled list
        block[:] = ang[:, ::2] if ensemble == "CSE" else ang
    return SampleBatch(rows=rows, created_by=ensemble,
                       meta={"seed": seed, "n_particles": n})


def _sorted_sample(samples) -> np.ndarray:
    """The values of ``samples``, of any shape, flattened and sorted."""
    x = np.sort(np.asarray(samples, dtype=float), axis=None)
    if x.size == 0:
        raise ValueError("samples must be nonempty")
    if np.isnan(x).any():
        raise ValueError("samples must not hold NaN")
    return x


def ks_statistic(samples, cdf) -> float:
    """One-sample Kolmogorov-Smirnov sup-distance against ``cdf``; the
    sample is every value of ``samples``, of any shape, an (n, 1) column
    reading as the (n,) vector."""
    x = _sorted_sample(samples)
    n = x.size
    f = np.asarray(cdf(x), dtype=float)
    up = np.arange(1, n + 1) / n - f
    lo = f - np.arange(0, n) / n
    return float(max(up.max(), lo.max()))


def ks_two_sample(a, b) -> float:
    """Two-sample Kolmogorov-Smirnov sup-distance; each sample is every
    value of its array, of any shape, as in :func:`ks_statistic`."""
    a, b = _sorted_sample(a), _sorted_sample(b)
    allv = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, allv, side="right") / a.size
    cdf_b = np.searchsorted(b, allv, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


def ks_threshold(n: int) -> float:
    """One-sample KS rejection threshold at level KS_LEVEL (asymptotic)."""
    _count("n", n, 1)
    return math.sqrt(-0.5 * math.log(KS_LEVEL / 2.0)) / math.sqrt(n)


def ks_two_sample_threshold(n: int, m: int) -> float:
    """Two-sample KS rejection threshold at level KS_LEVEL (asymptotic)."""
    _count("n", n, 1)
    _count("m", m, 1)
    return (math.sqrt(-0.5 * math.log(KS_LEVEL / 2.0))
            * math.sqrt((n + m) / (n * m)))


def pairwise_gap_statistics(batch: SampleBatch) -> np.ndarray:
    """Circular nearest-neighbor gaps of every row, flattened.

    Each row of N angles contributes its N gaps, which sum to 2*pi, by
    the SDE kernel's own gap rule: one angle has the one gap 2*pi.
    """
    return _gaps(np.sort(batch.rows, axis=-1).T).T.ravel()


def row_gaps(rows: np.ndarray) -> np.ndarray:
    """One gap per configuration: (theta_1 - theta_0) mod 2*pi, for rows
    of at least two angles."""
    rows = np.atleast_2d(rows)
    if rows.ndim != 2 or rows.shape[1] < 2:
        raise ValueError("rows must hold at least 2 angles each")
    return np.mod(rows[:, 1] - rows[:, 0], TWO_PI)
