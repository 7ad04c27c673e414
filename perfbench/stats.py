"""Effective sample size and KS bounds used by the benchmark's checks.

Everything here works from outside the program, on the rows a sampler
returned.  ``sample_stationary`` lays its rows out chain-major within each
retained sweep, so ``rows.reshape(per_chain, n_chains, N)`` recovers each
chain's series.
"""

from __future__ import annotations

import math

import numpy as np

# c1 pins KS < 0.01 at 1e5 samples: the pinned threshold is Z_PIN / sqrt(n).
Z_PIN = 0.01 * math.sqrt(1e5)


def autocorrelations(series: np.ndarray) -> np.ndarray:
    """Lag-k autocorrelations, k = 1 .. L-1, of a (L, n_chains) array.

    All chains share one stationary law, so the series are centred on the
    pooled mean and the lag products are pooled over chains; that keeps the
    estimate unbiased for short chains, where per-chain means would not.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a (L, n_chains) array with L >= 2")
    x = x - x.mean()
    var = np.mean(x * x)
    return np.array([np.mean(x[k:] * x[:-k]) / var
                     for k in range(1, x.shape[0])])


def integrated_time(series: np.ndarray) -> float:
    """Variance inflation of the mean of a (L, n_chains) array's chains.

    Each length-L chain mean has variance (tau / L) * var, with
    tau = 1 + 2 sum_k (1 - k/L) rho_k; the sum stops at the first lag whose
    estimated correlation is not positive.
    """
    length = np.shape(series)[0]
    acc = 0.0
    for k, r in enumerate(autocorrelations(series), start=1):
        if r <= 0.0:
            break
        acc += (1.0 - k / length) * r
    return 1.0 + 2.0 * acc


def effective_sample_size(series: np.ndarray) -> float:
    """ESS of the pooled mean of independent (L, n_chains) chains."""
    return np.size(series) / integrated_time(series)


def ks_bound(n: float, m: float | None = None) -> float:
    """The pinned KS threshold at sample size n (one-sample) or n, m."""
    if m is None:
        return Z_PIN / math.sqrt(n)
    return Z_PIN * math.sqrt((n + m) / (n * m))
