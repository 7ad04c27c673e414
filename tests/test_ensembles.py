import math

import numpy as np
import pytest
from scipy import integrate, stats

from sle_dyson.ensembles import (ENSEMBLES, TWO_PI, gap_cdf_n2, ks_statistic,
                                 ks_threshold, ks_two_sample,
                                 ks_two_sample_threshold,
                                 pairwise_gap_statistics, row_gaps,
                                 sample_batch)
from sle_dyson.dyson import wrap_angle


def quad_gap_cdf(beta, x):
    """sin^beta(s/2) integrated over (0, x), over its integral on (0, 2*pi),
    by adaptive quadrature."""
    def mass(b):
        return integrate.quad(lambda s: math.sin(s / 2.0) ** beta, 0.0, b,
                              epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return mass(x) / mass(TWO_PI)


class TestGapOracle:
    @pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf])
    def test_normalization_rejects_bad_beta(self, beta):
        with pytest.raises(ValueError, match="beta must be nonnegative"):
            gap_cdf_n2(beta)

    @pytest.mark.parametrize("beta", [0.0, 0.1, 0.5, 4.0 / 3.0, 1.5, 2.0,
                                      4.0])
    def test_cdf_matches_quadrature(self, beta):
        x = np.concatenate(([1e-6, TWO_PI - 1e-6],
                            np.linspace(0.05, TWO_PI - 0.05, 20)))
        ref = [quad_gap_cdf(beta, v) for v in x]
        assert np.max(np.abs(gap_cdf_n2(beta)(x) - ref)) < 1e-12

    def test_cdf_beta2_closed_form(self):
        # antiderivative of sin^2(s/2)/pi is (s - sin s)/(2 pi)
        cdf = gap_cdf_n2(2.0)
        s = np.linspace(0.0, TWO_PI, 10_000)
        exact = (s - np.sin(s)) / TWO_PI
        assert np.max(np.abs(cdf(s) - exact)) < 1e-9

    def test_cdf_endpoints_and_monotone(self):
        cdf = gap_cdf_n2(1.5)
        s = np.linspace(0.0, TWO_PI, 2000)
        f = cdf(s)
        assert f[0] == pytest.approx(0.0, abs=1e-12)
        assert f[-1] == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(f) >= -1e-12)


class TestKsToolkit:
    def test_one_sample_matches_scipy(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, 500)
        ours = ks_statistic(x, lambda v: np.asarray(v))
        ref = stats.kstest(x, "uniform").statistic
        assert ours == pytest.approx(ref, abs=1e-12)

    def test_two_sample_matches_scipy(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=400)
        b = rng.normal(size=300)
        assert ks_two_sample(a, b) == pytest.approx(
            stats.ks_2samp(a, b).statistic, abs=1e-12)

    @pytest.mark.parametrize("fn", [ks_statistic,
                                    lambda x, cdf: ks_two_sample(x, [0.5]),
                                    lambda x, cdf: ks_two_sample([0.5], x)],
                             ids=["one-sample", "two-sample-a",
                                  "two-sample-b"])
    def test_rejects_nan_sample(self, fn):
        with pytest.raises(ValueError, match="must not hold NaN"):
            fn([0.2, math.nan, 0.7], lambda v: np.asarray(v))

    @pytest.mark.parametrize("fn", [ks_statistic,
                                    lambda x, cdf: ks_two_sample(x, [0.5]),
                                    lambda x, cdf: ks_two_sample([0.5], x)],
                             ids=["one-sample", "two-sample-a",
                                  "two-sample-b"])
    def test_rejects_empty_sample(self, fn):
        with pytest.raises(ValueError, match="^samples must be nonempty$"):
            fn([], lambda v: np.asarray(v))

    def test_sample_shape_is_flattened(self):
        # an (n, 1) column or a (1, n) row is the (n,) sample, not an n x n
        # broadcast of it against its CDF
        s = pairwise_gap_statistics(sample_batch("CUE", 2, 1000, seed=6))
        ref = np.random.default_rng(6).uniform(0.0, TWO_PI, 300)
        cdf = gap_cdf_n2(2.0)
        one = ks_statistic(s, cdf)
        two = ks_two_sample(s, ref)
        for shaped in (s[:, None], s[None, :]):
            assert ks_statistic(shaped, cdf) == one
            assert ks_two_sample(shaped, ref) == two
            assert ks_two_sample(ref[:, None], shaped) == ks_two_sample(
                ref, s)
        assert one < 0.05

    def test_threshold_scaling(self):
        assert ks_threshold(10_000) == pytest.approx(
            math.sqrt(-0.5 * math.log(0.005)) / 100.0)
        assert ks_two_sample_threshold(5000, 5000) == pytest.approx(
            ks_threshold(5000) * math.sqrt(2.0))


def oriented_gaps(batch, seed):
    """Gap of each sorted pair with a uniformly random orientation.

    The sorted difference theta_1 - theta_0 is not rotation invariant
    (it depends on where the cut at angle 0 falls), so its law picks up a
    (2*pi - s) weighting; flipping a fair coin between s and 2*pi - s
    recovers the labeled-gap density sin^beta(s/2)/Z.
    """
    s = row_gaps(batch.rows)
    flip = np.random.default_rng(seed).random(s.size) < 0.5
    return np.where(flip, TWO_PI - s, s)


def reference_rows(ensemble, n, n_samples, seed):
    """The matrix-model draw one sample at a time: Ginibre, QR, phase fix,
    then the eigenangles of U, U^T U or J U^T J^T U."""
    rng = np.random.default_rng(seed)
    m = 2 * n if ensemble == "CSE" else n
    rows = np.empty((n_samples, n))
    for i in range(n_samples):
        g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        u = q * (d / np.abs(d))
        if ensemble == "COE":
            u = u.T @ u
        elif ensemble == "CSE":
            jsym = np.zeros((m, m))
            jsym[:n, n:] = -np.eye(n)
            jsym[n:, :n] = np.eye(n)
            u = jsym @ u.T @ jsym.T @ u
        ang = np.sort(wrap_angle(np.angle(np.linalg.eigvals(u))))
        rows[i] = ang[::2] if ensemble == "CSE" else ang
    return rows


class TestMatrixSamplers:
    def test_shapes_sorted(self):
        for ensemble in ENSEMBLES:
            batch = sample_batch(ensemble, 4, 20, seed=123)
            assert batch.rows.shape == (20, 4)
            assert np.all(np.diff(batch.rows, axis=1) > 0)
            assert batch.created_by == ensemble

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    def test_matches_per_sample_reference(self, ensemble, n):
        # 300 samples span several stacked blocks
        batch = sample_batch(ensemble, n, 300, seed=8)
        assert np.array_equal(batch.rows, reference_rows(ensemble, n, 300, 8))

    @pytest.mark.parametrize("n", [0, -2, 2.0, 2.5, True],
                             ids=["0", "-2", "2.0", "2.5", "True"])
    def test_bad_matrix_size_rejected(self, n):
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            sample_batch("CUE", n, 10, seed=0)

    @pytest.mark.parametrize("n_samples", [0, -1, 2.5, True],
                             ids=["0", "-1", "2.5", "True"])
    def test_bad_sample_count_rejected(self, n_samples):
        with pytest.raises(ValueError, match="n_samples must be an integer "
                                             ">= 1"):
            sample_batch("CUE", 2, n_samples, seed=0)

    def test_unknown_ensemble_rejected(self):
        with pytest.raises(ValueError, match="GUE.*CUE, COE, CSE"):
            sample_batch("GUE", 2, 10, seed=0)

    def test_cue_gap_law_n2(self):
        batch = sample_batch("CUE", 2, 4000, seed=2)
        d = ks_statistic(oriented_gaps(batch, 2), gap_cdf_n2(2.0))
        assert d < ks_threshold(4000)

    def test_coe_gap_law_n2(self):
        batch = sample_batch("COE", 2, 4000, seed=3)
        d = ks_statistic(oriented_gaps(batch, 3), gap_cdf_n2(1.0))
        assert d < ks_threshold(4000)

    def test_cse_gap_law_n2(self):
        batch = sample_batch("CSE", 2, 4000, seed=4)
        d = ks_statistic(oriented_gaps(batch, 4), gap_cdf_n2(4.0))
        assert d < ks_threshold(4000)

    def test_cue_angles_uniform_marginal(self):
        batch = sample_batch("CUE", 3, 2000, seed=5)
        d = ks_statistic(batch.rows.ravel(), lambda x: np.asarray(x) / TWO_PI)
        assert d < ks_threshold(6000)

    def test_determinism(self):
        a = sample_batch("COE", 3, 16, seed=6)
        b = sample_batch("COE", 3, 16, seed=6)
        assert np.array_equal(a.rows, b.rows)


class TestGapStatistics:
    def test_gaps_sum_to_circle(self):
        batch = sample_batch("CUE", 4, 50, seed=7)
        gaps = pairwise_gap_statistics(batch).reshape(50, 4)
        assert np.allclose(gaps.sum(axis=1), TWO_PI)

    def test_one_particle_has_one_gap_of_the_whole_circle(self):
        # one angle's one gap runs from it round the circle back to it
        gaps = pairwise_gap_statistics(sample_batch("CUE", 1, 8, seed=9))
        assert gaps == pytest.approx(np.full(8, TWO_PI), rel=1e-15)
