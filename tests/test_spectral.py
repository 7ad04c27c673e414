import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from sle_dyson.spectral import (SURVIVAL_DT, TWO_PI, GridOperator,
                                adjoint_decay_rate,
                                build_adjoint_n2, build_fp_generator_n2,
                                cs_ground_state,
                                fp_equilibrium_residual, fp_residual_order,
                                lowest_eigenpair, measured_convergence_order,
                                normalized_overlap, one_arm_eigenfunction,
                                one_arm_lambda_exact,
                                relative_potential_prime,
                                stationary_gap_density, survival_decay_rate,
                                survival_probability)


class TestExactRate:
    def test_vanishes_at_four(self):
        assert one_arm_lambda_exact(4.0) == 0.0

    def test_reference_values(self):
        assert one_arm_lambda_exact(6.0) == pytest.approx(5.0 / 48.0)
        assert one_arm_lambda_exact(8.0) == pytest.approx(3.0 / 16.0)

    @pytest.mark.parametrize("kappa", [0.5, 2.0, 3.0, 3.999])
    def test_no_decaying_mode_below_four(self, kappa):
        with pytest.raises(ValueError, match="kappa < 4"):
            one_arm_lambda_exact(kappa)


@pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan])
@pytest.mark.parametrize("fn", [one_arm_lambda_exact,
                                lambda k: build_adjoint_n2(k, 64),
                                lambda k: build_fp_generator_n2(k, 64),
                                lambda k: cs_ground_state(k, 64),
                                lambda k: survival_probability(k, 1.0, 1.0),
                                lambda k: survival_probability(k, 1.0, 0.0)])
def test_nonpositive_or_nan_kappa_rejected(fn, kappa):
    with pytest.raises(ValueError, match="kappa must be positive"):
        fn(kappa)


@pytest.mark.parametrize("m", [0, 8])
@pytest.mark.parametrize("fn", [lambda m: build_adjoint_n2(6.0, m),
                                lambda m: build_fp_generator_n2(6.0, m),
                                lambda m: cs_ground_state(2.0, m)])
def test_small_grid_rejected(fn, m):
    with pytest.raises(ValueError, match="at least 16 grid nodes"):
        fn(m)


class TestAdjointOperator:
    def test_constant_annihilated_on_regular_branch(self):
        op = build_adjoint_n2(3.0, 64)
        assert np.max(np.abs(op.matrix @ np.ones(64))) < 1e-10

    def test_minimum_grid_size(self):
        with pytest.raises(ValueError):
            build_adjoint_n2(6.0, 8)

    @pytest.mark.parametrize("kappa,exact", [(6.0, 5.0 / 48.0),
                                             (8.0, 3.0 / 16.0)])
    def test_decay_rate(self, kappa, exact):
        assert adjoint_decay_rate(kappa, 512) == pytest.approx(exact,
                                                               abs=1e-3)

    def test_eigenfunction_shape(self):
        op = build_adjoint_n2(6.0, 512)
        _, vec = lowest_eigenpair(op)
        ref = one_arm_eigenfunction(6.0, op.grid)
        assert normalized_overlap(vec, ref) > 0.999

    def test_convergence_order(self):
        assert measured_convergence_order(6.0) == pytest.approx(2.0, abs=0.3)

    @pytest.mark.parametrize("kappa,m", [(3.0, 64), (6.0, 512), (8.0, 33)])
    def test_matches_nodewise_reference(self, kappa, m):
        # reference: the same collocation built one node at a time, with
        # the operator applied to theta^p in closed form
        alpha = 1.0 - 4.0 / kappa if kappa > 4.0 else 0.0
        h = TWO_PI / m
        th = (np.arange(m + 1) + 0.5) * h  # the last is the Neumann ghost

        def apply_pow(p, x):
            return (0.5 * kappa * p * (p - 1) * x ** (p - 2)
                    + p * x ** (p - 1) / math.tan(x / 2.0))

        ref = np.zeros((m, m))
        for i in range(m):
            idx = [0, 1, 2] if i == 0 else (
                [m - 2, m - 1, m] if i == m - 1 else [i - 1, i, i + 1])
            for k, j in enumerate(idx):
                o = [th[q] for q in idx if q != j]
                den = (th[j] - o[0]) * (th[j] - o[1])
                val = (apply_pow(alpha + 2, th[i])
                       - (o[0] + o[1]) * apply_pow(alpha + 1, th[i])
                       + o[0] * o[1] * apply_pow(alpha, th[i])) / den
                ref[i, min(j, m - 1)] += val / th[j] ** alpha
        got = build_adjoint_n2(kappa, m).matrix.toarray()
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


class TestLowestEigenpair:
    def test_neumann_laplacian_trivial_mode(self):
        # pure second derivative with reflecting ends: rate 0, constant mode
        m = 64
        h = TWO_PI / m
        lap = (np.diag(-2.0 * np.ones(m)) + np.diag(np.ones(m - 1), 1)
               + np.diag(np.ones(m - 1), -1)) / h ** 2
        lap[0, 0] += 1.0 / h ** 2
        lap[-1, -1] += 1.0 / h ** 2
        op = GridOperator(grid=(np.arange(m) + 0.5) * h, matrix=lap)
        lam, vec = lowest_eigenpair(op)
        assert lam == pytest.approx(0.0, abs=1e-10)
        assert np.max(np.abs(vec - 1.0)) < 1e-8

    def test_normalization_contract(self):
        op = build_adjoint_n2(6.0, 128)
        _, vec = lowest_eigenpair(op)
        assert np.max(np.abs(vec)) == pytest.approx(1.0)
        assert vec[np.argmax(np.abs(vec))] > 0.0

    def test_reruns_bit_identical(self):
        op = build_adjoint_n2(6.0, 1024)
        lam1, vec1 = lowest_eigenpair(op)
        lam2, vec2 = lowest_eigenpair(op)
        assert lam1 == lam2
        assert np.array_equal(vec1, vec2)


class TestFpGenerator:
    def test_mass_conservation(self):
        op = build_fp_generator_n2(3.0, 128)
        assert np.max(np.abs(op.matrix.sum(axis=0))) < 1e-10

    @pytest.mark.parametrize("kappa", [2.0, 4.0, 6.0])
    def test_equilibrium_residual_order(self, kappa):
        assert fp_residual_order(kappa) == pytest.approx(2.0, abs=0.3)

    def test_kappa4_closed_form_density(self):
        # beta = 1: the stationary density is sin(theta/2) itself
        op = build_fp_generator_n2(4.0, 256)
        peq = np.sin(op.grid / 2.0)
        assert np.allclose(peq, stationary_gap_density(4.0, op.grid))
        assert fp_equilibrium_residual(4.0, 256) < 1e-3

    def test_discrete_adjointness(self):
        # transpose action on a compactly supported smooth g matches the
        # backward operator kappa g'' + 2 cot(theta/2) g' to O(h^2)
        kappa, m = 3.0, 1024
        op = build_fp_generator_n2(kappa, m)
        th = op.grid
        g = np.exp(-(th - np.pi) ** 2)
        g1 = -2.0 * (th - np.pi) * g
        g2 = (-2.0 + 4.0 * (th - np.pi) ** 2) * g
        lhs = op.matrix.T @ g
        rhs = kappa * g2 - relative_potential_prime(th) * g1
        inner = (th > 1.0) & (th < 5.0)
        assert np.max(np.abs(lhs - rhs)[inner]) < 1e-3


CS_KAPPAS = [0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0]


class TestCsHamiltonian:
    @pytest.mark.parametrize("kappa", CS_KAPPAS)
    def test_ground_state(self, kappa):
        vals, vecs, th = cs_ground_state(kappa, 4096)
        ref = stationary_gap_density(kappa, th) ** 0.5
        assert abs(vals[0]) < 1e-3
        assert normalized_overlap(vecs[:, 0], ref) > 0.999

    @pytest.mark.parametrize("kappa", CS_KAPPAS)
    def test_sutherland_spectrum(self, kappa):
        # H = -kappa d^2/dtheta^2 + cot^2(theta/2)/kappa - csc^2(theta/2)/2
        # on (0, 2*pi).  With x = theta/2, d/dtheta = (1/2) d/dx and
        # cot^2 = csc^2 - 1, so
        #   (4/kappa) H = -d^2/dx^2 + g(g-1) csc^2 x - g^2,  g = 2/kappa,
        # the Poschl-Teller problem on (0, pi) with ground state sin^g x.
        # Its levels are (n+g)^2, hence E_n = (kappa/4)((n+g)^2 - g^2)
        # = n + kappa n^2 / 4 (Sutherland's two-body spectrum).
        vals, _, _ = cs_ground_state(kappa, 4096, n_states=4)
        exact = [n + kappa * n * n / 4.0 for n in range(4)]
        assert np.allclose(vals, exact, rtol=0.0, atol=1e-3)

    def test_spectral_gap_matches_fp_decay(self):
        # the similarity transform preserves spectra: the first excited
        # level above the ground state equals the slowest decay rate of
        # the density generator on mean-zero densities
        vals, _, _ = cs_ground_state(2.0, 4096)
        gap = vals[1] - vals[0]
        L = sp.csc_matrix(build_fp_generator_n2(2.0, 4096).matrix)
        w = spla.eigs(L, k=4, sigma=-gap * 1.05, return_eigenvectors=False)
        decay = -np.max(w.real[w.real < -1e-6])
        assert abs(gap - decay) < 1e-3


def reference_survival_curve(kappa, t_max, m):
    """Implicit Euler on the backward generator from h = 1, every step kept:
    (times, h table of shape (steps + 1, m), grid)."""
    op = build_adjoint_n2(kappa, m)
    lu = spla.splu(sp.identity(m, format="csc") - SURVIVAL_DT * op.matrix)
    n_steps = int(round(t_max / SURVIVAL_DT))
    out = np.empty((n_steps + 1, m))
    out[0] = 1.0
    for k in range(n_steps):
        out[k + 1] = lu.solve(out[k])
    return np.arange(n_steps + 1) * SURVIVAL_DT, out, op.grid


def reference_decay_rate(kappa, m=512):
    """The decay-rate fit on the full table at theta0 = pi, fitted where
    1e-4 < h < 1e-1."""
    t_max = -math.log(1e-4 / 2.0) / one_arm_lambda_exact(kappa)
    times, table, grid = reference_survival_curve(kappa, t_max, m)
    h = table[:, int(np.argmin(np.abs(grid - math.pi)))]
    mask = (h > 1e-4) & (h < 1e-1)
    slope, _ = np.polyfit(times[mask], np.log(h[mask]), 1)
    return float(-slope)


class TestSurvival:
    @pytest.mark.parametrize("kappa", [4.5, 6.0, 8.0])
    def test_decay_rate_matches_table(self, kappa):
        # the streamed solve keeps one column of the table; same bits
        assert survival_decay_rate(kappa) == reference_decay_rate(kappa)

    @pytest.mark.parametrize("kappa", [5.0, 8.0])
    def test_probability_matches_table(self, kappa):
        times, table, grid = reference_survival_curve(kappa, 2.0, 256)
        for k in (1, 37, 100, 200):
            for theta0 in (1.0, math.pi, 5.5):
                assert survival_probability(kappa, theta0, times[k],
                                            m=256) == float(
                    np.interp(theta0, grid, table[k]))

    def test_decay_rate_memory(self):
        # the table at kappa 4.5 would hold 33,556 x 512 floats (131 MiB)
        tracemalloc.start()
        try:
            survival_decay_rate(4.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("kappa", [3.0, 6.0])
    @pytest.mark.parametrize("t", [0.004, 0.015, 1e-16, 1.0 + 1e-4,
                                   math.inf])
    def test_rejects_time_off_the_step_grid(self, kappa, t):
        with pytest.raises(ValueError, match="integer multiple"):
            survival_probability(kappa, 1.0, t)

    def test_time_zero(self):
        assert survival_probability(6.0, 1.0, 0.0) == 1.0

    def test_simple_phase_constant_one(self):
        assert survival_probability(3.0, 1.0, 5.0) == 1.0
        assert survival_probability(4.0, 2.0, 2.0) == 1.0

    def test_decay_rate_kappa6(self):
        rate = survival_decay_rate(6.0, m=512)
        exact = one_arm_lambda_exact(6.0)
        assert abs(rate - exact) / exact < 0.02

    def test_monotone_in_time(self):
        h1 = survival_probability(6.0, math.pi, 1.0, m=256)
        h2 = survival_probability(6.0, math.pi, 3.0, m=256)
        assert 0.0 < h2 < h1 <= 1.0

    @pytest.mark.parametrize("kappa", [3.0, 6.0])
    @pytest.mark.parametrize("t", [-1.0, math.nan])
    def test_rejects_negative_or_nan_time(self, kappa, t):
        with pytest.raises(ValueError, match="t must be nonnegative"):
            survival_probability(kappa, 1.0, t)

    def test_rejects_bad_theta(self):
        with pytest.raises(ValueError):
            survival_probability(6.0, 0.0, 1.0)
