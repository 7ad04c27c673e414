import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

from sle_dyson import spectral
from sle_dyson.spectral import (TWO_PI, GridOperator,
                                adjoint_decay_rate,
                                build_adjoint_n2, build_fp_generator_n2,
                                cs_ground_state,
                                fp_equilibrium_residual, fp_residual_order,
                                lowest_eigenpair, measured_convergence_order,
                                normalized_overlap, one_arm_eigenfunction,
                                one_arm_lambda_exact,
                                stationary_gap_density, survival_decay_rate)


def dense(op):
    """The operator as a dense matrix, rebuilt from its bands."""
    return np.diag(op.diag) + np.diag(op.lower, -1) + np.diag(op.upper, 1)


def apply(op, v):
    """The operator applied to v, from its bands."""
    out = op.diag * v
    out[1:] += op.lower * v[:-1]
    out[:-1] += op.upper * v[1:]
    return out


def bisection_rate(op):
    """Reference: the decay rate by LAPACK bisection on the symmetrized
    bands, the solve lowest_eigenpair made before inverse iteration."""
    return eigh_tridiagonal(-op.diag, -np.sqrt(op.lower * op.upper),
                            eigvals_only=True, select="i",
                            select_range=(0, 0))[0]


@pytest.fixture
def dpttrs_calls(monkeypatch):
    """A list that grows by one at each dpttrs solve in spectral."""
    calls, solve = [], spectral.dpttrs

    def counted(*args, **kwargs):
        calls.append(None)
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectral, "dpttrs", counted)
    return calls


# 50 kappa from 1.34 to 1000, log-spaced, and three next to kappa = 4
SOLVER_KAPPAS = sorted({*np.geomspace(1.34, 1000.0, 50).tolist(),
                        4.0, 4.0001, 4.001})


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


@pytest.mark.parametrize("kappa", [2.0, 4.0])
def test_one_arm_eigenfunction_needs_kappa_above_four(kappa):
    with pytest.raises(ValueError, match="no decaying one-arm mode"):
        one_arm_eigenfunction(kappa, np.linspace(0.1, 6.0, 5))


@pytest.mark.parametrize("m", [16.5, 64.0, True, "64"],
                         ids=["16.5", "64.0", "True", "str"])
@pytest.mark.parametrize("fn", [lambda m: adjoint_decay_rate(6.0, m),
                                lambda m: build_fp_generator_n2(6.0, m)])
def test_non_integer_grid_rejected(fn, m):
    with pytest.raises(ValueError, match="m must be an integer"):
        fn(m)


@pytest.mark.parametrize("n_states", [0, -1, 1.5, True, 65, 100],
                         ids=["0", "-1", "1.5", "True", "65", "100"])
def test_cs_ground_state_rejects_state_count(n_states):
    with pytest.raises(ValueError, match="n_states must be an integer >= 1"):
        cs_ground_state(2.0, 64, n_states=n_states)


@pytest.mark.parametrize("m", [0, 8])
@pytest.mark.parametrize("fn", [lambda m: build_adjoint_n2(6.0, m),
                                lambda m: build_fp_generator_n2(6.0, m),
                                lambda m: cs_ground_state(2.0, m)])
def test_small_grid_rejected(fn, m):
    with pytest.raises(ValueError, match="^m must be an integer >= 16$"):
        fn(m)


class TestAdjointOperator:
    def test_constant_annihilated_on_regular_branch(self):
        op = build_adjoint_n2(3.0, 64)
        assert np.max(np.abs(dense(op) @ np.ones(64))) < 1e-10

    def test_minimum_grid_size(self):
        with pytest.raises(ValueError):
            build_adjoint_n2(6.0, 8)

    @pytest.mark.parametrize("kappa,exact", [(6.0, 5.0 / 48.0),
                                             (8.0, 3.0 / 16.0)])
    def test_decay_rate(self, kappa, exact):
        assert adjoint_decay_rate(kappa, 512) == pytest.approx(exact,
                                                               abs=1e-3)

    @pytest.mark.parametrize("kappa", [4.5, 5.0, 6.0, 8.0, 20.0, 100.0,
                                       1000.0])
    def test_decay_rate_kappa_sweep(self, kappa):
        exact = one_arm_lambda_exact(kappa)
        assert abs(adjoint_decay_rate(kappa, 512) - exact) < 2e-6 * exact

    @pytest.mark.parametrize("m", [64, 512, 4096])
    @pytest.mark.parametrize("kappa", [1.34, 2.0, 4.0, 4.001, 6.0, 8.0,
                                       100.0, 1000.0])
    def test_decay_rate_is_the_eigenpairs_value(self, kappa, m):
        # checked against the bands, not against lowest_eigenpair's value:
        # the rate is bisection's, and the lowest vector belongs to it
        lam = adjoint_decay_rate(kappa, m)
        op = build_adjoint_n2(kappa, m)
        lam_pair, vec = lowest_eigenpair(op)
        assert lam == lam_pair
        scale = np.max(np.abs(op.diag))
        assert abs(lam - bisection_rate(op)) <= 1e-15 * scale
        assert np.max(np.abs(apply(op, vec) + lam * vec)) <= 1e-13 * scale

    def test_decay_rate_keeps_the_positivity_check(self):
        with pytest.raises(ValueError, match="off-diagonal product is not "
                                             "positive"):
            adjoint_decay_rate(1.0, 64)

    def test_eigenfunction_shape(self):
        op = build_adjoint_n2(6.0, 512)
        _, vec = lowest_eigenpair(op)
        ref = one_arm_eigenfunction(6.0, op.grid)
        assert normalized_overlap(vec, ref) > 0.999

    @pytest.mark.parametrize("kappa", [6.0, 100.0, 1000.0])
    def test_grid_refinement_reduces_the_error(self, kappa):
        # the solve's round-off does not grow with the operator's norm, so
        # a finer grid cuts the truncation error it reads
        exact = one_arm_lambda_exact(kappa)
        assert (abs(adjoint_decay_rate(kappa, 16384) - exact)
                < abs(adjoint_decay_rate(kappa, 4096) - exact))

    def test_overlap_stays_at_most_one(self):
        # unclamped, rounding reads this pair's overlap as 1 + 2.2e-16;
        # in extended precision it is 1 - 1.3e-18
        op = build_adjoint_n2(6.0, 4096)
        _, vec = lowest_eigenpair(op)
        ref = one_arm_eigenfunction(6.0, op.grid)
        assert normalized_overlap(vec, ref) <= 1.0
        rng = np.random.default_rng(3)
        assert all(normalized_overlap(v, 3.0 * v) <= 1.0
                   for v in rng.standard_normal((200, 64)))

    @pytest.mark.parametrize("bad", [np.zeros(4), [math.nan, 1.0, 1.0, 1.0],
                                     [math.inf, 1.0, 1.0, 1.0]],
                             ids=["zero", "nan", "inf"])
    def test_overlap_rejects_zero_or_non_finite_vectors(self, bad):
        # min(1.0, nan) is 1.0, so an unchecked NaN read as a perfect match
        for u, v in [(bad, np.ones(4)), (np.ones(4), bad)]:
            with pytest.raises(ValueError, match="finite, nonzero norm"):
                normalized_overlap(u, v)

    def test_convergence_order(self):
        assert measured_convergence_order(6.0) == pytest.approx(2.0, abs=0.3)

    def test_convergence_order_needs_kappa_above_four(self):
        # the exact rate is 0 at kappa = 4, so a fit would run on round-off
        with pytest.raises(ValueError, match="kappa <= 4"):
            measured_convergence_order(4.0)

    @pytest.mark.parametrize("kappa,m", [(3.0, 64), (6.0, 512), (8.0, 33)])
    def test_matches_nodewise_reference(self, kappa, m):
        # reference: the operator applied to |theta|^alpha times the local
        # quadratic through three nodes, one node at a time, with theta^p
        # in closed form.  Each row's stencil is nodes i-1, i, i+1: row 0
        # reaches the ghost -h/2, whose value mirrors node 0, and row m-1
        # the Neumann ghost (m + 1/2) h; each ghost column folds into the
        # column of the node it copies
        alpha = 1.0 - 4.0 / kappa if kappa > 4.0 else 0.0
        h = TWO_PI / m
        th = (np.arange(-1, m + 1) + 0.5) * h  # both ends are ghosts

        def apply_pow(p, x):
            return (0.5 * kappa * p * (p - 1) * x ** (p - 2)
                    + p * x ** (p - 1) / math.tan(x / 2.0))

        ref = np.zeros((m, m))
        for i in range(m):
            pts, x = th[i:i + 3], th[i + 1]
            for k in range(3):
                o = np.delete(pts, k)
                den = (pts[k] - o[0]) * (pts[k] - o[1])
                val = (apply_pow(alpha + 2, x)
                       - (o[0] + o[1]) * apply_pow(alpha + 1, x)
                       + o[0] * o[1] * apply_pow(alpha, x)) / den
                ref[i, min(max(i + k - 1, 0), m - 1)] += (
                    val / abs(pts[k]) ** alpha)
        got = dense(build_adjoint_n2(kappa, m))
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(np.abs(ref))


class TestLowestEigenpair:
    def test_neumann_laplacian_trivial_mode(self):
        # pure second derivative with reflecting ends: rate 0, constant mode
        m = 64
        h = TWO_PI / m
        diag = -2.0 * np.ones(m) / h ** 2
        diag[[0, -1]] += 1.0 / h ** 2
        off = np.ones(m - 1) / h ** 2
        op = GridOperator(grid=(np.arange(m) + 0.5) * h, lower=off,
                          diag=diag, upper=off)
        lam, vec = lowest_eigenpair(op)
        assert lam == pytest.approx(0.0, abs=1e-10)
        assert np.max(np.abs(vec - 1.0)) < 1e-8

    def test_normalization_contract(self):
        op = build_adjoint_n2(6.0, 128)
        _, vec = lowest_eigenpair(op)
        assert np.max(np.abs(vec)) == pytest.approx(1.0)
        assert vec[np.argmax(np.abs(vec))] > 0.0

    def test_no_real_symmetrization_rejected(self):
        # regular branch at kappa = 1: central differencing makes an
        # off-diagonal product negative next to an end
        with pytest.raises(ValueError, match="off-diagonal product is not "
                                             "positive"):
            lowest_eigenpair(build_adjoint_n2(1.0, 64))

    @pytest.mark.parametrize("m", [512, 4096])
    @pytest.mark.parametrize("kappa", [1.34, 3.0, 4.5, 6.0, 8.0, 100.0])
    def test_eigenpair_residual(self, kappa, m):
        op = build_adjoint_n2(kappa, m)
        lam, vec = lowest_eigenpair(op)
        resid = np.max(np.abs(apply(op, vec) + lam * vec))
        assert resid <= 1e-13 * np.max(np.abs(op.diag))

    @pytest.mark.parametrize("m", [16, 17, 64, 512, 4096, 16384])
    def test_matches_bisection(self, m, dpttrs_calls):
        # every kappa's rate within bisection's own tolerance of its value,
        # in a bounded number of inverse-iteration solves; one solve can
        # reach the round-off floor from the operator's mode
        solves = dpttrs_calls
        for kappa in SOLVER_KAPPAS:
            op = build_adjoint_n2(kappa, m)
            solves.clear()
            lam, _ = lowest_eigenpair(op)
            scale = np.max(np.abs(op.diag))
            assert abs(lam - bisection_rate(op)) <= 1e-15 * scale, kappa
            assert 1 <= len(solves) <= 16, kappa

    @pytest.mark.parametrize("kappa", [4.5, 5.0, 6.0, 7.0, 8.0])
    def test_one_solve_at_the_cli_defaults(self, kappa, dpttrs_calls):
        # started from the operator's mode, the first iterate of the
        # spectrum command's grid is already at the round-off floor
        adjoint_decay_rate(kappa, 4096)
        assert len(dpttrs_calls) == 1

    def test_mode_start_matches_the_ones_start(self):
        # the start changes the bits, not the pair: c4 reads the vector
        # against the same mode it starts from, so that vector must be the
        # one the all-ones start converges to
        op = build_adjoint_n2(6.0, 4096)
        lam, vec = lowest_eigenpair(op)
        lam_ones, vec_ones = lowest_eigenpair(
            dataclasses.replace(op, mode=None))
        assert abs(lam - lam_ones) <= 1e-15 * np.max(np.abs(op.diag))
        assert normalized_overlap(vec, vec_ones) >= 1.0 - 1e-12

    @pytest.mark.parametrize("bad", [0.0, math.nan, -1.0, math.inf])
    def test_unusable_mode_starts_from_ones(self, bad):
        op = build_adjoint_n2(6.0, 512)
        mode = op.mode.copy()
        mode[10] = bad
        lam, vec = lowest_eigenpair(dataclasses.replace(op, mode=mode))
        lam_ones, vec_ones = lowest_eigenpair(
            dataclasses.replace(op, mode=None))
        assert lam == lam_ones
        assert np.array_equal(vec, vec_ones)

    def test_stall_stop_where_the_floor_is_out_of_reach(self, monkeypatch,
                                                        dpttrs_calls):
        # a residual read 1e-9 max|d| too high never reaches eps max|d|, so
        # the iteration ends where it stops falling, at the same pair
        op = build_adjoint_n2(6.0, 512)
        scale = np.max(np.abs(op.diag))
        rayleigh = spectral._rayleigh

        def raised(rows, e, w):
            rho, r = rayleigh(rows, e, w)
            return rho, r + 1e-9 * scale

        monkeypatch.setattr(spectral, "_rayleigh", raised)
        lam, _ = lowest_eigenpair(op)
        assert abs(lam - bisection_rate(op)) <= 1e-15 * scale
        assert len(dpttrs_calls) >= 3

    def test_growing_mode_rejected(self):
        # T = Neumann Laplacian + 5: rate -5, so S = -T has the eigenvalue
        # -5, and neither shift 0 nor the one just below 0 factors
        m = 64
        h = TWO_PI / m
        diag = -2.0 * np.ones(m) / h ** 2 + 5.0
        diag[[0, -1]] += 1.0 / h ** 2
        off = np.ones(m - 1) / h ** 2
        op = GridOperator(grid=(np.arange(m) + 0.5) * h, lower=off,
                          diag=diag, upper=off)
        with pytest.raises(ValueError,
                           match="^no shift below the spectrum factors$"):
            lowest_eigenpair(op)

    @pytest.mark.parametrize("solver, band", [
        (solver, band) for solver in ("lowest_eigenpair", "cs_ground_state")
        for band in ("diag", "lower", "upper")],
        ids=["diag", "lower", "upper", "cs-diag", "cs-lower", "cs-upper"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_bands_rejected(self, monkeypatch, solver, band, bad):
        def spoiled(op):
            arr = getattr(op, band).copy()
            arr[10] = bad
            return dataclasses.replace(op, **{band: arr})

        # the product check runs first, and a NaN or -inf off-diagonal
        # fails it; inf there, or in the diagonal, fails the finite check
        problem = ("an off-diagonal product is not positive"
                   if band != "diag" and not bad > 0.0
                   else "the bands are not finite")
        if solver == "lowest_eigenpair":
            with pytest.raises(ValueError, match=f"^{problem}$"):
                lowest_eigenpair(spoiled(build_adjoint_n2(6.0, 64)))
        else:
            build = spectral.build_fp_generator_n2
            monkeypatch.setattr(spectral, "build_fp_generator_n2",
                                lambda kappa, m: spoiled(build(kappa, m)))
            with pytest.raises(ValueError,
                               match=f"^{problem} at kappa = 2.0, m = 64$"):
                cs_ground_state(2.0, 64)

    def test_step_cap_raises(self, monkeypatch):
        # at m = 64 the first solve is not yet at the round-off floor, and
        # one solve cannot show a stall, so a cap of one ends in the cap's
        # error
        monkeypatch.setattr(spectral, "INVERSE_ITERATION_STEPS", 1)
        with pytest.raises(ValueError, match="no lowest eigenpair"):
            lowest_eigenpair(build_adjoint_n2(6.0, 64))

    def test_reruns_bit_identical(self):
        op = build_adjoint_n2(6.0, 1024)
        lam1, vec1 = lowest_eigenpair(op)
        lam2, vec2 = lowest_eigenpair(op)
        assert lam1 == lam2
        assert np.array_equal(vec1, vec2)


class TestFpGenerator:
    def test_mass_conservation(self):
        op = build_fp_generator_n2(3.0, 128)
        assert np.max(np.abs(dense(op).sum(axis=0))) < 1e-10

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
        lhs = dense(op).T @ g
        # V' of the gap's drift potential -4 ln|sin(theta/2)|
        v_prime = -2.0 / np.tan(th / 2.0)
        rhs = kappa * g2 - v_prime * g1
        inner = (th > 1.0) & (th < 5.0)
        assert np.max(np.abs(lhs - rhs)[inner]) < 1e-3


CS_KAPPAS = [0.5, 1.0, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0]


def cs_bands(kappa, m):
    """Diagonal and off-diagonal of the symmetrized Hamiltonian."""
    return spectral._symmetric_bands(build_fp_generator_n2(kappa, m))[:2]


def bisection_states(kappa, m, n_states):
    """Reference: the lowest states by LAPACK bisection and inverse
    iteration, as cs_ground_state found them before its own iteration."""
    return eigh_tridiagonal(*cs_bands(kappa, m), select="i",
                            select_range=(0, n_states - 1))


def assert_matches_bisection(kappa, m, n_states, tol):
    vals, vecs, _ = cs_ground_state(kappa, m, n_states)
    ref_vals, ref_vecs = bisection_states(kappa, m, n_states)
    scale = np.max(np.abs(cs_bands(kappa, m)[0]))
    assert vecs.shape == (m, n_states)
    assert np.max(np.abs(vals - ref_vals)) <= tol * scale
    for j in range(n_states):
        assert normalized_overlap(vecs[:, j], ref_vecs[:, j]) >= 1 - 1e-9, j


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

    @pytest.mark.parametrize("kappa", [2.0, 3.0, 4.0])
    def test_levels_are_twice_the_backward_generators(self, kappa):
        # the Hamiltonian runs in the Dyson clock and the backward generator
        # (its reflecting branch at kappa <= 4) in the half-speed LSW_HALF
        # clock, so each level of the first is twice that of the second
        vals, _, _ = cs_ground_state(kappa, 4096, n_states=3)
        op = build_adjoint_n2(kappa, 4096)
        half = eigh_tridiagonal(-op.diag, -np.sqrt(op.lower * op.upper),
                                eigvals_only=True, select="i",
                                select_range=(0, 2))
        assert vals[1:] == pytest.approx(2.0 * half[1:], rel=1e-5)

    @pytest.mark.parametrize("kappa", [0.005, 0.001])
    def test_decoupled_bands_rejected(self, kappa):
        # exprel overflows in the end cells, leaving zero off-diagonals
        with pytest.raises(ValueError, match=f"not positive at kappa = "
                                             f"{kappa}, m = 4096"):
            cs_ground_state(kappa, 4096)

    @pytest.mark.parametrize("kappa", [0.006, 0.5, 1.0, 2.5, 4.0, 6.0, 8.0])
    def test_ground_state_solves(self, kappa, dpttrs_calls):
        # where round-off puts E_0 just below 0, so that shift 0 does not
        # factor, the shift just below 0 certifies in a few solves
        vals, _, _ = cs_ground_state(kappa, 4096, n_states=1)
        assert abs(vals[0]) < 1e-3
        assert len(dpttrs_calls) <= 6

    @pytest.mark.parametrize("kappa", [2.0, 3.0])
    def test_ground_state_stops_at_the_floor(self, kappa, dpttrs_calls):
        # shift 0 factors here, and the first iterate of the all-ones
        # start is at the round-off floor
        cs_ground_state(kappa, 4096, n_states=1)
        assert len(dpttrs_calls) == 1

    def test_smallest_coupled_kappa_returns(self):
        vals, _, _ = cs_ground_state(0.006, 4096)
        assert vals[1] == pytest.approx(1.0 + 0.006 / 4.0, abs=1e-3)

    @pytest.mark.parametrize("n_states", [1, 2, 4])
    @pytest.mark.parametrize("m", [16, 64, 512, 4096])
    @pytest.mark.parametrize("kappa", [0.006, *CS_KAPPAS])
    def test_matches_bisection(self, kappa, m, n_states):
        assert_matches_bisection(kappa, m, n_states, 1e-15)

    @pytest.mark.parametrize("kappa", [2.0, 3.0, 8.0])
    def test_every_state_of_a_small_grid(self, kappa):
        # the top states are grid-scale oscillations, where both solvers
        # err by a few eps * max|d|
        assert_matches_bisection(kappa, 64, 64, 4e-15)
        _, vecs, _ = cs_ground_state(kappa, 64, 64)
        assert np.max(np.abs(vecs.T @ vecs - np.eye(64))) < 1e-12
        assert [spectral._sign_changes(v) for v in vecs.T] == list(range(64))

    def test_degenerate_blocks_fail_the_certificate(self):
        # at kappa = 0.006 and m = 16 round-off splits S into blocks whose
        # levels pair up to within 1e-16; no solver can order such states
        with pytest.raises(ValueError, match="sign changes, not 4 at kappa "
                                             "= 0.006, m = 16"):
            cs_ground_state(0.006, 16, 16)

    def test_wrong_shift_fails_the_certificate(self, monkeypatch):
        # a mutant whose first solve is next to E_3, not at the start's
        # Rayleigh quotient, converges state 1 to state 3
        d, e = cs_bands(2.0, 64)
        e3 = bisection_states(2.0, 64, 4)[0][3]
        solves, solve = [], spectral.dgtsv

        def mutant(dl, dd, du, b, **kwargs):
            solves.append(None)
            if len(solves) == 1:
                dd = d - (e3 + 1e-9)
            return solve(dl, dd, du, b, **kwargs)

        monkeypatch.setattr(spectral, "dgtsv", mutant)
        with pytest.raises(ValueError, match="state 1 converged to a vector "
                                             "with 3 sign changes"):
            cs_ground_state(2.0, 64)

    def test_wrong_start_fails_the_certificate(self, monkeypatch):
        # an even start profile, cos(theta - pi) in place of -cos(theta/2),
        # leads state 1 to state 2
        monkeypatch.setattr(spectral, "_odd_profile", lambda n: np.cos(
            TWO_PI / n * (np.arange(n) - 0.5 * (n - 1))))
        with pytest.raises(ValueError, match="state 1 converged to a vector "
                                             "with 2 sign changes"):
            cs_ground_state(2.0, 64)

    def test_values_must_increase(self, monkeypatch):
        monkeypatch.setattr(spectral, "_excited_symmetric",
                            lambda d, e, rows, found: (-1.0, found[-1]))
        with pytest.raises(ValueError, match="not strictly increasing"):
            cs_ground_state(2.0, 64)

    def test_sign_changes_skip_round_off_tails(self):
        w = np.array([1e-300, -1e-20, 1.0, 2.0, -1.0, -2.0, 1e-9, -1e-12])
        assert spectral._sign_changes(w) == 1

    def test_step_cap_raises(self, monkeypatch):
        # a perturbation that halves at every solve keeps the excited
        # state's residual falling, so it never stalls within the cap
        solves, solve = [], spectral.dgtsv
        bump = np.cos(np.arange(64))

        def creeping(*args, **kwargs):
            solves.append(None)
            *lu, x, info = solve(*args, **kwargs)
            x = x + 0.5 ** len(solves) * np.max(np.abs(x)) * bump
            return (*lu, x, info)

        monkeypatch.setattr(spectral, "dgtsv", creeping)
        with pytest.raises(ValueError, match="found no state 1"):
            cs_ground_state(2.0, 64)
        assert len(solves) == spectral.INVERSE_ITERATION_STEPS

    def test_reruns_bit_identical(self):
        vals1, vecs1, _ = cs_ground_state(3.0, 4096, 4)
        vals2, vecs2, _ = cs_ground_state(3.0, 4096, 4)
        assert np.array_equal(vals1, vals2)
        assert np.array_equal(vecs1, vecs2)

    def test_spectral_gap_matches_fp_decay(self):
        # the similarity transform preserves spectra: the first excited
        # level above the ground state equals the slowest decay rate of
        # the density generator on mean-zero densities
        vals, _, _ = cs_ground_state(2.0, 4096)
        gap = vals[1] - vals[0]
        op = build_fp_generator_n2(2.0, 4096)
        L = sp.diags([op.lower, op.diag, op.upper], offsets=[-1, 0, 1],
                     format="csc")
        w = spla.eigs(L, k=4, sigma=-gap * 1.05, return_eigenvectors=False)
        decay = -np.max(w.real[w.real < -1e-6])
        assert abs(gap - decay) < 1e-3


class TestSurvival:
    @pytest.mark.parametrize("kappa", [4.001, 4.5, 6.0, 8.0, 100.0, 1000.0])
    def test_decay_rate_is_the_eigensolve(self, kappa):
        rate = survival_decay_rate(kappa)
        exact = one_arm_lambda_exact(kappa)
        assert rate == adjoint_decay_rate(kappa, 512)
        assert abs(rate - exact) < 2e-6 * exact

    @pytest.mark.parametrize("kappa", [0.5, 2.0, 3.999, 4.0])
    def test_no_decay_at_or_below_four(self, kappa):
        with pytest.raises(ValueError, match="no decaying one-arm mode for "
                                             "kappa <= 4"):
            survival_decay_rate(kappa)

    @pytest.mark.parametrize("kappa", [6.0, 8.0])
    def test_at_most_two_solves(self, kappa, dpttrs_calls):
        survival_decay_rate(kappa)
        assert len(dpttrs_calls) <= 2

    def test_decay_rate_kappa6(self):
        rate = survival_decay_rate(6.0, m=512)
        exact = one_arm_lambda_exact(6.0)
        assert abs(rate - exact) / exact < 0.02
