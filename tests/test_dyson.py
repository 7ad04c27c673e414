import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sle_dyson import dyson
from sle_dyson.dyson import (GAP_FLOOR, PATH_COUNTERS, TWO_PI, AngleConfig,
                             CollisionError, ProcessParams, drift, drift_batch,
                             equally_spaced, potential, sample_stationary,
                             simulate, wrap_angle)
from sle_dyson.ensembles import (gap_cdf_n2, ks_statistic, ks_threshold,
                                 ks_two_sample, ks_two_sample_threshold,
                                 row_gaps)


def distinct_config(rng, n, min_gap=0.3):
    base = equally_spaced(n).angles
    jitter = rng.uniform(-0.3 * np.pi / n, 0.3 * np.pi / n, size=n)
    return AngleConfig(np.sort(wrap_angle(base + jitter)))


class TestConfigValidation:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            AngleConfig(np.array([0.0, TWO_PI]))

    def test_rejects_coincident(self):
        with pytest.raises(CollisionError):
            AngleConfig(np.array([1.0, 1.0]))

    def test_rejects_nonpositive_kappa(self):
        with pytest.raises(ValueError):
            ProcessParams(n_particles=2, kappa=0.0)

    @pytest.mark.parametrize("field, value, problem", [
        ("kappa", math.inf, "kappa must be positive and finite"),
        ("dt", math.inf, "dt must be positive and finite"),
        ("burn_in", math.inf, "burn_in must be nonnegative and finite"),
        ("burn_in", math.nan, "burn_in must be nonnegative and finite"),
        ("thinning", math.inf, "thinning must be finite"),
        ("thinning", math.nan, "thinning must be finite"),
    ])
    def test_rejects_non_finite_params(self, field, value, problem):
        with pytest.raises(ValueError, match=problem):
            ProcessParams(**{"n_particles": 2, "kappa": 2.0, field: value})

    @pytest.mark.parametrize("n", [2.5, 2.0, True, np.bool_(True), "2"],
                             ids=["2.5", "2.0", "True", "np.bool_", "str"])
    def test_rejects_non_integer_particle_count(self, n):
        with pytest.raises(ValueError, match="n_particles must be an "
                                             "integer"):
            ProcessParams(n_particles=n, kappa=2.0)

    def test_accepts_numpy_integer_particle_count(self):
        assert ProcessParams(n_particles=np.int64(3), kappa=2.0).beta == 2.0

    @pytest.mark.parametrize("n_chains", [0, -3])
    def test_sample_stationary_rejects_chain_count(self, n_chains):
        with pytest.raises(ValueError, match="n_chains must be >= 1"):
            sample_stationary(ProcessParams(n_particles=2, kappa=2.0), 8,
                              n_chains=n_chains)

    @pytest.mark.parametrize("t_end", [math.inf, math.nan])
    def test_simulate_rejects_bad_t_end(self, t_end):
        with pytest.raises(ValueError, match="t_end must be positive and "
                                             "finite"):
            simulate(ProcessParams(n_particles=2, kappa=2.0), t_end=t_end)

    def test_default_burn_in(self):
        p = ProcessParams(n_particles=3, kappa=2.0)
        assert p.effective_burn_in == pytest.approx(10.0 + 2.0 * math.log(3))

    def test_beta(self):
        assert ProcessParams(n_particles=2, kappa=8.0 / 3.0).beta == \
            pytest.approx(1.5)


class TestPotentialAndDrift:
    def test_equally_spaced_potential_n3(self):
        # product of pairwise chord sines is (3/4)^... : V = 3 ln(4/3)
        v = potential(equally_spaced(3))
        assert v == pytest.approx(3.0 * math.log(4.0 / 3.0), abs=1e-12)

    def test_equally_spaced_drift_vanishes(self):
        for n in (2, 3, 5, 8):
            assert np.max(np.abs(drift(equally_spaced(n, 0.3)))) < 1e-12

    def test_single_particle_free(self):
        assert drift(AngleConfig(np.array([1.0]))) == pytest.approx(0.0)
        assert potential(AngleConfig(np.array([1.0]))) == 0.0

    def test_drift_is_negative_gradient(self):
        rng = np.random.default_rng(3)
        eps = 1e-5
        for _ in range(100):
            n = int(rng.integers(2, 7))
            cfg = distinct_config(rng, n)
            mu = drift(cfg)
            for j in range(n):
                up, dn = cfg.angles.copy(), cfg.angles.copy()
                up[j] += eps
                dn[j] -= eps
                fd = -(potential(AngleConfig(up))
                       - potential(AngleConfig(dn))) / (2 * eps)
                assert mu[j] == pytest.approx(fd, abs=1e-5)

    def test_drift_sums_to_zero(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            cfg = distinct_config(rng, int(rng.integers(2, 8)))
            assert abs(np.sum(drift(cfg))) < 1e-10

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(5)
        cfg = distinct_config(rng, 4)
        rot = AngleConfig(wrap_angle(cfg.angles + 1.234))
        assert drift(rot) == pytest.approx(drift(cfg), abs=1e-10)
        assert potential(rot) == pytest.approx(potential(cfg), abs=1e-10)


@given(st.floats(min_value=-50.0, max_value=50.0,
                 allow_nan=False, allow_infinity=False))
def test_wrap_angle_range(x):
    w = wrap_angle(x)
    assert 0.0 <= w < TWO_PI
    assert math.cos(w) == pytest.approx(math.cos(x), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=7), st.integers(min_value=0, max_value=10**6))
def test_drift_antisymmetry_property(n, seed):
    rng = np.random.default_rng(seed)
    cfg = distinct_config(rng, n)
    # total angular momentum is conserved by the interaction
    assert abs(np.sum(drift(cfg))) < 1e-9


def run_kernel(x, kappa, dt, n_steps, seed):
    """Run the batched kernel on sorted (chains, N) rows; returns (rows,
    counters).  The kernel itself holds the chains as (N, chains)."""
    counts = dict.fromkeys(PATH_COUNTERS, 0)
    rng = np.random.default_rng(seed)
    x = dyson._integrate(np.ascontiguousarray(x.T), kappa, dt, n_steps, rng,
                         counts)
    return x.T, counts


def row_major_gaps(x):
    """Gaps of sorted (chains, N) rows, the last one closing the circle."""
    return np.diff(x, axis=-1, append=x[:, :1] + TWO_PI)


def reference_drift(x):
    """Drift of (chains, N) rows from the full cot matrix, summed over the
    partner axis."""
    n = x.shape[-1]
    t = np.tan((x[..., :, None] - x[..., None, :]) / 2.0)
    cot = np.divide(1.0, t, out=np.zeros_like(t),
                    where=~np.eye(n, dtype=bool))
    return cot.sum(axis=-1)


def reference_pair_jump(x, kappa, tau, rng):
    """One chain-major pair jump of every (chains, N) row, drawing from
    ``rng`` in the kernel's order."""
    c, n = x.shape
    rows = np.arange(c)
    gaps, mu = row_major_gaps(x), reference_drift(x)
    i = np.argmin(gaps, axis=-1)
    k = (i + 1) % n
    s = gaps[rows, i]
    v = tau * rng.noncentral_chisquare(1.0 + 4.0 / kappa,
                                       s * s / (2.0 * kappa * tau), size=c)
    drift_corr = (mu[rows, k] - mu[rows, i]) - 4.0 / s
    s_new = np.maximum(np.sqrt(2.0 * kappa * v) + drift_corr * tau, GAP_FLOOR)
    mid = (x[rows, i] + 0.5 * s + 0.5 * (mu[rows, i] + mu[rows, k]) * tau
           + math.sqrt(0.5 * kappa * tau) * rng.standard_normal(c))
    new = x + mu * tau + math.sqrt(kappa * tau) * rng.standard_normal((c, n))
    new[rows, i] = mid - 0.5 * s_new
    new[rows, k] = mid + 0.5 * s_new - TWO_PI * (k == 0)
    return new


class TestStepping:
    def test_one_step_variance(self):
        # increment variance about the drift is kappa*dt, within 3 SE
        kappa, dt, reps = 2.0, 1e-3, 4000
        x = np.tile(equally_spaced(2).angles, (reps, 1))
        new, counts = run_kernel(x, kappa, dt, 1, seed=11)
        assert counts["em_steps"] == reps
        incs = (new - x - drift_batch(x) * dt).ravel()
        var = np.var(incs)
        se = kappa * dt * math.sqrt(2.0 / (len(incs) - 1))
        assert abs(var - kappa * dt) < 3.0 * se

    def test_order_preserved_along_path(self):
        rec = simulate(ProcessParams(n_particles=4, kappa=6.0, seed=2),
                       t_end=1.0)
        orders = np.argsort(rec.states, axis=1)
        # cyclic order never changes, only a possible common rotation
        ranks = np.argsort(orders, axis=1)
        first = ranks[0]
        for r in ranks:
            shift = (r - first) % 4
            assert np.all(shift == shift[0])

    def test_collision_error_on_absurd_step(self):
        # a step of 10 time units from a gap of 1e-9 cannot be resolved
        p = ProcessParams(n_particles=2, kappa=8.0, dt=10.0, thinning=10.0)
        with pytest.raises(CollisionError):
            simulate(p, t_end=10.0, initial=AngleConfig(np.array([0.0, 1e-9])))

    def test_path_counters_cover_every_chain_step(self):
        p = ProcessParams(n_particles=5, kappa=2.0, seed=4, burn_in=1.0)
        meta = sample_stationary(p, 16, n_chains=8).meta
        steps = round(1.0 / p.dt) + 2 * round(p.thinning / p.dt)
        assert (meta["em_steps"] + meta["pair_jumps"] + meta["rare_steps"]
                == 8 * steps)
        # this configuration exercises the pair jump and the rare path
        assert meta["pair_jumps"] > 0 and meta["rare_steps"] > 0
        assert meta["rare_substeps"] >= meta["rare_steps"]

    def test_pair_jump_across_the_wrap(self):
        # the nearest pair is (x_1, x_0 + 2*pi): the jump moves x_0 a little,
        # not by 2*pi, so the pair jump (not the rare path) takes every row
        x = np.tile([0.005, TWO_PI - 0.005], (64, 1))
        new, counts = run_kernel(x, 2.0, 2e-3, 1, seed=5)
        assert counts["pair_jumps"] == 64
        assert np.all(np.abs(new - x) < 0.5)

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_kernel_kappa_sweep(self, n, kappa):
        rng = np.random.default_rng(100 * n + int(10 * kappa))
        x = np.sort(rng.uniform(0.0, TWO_PI, size=(4, n)), axis=-1)
        x = x[(row_major_gaps(x) > 0.05).all(axis=-1)]
        assert x.shape[0] >= 2
        for k in range(3):
            x, _ = run_kernel(x, kappa, 2e-3, 20, seed=k)
            gaps = row_major_gaps(x)
            # unwrapped rows stay cyclically sorted above the floor
            assert np.all(gaps >= 0.5 * GAP_FLOOR)
            assert np.allclose(gaps.sum(axis=-1), TWO_PI)
            mu = drift_batch(x)
            assert np.allclose(drift_batch(wrap_angle(x)), mu,
                               rtol=1e-12, atol=1e-12)


class TestKernelMatchesRowMajorReference:
    """The kernel's (N, chains) layout reproduces a chain-major step bit
    for bit: same draws, same drift summation order, same pair move."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_drift(self, n):
        rng = np.random.default_rng(n)
        x = np.sort(rng.uniform(0.0, TWO_PI, size=(64, n)), axis=-1)
        assert np.array_equal(drift_batch(x), reference_drift(x))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_em_step(self, n):
        kappa, dt, c = 2.0, 2e-3, 64
        rng = np.random.default_rng(20 + n)
        jitter = rng.uniform(-0.2, 0.2, size=(c, n)) * np.pi / n
        x = equally_spaced(n).angles + jitter + rng.uniform(0.0, TWO_PI,
                                                            size=(c, 1))
        new, counts = run_kernel(x, kappa, dt, 1, seed=n)
        assert counts["em_steps"] == c
        z = np.random.default_rng(n).standard_normal((c, n))
        ref = x + reference_drift(x) * dt + math.sqrt(kappa * dt) * z
        assert np.array_equal(new, ref)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_pair_jump_step(self, n):
        # every row has one isolated close pair, the closing pair included
        kappa, dt, c = 3.0, 2e-3, 64
        rng = np.random.default_rng(40 + n)
        s = rng.uniform(0.002, 0.02, size=c)
        gaps = np.empty((c, n))
        gaps[:] = ((TWO_PI - s) / (n - 1))[:, None]
        pair = rng.integers(0, n, size=c)
        gaps[np.arange(c), pair] = s
        x = np.cumsum(gaps, axis=-1) - gaps + rng.uniform(0.0, 1.0,
                                                          size=(c, 1))
        assert np.any(pair == n - 1)
        new, counts = run_kernel(x, kappa, dt, 1, seed=n)
        assert counts["pair_jumps"] == c
        ref_rng = np.random.default_rng(n)
        ref_rng.standard_normal((c, n))  # the shared proposal's draw
        assert np.array_equal(new, reference_pair_jump(x, kappa, dt, ref_rng))


class TestSimulate:
    def test_shapes_and_grid(self):
        p = ProcessParams(n_particles=3, kappa=2.0, dt=1e-3)
        rec = simulate(p, t_end=0.05)
        assert rec.states.shape == (rec.times.size, 3)
        assert rec.times[0] == 0.0
        assert np.allclose(np.diff(rec.times), 1e-3)

    def test_determinism(self):
        p = ProcessParams(n_particles=3, kappa=3.0, seed=42)
        a = simulate(p, t_end=0.2)
        b = simulate(p, t_end=0.2)
        assert np.array_equal(a.states, b.states)

    def test_seed_changes_path(self):
        pa = ProcessParams(n_particles=3, kappa=3.0, seed=1)
        pb = ProcessParams(n_particles=3, kappa=3.0, seed=2)
        a = simulate(pa, t_end=0.1)
        b = simulate(pb, t_end=0.1)
        assert not np.allclose(a.states[-1], b.states[-1])

    def test_small_kappa_is_gradient_flow(self):
        # vanishing noise: relaxation to the equally spaced configuration
        rng = np.random.default_rng(9)
        init = distinct_config(rng, 3, min_gap=0.5)
        p = ProcessParams(n_particles=3, kappa=1e-8, dt=2e-3)
        rec = simulate(p, t_end=8.0, initial=init)
        gaps = np.sort(np.diff(np.sort(rec.states[-1])))
        assert np.max(np.abs(
            np.append(gaps, TWO_PI - gaps.sum()) - TWO_PI / 3)) < 1e-2

    def test_single_particle_pure_diffusion(self):
        p = ProcessParams(n_particles=1, kappa=4.0, seed=3)
        rec = simulate(p, t_end=0.5)
        incs = np.diff(np.unwrap(rec.states[:, 0]))
        # one free particle: each step is sqrt(kappa*dt) times the seed's
        # next standard-normal draw
        draws = np.random.default_rng(np.random.SeedSequence(3)) \
            .standard_normal(incs.size)
        expected = math.sqrt(4.0 * p.dt) * draws
        assert np.allclose(incs, expected, rtol=0.0, atol=1e-12)

    def test_t_end_must_be_multiple_of_dt(self):
        p = ProcessParams(n_particles=2, kappa=2.0, dt=2e-3)
        with pytest.raises(ValueError, match="multiple"):
            simulate(p, t_end=0.0101)
        assert simulate(p, t_end=0.01).times.size == 6


class TestStationarySampling:
    def test_batch_shape_and_meta(self):
        p = ProcessParams(n_particles=2, kappa=2.0, seed=5)
        batch = sample_stationary(p, 64)
        assert batch.rows.shape == (64, 2)
        assert batch.meta["kappa"] == 2.0
        assert batch.meta["beta"] == 2.0

    def test_determinism(self):
        p = ProcessParams(n_particles=2, kappa=4.0, seed=6)
        a = sample_stationary(p, 32)
        b = sample_stationary(p, 32)
        assert np.array_equal(a.rows, b.rows)

    def test_gap_law_small(self):
        # coarse check at modest sample size; the tight version is the
        # acceptance suite
        p = ProcessParams(n_particles=2, kappa=4.0, seed=7)
        batch = sample_stationary(p, 4000)
        d = ks_statistic(row_gaps(batch.rows), gap_cdf_n2(1.0))
        assert d < ks_threshold(4000, alpha=0.01)

    def test_two_seeds_same_law(self):
        pa = ProcessParams(n_particles=3, kappa=2.0, seed=8)
        pb = ProcessParams(n_particles=3, kappa=2.0, seed=9)
        ga = row_gaps(sample_stationary(pa, 3000).rows)
        gb = row_gaps(sample_stationary(pb, 3000).rows)
        assert ks_two_sample(ga, gb) < ks_two_sample_threshold(3000, 3000)

    def test_single_particle_uniform(self):
        p = ProcessParams(n_particles=1, kappa=2.0, seed=10, burn_in=2.0)
        rows = sample_stationary(p, 4000).rows[:, 0]
        d = ks_statistic(rows, lambda x: np.asarray(x) / TWO_PI)
        assert d < ks_threshold(4000, alpha=0.01)
