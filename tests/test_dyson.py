import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sle_dyson import dyson
from sle_dyson.dyson import (GAP_FLOOR, PATH_COUNTERS, TWO_PI, AngleConfig,
                             CollisionError, ProcessParams, drift,
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

    @pytest.mark.parametrize("angles", [[], [[1.0, 2.0]]],
                             ids=["empty", "2-d"])
    def test_rejects_empty_or_2d(self, angles):
        with pytest.raises(ValueError,
                           match="^angles must be a nonempty 1-D vector$"):
            AngleConfig(np.array(angles))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_angle(self, bad):
        with pytest.raises(ValueError, match="^angles must be finite$"):
            AngleConfig(np.array([1.0, bad]))

    @pytest.mark.parametrize("bad", [math.nan, -0.5, TWO_PI])
    def test_sample_batch_rejects_rows_off_the_circle(self, bad):
        with pytest.raises(ValueError, match=r"^sample rows must hold finite "
                                             r"angles in \[0, 2\*pi\)$"):
            dyson.SampleBatch(rows=[[1.0, bad]], created_by="test")

    def test_sample_batch_rejects_rows_not_2d(self):
        # a (3, 2, 2) array would be read as six rows of two angles
        with pytest.raises(ValueError, match="^sample rows must be a 2-D "
                                             "array, one row per sample$"):
            dyson.SampleBatch(rows=np.full((3, 2, 2), 1.0), created_by="x")

    @pytest.mark.parametrize("field, value, problem", [
        ("kappa", math.inf, "kappa must be positive and finite"),
        ("dt", math.inf, "dt must be positive and finite"),
        ("burn_in", math.inf, "burn_in must be nonnegative and finite"),
        ("burn_in", math.nan, "burn_in must be nonnegative and finite"),
        ("thinning", math.inf, "thinning must be positive and finite"),
        ("thinning", math.nan, "thinning must be positive and finite"),
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

    @pytest.mark.parametrize("seed", [-1, np.int64(-3), 1.5, 2.0, True,
                                      np.bool_(False), "0", None],
                             ids=["-1", "np.int64(-3)", "1.5", "2.0", "True",
                                  "np.bool_", "str", "None"])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0$"):
            ProcessParams(n_particles=2, kappa=2.0, seed=seed)

    @pytest.mark.parametrize("seed", [0, np.int64(7), np.uint64(2 ** 63),
                                      2 ** 70])
    def test_accepts_nonnegative_integer_seed(self, seed):
        p = ProcessParams(n_particles=2, kappa=2.0, seed=seed, dt=0.01)
        assert simulate(p, 0.02).states.shape == (3, 2)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, np.bool_(True)],
                             ids=["2.5", "3.0", "True", "np.bool_"])
    def test_sample_stationary_rejects_non_integer_count(self, n):
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            sample_stationary(ProcessParams(n_particles=2, kappa=2.0), n)

    def test_sample_stationary_accepts_numpy_integer_count(self):
        p = ProcessParams(n_particles=2, kappa=2.0, burn_in=0.0,
                          thinning=4e-3)
        assert sample_stationary(p, np.int64(3)).rows.shape == (3, 2)

    @pytest.mark.parametrize("fields, problem", [
        ({"burn_in": 0.0009}, "burn_in=0.0009 is not an integer multiple "
                              "of dt=0.002"),
        ({"burn_in": 1.001, "dt": 2e-3 / 3.0}, "burn_in=1.001 is not"),
        ({"thinning": 0.4, "dt": 0.3}, "thinning=0.4 is not an integer "
                                       "multiple of dt=0.3"),
        ({"thinning": 0.005}, "thinning=0.005 is not"),
    ], ids=["burn_in-below-dt", "burn_in", "thinning-above-dt", "thinning"])
    def test_sample_stationary_rejects_times_off_the_dt_grid(self, fields,
                                                              problem):
        p = ProcessParams(n_particles=2, kappa=2.0, **fields)
        with pytest.raises(ValueError, match=problem):
            sample_stationary(p, 8)

    def test_default_burn_in(self):
        # 10 + 2 ln 3 rounded to the dt grid: the time that runs
        p = ProcessParams(n_particles=3, kappa=2.0)
        assert p.effective_burn_in == 6099 * p.dt

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
            rotated = AngleConfig(wrap_angle(equally_spaced(n).angles + 0.3))
            assert np.max(np.abs(drift(rotated))) < 1e-12

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

    @pytest.mark.parametrize("angles", [[1.0, 1.0 + 1e-13],
                                        [1e-14, TWO_PI - 1e-13]],
                             ids=["inside", "across-the-wrap"])
    def test_drift_raises_near_collision(self, angles):
        # angles 1e-13 apart: |cot| ~ 2e13 is past the 2e12 guard
        with pytest.raises(CollisionError, match="cot drift is singular"):
            drift(AngleConfig(np.array(angles)))
        with pytest.raises(CollisionError, match="cot drift is singular"):
            dyson._chain_drift(angles)

    @pytest.mark.parametrize("angles", [[1.0, 1.0], [0.5, 0.5, 2.0],
                                        [0.5, 2.0, 2.0]])
    def test_chain_drift_raises_at_equal_angles(self, angles):
        # tan 0: a collision, raised as such and without a divide warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CollisionError, match="cot drift is singular"):
                dyson._chain_drift(angles)

    def test_potential_raises_near_collision(self):
        # |sin| of half a 1e-300 gap is below the 1e-300 guard
        with pytest.raises(CollisionError, match="potential diverges"):
            potential(AngleConfig(np.array([0.0, 1e-300])))

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


def reference_rare_step(xr, kappa, dt, rng, counts):
    """One rare-path step of an (N,) numpy row, drawing from ``rng`` in the
    kernel's order and adding its sub-steps, halvings and reflections to
    ``counts``."""
    n, left = xr.size, dt
    while left > 1e-15:
        mu_r = dyson._drift(xr)
        g = dyson._gaps(xr).min()
        trial = min(g * g / (32.0 * (kappa + n)), left)
        assert left - trial != left
        z = rng.standard_normal(n)
        for _ in range(dyson.MAX_HALVINGS + 1):
            prop = xr + mu_r * trial + math.sqrt(kappa * trial) * z
            if dyson._checked(xr, prop, 0.0)[2]:
                break
            trial *= 0.5
            counts["halvings"] += 1
        gr = dyson._gaps(prop)
        i = np.argmin(gr)
        if gr[i] < GAP_FLOOR:
            prop[i] -= GAP_FLOOR - gr[i]
            prop[(i + 1) % n] += GAP_FLOOR - gr[i]
            counts["reflections"] += 1
        counts["rare_substeps"] += 1
        xr, left = prop, left - trial
    return xr


def reference_kernel_pair_jump(x, gaps, mu, kappa, tau, rng):
    """The pair jump of (N, chains) columns, all of them vectorized, as the
    kernel made it before its few-chain float path."""
    n, c = x.shape
    cols = np.arange(c)
    i = np.argmin(gaps, axis=0)
    k = (i + 1) % n
    s = gaps[i, cols]
    delta = 1.0 + 4.0 / kappa
    v = tau * rng.noncentral_chisquare(delta, s * s / (2.0 * kappa * tau),
                                       size=c)
    mu_i, mu_k = mu[i, cols], mu[k, cols]
    s_new = np.maximum(np.sqrt(2.0 * kappa * v)
                       + ((mu_k - mu_i) - 4.0 / s) * tau, GAP_FLOOR)
    mid = (x[i, cols] + 0.5 * s + 0.5 * (mu_i + mu_k) * tau
           + math.sqrt(0.5 * kappa * tau) * rng.standard_normal(c))
    new = x + mu * tau + math.sqrt(kappa * tau) * rng.standard_normal((c, n)).T
    new[i, cols] = mid - 0.5 * s_new
    new[k, cols] = mid + 0.5 * s_new - TWO_PI * (k == 0)
    ok = dyson._checked(x, new, 0.5 * GAP_FLOOR)[2]
    if n > 2:
        ok &= np.partition(gaps, 1, axis=0)[1] > np.maximum(3.0 * s, 0.15)
    return new, ok


def reference_kernel(x, kappa, dt, n_steps, rng, counts, near_counts):
    """The batched kernel on (N, chains) columns as it was before it carried
    its gaps from step to step: every step takes the gaps and the drift
    (from reference_drift) afresh and moves near chains by
    reference_kernel_pair_jump.  Appends each step's count of near chains
    to ``near_counts``."""
    n, c = x.shape
    sqrt_kdt = math.sqrt(kappa * dt)
    for _ in range(n_steps):
        mu = reference_drift(x.T).T
        gaps = dyson._gaps(x)
        new = x + mu * dt + sqrt_kdt * rng.standard_normal((c, n)).T
        ok = dyson._checked(x, new, GAP_FLOOR)[2]
        n_jump = 0
        if n > 1:
            near = gaps.min(axis=0) < (4.0 * sqrt_kdt
                                       + 4.0 * dt * np.abs(mu).max(axis=0))
            near_counts.append(int(np.count_nonzero(near)))
            if near.any():
                idx = np.flatnonzero(near)
                new[:, idx], ok[idx] = reference_kernel_pair_jump(
                    x[:, idx], gaps[:, idx], mu[:, idx], kappa, dt, rng)
                n_jump = int(np.count_nonzero(ok[idx]))
        rare = np.flatnonzero(~ok)
        counts["em_steps"] += c - rare.size - n_jump
        counts["pair_jumps"] += n_jump
        counts["rare_steps"] += rare.size
        for r in rare:
            new[:, r] = dyson._rare_step(x[:, r].tolist(), kappa, dt, rng,
                                         counts)[0]
        x = new
    return x


class TestStepping:
    def test_one_step_variance(self):
        # increment variance about the drift is kappa*dt, within 3 SE
        kappa, dt, reps = 2.0, 1e-3, 4000
        x = np.tile(equally_spaced(2).angles, (reps, 1))
        new, counts = run_kernel(x, kappa, dt, 1, seed=11)
        assert counts["em_steps"] == reps
        incs = (new - x - dyson._drift(x.T).T * dt).ravel()
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
        with pytest.raises(CollisionError, match="gap 1e-09 too small to "
                           r"resolve a step of 10.0 \(kappa=8.0\)"):
            dyson._integrate_chain([0.0, 1e-9], 8.0, 10.0, 1,
                                   np.random.default_rng(0),
                                   dict.fromkeys(PATH_COUNTERS, 0))

    def test_path_counters_cover_every_chain_step(self):
        p = ProcessParams(n_particles=5, kappa=2.0, seed=4, burn_in=1.0)
        meta = sample_stationary(p, 16, n_chains=8).meta
        steps = round(1.0 / p.dt) + 2 * round(p.thinning / p.dt)
        assert (meta["em_steps"] + meta["pair_jumps"] + meta["rare_steps"]
                == 8 * steps)
        # this configuration exercises the pair jump and the rare path
        assert meta["pair_jumps"] > 0 and meta["rare_steps"] > 0
        assert meta["rare_substeps"] >= meta["rare_steps"]
        assert all(type(meta[k]) is int for k in PATH_COUNTERS)

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
            mu = dyson._drift(x.T).T
            assert np.allclose(dyson._drift(wrap_angle(x).T).T, mu,
                               rtol=1e-12, atol=1e-12)


class TestRareStepHalvings:
    """_rare_step's halving loop, which no measured run enters: the rare
    path's order checks, the ones at floor 0, are made to refuse the first
    k proposals."""

    @staticmethod
    def refuse(monkeypatch, k):
        accepted, proposals = dyson._chain_accepted, []

        def patched(old, new, new_gaps, floor):
            if floor == 0.0:
                proposals.append(new)
                if len(proposals) <= k:
                    return False
            return accepted(old, new, new_gaps, floor)

        monkeypatch.setattr(dyson, "_chain_accepted", patched)
        return proposals

    @pytest.mark.parametrize("k", [1, 3, dyson.MAX_HALVINGS])
    def test_each_refusal_halves_the_sub_step(self, monkeypatch, k):
        proposals = self.refuse(monkeypatch, k)
        x, kappa, dt = [0.0, 1.5, 4.0], 2.0, 2e-3
        counts = dict.fromkeys(PATH_COUNTERS, 0)
        new, gaps = dyson._rare_step(x, kappa, dt, np.random.default_rng(0),
                                     counts)
        assert counts["halvings"] == k
        # the halved sub-step, then one for the time it left
        assert counts["rare_substeps"] == 2
        assert gaps == dyson._chain_gaps(new)
        # every retry reuses the first proposal's draws over half the time
        mu = np.array(dyson._chain_drift(x))
        z = (np.array(proposals[0]) - x - mu * dt) / math.sqrt(kappa * dt)
        for i, prop in enumerate(proposals[:k + 1]):
            tau = dt / 2 ** i
            np.testing.assert_allclose(
                prop, x + mu * tau + math.sqrt(kappa * tau) * z, rtol=0,
                atol=1e-14)

    def test_raises_when_every_proposal_is_refused(self, monkeypatch):
        proposals = self.refuse(monkeypatch, math.inf)
        with pytest.raises(CollisionError, match="^step rejected after 20 "
                                                 "halvings"):
            dyson._rare_step([0.0, 1.5, 4.0], 2.0, 2e-3,
                             np.random.default_rng(0),
                             dict.fromkeys(PATH_COUNTERS, 0))
        assert len(proposals) == dyson.MAX_HALVINGS + 1


class TestKernelMatchesRowMajorReference:
    """The kernel's (N, chains) layout reproduces a chain-major step bit
    for bit: same draws, same drift summation order, same pair move."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_drift(self, n):
        rng = np.random.default_rng(n)
        x = np.sort(rng.uniform(0.0, TWO_PI, size=(64, n)), axis=-1)
        assert np.array_equal(dyson._drift(x.T).T, reference_drift(x))

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

    @pytest.mark.parametrize("n, close, dt", [
        (3, (0.004, 0.006), 1e-5),
        (3, (5e-5, 0.01), 1e-9),
        (5, (2e-3, 3e-3), 2e-6),
    ], ids=["two-close-pairs", "below-floor", "n5"])
    def test_rare_step(self, n, close, dt):
        # every row has two close pairs, so the close-pair trigger fires and
        # the pair jump is refused as not isolated: all rows take the rare
        # path, one at a time after the jump's draws, and some sub-steps
        # land below GAP_FLOOR and are reflected
        kappa, c = 6.0, 8
        rng = np.random.default_rng(60 + n)
        gaps = np.empty((c, n))
        gaps[:, 2:] = (TWO_PI - sum(close)) / (n - 2)
        gaps[:, :2] = close * rng.uniform(1.0, 1.2, size=(c, 2))
        gaps[:, -1] += TWO_PI - gaps.sum(axis=-1)
        shift = rng.integers(0, n, size=c)  # the close pairs' slots vary
        gaps = gaps[np.arange(c)[:, None], (np.arange(n) + shift[:, None]) % n]
        x = np.cumsum(gaps, axis=-1) - gaps + rng.uniform(0.0, 1.0,
                                                          size=(c, 1))
        new, counts = run_kernel(x, kappa, dt, 1, seed=n)
        assert counts["rare_steps"] == c
        assert counts["reflections"] > 0
        ref_rng = np.random.default_rng(n)
        ref_rng.standard_normal((c, n))  # the shared proposal's draw
        reference_pair_jump(x, kappa, dt, ref_rng)
        ref_counts = dict.fromkeys(PATH_COUNTERS, 0)
        ref = np.array([reference_rare_step(row, kappa, dt, ref_rng,
                                            ref_counts) for row in x])
        assert np.array_equal(new, ref)
        for key in ("rare_substeps", "halvings", "reflections"):
            assert counts[key] == ref_counts[key]


def near_collision_starts(rng, n, chains, n_near, n_rare, s_max):
    """Sorted (chains, N) rows of jittered equally spaced angles, except
    that the first ``n_near`` rows have a pair closer than ``s_max`` and the
    first ``n_rare`` of those a second, closer pair next to it, which is
    not isolated, so its pair jump is refused for the rare path."""
    gaps = TWO_PI / n * rng.uniform(0.8, 1.2, size=(chains, n))
    fixed = np.zeros((chains, n), dtype=bool)
    gaps[:n_near, 0] = s_max * rng.uniform(0.25, 0.9, size=n_near)
    fixed[:n_near, 0] = True
    if n_rare:
        gaps[:n_rare, 1] = gaps[:n_rare, 0] * rng.uniform(0.5, 0.9,
                                                          size=n_rare)
        fixed[:n_rare, 1] = True
    free = np.where(fixed, 0.0, gaps)
    scale = (TWO_PI - np.where(fixed, gaps, 0.0).sum(axis=-1)) / free.sum(
        axis=-1)
    gaps = np.where(fixed, gaps, gaps * scale[:, None])
    shift = rng.integers(0, n, size=chains)  # the close pairs' slots vary
    gaps = gaps[np.arange(chains)[:, None], (np.arange(n) + shift[:, None]) % n]
    return np.cumsum(gaps, axis=-1) - gaps + rng.uniform(0.0, TWO_PI,
                                                         size=(chains, 1))


class TestKernelMatchesPreviousKernel:
    """The kernel, which carries each step's gaps into the next and moves a
    few near chains on Python floats, gives the rows and PATH_COUNTERS of
    reference_kernel bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_rows_and_counters(self, n):
        dt, n_steps, cut = 1e-3, 4, dyson.FLOAT_JUMP_MAX
        near_counts, rare_steps = [], 0
        for i, kappa in enumerate([1.0, 2.0, 3.0, 4.0, 6.0, 8.0]):
            for chains in (1, 8, 24, 64, 1024):
                rng = np.random.default_rng(1000 * n + 10 * i + chains)
                n_near = 0 if n == 1 else min(
                    chains, (1, cut, cut + 1, 2, cut - 1, chains // 3)[i])
                n_rare = 0 if n < 3 or chains == 1 else 1 + chains // 256
                x = near_collision_starts(rng, n, chains, n_near, n_rare,
                                          4.0 * math.sqrt(kappa * dt))
                seed = int(rng.integers(2 ** 32))
                new, counts = run_kernel(x, kappa, dt, n_steps, seed)
                ref_counts = dict.fromkeys(PATH_COUNTERS, 0)
                ref = reference_kernel(np.ascontiguousarray(x.T), kappa, dt,
                                       n_steps, np.random.default_rng(seed),
                                       ref_counts, near_counts).T
                assert np.array_equal(new, ref), (kappa, chains)
                assert counts == ref_counts, (kappa, chains)
                rare_steps += counts["rare_steps"]
        if n > 1:
            # steps with one near chain, with the float path's largest
            # count and with one more, which takes the vectorized move
            assert {1, cut, cut + 1} <= set(near_counts)
            assert max(near_counts) > 100
        if n > 2:
            assert rare_steps > 0

    @pytest.mark.parametrize("n, kappa, chains", [
        (2, 4.0, 1024), (3, 2.0, 24), (5, 2.0, 8), (4, 6.0, 8)])
    def test_sample_stationary(self, monkeypatch, n, kappa, chains):
        p = ProcessParams(n_particles=n, kappa=kappa, seed=n, burn_in=0.4)
        batch = sample_stationary(p, 2 * chains, n_chains=chains)
        monkeypatch.setattr(
            dyson, "_integrate",
            lambda x, kappa, dt, n_steps, rng, counts: reference_kernel(
                x, kappa, dt, n_steps, rng, counts, []))
        ref = sample_stationary(p, 2 * chains, n_chains=chains)
        assert np.array_equal(batch.rows, ref.rows)
        assert batch.meta == ref.meta
        assert batch.meta["pair_jumps"] > 0


class TestFewChainPairJump:
    """At N = 2 with 1,024 chains, steps with 1 to FLOAT_JUMP_MAX near
    chains move them column by column, in place, and give the rows and
    PATH_COUNTERS of reference_kernel bit for bit."""

    @pytest.mark.parametrize("kappa", [2.0, 8.0 / 3.0, 3.0, 4.0])
    def test_matches_reference_kernel(self, kappa):
        dt, chains, n_steps, cut = 2e-3, 1024, 3, dyson.FLOAT_JUMP_MAX
        s_max = 4.0 * math.sqrt(kappa * dt)
        for n_near in range(1, cut + 1):
            rng = np.random.default_rng(int(100 * kappa) + n_near)
            x = near_collision_starts(rng, 2, chains, n_near, 0, s_max)
            # the first near chain's close pair is (x_1, x_0 + 2*pi)
            s = s_max * rng.uniform(0.25, 0.9)
            x[0] = x[0, 0], x[0, 0] + TWO_PI - s
            x = x[rng.permutation(chains)]
            seed = int(rng.integers(2 ** 32))
            new, counts = run_kernel(x, kappa, dt, n_steps, seed)
            ref_counts, near_counts = dict.fromkeys(PATH_COUNTERS, 0), []
            ref = reference_kernel(np.ascontiguousarray(x.T), kappa, dt,
                                   n_steps, np.random.default_rng(seed),
                                   ref_counts, near_counts).T
            assert near_counts[0] == n_near
            assert max(near_counts) <= cut
            assert np.array_equal(new, ref), n_near
            assert counts == ref_counts, n_near
            assert counts["pair_jumps"] > 0


class TestOneChainStepper:
    """simulate's one-chain stepper takes the batched kernel's path for a
    single chain bit for bit, pair jumps and rare sub-steps included."""

    @pytest.mark.parametrize("kappa", [2.0, 3.0, 4.0, 6.0, 8.0])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_batched_kernel(self, n, kappa):
        dt, n_steps = 1e-3, 1000
        total = dict.fromkeys(PATH_COUNTERS, 0)
        for seed in range(3):
            x0 = equally_spaced(n).angles
            chain_counts = dict.fromkeys(PATH_COUNTERS, 0)
            chain_rng = np.random.default_rng(seed)
            trail = dyson._integrate_chain(x0.tolist(), kappa, dt, n_steps,
                                           chain_rng, chain_counts)
            counts = dict.fromkeys(PATH_COUNTERS, 0)
            rng, x = np.random.default_rng(seed), x0[:, None].copy()
            kernel_trail = np.empty((n_steps, n))
            for step in range(n_steps):
                x = dyson._integrate(x, kappa, dt, 1, rng, counts)
                kernel_trail[step] = x[:, 0]
            assert np.array_equal(np.array(trail), kernel_trail)
            assert chain_counts == counts
            assert chain_rng.bit_generator.state == rng.bit_generator.state
            for key in PATH_COUNTERS:
                total[key] += counts[key]
        if kappa == 8.0 and n >= 4:
            assert total["pair_jumps"] > 0 and total["rare_steps"] > 0
            assert total["reflections"] > 0


def reference_chain(x, kappa, dt, n_steps, rng, counts):
    """The one-chain stepper with one size-N proposal draw per step, as it
    was before it drew its normals in blocks."""
    n = len(x)
    sqrt_kdt = math.sqrt(kappa * dt)
    gaps = dyson._chain_gaps(x)
    trail = []
    for _ in range(n_steps):
        mu = dyson._chain_drift(x)
        new = [a + m * dt + sqrt_kdt * z
               for a, m, z in zip(x, mu, rng.standard_normal(n).tolist())]
        if n > 1 and min(gaps) < (4.0 * sqrt_kdt
                                  + 4.0 * dt * max(map(abs, mu))):
            path = "pair_jumps"
            (chi2,), (z_mid,), (z,) = dyson._pair_jump_draws(
                [min(gaps)], n, kappa, dt, rng)
            new, new_gaps, ok = dyson._chain_pair_jump(x, gaps, mu, kappa, dt,
                                                       chi2, z_mid, z)
        else:
            path = "em_steps"
            new_gaps = dyson._chain_gaps(new)
            ok = dyson._chain_accepted(x, new, new_gaps, GAP_FLOOR)
        if not ok:
            path = "rare_steps"
            new, new_gaps = dyson._rare_step(x, kappa, dt, rng, counts)
        counts[path] += 1
        x, gaps = new, new_gaps
        trail.append(x)
    return trail


class TestBlockDraws:
    """simulate's stepper draws its proposal normals DRAW_BLOCK steps at a
    time and sets the stream back at a pair-jump or rare step; at any
    block length its trail, PATH_COUNTERS and final generator state are
    those of the per-step reference_chain.  At N = 4 and 6 the pair jumps
    (and the rare steps of refused jumps) fall on every row of a block
    but its first, which an EM step opens; at N = 1 with a long dt EM
    proposals that move the particle by pi or more are refused, on any
    row, the first included."""

    @pytest.mark.parametrize("block", [1, 2, 3, dyson.DRAW_BLOCK])
    @pytest.mark.parametrize("n, kappa, dt, n_steps", [
        (4, 6.0, 1e-3, 1000), (6, 8.0, 1e-3, 200), (1, 8.0, 0.5, 200)],
        ids=["n4-k6", "n6-k8", "n1-long-dt"])
    def test_matches_per_step_reference(self, monkeypatch, n, kappa, dt,
                                        n_steps, block):
        rewind, rewinds = dyson._rewind, []

        def recorded(rng, start, taken, drawn, n):
            rewinds.append((taken, drawn))
            rewind(rng, start, taken, drawn, n)

        monkeypatch.setattr(dyson, "DRAW_BLOCK", block)
        monkeypatch.setattr(dyson, "_rewind", recorded)
        for seed in range(2):
            x0 = equally_spaced(n).angles.tolist()
            counts = dict.fromkeys(PATH_COUNTERS, 0)
            rng = np.random.default_rng(seed)
            trail = dyson._integrate_chain(x0, kappa, dt, n_steps, rng,
                                           counts)
            ref_counts = dict.fromkeys(PATH_COUNTERS, 0)
            ref_rng = np.random.default_rng(seed)
            ref = reference_chain(x0, kappa, dt, n_steps, ref_rng,
                                  ref_counts)
            assert trail == ref
            assert counts == ref_counts
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert counts["rare_steps"] > 0
            assert n == 1 or counts["pair_jumps"] > 0
        # a block of one never sets the stream back; one of three does
        # after its first or second row, and not after its last
        taken = {t for t, drawn in rewinds if drawn == block}
        if block == 1:
            assert taken <= {1}
        elif block == 3:
            assert ({1, 2, 3} if n == 1 else {2, 3}) <= taken


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
        # vanishing noise: relaxation from a random start to the equally
        # spaced configuration, on simulate's one-chain stepper
        init = distinct_config(np.random.default_rng(9), 3, min_gap=0.5)
        trail = dyson._integrate_chain(init.angles.tolist(), 1e-8, 2e-3,
                                       4000, np.random.default_rng(0),
                                       dict.fromkeys(PATH_COUNTERS, 0))
        gaps = np.array(dyson._chain_gaps(trail[-1]))
        assert np.max(np.abs(gaps - TWO_PI / 3)) < 1e-3

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
        assert d < ks_threshold(4000)

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
        assert d < ks_threshold(4000)
