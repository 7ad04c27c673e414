import cmath
import itertools
import math

import numpy as np
import pytest

from sle_dyson.dyson import (AngleConfig, ProcessParams, equally_spaced,
                             simulate, wrap_angle)
from sle_dyson.loewner import (MAX_FLOW_STEPS, MIN_FLOW_STEP,
                               DriveHistory, PointStatus,
                               composition_defect, composition_defect_slope,
                               derivative_at_origin, evolve_point, joint_rhs,
                               trace_points)


@pytest.fixture(scope="module")
def drive():
    rec = simulate(ProcessParams(n_particles=3, kappa=4.0, dt=1e-3, seed=1),
                   t_end=0.3)
    return DriveHistory.from_trajectory(rec)


def interp_reference(dh, t):
    """Drive angles by per-column np.interp in the lift (the angles given
    to ``dh`` must be wrapped already, so that unwrapping ``dh.angles``
    recovers the lift bit for bit)."""
    return np.stack([np.interp(t, dh.times, np.unwrap(dh.angles[:, j]))
                     for j in range(dh.n)], axis=-1)


RK4_TRACE_OFFSET = 1e-3  # the RK4 reverse flow's seeds start this far inside


def reference_flow(dh, w, start, span, direction, c, exit_radius):
    """The adaptive RK4 flow as one loop that reads the drive by per-column
    np.interp at all three stages and calls joint_rhs at all four.  It
    runs forwards (direction 1) or, with the field negated, backwards (-1)
    from time start; backwards, it is the RK4 reverse flow that the zipper
    trace is checked against."""
    def drivers(t0, u):
        return interp_reference(dh, np.clip(t0 + direction * u, 0.0,
                                            dh.duration))

    def f(x, theta):
        return direction * joint_rhs(x, theta)

    w = np.array(w, dtype=complex)
    reached, why = np.zeros(w.shape), np.full(w.shape, "done", dtype=object)
    live = np.flatnonzero(span > 1e-15)
    for _ in range(MAX_FLOW_STEPS):
        if live.size == 0:
            break
        t0, z, s = start[live], w[live], reached[live]
        th = drivers(t0, s)
        d = np.abs(z[:, None] - np.exp(1j * th)).min(axis=-1)
        h = np.minimum(np.minimum(dh.dt_max, c * d * d), span[live] - s)
        ok = h >= MIN_FLOW_STEP
        why[live[~ok]] = "stalled"
        live, t0, z, s, h, th = (a[ok] for a in (live, t0, z, s, h, th))
        mid, end = drivers(t0, s + 0.5 * h), drivers(t0, s + h)
        k1 = f(z, th)
        k2 = f(z + 0.5 * h * k1, mid)
        k3 = f(z + 0.5 * h * k2, mid)
        k4 = f(z + h * k3, end)
        z = z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        r = np.abs(z)
        ok = np.isfinite(z) & (r <= exit_radius)
        why[live[~ok]] = "left"
        out = ok & (r > 1.0)
        z[out] /= r[out]
        w[live], reached[live] = z, np.where(ok, s + h, s)
        live = live[ok & (reached[live] < span[live] - 1e-15)]
    why[live] = "budget"
    return w, reached, why


class TestJointRhs:
    def test_single_driver_value(self):
        # g=i, driver at angle 0: -i (i+1)/(i-1) = -1
        assert joint_rhs(1j, [0.0]) == pytest.approx(-1.0 + 0.0j)

    def test_origin_is_fixed(self):
        assert joint_rhs(0.0j, [0.3, 2.0, 4.4]) == 0.0

    def test_pole_raises(self):
        with pytest.raises(ZeroDivisionError):
            joint_rhs(cmath.exp(1.0j), [1.0])

    def test_rotational_covariance(self):
        g = 0.4 + 0.2j
        th = np.array([0.5, 2.5])
        rot = 0.9
        lhs = joint_rhs(g * cmath.exp(1j * rot), th + rot)
        rhs = joint_rhs(g, th) * cmath.exp(1j * rot)
        assert lhs == pytest.approx(rhs)


class TestDriveHistory:
    def test_interpolation_endpoints(self, drive):
        assert drive.drivers_at(0.0) % (2 * math.pi) == pytest.approx(
            drive.angles[0], abs=1e-12)

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError):
            DriveHistory(times=np.array([0.0, 0.2, 0.1]),
                         angles=np.zeros((3, 1)))

    def test_out_of_range(self, drive):
        with pytest.raises(ValueError):
            drive.drivers_at(drive.duration + 1.0)

    def test_constant_drive(self):
        dh = DriveHistory.constant(equally_spaced(2), 1.0)
        assert dh.drivers_at(0.7) == pytest.approx([0.0, math.pi])

    @pytest.mark.parametrize("kwargs", [
        {"times": []},
        {"times": [0.0, math.nan, 1.0]},
        {"times": [0.0, 1.0, math.inf]},
        {"angles": [[0.0], [math.nan], [1.0]]},
        {"angles": [[0.0], [1.0], [-math.inf]]},
        {"dt_max": 0.0},
        {"dt_max": -1e-3},
        {"dt_max": math.nan},
    ], ids=["no-time", "nan-time", "inf-time", "nan-angle", "inf-angle", "dt_max-0",
            "dt_max-negative", "dt_max-nan"])
    def test_rejects_bad_input(self, kwargs):
        args = {"times": [0.0, 0.5, 1.0], "angles": [[0.0], [0.5], [1.0]],
                **kwargs}
        with pytest.raises(ValueError):
            DriveHistory(**args)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_drivers_at_matches_interp(self, n):
        # one search for all columns equals np.interp column by column,
        # bit for bit, on a non-uniform grid: random times, every knot and
        # both endpoints
        rng = np.random.default_rng(n)
        times = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-4, 0.1, 60))])
        walk = np.cumsum(rng.normal(0, 1.0, (times.size, n)), axis=0)
        dh = DriveHistory(times=times, angles=wrap_angle(walk))
        t = np.concatenate([rng.uniform(0, dh.duration, 10_000), times,
                            [0.0, dh.duration,
                             np.nextafter(dh.duration, np.inf)]])
        np.testing.assert_array_equal(dh.drivers_at(t),
                                      interp_reference(dh, t))
        for x in (0.0, times[7], dh.duration):
            np.testing.assert_array_equal(dh.drivers_at(x),
                                          interp_reference(dh, x))

    def test_drivers_at_matches_interp_constant(self):
        dh = DriveHistory.constant(equally_spaced(3, offset=0.4), 0.7)
        t = np.concatenate([np.random.default_rng(0).uniform(0, 0.7, 1000),
                            [0.0, 0.7]])
        np.testing.assert_array_equal(dh.drivers_at(t),
                                      interp_reference(dh, t))


class TestEvolvePoint:
    def test_interior_point_stays_interior(self, drive):
        fp = evolve_point(0.2 + 0.1j, drive, 0.2)
        assert fp.status is PointStatus.INTERIOR
        assert abs(fp.z) <= 1.0

    def test_origin_fixed(self, drive):
        assert evolve_point(0.0j, drive, 0.3).z == 0.0

    def test_point_at_curve_base_swallowed(self, drive):
        z = cmath.exp(1j * drive.angles[0, 0]) * (1.0 - 1e-7)
        fp = evolve_point(z, drive, 0.3)
        assert fp.status is PointStatus.SWALLOWED
        assert fp.swallow_time is not None and fp.swallow_time < 0.3

    def test_rejects_exterior(self, drive):
        with pytest.raises(ValueError):
            evolve_point(1.5 + 0.0j, drive, 0.1)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0),
                                   complex(0.0, math.nan)])
    def test_rejects_nan_point(self, drive, z):
        with pytest.raises(ValueError):
            evolve_point(z, drive, 0.2)

    @pytest.mark.parametrize("t", [math.nan, -0.1])
    def test_rejects_bad_time(self, drive, t):
        with pytest.raises(ValueError):
            evolve_point(0.2 + 0.1j, drive, t)


class TestDerivativeAtOrigin:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exponential_rate(self, n):
        dh = DriveHistory.constant(equally_spaced(n), 0.5)
        for t in (0.1, 0.5):
            assert derivative_at_origin(dh, t) == pytest.approx(
                math.exp(n * t), rel=1e-6)

    def test_random_drive(self, drive):
        # the rate depends only on the number of curves, not the drive
        assert derivative_at_origin(drive, 0.3) == pytest.approx(
            math.exp(3 * 0.3), rel=1e-6)

    def test_rejects_negative_time(self, drive):
        with pytest.raises(ValueError):
            derivative_at_origin(drive, -1.0)


class TestTraceLandsOnDriver:
    """A check that depends on the drive, unlike |G_t'(0)| = e^{N t}: the
    forward flow to t - eps carries the trace point gamma_j(t) to within
    O(sqrt(eps)) of its own driver e^{i theta_j(t - eps)}."""

    @pytest.mark.parametrize("kappa", [2.0, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lands_near_own_driver(self, n, kappa):
        rec = simulate(ProcessParams(n_particles=n, kappa=kappa, dt=1e-3,
                                     seed=1), t_end=0.6)
        drive = DriveHistory.from_trajectory(rec)
        for j in range(n):
            for t, pt in zip((0.3, 0.6), trace_points(drive, j, [0.3, 0.6])):
                for eps in (1e-2, 1e-3):
                    fp = evolve_point(pt.z, drive, t - eps)
                    tip = cmath.exp(1j * drive.drivers_at(t - eps)[j])
                    assert fp.status is PointStatus.INTERIOR
                    assert abs(fp.z - tip) <= 6.0 * math.sqrt(eps)


class TestTraceExact:
    """Traces with closed forms.  One driver held at theta gives the radial
    slit with tip e^{i theta}(1-s)/(1+s), s = sqrt(1 - e^{-t}).  N equally
    spaced drivers held still give N slits: G^N is that one-slit map at
    time N^2 t, so gamma_j(t) = e^{i theta_j} ((1-s)/(1+s))^{1/N} with
    s = sqrt(1 - e^{-N^2 t})."""

    def test_single_slit(self):
        # the knots of DriveHistory.constant are 0 and 1; the second drive
        # holds the same angle on 300 uneven knots, whose maps compose
        # exactly
        knots = np.concatenate([[0.0], np.cumsum(
            np.random.default_rng(5).uniform(1e-4, 6e-3, 300))])
        knots /= knots[-1]
        for dh in (DriveHistory.constant(AngleConfig(np.array([0.7])), 1.0),
                   DriveHistory(times=knots, angles=np.full((301, 1), 0.7))):
            times = np.array([0.1, 0.37, knots[150], 1.0])
            s = np.sqrt(1.0 - np.exp(-times))
            exact = np.exp(0.7j) * (1.0 - s) / (1.0 + s)
            pts = trace_points(dh, 0, times)
            assert all(p.status is PointStatus.INTERIOR for p in pts)
            np.testing.assert_allclose([p.z for p in pts], exact, rtol=0,
                                       atol=1e-12)

    def test_time_zero_is_the_driver(self, drive):
        pts = trace_points(drive, np.arange(drive.n), 0.0)
        assert [p.z for p in pts] == list(np.exp(1j * drive.drivers_at(0.0)))
        assert all(p.status is PointStatus.INTERIOR for p in pts)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equally_spaced_slits(self, n):
        # each knot interval composes the N one-slit maps in turn, a
        # splitting whose error is first order in the knot spacing: at
        # spacing 1e-3 it measured 8e-5, 2.1e-4 and 3.9e-4 at N = 2, 3, 4
        knots = np.linspace(0.0, 1.0, 1001)
        theta = equally_spaced(n, offset=0.3).angles
        dh = DriveHistory(times=knots, angles=np.tile(theta, (knots.size, 1)))
        times = np.array([0.05, 0.3705, 1.0])
        s = np.sqrt(1.0 - np.exp(-n * n * times))
        for j in range(n):
            exact = np.exp(1j * theta[j]) * ((1.0 - s) / (1.0 + s)) ** (1 / n)
            pts = trace_points(dh, j, times)
            np.testing.assert_allclose([p.z for p in pts], exact, rtol=0,
                                       atol=1e-3)


class TestCompositionDefect:
    def test_second_order_slope(self):
        rng = np.random.default_rng(7)
        slope = composition_defect_slope(
            equally_spaced(3, offset=0.4), 3.0, (1e-2, 1e-3, 1e-4),
            np.array([0.3 + 0.2j, -0.5j, 0.1 - 0.6j]),
            rng.standard_normal(3))
        assert slope == pytest.approx(2.0, abs=0.2)

    def test_defect_positive_and_small(self):
        rng = np.random.default_rng(8)
        d = composition_defect(equally_spaced(2, offset=0.3), 2.0, 1e-3,
                               np.array([0.2 + 0.4j]), rng.standard_normal(2))
        assert 0.0 < d < 1e-4

    def test_probe_validation(self):
        with pytest.raises(ValueError):
            composition_defect(equally_spaced(2), 2.0, 1e-3,
                               np.array([1.2 + 0.0j]), np.zeros(2))


class TestTrace:
    def test_trace_inside_disc(self, drive):
        pts = trace_points(drive, 0, [0.0, 0.1, 0.2, 0.3])
        assert all(abs(p.z) <= 1.0 + 1e-9 for p in pts)
        assert pts[0].status is PointStatus.INTERIOR

    def test_trace_moves_inward(self, drive):
        pts = trace_points(drive, 1, [0.05, 0.3])
        assert all(p.status is PointStatus.INTERIOR for p in pts)
        assert abs(pts[1].z) < abs(pts[0].z)

    def test_rejects_bad_time(self, drive):
        with pytest.raises(ValueError):
            trace_points(drive, 0, [drive.duration + 1.0])

    def test_rejects_nan_time(self, drive):
        with pytest.raises(ValueError):
            trace_points(drive, 0, [math.nan])

    @pytest.mark.parametrize("j", [-1, 3, 1.5, 1.0, True,
                                   np.array([0.0, 1.0]),
                                   np.array([True, False]),
                                   np.array([0, 3])],
                             ids=["-1", "3", "1.5", "1.0", "True",
                                  "float-array", "bool-array",
                                  "array-out-of-range"])
    def test_rejects_bad_curve_index(self, drive, j):
        with pytest.raises(ValueError):
            trace_points(drive, j, [0.1, 0.2])

    def test_rejects_curve_indices_not_broadcasting(self, drive):
        with pytest.raises(ValueError):
            trace_points(drive, [0, 1], [0.1, 0.2, 0.3])

    def test_broadcast_matches_per_curve_calls(self, drive):
        times = np.linspace(0.0, drive.duration, 7)
        batch = trace_points(drive, np.repeat(np.arange(drive.n), times.size),
                             np.tile(times, drive.n))
        single = [p for j in range(drive.n) for p in
                  trace_points(drive, j, times)]
        assert batch == single

    def test_batch_matches_single_calls(self, drive):
        # the batch must not couple its points
        times = np.linspace(0.0, drive.duration, 13)
        for t, pt in zip(times, trace_points(drive, 2, times)):
            (single,) = trace_points(drive, 2, [t])
            assert pt.status is single.status
            assert abs(pt.z - single.z) <= 1e-14


class TestFlowMatchesReference:
    """The forward flow reuses each step's end-stage drive read as the next
    step's start stage; it must agree bit for bit with the plain loop kept
    here.  The zipper trace must agree with that loop's reverse
    flow to a stated tolerance."""

    @pytest.fixture(scope="class", params=[(n, k) for n in (1, 2, 4)
                                           for k in (2.0, 6.0)],
                    ids=lambda p: f"n{p[0]}-k{p[1]:g}")
    def case(self, request):
        n, kappa = request.param
        rec = simulate(ProcessParams(n_particles=n, kappa=kappa, dt=1e-3,
                                     seed=3), t_end=0.3)
        return DriveHistory.from_trajectory(rec)

    def test_trace_points(self, case):
        # The zipper holds each driver at its right-end value on each knot
        # interval and starts on the driver; the RK4 reverse flow reads the
        # linearly interpolated drive and starts RK4_TRACE_OFFSET inside.
        # Over seeds 3-7 at these N and kappa the two differed by at most
        # 0.039 (0.053 at kappa 8), with a median of at most 0.009 per case.
        times = np.linspace(0.0, case.duration, 5)
        curves = np.repeat(np.arange(case.n), times.size)
        t = np.tile(times, case.n)
        seed = np.exp(1j * interp_reference(case, t)[np.arange(t.size),
                                                       curves])
        w0 = np.where(t == 0.0, seed, seed * (1.0 - RK4_TRACE_OFFSET))
        w, _, why = reference_flow(case, w0, t, t, -1.0, 0.05, 1.0 + 1e-6)
        assert (why == "done").all()
        got = trace_points(case, curves, t)
        assert all(p.status is PointStatus.INTERIOR for p in got)
        dz = np.abs(np.array([p.z for p in got]) - w)
        assert dz.max() <= 0.08
        assert np.median(dz) <= 0.02

    def test_evolve_point(self, case):
        # an interior point, one at a curve base, and the trace tip, at
        # t = 0, at a t below the flow's 1e-15 time tolerance, and at 0.2
        tip = trace_points(case, case.n - 1, [0.2])[0].z
        for z, t in itertools.product(
                (0.3 - 0.2j, cmath.exp(1j * case.angles[0, 0]) * (1 - 1e-7),
                 tip), (0.0, 1e-16, 0.2)):
            fp = evolve_point(z, case, t)
            (g,), (s,), (why,) = reference_flow(
                case, [z], np.zeros(1), np.full(1, t), 1.0, 0.2, np.inf)
            assert fp.z == g
            assert fp.status is {"done": PointStatus.INTERIOR,
                                 "stalled": PointStatus.SWALLOWED}.get(
                why, PointStatus.UNRESOLVED)
            assert fp.swallow_time == (s if why == "stalled" else None)
