import cmath
import math

import numpy as np
import pytest

from sle_dyson import dyson, loewner
from sle_dyson.dyson import (TWO_PI, ProcessParams, equally_spaced,
                             simulate, wrap_angle)
from sle_dyson.loewner import (DriveHistory, PointStatus,
                               slit_drivers, trace_points)


def joint_rhs(g, drivers):
    """Right-hand side -g * sum_j (g + e^{i theta_j})/(g - e^{i theta_j}),
    for points of shape (...) and drivers of shape (..., N)."""
    g = np.asarray(g, dtype=complex)[..., None]
    e = np.exp(1j * np.asarray(drivers, dtype=float))
    if (g == e).any():
        raise ZeroDivisionError("g sits on a driving singularity")
    return -g[..., 0] * ((g + e) / (g - e)).sum(axis=-1)


@pytest.fixture(scope="module")
def drive():
    rec = simulate(ProcessParams(n_particles=3, kappa=4.0, dt=1e-3, seed=1),
                   t_end=0.3)
    return DriveHistory(rec.times, rec.states)


def interp_reference(dh, t):
    """Drive angles by per-column np.interp in the lift (the angles given
    to ``dh`` must be wrapped already, so that unwrapping ``dh.angles``
    recovers the lift bit for bit)."""
    return np.stack([np.interp(t, dh.times, np.unwrap(dh.angles[:, j]))
                     for j in range(dh.n)], axis=-1)


RK4_TRACE_OFFSET = 1e-3  # the RK4 reverse flow's seeds start this far inside
FLOW_DT_MAX = 1e-3       # largest step of reference_flow
FLOW_MIN_STEP = 1e-12    # a smaller step stalls the point
FLOW_MAX_STEPS = 200_000  # step budget of reference_flow


def reference_flow(dh, w, start, span, direction, c, exit_radius):
    """The adaptive RK4 flow as one loop that reads the drive by per-column
    np.interp at all three stages and calls joint_rhs at all four.  Each
    step is min(FLOW_DT_MAX, c d^2, time left), d the distance to the
    nearest driver.  It runs forwards (direction 1) or, with the field
    negated, backwards (-1) from time start; backwards, it is the RK4
    reverse flow that the zipper trace is checked against."""
    def drivers(t0, u):
        return interp_reference(dh, np.clip(t0 + direction * u, 0.0,
                                            dh.duration))

    def f(x, theta):
        return direction * joint_rhs(x, theta)

    w = np.array(w, dtype=complex)
    reached, why = np.zeros(w.shape), np.full(w.shape, "done", dtype=object)
    live = np.flatnonzero(span > 1e-15)
    for _ in range(FLOW_MAX_STEPS):
        if live.size == 0:
            break
        t0, z, s = start[live], w[live], reached[live]
        th = drivers(t0, s)
        d = np.abs(z[:, None] - np.exp(1j * th)).min(axis=-1)
        h = np.minimum(np.minimum(FLOW_DT_MAX, c * d * d), span[live] - s)
        ok = h >= FLOW_MIN_STEP
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


def reference_unzip(z, e, q):
    """Compose the inverse single-slit maps of the drivers e[..., 0],
    e[..., 1], ... in that order, each over a time tau with q = e^{-tau},
    turning z into the Cayley coordinate c = (e - z)/(e + z) about each
    driver and back."""
    for r in range(e.shape[-1]):
        er = e[..., r]
        c = (er - z) / (er + z)
        c = np.sqrt(q * c * c + (1.0 - q))
        z = er * (1.0 - c) / (1.0 + c)
    return z


def reference_trace(dh, j, t):
    """The zipper trace of trace_points, walked in z: each point starts on
    its own driver, takes the partial interval [times[k], t] with the
    drivers at t, then the whole intervals back to time 0 with the drivers
    at their right ends, its own curve's map first on each."""
    j, t = np.broadcast_arrays(np.asarray(j), np.asarray(t, dtype=float))
    e = np.exp(1j * interp_reference(dh, t))
    own = (j[:, None] + np.arange(dh.n)) % dh.n
    e = np.take_along_axis(e, own, axis=1)
    z = e[:, 0].copy()
    k = np.searchsorted(dh.times, t) - 1
    go = k >= 0
    z[go] = reference_unzip(z[go], e[go], np.exp(dh.times[k[go]] - t[go]))
    phase = np.exp(1j * np.unwrap(dh.angles, axis=0))
    decay = np.exp(-np.diff(dh.times))
    for i in range(k.max(initial=0), 0, -1):
        walk = k >= i
        z[walk] = reference_unzip(z[walk], phase[i][own[walk]],
                                  decay[i - 1])
    return z


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
        dh = DriveHistory(times=np.array([0.0, 1.0]),
                          angles=np.tile(equally_spaced(2), (2, 1)))
        assert dh.drivers_at(0.7) == pytest.approx([0.0, math.pi])

    @pytest.mark.parametrize("kwargs", [
        {"times": []},
        {"times": [0.0, math.nan, 1.0]},
        {"times": [0.0, 1.0, math.inf]},
        {"angles": [[0.0], [math.nan], [1.0]]},
        {"angles": [[0.0], [1.0], [-math.inf]]},
    ], ids=["no-time", "nan-time", "inf-time", "nan-angle", "inf-angle"])
    def test_rejects_bad_input(self, kwargs):
        args = {"times": [0.0, 0.5, 1.0], "angles": [[0.0], [0.5], [1.0]],
                **kwargs}
        with pytest.raises(ValueError):
            DriveHistory(**args)

    @pytest.mark.parametrize("rows", [2, 4])
    def test_rejects_one_row_too_few_or_many(self, rows):
        with pytest.raises(ValueError,
                           match="^one angle row per time stamp required$"):
            DriveHistory(times=[0.0, 0.5, 1.0], angles=np.zeros((rows, 2)))

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_drivers_at_matches_interp(self, n):
        # the lift read by np.interp equals each column's own unwrap read by
        # np.interp, bit for bit, on a non-uniform grid: random times, every
        # knot and both endpoints
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
        dh = DriveHistory(times=np.array([0.0, 0.7]), angles=np.tile(
            wrap_angle(equally_spaced(3) + 0.4), (2, 1)))
        t = np.concatenate([np.random.default_rng(0).uniform(0, 0.7, 1000),
                            [0.0, 0.7]])
        np.testing.assert_array_equal(dh.drivers_at(t),
                                      interp_reference(dh, t))


class TestTraceLandsOnDriver:
    """A check that depends on the drive, unlike |G_t'(0)| = e^{N t}: the
    forward flow to t - eps carries the trace point gamma_j(t) to within
    O(sqrt(eps)) of its own driver e^{i theta_j(t - eps)}."""

    @pytest.mark.parametrize("kappa", [2.0, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lands_near_own_driver(self, n, kappa):
        rec = simulate(ProcessParams(n_particles=n, kappa=kappa, dt=1e-3,
                                     seed=1), t_end=0.6)
        drive = DriveHistory(rec.times, rec.states)
        # every (curve, time, eps) at once: the flow treats its points
        # independently
        j, t, eps = (a.ravel() for a in np.meshgrid(
            np.arange(n), [0.3, 0.6], [1e-2, 1e-3], indexing="ij"))
        z = np.array([p.z for p in trace_points(drive, j, t)])
        w, _, why = reference_flow(drive, z, np.zeros(t.size), t - eps, 1.0,
                                   0.2, np.inf)
        tip = np.exp(1j * drive.drivers_at(t - eps)[np.arange(t.size), j])
        assert (why == "done").all()
        assert (np.abs(w - tip) <= 6.0 * np.sqrt(eps)).all()


class TestTraceExact:
    """Traces with closed forms.  One driver held at theta gives the radial
    slit with tip e^{i theta}(1-s)/(1+s), s = sqrt(1 - e^{-t}).  N equally
    spaced drivers held still give N slits: G^N is that one-slit map at
    time N^2 t, so gamma_j(t) = e^{i theta_j} ((1-s)/(1+s))^{1/N} with
    s = sqrt(1 - e^{-N^2 t})."""

    def test_single_slit(self):
        # the first drive has the knots 0 and 1 alone; the second drive
        # holds the same angle on 300 uneven knots, whose maps compose
        # exactly
        knots = np.concatenate([[0.0], np.cumsum(
            np.random.default_rng(5).uniform(1e-4, 6e-3, 300))])
        knots /= knots[-1]
        for dh in (DriveHistory(times=np.array([0.0, 1.0]),
                                angles=np.full((2, 1), 0.7)),
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
        theta = wrap_angle(equally_spaced(n) + 0.3)
        dh = DriveHistory(times=knots, angles=np.tile(theta, (knots.size, 1)))
        times = np.array([0.05, 0.3705, 1.0])
        s = np.sqrt(1.0 - np.exp(-n * n * times))
        for j in range(n):
            exact = np.exp(1j * theta[j]) * ((1.0 - s) / (1.0 + s)) ** (1 / n)
            pts = trace_points(dh, j, times)
            np.testing.assert_allclose([p.z for p in pts], exact, rtol=0,
                                       atol=1e-3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_held_drivers_error_halves_with_dt(self, n):
        # one driver held still is traced exactly; N >= 2 held still are
        # not, as the one-slit maps of one interval do not commute, and
        # the splitting's error at t = 0.25 halves with the knot spacing
        s = math.sqrt(-math.expm1(-n * n * 0.25))
        tip = ((1.0 - s) / (1.0 + s)) ** (1 / n)
        errs = []
        for steps in (250, 500):
            knots = np.linspace(0.0, 0.25, steps + 1)
            dh = DriveHistory(times=knots, angles=np.tile(
                equally_spaced(n), (knots.size, 1)))
            errs.append(abs(trace_points(dh, 0, 0.25)[0].z - tip))
        if n == 1:
            assert max(errs) < 1e-12
        else:
            assert 1.9 <= errs[0] / errs[1] <= 2.1


class TestSlitDrivers:
    """slit_drivers moves each driver by its increment and then every other
    driver by that curve's exact slit map on the circle."""

    def test_one_driver_takes_its_increment(self):
        assert slit_drivers([0.5], [0.25], 1e-2) == pytest.approx([0.75])

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_zipper_undoes_the_step(self, n):
        # the reference zipper's inverse single-slit maps, applied curve
        # by curve in reverse with each increment taken back, recover the
        # start.  On the circle itself the principal root cannot tell the
        # two sides of the slit apart, so the points start a hair inside
        # it.
        rng = np.random.default_rng(n)
        theta = equally_spaced(n) + rng.uniform(-0.3, 0.3, n)
        db = 0.05 * rng.standard_normal(n)
        phi = slit_drivers(theta, db, 0.02)
        for j in reversed(range(n)):
            others = np.arange(n) != j
            z = reference_unzip((1.0 - 1e-9) * np.exp(1j * phi[others]),
                                np.full((n - 1, 1), np.exp(1j * phi[j])),
                                math.exp(-0.02))
            assert np.abs(np.abs(z) - 1.0).max() < 1e-7
            phi[others] += np.angle(z * np.exp(-1j * phi[others]))
            phi[j] -= db[j]
        np.testing.assert_allclose(phi, theta, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_drift_is_dysons(self, n):
        # with no increments, one step of dt moves the drivers by
        # _drift * dt + O(dt^2), along axis 0 for a stack of paths
        rng = np.random.default_rng(10 + n)
        theta = (equally_spaced(n)[:, None]
                 + rng.uniform(-0.3, 0.3, (n, 4)))
        dt = 1e-5
        step = slit_drivers(theta, np.zeros((n, 4)), dt) - theta
        np.testing.assert_allclose(step / dt, dyson._drift(theta), rtol=0,
                                   atol=1e-3)

    def test_keeps_the_lift(self):
        # a driver just below 2*pi stays there, not folded back to 0
        theta = np.array([TWO_PI - 0.1, 2.0])
        phi = slit_drivers(theta, np.zeros(2), 1e-3)
        assert abs(phi[0] - theta[0]) < 1e-2


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

    def test_rejects_negative_time(self, drive):
        # a time before the drive has no interval to walk, and is still
        # checked
        with pytest.raises(ValueError,
                           match="^time outside the recorded drive$"):
            trace_points(drive, 0, [0.1, -1e-9])

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
    """The zipper trace must agree with the RK4 reverse flow of
    reference_flow to a stated tolerance."""

    @pytest.fixture(scope="class", params=[(n, k) for n in (1, 2, 4)
                                           for k in (2.0, 6.0)],
                    ids=lambda p: f"n{p[0]}-k{p[1]:g}")
    def case(self, request):
        n, kappa = request.param
        rec = simulate(ProcessParams(n_particles=n, kappa=kappa, dt=1e-3,
                                     seed=3), t_end=0.3)
        return DriveHistory(rec.times, rec.states)

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


class TestZipperMatchesReference:
    """trace_points carries each point in the Cayley coordinate and changes
    driver by one Moebius step; reference_trace walks the same maps in z.
    The two must agree to round-off."""

    @staticmethod
    def sample_times(dh, kind):
        if kind == "mixed":
            # time 0, inside the first knot interval, exactly on knots,
            # between knots and at the drive's end
            return np.array([0.0, 0.37 * dh.times[1], dh.times[1],
                             dh.times[2], dh.times[dh.times.size // 2],
                             0.1234567, dh.times[-2], dh.duration])
        if kind == "every-knot":
            # one time in each knot interval: the walking prefix grows at
            # every knot, so each run of knots is one knot long
            return 0.5 * (dh.times[:-1] + dh.times[1:])
        # all in the last knot interval: one run over every knot
        return dh.times[-2] + np.array([0.25, 0.5, 1.0]) * (dh.times[-1]
                                                           - dh.times[-2])

    def assert_matches(self, dh, kind="mixed"):
        times = self.sample_times(dh, kind)
        j = np.repeat(np.arange(dh.n), times.size)
        t = np.tile(times, dh.n)
        pts = trace_points(dh, j, t)
        assert all(p.status is PointStatus.INTERIOR for p in pts)
        z = np.array([p.z for p in pts])
        np.testing.assert_allclose(z, reference_trace(dh, j, t), rtol=0,
                                   atol=1e-12)

    # the mixed times keep the plain n-kappa-seed id
    @pytest.mark.parametrize("n, kappa, seed, kind", [
        pytest.param(n, kappa, seed, kind, id=f"{n}-{kappa}-{seed}"
                     + ("" if kind == "mixed" else f"-{kind}"))
        for kind in ("mixed", "every-knot", "last-knot")
        for n in (1, 2, 3, 4, 5) for kappa in (2.0, 3.0, 6.0, 8.0)
        for seed in (11, 12)])
    def test_dyson_drive(self, n, kappa, seed, kind):
        rec = simulate(ProcessParams(n_particles=n, kappa=kappa, dt=1e-3,
                                     seed=seed), t_end=0.3)
        self.assert_matches(DriveHistory(rec.times, rec.states), kind)

    @pytest.mark.parametrize("gather", [1, 7, 100])
    def test_gathers_of_any_size_give_the_same_bits(self, monkeypatch,
                                                    gather):
        rec = simulate(ProcessParams(n_particles=3, kappa=6.0, dt=1e-3,
                                     seed=13), t_end=0.3)
        dh = DriveHistory(rec.times, rec.states)
        times = np.concatenate([self.sample_times(dh, kind) for kind in
                                ("mixed", "every-knot", "last-knot")])
        j = np.arange(times.size) % dh.n
        whole = trace_points(dh, j, times)
        monkeypatch.setattr(loewner, "_ALPHA_GATHER", gather)
        assert trace_points(dh, j, times) == whole

    def test_antipodal_drivers_held_still(self):
        # drivers at 0 and pi: each change of driver has alpha =
        # i tan(pi/2), about 1.6e16i, and must neither overflow nor warn
        assert abs(math.tan(0.5 * math.pi)) > 1e16
        knots = np.linspace(0.0, 1.0, 201)
        self.assert_matches(DriveHistory(
            times=knots, angles=np.tile([0.0, math.pi], (knots.size, 1))))
