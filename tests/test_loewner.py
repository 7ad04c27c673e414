import cmath
import math

import numpy as np
import pytest

from sle_dyson.dyson import ProcessParams, equally_spaced, simulate
from sle_dyson.loewner import (DriveHistory, PointStatus,
                               composition_defect, composition_defect_slope,
                               derivative_at_origin, evolve_point, joint_rhs,
                               trace_points)


@pytest.fixture(scope="module")
def drive():
    rec = simulate(ProcessParams(n_particles=3, kappa=4.0, dt=1e-3, seed=1),
                   t_end=0.3)
    return DriveHistory.from_trajectory(rec)


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
                         angles=np.zeros((3, 1)), kappa=2.0)

    def test_out_of_range(self, drive):
        with pytest.raises(ValueError):
            drive.drivers_at(drive.duration + 1.0)

    def test_constant_drive(self):
        dh = DriveHistory.constant(equally_spaced(2), 2.0, 1.0)
        assert dh.drivers_at(0.7) == pytest.approx([0.0, math.pi])


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

    @pytest.mark.parametrize("t", [math.nan, -0.1])
    def test_rejects_bad_time(self, drive, t):
        with pytest.raises(ValueError):
            evolve_point(0.2 + 0.1j, drive, t)


class TestDerivativeAtOrigin:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exponential_rate(self, n):
        dh = DriveHistory.constant(equally_spaced(n), 2.0, 0.5)
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

    @pytest.mark.parametrize("j", [-1, 3])
    def test_rejects_bad_curve_index(self, drive, j):
        with pytest.raises(ValueError):
            trace_points(drive, j, [0.1])

    def test_batch_matches_single_calls(self, drive):
        # the batch must not couple its points
        times = np.linspace(0.0, drive.duration, 13)
        for t, pt in zip(times, trace_points(drive, 2, times)):
            (single,) = trace_points(drive, 2, [t])
            assert pt.status is single.status
            assert abs(pt.z - single.z) <= 1e-14
