"""Radial Loewner flows in the unit disc with one or many driving points.

The joint conformal map G_t removing N growing boundary curves satisfies

    dG/dt = -G * sum_j (G + e^{i theta_j(t)}) / (G - e^{i theta_j(t)})

with the driving angles supplied by a :class:`DriveHistory` (typically a
Dyson trajectory).  Forward flow, the derivative at the origin, the
joint-versus-sequential composition defect and reverse-flow traces live
here; forward images and trace points share one batched RK4 kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import cmath
import math

import numpy as np

from .dyson import AngleConfig, TrajectoryRecord, wrap_angle

MIN_FLOW_STEP = 1e-12
MAX_FLOW_STEPS = 200_000  # step budget of each point in _flow
TRACE_OFFSET = 1e-3       # trace seeds start this far inside the circle
ORIGIN_STEP = 1e-3        # fixed RK4 step of derivative_at_origin
_DONE, _STALLED, _LEFT, _BUDGET = range(4)  # why _flow stopped a point


class PointStatus(Enum):
    INTERIOR = "interior"
    SWALLOWED = "swallowed"
    UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class FlowPoint:
    """Image of a point under the flow, or its swallowing time."""

    z: complex
    status: PointStatus
    swallow_time: float | None = None


@dataclass(frozen=True)
class DriveHistory:
    """Time-stamped driving angles, sufficient to replay the flow.

    ``angles`` rows are wrapped to [0, 2*pi); an unwrapped lift is kept
    internally so that linear interpolation between samples never crosses a
    branch cut.
    """

    times: np.ndarray
    angles: np.ndarray  # shape (len(times), N), wrapped
    kappa: float
    dt_max: float = 1e-3

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        a = np.atleast_2d(np.asarray(self.angles, dtype=float))
        if t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
            raise ValueError("times must increase strictly from 0")
        if a.shape[0] != t.size:
            raise ValueError("one angle row per time stamp required")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "angles", wrap_angle(a))
        object.__setattr__(self, "_lift", np.unwrap(a, axis=0))

    @property
    def n(self) -> int:
        return self.angles.shape[1]

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    def drivers_at(self, t) -> np.ndarray:
        """Angles at time(s) t in [0, duration], NaN rejected, interpolated
        in the lift: shape (*t, N)."""
        t = np.asarray(t)
        if not ((t >= 0.0) & (t <= self.duration + 1e-12)).all():
            raise ValueError("time outside the recorded drive")
        out = np.empty(np.shape(t) + (self.n,))
        for j in range(self.n):
            out[..., j] = np.interp(t, self.times, self._lift[:, j])
        return out

    @classmethod
    def from_trajectory(cls, rec: TrajectoryRecord) -> "DriveHistory":
        return cls(times=rec.times, angles=rec.states,
                   kappa=rec.params.kappa, dt_max=rec.params.dt)

    @classmethod
    def constant(cls, config: AngleConfig, kappa: float, duration: float,
                 dt_max: float = 1e-3) -> "DriveHistory":
        times = np.array([0.0, duration])
        angles = np.vstack([config.angles, config.angles])
        return cls(times=times, angles=angles, kappa=kappa, dt_max=dt_max)


def joint_rhs(g, drivers):
    """Right-hand side -g * sum_j (g + e^{i theta_j})/(g - e^{i theta_j}),
    for points of shape (...) and drivers of shape (..., N)."""
    g = np.asarray(g, dtype=complex)[..., None]
    e = np.exp(1j * np.asarray(drivers, dtype=float))
    denom = g - e
    if (denom == 0.0).any():
        raise ZeroDivisionError("g sits on a driving singularity")
    return -g[..., 0] * ((g + e) / denom).sum(axis=-1)


def _driver_distance(g, drivers):
    e = np.exp(1j * np.asarray(drivers, dtype=float))
    return np.abs(np.asarray(g)[..., None] - e).min(axis=-1)


def _rk4(z, dt, f, drivers):
    """RK4 step of dz/dt = f(z, theta), theta at start, middle, end."""
    start, mid, end = drivers
    k1 = f(z, start)
    k2 = f(z + 0.5 * dt * k1, mid)
    k3 = f(z + 0.5 * dt * k2, mid)
    k4 = f(z + dt * k3, end)
    return z + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _flow(drive: DriveHistory, w, start, span, direction: float, c: float,
          exit_radius: float):
    """Adaptive RK4 flow of many points; returns (points, elapsed, why).

    Point k starts at w[k] and runs for span[k], reading the drive at
    start[k] + direction * elapsed (-1: backwards, negated field); the step
    is min(dt_max, c d^2, time left), d the distance to the nearest driver.
    It stops below MIN_FLOW_STEP, when not finite or beyond exit_radius
    (value kept) or after MAX_FLOW_STEPS; lesser excursions are clipped.
    """
    def drivers(t0, u):
        return drive.drivers_at(
            np.clip(t0 + direction * u, 0.0, drive.duration))

    w = np.array(w, dtype=complex)
    reached, why = np.zeros(w.shape), np.full(w.shape, _DONE)
    live = np.flatnonzero(span > 1e-15)
    for _ in range(MAX_FLOW_STEPS):
        if live.size == 0:
            break
        t0, z, s = start[live], w[live], reached[live]
        th = drivers(t0, s)
        d = _driver_distance(z, th)
        h = np.minimum(np.minimum(drive.dt_max, c * d * d), span[live] - s)
        ok = h >= MIN_FLOW_STEP
        why[live[~ok]] = _STALLED
        live, t0, z, s, h, th = (a[ok] for a in (live, t0, z, s, h, th))
        z = _rk4(z, h, lambda x, theta: direction * joint_rhs(x, theta),
                 (th, drivers(t0, s + 0.5 * h), drivers(t0, s + h)))
        r = np.abs(z)
        ok = np.isfinite(z) & (r <= exit_radius)
        why[live[~ok]] = _LEFT
        out = ok & (r > 1.0)
        z[out] /= r[out]
        w[live], reached[live] = z, np.where(ok, s + h, s)
        live = live[ok & (reached[live] < span[live] - 1e-15)]
    why[live] = _BUDGET
    return w, reached, why


def evolve_point(z: complex, drive: DriveHistory, t: float) -> FlowPoint:
    """Forward image of ``z`` at time ``t``: SWALLOWED when the step gets
    too small near a driver, UNRESOLVED when the flow stops otherwise."""
    if abs(z) > 1.0 + 1e-12:
        raise ValueError("z must lie in the closed unit disc")
    drive.drivers_at(t)  # rejects a time outside the drive
    (g,), (s,), (why,) = _flow(drive, [z], np.zeros(1), np.full(1, t),
                               1.0, 0.2, np.inf)
    if why == _STALLED:
        return FlowPoint(complex(g), PointStatus.SWALLOWED, float(s))
    return FlowPoint(complex(g), PointStatus.INTERIOR if why == _DONE
                     else PointStatus.UNRESOLVED)


def derivative_at_origin(drive: DriveHistory, t: float) -> float:
    """|G_t'(0)| by integrating the variational equation along the flow.

    The origin is a fixed point, so the linearization is integrated with
    the base point held by the flow itself; the result must follow e^{N t}.
    """
    drive.drivers_at(t)  # rejects a time outside the drive

    def f(state, drivers):
        g, w = state
        e = np.exp(1j * drivers)
        jac = -np.sum((g + e) / (g - e)) - g * np.sum(-2.0 * e / (g - e) ** 2)
        return np.array([joint_rhs(g, drivers), jac * w])

    state = np.array([0j, 1.0 + 0j])
    s = 0.0
    while s < t - 1e-15:
        h = min(ORIGIN_STEP, t - s)
        stages = np.minimum([s, s + 0.5 * h, s + h], drive.duration)
        state = _rk4(state, h, f, drive.drivers_at(stages))
        s += h
    return abs(state[1])


def composition_defect(config: AngleConfig, kappa: float, dt: float,
                       probes, noise) -> float:
    """Max distance between the joint Euler step and the sequential one.

    The sequential route evolves one single-curve map at a time over dt,
    applying its Brownian part as an exact rotation to the point and to the
    other driving angles, then undoes the accumulated rotation globally
    with the same stored increments.  The defect contracts at O(dt^2).
    """
    probes = np.atleast_1d(np.asarray(probes, dtype=complex))
    noise = np.asarray(noise, dtype=float)
    th0 = config.angles.astype(float)
    n = th0.size
    if noise.shape != (n,):
        raise ValueError("need one noise draw per curve")
    if np.any(np.abs(probes) > 1.0) or np.any(
            _driver_distance(probes, th0) < 1e-3):
        raise ValueError("probe outside the disc or too near a driver")
    d_b = math.sqrt(kappa * dt) * noise

    # joint Euler step of the rotated-frame system
    w_joint = probes + dt * joint_rhs(probes, th0)

    # sequential composition with exact rotations
    w = probes.astype(complex)
    th = th0.copy()
    for j in range(n):
        ej = cmath.exp(1j * th[j])
        w = (w - dt * w * (w + ej) / (w - ej)) * cmath.exp(-1j * d_b[j])
        for k in range(n):
            if k != j:
                th[k] += dt / math.tan((th[k] - th[j]) / 2.0) - d_b[j]
    w_seq = w * cmath.exp(1j * d_b.sum())

    return float(np.max(np.abs(w_joint - w_seq)))


def composition_defect_slope(config: AngleConfig, kappa: float, dts,
                             probes, noise) -> float:
    """Fitted log-log slope of the composition defect over the dt grid."""
    dts = np.asarray(dts, dtype=float)
    defects = np.array([composition_defect(config, kappa, d, probes, noise)
                        for d in dts])
    slope, _ = np.polyfit(np.log(dts), np.log(defects), 1)
    return float(slope)


def trace_points(drive: DriveHistory, j: int, sample_times
                 ) -> list[FlowPoint]:
    """Approximate trace of curve ``j`` via the reverse-time flow.

    For each time t the reverse flow replays the drive backwards from
    TRACE_OFFSET inside e^{i theta_j(t)}, all times in one batch; a run
    that stops early, or leaves the disc by over 1e-6, is UNRESOLVED.
    """
    if not 0 <= j < drive.n:
        raise ValueError(f"curve index {j} outside 0..{drive.n - 1}")
    t = np.atleast_1d(np.asarray(sample_times, dtype=float))
    seed = np.exp(1j * drive.drivers_at(t)[..., j])
    w0 = np.where(t == 0.0, seed, seed * (1.0 - TRACE_OFFSET))
    w, _, why = _flow(drive, w0, t, t, -1.0, 0.05, 1.0 + 1e-6)
    return [FlowPoint(complex(x), PointStatus.INTERIOR if r == _DONE
                      else PointStatus.UNRESOLVED) for x, r in zip(w, why)]
