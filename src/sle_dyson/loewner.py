"""Radial Loewner flows in the unit disc with one or many driving points.

The joint conformal map G_t removing N growing boundary curves satisfies

    dG/dt = -G * sum_j (G + e^{i theta_j(t)}) / (G - e^{i theta_j(t)})

with the driving angles supplied by a :class:`DriveHistory` (typically a
Dyson trajectory).  Forward flow, the derivative at the origin, the
joint-versus-sequential composition defect and traces live here.

A forward image is one adaptive RK4 loop; each step reads the drive at
its middle and end only, its start being the last step's end.

Traces are unzipped with explicit maps (the zipper method of Kennedy,
J. Stat. Phys. 128 (2007) 1125, and Marshall & Rohde, SIAM J. Numer.
Anal. 45 (2007) 2577).  For one driver e held constant, w/(1+w)^2 with
w = g/e grows by e^t, so in the Cayley coordinate c = (e-g)/(e+g) the
inverse map over a time tau is c -> sqrt(e^{-tau} c^2 + 1 - e^{-tau}); the
principal root keeps the image in the closed disc.  A trace point starts
on its own driver and walks the drive's knot intervals backwards, each
driver held at its value at the interval's right end, composing the N
single-driver maps with its own curve's first.  This is exact for a
constant drive and a first-order splitting of the joint flow otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import cmath
import math

import numpy as np

from .dyson import AngleConfig, TrajectoryRecord, wrap_angle

MIN_FLOW_STEP = 1e-12
MAX_FLOW_STEPS = 200_000  # step budget of evolve_point
ORIGIN_STEP = 1e-3        # fixed RK4 step of derivative_at_origin


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
    branch cut.  Times must be finite and increase strictly from 0, angles
    finite and ``dt_max`` positive.
    """

    times: np.ndarray
    angles: np.ndarray  # shape (len(times), N), wrapped
    dt_max: float = 1e-3

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        a = np.atleast_2d(np.asarray(self.angles, dtype=float))
        if (t.size == 0 or t[0] != 0.0 or not np.isfinite(t).all()
                or np.any(np.diff(t) <= 0.0)):
            raise ValueError("times must be finite and increase strictly "
                             "from 0")
        if a.shape[0] != t.size:
            raise ValueError("one angle row per time stamp required")
        if not np.isfinite(a).all():
            raise ValueError("angles must be finite")
        if not self.dt_max > 0.0:
            raise ValueError("dt_max must be positive")
        lift = np.unwrap(a, axis=0)
        # np.interp's slopes, with a zero row past the last knot so that
        # the last knot and beyond read the last row
        slope = np.zeros_like(lift)
        slope[:-1] = np.diff(lift, axis=0) / np.diff(t)[:, None]
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "angles", wrap_angle(a))
        object.__setattr__(self, "_lift", lift)
        object.__setattr__(self, "_slope", slope)

    @property
    def n(self) -> int:
        return self.angles.shape[1]

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    def drivers_at(self, t) -> np.ndarray:
        """Angles at time(s) t in [0, duration], NaN rejected, interpolated
        in the lift: shape (*t, N).

        One search finds every time's interval for all N columns; the
        value is np.interp's, slope * (t - t_i) + theta_i, bit for bit.
        """
        t = np.asarray(t)
        if not ((t >= 0.0) & (t <= self.duration + 1e-12)).all():
            raise ValueError("time outside the recorded drive")
        i = np.searchsorted(self.times, t, side="right") - 1
        return self._slope[i] * (t - self.times[i])[..., None] + self._lift[i]

    @classmethod
    def from_trajectory(cls, rec: TrajectoryRecord) -> "DriveHistory":
        return cls(times=rec.times, angles=rec.states, dt_max=rec.params.dt)

    @classmethod
    def constant(cls, config: AngleConfig, duration: float,
                 dt_max: float = 1e-3) -> "DriveHistory":
        times = np.array([0.0, duration])
        angles = np.vstack([config.angles, config.angles])
        return cls(times=times, angles=angles, dt_max=dt_max)


def joint_rhs(g, drivers):
    """Right-hand side -g * sum_j (g + e^{i theta_j})/(g - e^{i theta_j}),
    for points of shape (...) and drivers of shape (..., N)."""
    return _rhs(np.asarray(g, dtype=complex),
                np.exp(1j * np.asarray(drivers, dtype=float)))


def _rhs(g, e):
    """joint_rhs with the driving points e = e^{i theta} given."""
    g = g[..., None]
    denom = g - e
    if (denom == 0.0).any():
        raise ZeroDivisionError("g sits on a driving singularity")
    return -g[..., 0] * ((g + e) / denom).sum(axis=-1)


def _driver_distance(g, e):
    """Distance from each point g to its nearest driving point e."""
    return np.abs(np.asarray(g)[..., None] - e).min(axis=-1)


def _rk4(z, dt, f, drivers):
    """RK4 step of dz/dt = f(z, drive), the drive given at start, middle
    and end (as angles or as phases e^{i theta}, whichever f takes)."""
    start, mid, end = drivers
    k1 = f(z, start)
    k2 = f(z + 0.5 * dt * k1, mid)
    k3 = f(z + 0.5 * dt * k2, mid)
    k4 = f(z + dt * k3, end)
    return z + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def evolve_point(z: complex, drive: DriveHistory, t: float) -> FlowPoint:
    """Forward image of ``z`` at time ``t`` by adaptive RK4.

    The step is min(dt_max, 0.2 d^2, time left), d the distance to the
    nearest driver; it reads the drive at its middle and end, its start
    being the last step's end, and a step that ends outside the disc is
    clipped back to the circle.  SWALLOWED when the step falls below
    MIN_FLOW_STEP, UNRESOLVED when the image is not finite or after
    MAX_FLOW_STEPS steps.
    """
    if not abs(z) <= 1.0 + 1e-12:
        raise ValueError("z must lie in the closed unit disc")
    drive.drivers_at(t)  # rejects a time outside the drive
    # the point, time and step are length-1 arrays and the phases (1, N):
    # numpy's scalar path rounds some complex products differently
    g, s = np.full(1, z, dtype=complex), np.zeros(1)
    e = np.exp(1j * drive.drivers_at(s))
    for _ in range(MAX_FLOW_STEPS):
        if s >= t - 1e-15:
            break
        d = _driver_distance(g, e)
        h = np.minimum(np.minimum(drive.dt_max, 0.2 * d * d), t - s)
        if h < MIN_FLOW_STEP:
            return FlowPoint(g.item(), PointStatus.SWALLOWED, s.item())
        mid, end = np.exp(1j * drive.drivers_at(
            np.minimum(np.stack([s + 0.5 * h, s + h]), drive.duration)))
        g = _rk4(g, h, _rhs, (e, mid, end))
        if not np.isfinite(g).all():
            return FlowPoint(g.item(), PointStatus.UNRESOLVED)
        if np.abs(g) > 1.0:
            g /= np.abs(g)
        s, e = s + h, end
    return FlowPoint(g.item(), PointStatus.INTERIOR if s >= t - 1e-15
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
        return np.array([_rhs(g, e), jac * w])

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
            _driver_distance(probes, np.exp(1j * th0)) < 1e-3):
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


def _unzip(z, e, q):
    """Compose the inverse single-slit maps of the drivers e[..., 0],
    e[..., 1], ... in that order, each over a time tau with q = e^{-tau}."""
    for r in range(e.shape[-1]):
        er = e[..., r]
        c = (er - z) / (er + z)
        c = np.sqrt(q * c * c + (1.0 - q))
        z = er * (1.0 - c) / (1.0 + c)
    return z


def trace_points(drive: DriveHistory, j, sample_times) -> list[FlowPoint]:
    """Trace of curve(s) ``j``, gamma_j(t) = G_t^{-1}(e^{i theta_j(t)}), by
    the zipper.

    The integer curve index ``j`` broadcasts against ``sample_times``; the
    points come back in the flattened broadcast order.  Each (curve, time)
    point starts exactly on its own driver e^{i theta_j(t)} and walks the
    drive's knot intervals backwards to time 0, the first one being the
    partial interval from the last knot before t to t.  On each interval
    every driver is held at its right-end value and the N single-driver
    inverse maps are composed in the order j, j+1, ..., j-1 (mod N): the
    point's own map must come first, since any other moves a seed on the
    circle along the circle and off its slit.  All points advance together,
    one interval per loop iteration.  The result is exact for a constant
    drive; for a Dyson drive it is the trace of the piecewise-constant
    drive, within a few 1e-2 of the adaptive RK4 reverse flow of the
    linearly interpolated one.  A point that comes out not finite is
    UNRESOLVED.
    """
    j = np.asarray(j)
    if j.dtype.kind not in "iu":
        raise ValueError(f"curve index must be an integer, not {j.dtype}")
    bad = j[(j < 0) | (j >= drive.n)]
    if bad.size:
        raise ValueError(f"curve index {bad.flat[0]} outside "
                         f"0..{drive.n - 1}")
    j, t = (a.ravel() for a in np.broadcast_arrays(
        j, np.atleast_1d(np.asarray(sample_times, dtype=float))))
    e = np.exp(1j * drive.drivers_at(t))
    # own[p, r]: the curve whose map point p applies r-th, its own first
    own = (j[:, None] + np.arange(drive.n)) % drive.n
    e = np.take_along_axis(e, own, axis=1)
    z = e[:, 0].copy()
    # last knot before t: the point's first interval is [times[k], t]
    k = np.searchsorted(drive.times, t) - 1
    go = k >= 0
    z[go] = _unzip(z[go], e[go], np.exp(drive.times[k[go]] - t[go]))
    # then the whole intervals [times[i-1], times[i]] for i = k, ..., 1;
    # sorted by k, the points still walking are a prefix
    order = np.argsort(-k, kind="stable")
    zs, ks, owns = z[order], k[order], own[order]
    phase = np.exp(1j * drive._lift)
    decay = np.exp(-np.diff(drive.times))
    for i in range(ks.max(initial=0), 0, -1):
        m = np.count_nonzero(ks >= i)
        zs[:m] = _unzip(zs[:m], phase[i][owns[:m]], decay[i - 1])
    z[order] = zs
    return [FlowPoint(complex(x), PointStatus.INTERIOR if ok
                      else PointStatus.UNRESOLVED)
            for x, ok in zip(z, np.isfinite(z))]
