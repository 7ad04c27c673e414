"""Radial Loewner flows in the unit disc with one or many driving points.

The joint conformal map G_t removing N growing boundary curves satisfies

    dG/dt = -G * sum_j (G + e^{i theta_j(t)}) / (G - e^{i theta_j(t)})

with the driving angles supplied by a :class:`DriveHistory` (typically a
Dyson trajectory).  The origin is fixed, G_t(0) = 0, and the field's
derivative there is N whatever the drive, so |G_t'(0)| = e^{N t} exactly.

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

On the circle the single-slit map is the same map used forward: a
boundary point e^{i phi} moves by phi' = cot((phi - theta)/2), so
cos((phi - theta)/2) shrinks by e^{-tau/2} over a time tau.
:func:`slit_drivers` grows the N curves one at a time with it, each
curve's map carrying the other drivers along the circle; that is how the
curves drive each other by Dyson's drift.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np

from . import _real
from .dyson import wrap_angle


class PointStatus(Enum):
    INTERIOR = "interior"
    UNRESOLVED = "unresolved"


@dataclass(frozen=True)
class FlowPoint:
    """A trace point and whether it came out finite."""

    z: complex
    status: PointStatus


@dataclass(frozen=True)
class DriveHistory:
    """Time-stamped driving angles, sufficient to replay the flow.

    ``angles`` rows are wrapped to [0, 2*pi); an unwrapped lift is kept
    internally, and np.interp reads it, so that linear interpolation between
    samples never crosses a branch cut.  Times must be finite and increase
    strictly from 0, and angles must be finite.
    """

    times: np.ndarray
    angles: np.ndarray  # shape (len(times), N), wrapped

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
        in the lift by np.interp, one column at a time: shape (*t, N)."""
        t = np.asarray(t)
        if not ((t >= 0.0) & (t <= self.duration + 1e-12)).all():
            raise ValueError("time outside the recorded drive")
        return np.stack([np.interp(t, self.times, col)
                         for col in self._lift.T], axis=-1)


def slit_drivers(theta, db, dt):
    """One step of the N drivers, angles along axis 0, grown one curve at a
    time: driver j takes its increment db[j], then curve j's slit map over
    dt moves every other driver along the circle, exactly, by
    cos((phi - theta_j)/2) -> e^{-dt/2} cos((phi - theta_j)/2).  Summed
    over j this is a Lie splitting of the Dyson SDE with increments db.
    db must have the shape of theta, and dt must be positive and finite."""
    theta = np.array(theta, dtype=float)
    if np.shape(db) != theta.shape:
        raise ValueError("db must have the shape of theta")
    q = math.exp(-0.5 * _real("dt", dt))
    for j in range(theta.shape[0]):
        theta[j] += db[j]
        u = 0.5 * wrap_angle(theta - theta[j])
        move = 2.0 * (np.arccos(q * np.cos(u)) - u)
        move[j] = 0.0
        theta += move
    return theta


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
