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
single-driver maps with its own curve's first.  This is exact for one
driver held still, and a first-order splitting of the joint flow for N >= 2.
The point is carried in c from start to end: the coordinate about the
next driver e_s is c -> (alpha + c)/(1 + alpha c), with
alpha = (e_s - e_r)/(e_s + e_r) = i tan((theta_s - theta_r)/2), a number
of the drive alone, so each change of driver is one Moebius step from a
per-knot table and the point turns back into z = e(1 - c)/(1 + c) once.

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

# trace_points gathers the alphas of at most this many (knot, point)
# pairs at once, N complex numbers each: 2 MB at N = 4.
_ALPHA_GATHER = 2 ** 15


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


def _alpha(dtheta):
    """The driver change c -> (alpha + c)/(1 + alpha c) from the Cayley
    coordinate about e^{i theta_r} to that about e^{i theta_s}, with
    dtheta = theta_s - theta_r: alpha = (e_s - e_r)/(e_s + e_r)
    = i tan(dtheta/2), the same for any lift of the angles."""
    return 1j * np.tan(0.5 * dtheta)


def _interval(c, w, q, alphas):
    """Apply in place to the Cayley coordinates c the inverse single-slit
    maps of one interval, each over a time tau with q = e^{-tau} and each
    followed by its driver change: c -> sqrt(q c^2 + 1 - q), then
    c -> (alpha + c)/(1 + alpha c) for alpha in ``alphas``.  w is scratch
    of c's shape.  A scalar q is best a Python complex, as is the 1 here:
    numpy casts a float scalar to complex in each ufunc call, about a
    tenth of the call's cost on 40 points."""
    for a in alphas:
        np.multiply(c, c, out=w)
        w *= q
        w += 1 - q
        np.sqrt(w, out=c)
        np.multiply(a, c, out=w)
        w += 1 + 0j
        c += a
        c /= w


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
    circle along the circle and off its slit.  The point is carried in the
    Cayley coordinate about the driver of its next map, from c = 0 on its
    own driver to c about driver j at time 0, where it turns back into
    z = e(1 - c)/(1 + c); each change of driver is one Moebius step, read
    from a per-knot table built once per call.  All points advance
    together, one interval per loop iteration; the knots over which the
    same points walk form a run, whose alphas are gathered in one take.
    It is exact for one driver held still; for N >= 2, held still or not,
    a first-order splitting of the joint flow, and on a Dyson drive within
    a few 1e-2 of the adaptive RK4 reverse flow of the interpolated drive.
    A point that comes out not finite is UNRESOLVED.
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
    # sorted by the last knot before t, k, the points still walking at any
    # knot are a prefix; a point's first interval is [times[k], t]
    k = np.searchsorted(drive.times, t) - 1
    order = np.argsort(-k, kind="stable")
    j, t, k, lift = j[order], t[order], k[order], drive._lift
    n = drive.n
    # own[p, r]: the curve whose map point p applies r-th, its own first
    own = (j[:, None] + np.arange(n)) % n
    c = np.zeros(t.size, dtype=complex)
    w = np.empty_like(c)
    # the first interval holds the drivers at t and hands over to knot k's
    # driver j; every t goes through drivers_at, which rejects a time off
    # the drive even where k = -1
    m = np.count_nonzero(k >= 0)
    theta = np.take_along_axis(drive.drivers_at(t), own, axis=1)[:m].T
    _interval(c[:m], w[:m], np.exp(drive.times[k[:m]] - t[:m]),
              _alpha(np.diff(theta, axis=0, append=lift[k[:m], j[:m]][None])))
    # then the whole intervals [times[i-1], times[i]] for i = k, ..., 1.
    # table[i-1, a] for a < N: from knot i's driver a to its driver a+1;
    # table[i-1, N + b]: from knot i's driver b-1 to knot i-1's driver b.
    # Point p reads its N changes of driver at columns[p].
    table = _alpha(np.concatenate(
        [np.roll(lift[1:], -1, axis=1) - lift[1:],
         lift[:-1] - np.roll(lift[1:], 1, axis=1)], axis=1))
    columns = np.concatenate([own[:, :-1], n + j[:, None]], axis=1)
    decay = (np.exp(-np.diff(drive.times)) + 0j).tolist()
    # with k descending, the points walking knot i (k >= i) are a prefix,
    # the first m for each knot of the run (k[m], k[m-1]]; a run's alphas
    # are gathered at once, (knots, N, m), at most _ALPHA_GATHER
    # (knot, point) pairs at a time
    ends = (np.flatnonzero(np.diff(k, append=-2)) + 1).tolist()
    k = k.tolist() + [0]  # below the last run, knot 1 ends the walk
    for m in ends:
        lo, span = max(k[m] + 1, 1), max(_ALPHA_GATHER // m, 1)
        cm, wm, cols = c[:m], w[:m], columns[:m].T
        for hi in range(k[m - 1], lo - 1, -span):
            first = max(lo, hi + 1 - span)
            alphas = table[first - 1:hi].take(cols, axis=1)
            for i in range(hi, first - 1, -1):
                _interval(cm, wm, decay[i - 1], alphas[i - first])
    z = np.empty_like(c)
    z[order] = np.exp(1j * lift[0, j]) * (1 - c) / (1 + c)
    return [FlowPoint(complex(x), PointStatus.INTERIOR if ok
                      else PointStatus.UNRESOLVED)
            for x, ok in zip(z, np.isfinite(z))]
