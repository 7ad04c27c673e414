"""Interacting Brownian particles on the circle with cot((x-y)/2) drift.

The N-particle diffusion

    dtheta_j = sum_{k != j} cot((theta_j - theta_k)/2) dt + sqrt(kappa) dB_j

is integrated with Euler-Maruyama plus adaptive step-halving near close
pairs.  Its stationary law is the circular beta-ensemble with beta = 4/kappa
(see :mod:`sle_dyson.ensembles` for the reference densities).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

TWO_PI = 2.0 * math.pi

# Step rejected and retried with dt halved at most this many times.
MAX_HALVINGS = 20

# Reflecting barrier for the nearest-pair gap.  For kappa >= 2 the gap
# process is log-recurrent and dips arbitrarily close to collision while
# spending only O(gap^2) process time there; reflecting at this scale keeps
# the integrator finite.  Stationary mass below the barrier is of order
# GAP_FLOOR^(1+4/kappa), far below statistical resolution.
GAP_FLOOR = 1e-4


class CollisionError(ValueError):
    """Raised when particle angles coincide or the integrator cannot
    complete a step without a crossing."""


def wrap_angle(theta):
    """Map angles into [0, 2*pi).

    np.mod can round tiny negative inputs up to 2*pi exactly; fold those
    back to 0 so the half-open contract really holds.
    """
    wrapped = np.mod(theta, TWO_PI)
    return np.where(wrapped >= TWO_PI, 0.0, wrapped)[()]


def wrap_diff(delta):
    """Map angle differences into (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(delta), TWO_PI)


@dataclass(frozen=True)
class AngleConfig:
    """Ordered set of N particle angles on the circle, each in [0, 2*pi)."""

    angles: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(np.asarray(self.angles, dtype=float))
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("angles must be a nonempty 1-D vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("angles must be finite")
        if np.any(arr < 0.0) or np.any(arr >= TWO_PI):
            raise ValueError("angles must lie in [0, 2*pi)")
        if arr.size > 1:
            s = np.sort(arr)
            gaps = np.diff(np.concatenate([s, [s[0] + TWO_PI]]))
            if np.min(gaps) <= 0.0:
                raise CollisionError("angles must be pairwise distinct")
        object.__setattr__(self, "angles", arr)

    @property
    def n(self) -> int:
        return self.angles.size


@dataclass(frozen=True)
class ProcessParams:
    """Parameters of the circular interacting diffusion.

    ``burn_in=None`` selects the default 10 + 2*ln(N) time units, chosen so
    that the exponentially fast relaxation (rate constant of order one) has
    equilibrated fluctuations from the equally spaced start.
    """

    n_particles: int
    kappa: float
    dt: float = 2e-3
    seed: int = 0
    burn_in: float | None = None
    thinning: float = 0.4

    def __post_init__(self):
        if self.n_particles < 1:
            raise ValueError("n_particles must be >= 1")
        if not self.kappa > 0.0:
            raise ValueError("kappa must be positive")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.burn_in is not None and self.burn_in < 0.0:
            raise ValueError("burn_in must be nonnegative")
        if self.thinning < self.dt:
            raise ValueError("thinning must be >= dt")

    @property
    def beta(self) -> float:
        """Ensemble parameter of the stationary law, beta = 4/kappa."""
        return 4.0 / self.kappa

    @property
    def effective_burn_in(self) -> float:
        if self.burn_in is not None:
            return self.burn_in
        return 10.0 + 2.0 * math.log(self.n_particles)


@dataclass(frozen=True)
class TrajectoryRecord:
    """Time-stamped states of one trajectory, replayable from the seed."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), N)
    params: ProcessParams
    brownian_increments: np.ndarray | None = None


def equally_spaced(n: int, offset: float = 0.0) -> AngleConfig:
    """The zero-drift configuration: n equally spaced angles."""
    return AngleConfig(wrap_angle(offset + TWO_PI * np.arange(n) / n))


def _pairwise_diffs(angles):
    """Wrapped pairwise differences d[..., j, k] = theta_j - theta_k."""
    d = angles[..., :, None] - angles[..., None, :]
    return wrap_diff(d)


def drift_batch(angles: np.ndarray, min_gap: float = 1e-12) -> np.ndarray:
    """Drift sum_{k != j} cot((theta_j - theta_k)/2) for a (..., N) array."""
    angles = np.asarray(angles, dtype=float)
    n = angles.shape[-1]
    if n == 1:
        return np.zeros_like(angles)
    d = _pairwise_diffs(angles)
    off = ~np.eye(n, dtype=bool)
    if np.any(np.abs(d[..., off]) < min_gap):
        raise CollisionError("coincident angles: cot drift is singular")
    cot = np.zeros_like(d)
    cot[..., off] = 1.0 / np.tan(d[..., off] / 2.0)
    return cot.sum(axis=-1)


def drift(config: AngleConfig) -> np.ndarray:
    """Drift vector of the diffusion at ``config``."""
    return drift_batch(config.angles)


def potential(config: AngleConfig) -> float:
    """Pair potential V = -2 sum_{j<k} ln|sin((theta_j - theta_k)/2)|.

    The drift equals -grad V componentwise.
    """
    a = config.angles
    if a.size == 1:
        return 0.0
    j, k = np.triu_indices(a.size, 1)
    s = np.abs(np.sin((a[j] - a[k]) / 2.0))
    if np.any(s < 1e-300):
        raise CollisionError("coincident angles: potential diverges")
    return float(-2.0 * np.sum(np.log(s)))


def _order_preserved(old, new):
    """True when the proposed angles keep the circular ordering of ``old``
    (no crossings, no collisions) and no particle moved further than pi."""
    if old.shape[-1] == 1:
        return np.ones(old.shape[:-1], dtype=bool) if old.ndim > 1 else True
    moved = np.abs(wrap_diff(new - old))
    perm = np.argsort(old, axis=-1)
    sorted_new = np.take_along_axis(new, perm, axis=-1)
    gaps = np.mod(np.diff(sorted_new, axis=-1, append=sorted_new[..., :1]), TWO_PI)
    ok = (gaps > 0.0).all(axis=-1)
    ok &= np.isclose(gaps.sum(axis=-1), TWO_PI)
    ok &= (moved < np.pi).all(axis=-1)
    return ok


def _guard_threshold(kappa, dt, max_drift):
    # Close-pair trigger: a step may not come near the collision scale.
    return 4.0 * math.sqrt(kappa * dt) + 4.0 * max_drift * dt


def _min_gap(angles):
    s = np.sort(angles, axis=-1)
    gaps = np.mod(np.diff(s, axis=-1, append=s[..., :1] + TWO_PI), TWO_PI)
    return gaps.min(axis=-1)


def _reflect_floor(angles):
    """Reflect the nearest pair off the GAP_FLOOR barrier (in place copy)."""
    order = np.argsort(angles)
    s = angles[order]
    gaps = np.mod(np.diff(s, append=s[0] + TWO_PI), TWO_PI)
    i = int(np.argmin(gaps))
    g = gaps[i]
    if g >= GAP_FLOOR:
        return angles
    out = angles.copy()
    push = (GAP_FLOOR - g)  # reflected gap = 2*floor - g
    j, k = order[i], order[(i + 1) % angles.size]
    out[j] = wrap_angle(out[j] - push)
    out[k] = wrap_angle(out[k] + push)
    return out


def step_attempt(angles: np.ndarray, kappa: float, dt: float,
                 noise: np.ndarray) -> tuple[np.ndarray, float]:
    """One adaptive Euler-Maruyama attempt from a flat angle array.

    Returns ``(new_angles, dt_advanced)``.  When the close-pair guard or the
    crossing check rejects the proposal the same standard-normal draws are
    reused for a step of half the length, so a call may advance less than
    ``dt``; after MAX_HALVINGS rejections a :class:`CollisionError` is
    raised (dt grossly too large for the given kappa and N).
    """
    trial = dt
    for _ in range(MAX_HALVINGS + 1):
        mu = drift_batch(angles)
        guard = _guard_threshold(kappa, trial, float(np.max(np.abs(mu))))
        if angles.size > 1 and _min_gap(angles) < guard:
            trial /= 2.0
            continue
        new = wrap_angle(angles + mu * trial + math.sqrt(kappa * trial) * noise)
        if _order_preserved(angles, new):
            if angles.size > 1 and _min_gap(new) < GAP_FLOOR:
                new = _reflect_floor(new)
            return new, trial
        trial /= 2.0
    raise CollisionError(
        f"step rejected after {MAX_HALVINGS} halvings (dt={dt}, kappa={kappa})")


def step(config: AngleConfig, params: ProcessParams,
         noise: np.ndarray) -> AngleConfig:
    """Advance ``config`` by one Euler-Maruyama step of ``params.dt``.

    ``noise`` holds N standard-normal draws.  Rejected proposals retry with
    dt halved (see :func:`step_attempt`); the returned configuration then
    corresponds to the shortened step.
    """
    noise = np.asarray(noise, dtype=float)
    if noise.shape != config.angles.shape:
        raise ValueError("noise must have one draw per particle")
    new, _ = step_attempt(config.angles, params.kappa, params.dt, noise)
    return AngleConfig(new)


def _gap_capped_dt(angles, kappa, dt):
    """Shrink dt near close pairs so the guard accepts without halving."""
    if angles.size == 1:
        return dt
    g = float(_min_gap(angles))
    cap = g * g / (32.0 * (kappa + angles.size))
    return min(dt, cap)


def _advance(angles, kappa, duration, dt, rng):
    """Advance a single chain by ``duration`` with the adaptive stepper."""
    t = 0.0
    while t < duration - 1e-15:
        want = min(_gap_capped_dt(angles, kappa, dt), duration - t)
        noise = rng.standard_normal(angles.size)
        angles, done = step_attempt(angles, kappa, want, noise)
        t += done
    return angles


def simulate(params: ProcessParams, t_end: float,
             initial: AngleConfig | None = None,
             record_noise: bool = False) -> TrajectoryRecord:
    """Integrate one trajectory to ``t_end``, recording every ``params.dt``.

    Bit-for-bit reproducible from (seed, params, initial).
    """
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    if initial is None:
        initial = equally_spaced(params.n_particles)
    if initial.n != params.n_particles:
        raise ValueError("initial configuration has the wrong particle count")
    rng = np.random.default_rng(np.random.SeedSequence(params.seed))
    n_steps = int(round(t_end / params.dt))
    n_steps = max(n_steps, 1)
    times = np.arange(n_steps + 1) * params.dt
    states = np.empty((n_steps + 1, params.n_particles))
    states[0] = initial.angles
    increments = [] if record_noise else None
    angles = initial.angles.copy()
    for k in range(1, n_steps + 1):
        t = 0.0
        while t < params.dt - 1e-15:
            want = min(_gap_capped_dt(angles, params.kappa, params.dt),
                       params.dt - t)
            noise = rng.standard_normal(params.n_particles)
            angles, done = step_attempt(angles, params.kappa, want, noise)
            if record_noise:
                increments.append(math.sqrt(done) * noise)
            t += done
        states[k] = angles
    return TrajectoryRecord(
        times=times, states=states, params=params,
        brownian_increments=np.asarray(increments) if record_noise else None)


def _pair_jump(states, mu, kappa, tau, rng):
    """Advance chains whose nearest pair is close by one exact-gap move.

    The squared pair gap is a BESQ(1 + 4/kappa) process up to smooth
    corrections, so its transition over ``tau`` is drawn exactly from a
    scaled noncentral chi-square; the cot-versus-1/s drift difference and
    the differential pull of the other particles enter as an O(tau) drift
    correction.  Midpoint and remaining particles take plain EM updates.
    Returns (new_states, ok_mask); chains whose move would break the
    circular order are left for the scalar fallback.
    """
    c, n = states.shape
    order = np.argsort(states, axis=-1)
    s_sorted = np.take_along_axis(states, order, axis=-1)
    gaps = np.mod(np.diff(s_sorted, axis=-1, append=s_sorted[:, :1] + TWO_PI),
                  TWO_PI)
    imin = np.argmin(gaps, axis=-1)
    rows = np.arange(c)
    j = order[rows, imin]
    k = order[rows, (imin + 1) % n]
    s = gaps[rows, imin]
    delta = 1.0 + 4.0 / kappa
    v0 = s * s / (2.0 * kappa)
    v = tau * rng.noncentral_chisquare(delta, v0 / tau, size=c)
    drift_corr = (mu[rows, k] - mu[rows, j]) - 4.0 / s
    s_new = np.sqrt(2.0 * kappa * v) + drift_corr * tau
    s_new = np.maximum(s_new, GAP_FLOOR)
    mid = s_sorted[rows, imin] + 0.5 * s
    mid_new = (mid + 0.5 * (mu[rows, j] + mu[rows, k]) * tau
               + math.sqrt(0.5 * kappa * tau) * rng.standard_normal(c))
    new = wrap_angle(states + mu * tau
                     + math.sqrt(kappa * tau) * rng.standard_normal((c, n)))
    new[rows, j] = wrap_angle(mid_new - 0.5 * s_new)
    new[rows, k] = wrap_angle(mid_new + 0.5 * s_new)
    ok = _order_preserved(states, new)
    ok &= _min_gap(new) >= GAP_FLOOR * 0.5
    if n > 2:
        # only trust the two-body move when the pair is isolated
        g2 = np.partition(gaps, 1, axis=-1)[:, 1]
        ok &= g2 > np.maximum(3.0 * s, 0.15)
    return new, ok


def _advance_batch(states, kappa, duration, dt, rng):
    """Advance many independent chains (rows of ``states``) by ``duration``.

    Far-separated chains share one vectorized EM proposal; chains that trip
    the close-pair guard take the exact pair-gap move of :func:`_pair_jump`;
    anything still unresolved falls back to the scalar adaptive stepper, in
    row order, so output is deterministic for a given seed.
    """
    n_steps = int(round(duration / dt))
    c, n = states.shape
    sqrt_kdt = math.sqrt(kappa * dt)
    for _ in range(n_steps):
        mu = drift_batch(states)
        noise = rng.standard_normal((c, n))
        new = wrap_angle(states + mu * dt + sqrt_kdt * noise)
        ok = _order_preserved(states, new)
        if n > 1:
            guard = _guard_threshold(kappa, dt, np.max(np.abs(mu), axis=-1))
            near = _min_gap(states) < guard
            ok &= ~near
            ok &= _min_gap(new) >= GAP_FLOOR
            if np.any(near):
                idx = np.flatnonzero(near)
                jumped, jok = _pair_jump(states[idx], mu[idx], kappa, dt, rng)
                new[idx[jok]] = jumped[jok]
                ok[idx[jok]] = True
        if not np.all(ok):
            for i in np.flatnonzero(~ok):
                new[i] = _advance(states[i], kappa, dt, dt, rng)
        states = new
    return states


@dataclass(frozen=True)
class SampleBatch:
    """Stationary angle samples (rows) plus the metadata that produced them."""

    rows: np.ndarray  # shape (n_samples, N)
    created_by: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        if np.any(rows < 0.0) or np.any(rows >= TWO_PI) or not np.all(np.isfinite(rows)):
            raise ValueError("sample rows must hold finite angles in [0, 2*pi)")
        object.__setattr__(self, "rows", rows)


def sample_stationary(params: ProcessParams, n_samples: int,
                      n_chains: int | None = None) -> SampleBatch:
    """Draw ``n_samples`` approximately independent stationary configurations.

    Runs a deterministic number of independent chains in parallel (each from
    the equally spaced start), discards the burn-in, then retains one row per
    chain every ``params.thinning`` time units.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    if n_chains is None:
        n_chains = int(min(n_samples, 1024))
    per_chain = -(-n_samples // n_chains)  # ceil
    rng = np.random.default_rng(np.random.SeedSequence(params.seed))
    n = params.n_particles
    starts = rng.uniform(0.0, TWO_PI, size=n_chains)
    states = wrap_angle(starts[:, None] + TWO_PI * np.arange(n) / n)
    states = _advance_batch(states, params.kappa, params.effective_burn_in,
                            params.dt, rng)
    out = np.empty((per_chain, n_chains, n))
    for k in range(per_chain):
        states = _advance_batch(states, params.kappa, params.thinning,
                                params.dt, rng)
        out[k] = states
    rows = out.reshape(per_chain * n_chains, n)[:n_samples]
    meta = {"seed": params.seed, "kappa": params.kappa, "beta": params.beta,
            "n_particles": n, "dt": params.dt,
            "burn_in": params.effective_burn_in, "thinning": params.thinning}
    return SampleBatch(rows=rows, created_by="DYSON_SDE", meta=meta)
