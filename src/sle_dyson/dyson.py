"""Interacting Brownian particles on the circle with cot((x-y)/2) drift.

The N-particle diffusion

    dtheta_j = sum_{k != j} cot((theta_j - theta_k)/2) dt + sqrt(kappa) dB_j

never reorders its particles, so it is integrated in sorted coordinates:
each chain holds unwrapped angles x_0 < x_1 < ... < x_{N-1} < x_0 + 2*pi
whose N gaps sum to 2*pi.  One batched kernel, :func:`_integrate`, advances
an (N, chains) array, particle j of every chain in row j, by full steps of
dt, so every per-chain check reduces over the short axis 0: chains clear
of collision share one Euler-Maruyama proposal, chains whose nearest pair
is close take an exact squared-Bessel pair move, and any chain left over
takes gap-capped, step-halving sub-steps with a reflecting GAP_FLOOR.
:func:`simulate` (one chain, every step recorded) and
:func:`sample_stationary` (many chains) take and return one row per
configuration.  The stationary law is the circular beta-ensemble with
beta = 4/kappa (see :mod:`sle_dyson.ensembles` for the reference densities).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
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

# Per-path counters of :func:`_integrate`: chain-steps taken by the shared
# EM proposal, by the pair jump and by the rare path (these three sum to
# chains x steps), then the rare path's sub-steps, step halvings and
# GAP_FLOOR reflections.
PATH_COUNTERS = ("em_steps", "pair_jumps", "rare_steps", "rare_substeps",
                 "halvings", "reflections")


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
        if _gaps(np.sort(arr)).min() <= 0.0:
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
        n = self.n_particles
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError("n_particles must be an integer")
        if n < 1:
            raise ValueError("n_particles must be >= 1")
        if not 0.0 < self.kappa < math.inf:
            raise ValueError("kappa must be positive and finite")
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if self.burn_in is not None and not 0.0 <= self.burn_in < math.inf:
            raise ValueError("burn_in must be nonnegative and finite")
        if not math.isfinite(self.thinning):
            raise ValueError("thinning must be finite")
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


def equally_spaced(n: int, offset: float = 0.0) -> AngleConfig:
    """The zero-drift configuration: n equally spaced angles."""
    return AngleConfig(wrap_angle(offset + TWO_PI * np.arange(n) / n))


def drift_batch(angles: np.ndarray) -> np.ndarray:
    """Drift sum_{k != j} cot((theta_j - theta_k)/2) for a (..., N) array.

    cot(d/2) has period 2*pi in d, so wrapped angles and the kernel's
    unwrapped sorted rows give the same drift.
    """
    angles = np.asarray(angles, dtype=float)
    return np.moveaxis(_drift(np.moveaxis(angles, -1, 0)), 0, -1)


def drift(config: AngleConfig) -> np.ndarray:
    """Drift vector of the diffusion at ``config``."""
    return drift_batch(config.angles)


def potential(config: AngleConfig) -> float:
    """Pair potential V = -2 sum_{j<k} ln|sin((theta_j - theta_k)/2)|.

    The drift equals -grad V componentwise.
    """
    a = config.angles
    j, k, _ = _pair_terms(a.size)
    s = np.abs(np.sin((a[j] - a[k]) / 2.0))
    if np.any(s < 1e-300):
        raise CollisionError("coincident angles: potential diverges")
    return float(np.sum(-2.0 * np.log(s)))


@functools.lru_cache
def _pair_terms(n):
    """The N(N-1)/2 pairs j < k, and an (N-1, N) table whose column p holds
    the slots of particle p's drift terms, in ascending partner order, in
    the stack (cot_jk of every pair, then -cot_jk), as cot_kj = -cot_jk."""
    j, k = np.triu_indices(n, 1)
    slot = np.empty((n, n), dtype=np.intp)
    slot[j, k], slot[k, j] = np.arange(j.size), np.arange(j.size, 2 * j.size)
    return j, k, slot[~np.eye(n, dtype=bool)].reshape(n, n - 1).T.copy()


def _drift(x):
    """Drift of the particles along axis 0 of ``x``, an (N,) row or an
    (N, chains) stack: one cot per pair, and each particle adds its terms
    in ascending partner order, as a sum over a full cot matrix does."""
    j, k, terms = _pair_terms(x.shape[0])
    cot = 1.0 / np.tan((x[j] - x[k]) / 2.0)
    # |cot(d/2)| ~ 2/|d| near d = 0 mod 2*pi: flags pairs closer than 1e-12
    if not np.abs(cot).max(initial=0.0) < 2e12:
        raise CollisionError("coincident angles: cot drift is singular")
    # a sum over the leading axis adds its slices in order, so each
    # particle's terms in ascending partner order
    return np.add.reduce(np.concatenate((cot, -cot))[terms], axis=0)


def _gaps(x):
    """Gaps x_{i+1} - x_i along axis 0, the last one closing the circle."""
    return np.concatenate((x[1:], x[:1] + TWO_PI)) - x


def _accepted(old, new, floor):
    """Chains of ``new`` that keep every gap >= ``floor`` (so the cyclic
    order of ``old``) and move no particle by pi or more."""
    return ((_gaps(new).min(axis=0) >= floor)
            & (np.abs(new - old).max(axis=0) < np.pi))


def _pair_jump(x, gaps, mu, kappa, tau, rng):
    """Advance chains whose nearest pair is close by one exact-gap move.

    The squared pair gap is a BESQ(1 + 4/kappa) process up to smooth
    corrections, so its transition over ``tau`` is drawn exactly from a
    scaled noncentral chi-square; the cot-versus-1/s drift difference and
    the differential pull of the other particles enter as an O(tau) drift
    correction.  Midpoint and remaining particles take plain EM updates.
    Returns (new, ok_mask); chains whose move would break the cyclic
    order, or whose pair is not isolated, are left for the rare path of
    :func:`_integrate`.
    """
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
    # the pair (x_{N-1}, x_0 + 2*pi) closes the circle: x_0 lives 2*pi lower
    new[k, cols] = mid + 0.5 * s_new - TWO_PI * (k == 0)
    ok = _accepted(x, new, 0.5 * GAP_FLOOR)
    if n > 2:
        # only trust the two-body move when the pair is isolated
        ok &= np.partition(gaps, 1, axis=0)[1] > np.maximum(3.0 * s, 0.15)
    return new, ok


def _integrate(x, kappa, dt, n_steps, rng, counts, trail=None):
    """Advance the sorted (N, chains) array ``x`` by ``n_steps`` steps of
    ``dt``; each step's noise is one (chains, N) draw read transposed.

    Chains clear of collision take one shared Euler-Maruyama proposal, and
    chains that trip the close-pair guard take :func:`_pair_jump`.  Chains
    either path rejects take the rare path from where they stood, one chain
    at a time: sub-steps of at most g^2 / (32 (kappa + N)) for nearest gap
    g, a cap under which the guard always holds, until the step's time is
    used up.  A sub-step that breaks the order is retried with the same
    draws and half the length, and a gap that lands below GAP_FLOOR is
    reflected off it.  Raises :class:`CollisionError` after MAX_HALVINGS
    rejections, or when the gap cap is too small for a sub-step to advance
    time at all.  ``counts`` accumulates the PATH_COUNTERS; ``trail``, if
    given, receives the state after every step.
    """
    n, c = x.shape
    sqrt_kdt = math.sqrt(kappa * dt)
    for step in range(n_steps):
        mu = _drift(x)
        gaps = _gaps(x)
        new = x + mu * dt + sqrt_kdt * rng.standard_normal((c, n)).T
        ok = _accepted(x, new, GAP_FLOOR)
        n_jump = 0
        if n > 1:
            # close-pair trigger: a step may not come near the collision scale
            near = gaps.min(axis=0) < (4.0 * sqrt_kdt
                                       + 4.0 * dt * np.abs(mu).max(axis=0))
            if near.any():
                # a rejected jump's chain is redone by the rare path below
                idx = np.flatnonzero(near)
                new[:, idx], ok[idx] = _pair_jump(
                    x[:, idx], gaps[:, idx], mu[:, idx], kappa, dt, rng)
                n_jump = np.count_nonzero(ok[idx])
        rare = np.flatnonzero(~ok)
        counts["em_steps"] += c - rare.size - n_jump
        counts["pair_jumps"] += n_jump
        counts["rare_steps"] += rare.size
        for r in rare:
            # chain by chain: a chain draws all its sub-steps' noise before
            # the next starts, so one chain's sub-step count never reorders
            # the draws of another
            xr, left = x[:, r], dt
            while left > 1e-15:
                mu_r = _drift(xr)
                g = _gaps(xr).min()
                # the gap cap implies the close-pair guard, so no re-check
                trial = min(g * g / (32.0 * (kappa + n)), left)
                if left - trial == left:
                    raise CollisionError(
                        f"gap {g:.3g} too small to resolve a step of {dt} "
                        f"(kappa={kappa})")
                z = rng.standard_normal(n)
                for _ in range(MAX_HALVINGS + 1):
                    prop = xr + mu_r * trial + math.sqrt(kappa * trial) * z
                    if _accepted(xr, prop, 0.0):
                        break
                    trial *= 0.5
                    counts["halvings"] += 1
                else:
                    raise CollisionError(
                        f"step rejected after {MAX_HALVINGS} halvings "
                        f"(dt={dt}, kappa={kappa})")
                gr = _gaps(prop)
                i = np.argmin(gr)
                if gr[i] < GAP_FLOOR:
                    # reflected gap = 2*floor - g; only the nearest pair moves
                    prop[i] -= GAP_FLOOR - gr[i]
                    prop[(i + 1) % n] += GAP_FLOOR - gr[i]
                    counts["reflections"] += 1
                counts["rare_substeps"] += 1
                xr, left = prop, left - trial
            new[:, r] = xr
        x = new
        if trail is not None:
            trail[step] = x
    return x


def simulate(params: ProcessParams, t_end: float,
             initial: AngleConfig | None = None) -> TrajectoryRecord:
    """Integrate one trajectory to ``t_end``, recording every ``params.dt``.

    ``t_end`` must be a positive integer multiple of ``params.dt`` (to a
    relative 1e-9).  Bit-for-bit reproducible from (seed, params, initial).
    """
    if not 0.0 < t_end < math.inf:
        raise ValueError("t_end must be positive and finite")
    ratio = t_end / params.dt
    n_steps = round(ratio)
    if not math.isclose(ratio, n_steps, rel_tol=1e-9):
        raise ValueError(f"t_end={t_end!r} is not an integer multiple of "
                         f"dt={params.dt!r}")
    if initial is None:
        initial = equally_spaced(params.n_particles)
    if initial.n != params.n_particles:
        raise ValueError("initial configuration has the wrong particle count")
    rng = np.random.default_rng(np.random.SeedSequence(params.seed))
    order = np.argsort(initial.angles)  # sorted slot s holds label order[s]
    trail = np.empty((n_steps + 1, params.n_particles, 1))
    trail[0, :, 0] = initial.angles[order]
    _integrate(trail[0].copy(), params.kappa, params.dt, n_steps, rng,
               dict.fromkeys(PATH_COUNTERS, 0), trail=trail[1:])
    states = np.empty((n_steps + 1, params.n_particles))
    states[:, order] = wrap_angle(trail[:, :, 0])
    return TrajectoryRecord(times=np.arange(n_steps + 1) * params.dt,
                            states=states, params=params)


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
    if n_chains < 1:
        raise ValueError("n_chains must be >= 1")
    per_chain = -(-n_samples // n_chains)  # ceil
    rng = np.random.default_rng(np.random.SeedSequence(params.seed))
    n = params.n_particles
    starts = rng.uniform(0.0, TWO_PI, size=n_chains)
    x = starts + (TWO_PI * np.arange(n) / n)[:, None]  # (N, chains), sorted
    counts = dict.fromkeys(PATH_COUNTERS, 0)
    x = _integrate(x, params.kappa, params.dt,
                   round(params.effective_burn_in / params.dt), rng, counts)
    out = np.empty((per_chain, n_chains, n))
    for k in range(per_chain):
        x = _integrate(x, params.kappa, params.dt,
                       round(params.thinning / params.dt), rng, counts)
        out[k] = x.T
    rows = wrap_angle(out.reshape(per_chain * n_chains, n)[:n_samples])
    meta = {"seed": params.seed, "kappa": params.kappa, "beta": params.beta,
            "n_particles": n, "dt": params.dt,
            "burn_in": params.effective_burn_in, "thinning": params.thinning,
            **counts}
    return SampleBatch(rows=rows, created_by="DYSON_SDE", meta=meta)
