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
The gaps that a step computes, those its order checks take of the
proposal and of the pair jump and those of the rare path's last
sub-step, are carried into the next step's close-pair guard.
:func:`sample_stationary` runs the kernel on many chains.
:func:`simulate` (one chain from the equally spaced start, every step
recorded) steps its chain on Python floats with :func:`_integrate_chain`,
which makes the kernel's draws and arithmetic, so its path is the
kernel's bit for bit without the per-call numpy overhead.  It draws the
proposal normals of DRAW_BLOCK steps in one call, and at a step that
draws more (a pair jump or a rare step) sets the stream back to where
the per-step draws would have left it, by restoring the block's start
state and drawing the rows used again.  The kernel runs that same
per-chain code for its rare path, :func:`_rare_step`, and for each chain
of a pair jump of at most FLOAT_JUMP_MAX chains, :func:`_chain_pair_jump`
on the batched draws; both write their chains into the step's arrays in
place, and more chains than that take the vectorized move,
:func:`_pair_jump`.  A step builds its proposal in place
and keeps every scratch array C-ordered, so at N = 2 with a thousand
chains it costs little more than its normal draw.  Both entry points
return one row per configuration.  The stationary law is the circular
beta-ensemble with beta = 4/kappa (see :mod:`sle_dyson.ensembles` for the
reference densities).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import functools
import math
import operator

import numpy as np

from . import _count, _real

TWO_PI = 2.0 * math.pi

# Step rejected and retried with dt halved at most this many times.
MAX_HALVINGS = 20

# Reflecting barrier for the nearest-pair gap.  For kappa >= 2 the gap
# process is log-recurrent and dips arbitrarily close to collision while
# spending only O(gap^2) process time there; reflecting at this scale keeps
# the integrator finite.  Stationary mass below the barrier is of order
# GAP_FLOOR^(1+4/kappa), far below statistical resolution.
GAP_FLOOR = 1e-4

# A pair jump of at most this many chains runs on Python floats, chain by
# chain; more chains take the vectorized move.  On a 2-core x86 machine
# (numpy 2.4) the float path took about 5 us plus 6-7.5 us per chain and
# the vectorized move 55-65 us at any count up to 16: they cross at 8-10
# chains for N = 2, 3 and 5.
FLOAT_JUMP_MAX = 8

# simulate's one-chain stepper draws the proposal normals of this many
# steps in one call (see :func:`_integrate_chain`).  On the machine of
# FLOAT_JUMP_MAX's note a block costs one read of the generator state
# (about 3 us) and one draw call, against about 1 us a step for size-N
# calls: simulate at N = 2 (kappa 3, dt 1e-3) took 11.4 ms per 1,000
# steps against 13.6 ms with per-step draws, and blocks of 16 to 128
# steps were within 2% of each other.
DRAW_BLOCK = 64

# Per-path counters of :func:`_integrate` and :func:`_integrate_chain`:
# chain-steps taken by the shared EM proposal, by the pair jump and by the
# rare path (these three sum to chains x steps), then the rare path's
# sub-steps, step halvings and GAP_FLOOR reflections.
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


@dataclass(frozen=True)
class ProcessParams:
    """Parameters of the circular interacting diffusion.

    ``burn_in=None`` selects the default 10 + 2*ln(N) time units, rounded
    to the dt grid, chosen so that the exponentially fast relaxation (rate
    constant of order one) has equilibrated fluctuations from the equally
    spaced start.
    """

    n_particles: int
    kappa: float
    dt: float = 2e-3
    seed: int = 0
    burn_in: float | None = None
    thinning: float = 0.4

    def __post_init__(self):
        _count("n_particles", self.n_particles, 1)
        _real("kappa", self.kappa)
        _count("seed", self.seed, 0)
        _real("dt", self.dt)
        if self.burn_in is not None:
            _real("burn_in", self.burn_in, zero_ok=True)
        if _real("thinning", self.thinning) < self.dt:
            raise ValueError("thinning must be >= dt")

    @property
    def beta(self) -> float:
        """Ensemble parameter of the stationary law, beta = 4/kappa."""
        return 4.0 / self.kappa

    @property
    def effective_burn_in(self) -> float:
        """The burn-in time that runs: ``burn_in``, or the default."""
        if self.burn_in is not None:
            return self.burn_in
        default = 10.0 + 2.0 * math.log(self.n_particles)
        return round(default / self.dt) * self.dt


@dataclass(frozen=True)
class TrajectoryRecord:
    """Time-stamped states of one trajectory from ``simulate``."""

    times: np.ndarray
    states: np.ndarray  # shape (len(times), N)


def equally_spaced(n: int) -> AngleConfig:
    """The zero-drift configuration: n equally spaced angles from 0, n an
    integer >= 1."""
    return AngleConfig(wrap_angle(TWO_PI * np.arange(_count("n", n, 1)) / n))


def drift(config: AngleConfig) -> np.ndarray:
    """Drift vector sum_{k != j} cot((theta_j - theta_k)/2) at ``config``."""
    return _drift(config.angles)


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
    stack = np.empty((2 * j.size, *x.shape[1:]))
    cot = np.divide(x.take(j, 0) - x.take(k, 0), 2.0, out=stack[:j.size])
    np.reciprocal(np.tan(cot, out=cot), out=cot)
    np.negative(cot, out=stack[j.size:])
    # |cot(d/2)| ~ 2/|d| near d = 0 mod 2*pi: flags pairs closer than 1e-12
    # (the stack's maximum is the largest |cot|)
    if not np.maximum.reduce(stack, None, initial=0.0) < 2e12:
        raise CollisionError("coincident angles: cot drift is singular")
    if j.size == 1:
        return stack  # N = 2: each particle's one term, in particle order
    # a sum over the leading axis adds its slices in order, so each
    # particle's terms in ascending partner order
    return np.add.reduce(stack.take(terms, 0))


def _gaps(x):
    """Gaps x_{i+1} - x_i along axis 0, the last one closing the circle."""
    gaps = np.empty(x.shape)
    np.subtract(x[1:], x[:-1], out=gaps[:-1])
    np.add(x[:1], TWO_PI, out=gaps[-1:])
    gaps[-1:] -= x[-1:]
    return gaps


def _checked(old, new, floor):
    """The gaps of ``new``, their minimum per chain, and the mask of chains
    that keep every gap >= ``floor`` (so the cyclic order of ``old``) and
    move no particle by pi or more."""
    gaps = _gaps(new)
    gmin = np.minimum.reduce(gaps)
    moved = np.subtract(new, old)
    ok = np.maximum.reduce(np.abs(moved, out=moved)) < np.pi
    ok &= gmin >= floor
    return gaps, gmin, ok


def _pair_jump_draws(s, n, kappa, tau, rng):
    """The pair jump's draws for chains with nearest gaps ``s``, a list, in
    its order: each chain's noncentral chi-square for the squared gap, then
    a normal for each pair's midpoint and a (chains, N) block of normals
    for the particles, all returned as lists.  One scalar chi-square call
    per chain draws what one batched call over the chains draws, without
    its per-call cost: on the machine of FLOAT_JUMP_MAX's note, 0.7 us per
    scalar call against 13 us for a batched call of one chain."""
    df = 1.0 + 4.0 / kappa
    chi2 = [rng.noncentral_chisquare(df, t * t / (2.0 * kappa * tau))
            for t in s]
    return (chi2, rng.standard_normal(len(s)).tolist(),
            rng.standard_normal((len(s), n)).tolist())


def _pair_jump(x, gaps, mu, kappa, tau, rng):
    """Advance chains whose nearest pair is close by one exact-gap move.

    The squared pair gap is a BESQ(1 + 4/kappa) process up to smooth
    corrections, so its transition over ``tau`` is drawn exactly from a
    scaled noncentral chi-square; the cot-versus-1/s drift difference and
    the differential pull of the other particles enter as an O(tau) drift
    correction.  Midpoint and remaining particles take plain EM updates.
    Returns (new, gaps of new, their minimum per chain, ok_mask); chains
    whose move would break the cyclic order, or whose pair is not isolated,
    are left for the rare path of :func:`_integrate`.  That calls this for
    more than FLOAT_JUMP_MAX chains and moves fewer one at a time by
    :func:`_chain_pair_jump`, the same arithmetic on the same draws.
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
    new_gaps, new_gmin, ok = _checked(x, new, 0.5 * GAP_FLOOR)
    if n > 2:
        # only trust the two-body move when the pair is isolated
        ok &= np.partition(gaps, 1, axis=0)[1] > np.maximum(3.0 * s, 0.15)
    return new, new_gaps, new_gmin, ok


# One chain held as a list of Python floats.  Each function below repeats
# the arithmetic of its batched counterpart in the same order and makes the
# same RNG calls (a size-n draw equals a (1, n) one, and a scalar draw a
# size-1 one), so a chain's path is bit for bit the one :func:`_integrate`
# takes for it.  Only tan stays in numpy: np.tan on the pair-difference
# array is the kernel's tan, which need not round as math.tan does.

@functools.lru_cache
def _chain_terms(n):
    """:func:`_pair_terms` as lists: the pairs' j and k, and for each
    particle the slots of its drift terms in ascending partner order."""
    j, k, terms = _pair_terms(n)
    return j.tolist(), k.tolist(), terms.T.tolist()


def _chain_drift(x):
    """:func:`_drift` of one chain: each particle adds its terms left to
    right, as the kernel's reduction over axis 0 does.  1.0 / t on floats
    is the kernel's reciprocal, correctly rounded; equal angles (tan 0)
    count as an infinite cot."""
    j, k, terms = _chain_terms(len(x))
    tan = np.tan([(x[a] - x[b]) / 2.0 for a, b in zip(j, k)]).tolist()
    cot = [1.0 / t if t else math.inf for t in tan]
    if not all(abs(t) < 2e12 for t in cot):
        raise CollisionError("coincident angles: cot drift is singular")
    stack = cot + [-t for t in cot]
    mu = []
    # a plain loop, not sum(): from Python 3.12 sum() compensates rounding
    for slots in terms:
        m = 0.0
        for t in slots:
            m += stack[t]
        mu.append(m)
    return mu


def _chain_gaps(x):
    """:func:`_gaps` of one chain."""
    return [*map(operator.sub, x[1:], x), x[0] + TWO_PI - x[-1]]


def _chain_accepted(old, new, new_gaps, floor):
    """The mask of :func:`_checked` for one chain, given the gaps of
    ``new``."""
    return (min(new_gaps) >= floor
            and max(map(abs, map(operator.sub, new, old))) < math.pi)


def _chain_pair_jump(x, gaps, mu, kappa, tau, chi2, z_mid, z):
    """:func:`_pair_jump` for one chain, given its entries of
    :func:`_pair_jump_draws` (a float, a float and a list of N floats):
    returns (new, gaps of new, ok)."""
    n = len(x)
    s = min(gaps)
    i = gaps.index(s)
    k = (i + 1) % n
    s_new = max(math.sqrt(2.0 * kappa * (tau * chi2))
                + ((mu[k] - mu[i]) - 4.0 / s) * tau, GAP_FLOOR)
    mid = (x[i] + 0.5 * s + 0.5 * (mu[i] + mu[k]) * tau
           + math.sqrt(0.5 * kappa * tau) * z_mid)
    sq = math.sqrt(kappa * tau)
    new = [a + m * tau + sq * w for a, m, w in zip(x, mu, z)]
    new[i] = mid - 0.5 * s_new
    new[k] = mid + 0.5 * s_new - TWO_PI * (k == 0)
    new_gaps = _chain_gaps(new)
    ok = _chain_accepted(x, new, new_gaps, 0.5 * GAP_FLOOR)
    if ok and n > 2:
        ok = sorted(gaps)[1] > max(3.0 * s, 0.15)
    return new, new_gaps, ok


def _rare_step(x, kappa, dt, rng, counts):
    """Advance one chain, a list of floats, by ``dt`` on the rare path of
    :func:`_integrate` and return it with its gaps: sub-steps of at most
    g^2 / (32 (kappa + N)) for nearest gap g, a cap under which the
    close-pair guard always holds, until ``dt`` is used up.  A sub-step
    that breaks the order is retried with the same draws and half the
    length, and a gap that lands below GAP_FLOOR is reflected off it.
    Raises :class:`CollisionError` after MAX_HALVINGS rejections, or when
    the gap cap is too small for a sub-step to advance time at all.
    """
    n, left = len(x), dt
    gaps = _chain_gaps(x)
    while left > 1e-15:
        mu = _chain_drift(x)
        g = min(gaps)
        trial = min(g * g / (32.0 * (kappa + n)), left)
        if left - trial == left:
            raise CollisionError(
                f"gap {g:.3g} too small to resolve a step of {dt} "
                f"(kappa={kappa})")
        z = rng.standard_normal(n).tolist()
        for _ in range(MAX_HALVINGS + 1):
            sq = math.sqrt(kappa * trial)
            prop = [a + m * trial + sq * w for a, m, w in zip(x, mu, z)]
            gaps = _chain_gaps(prop)
            if _chain_accepted(x, prop, gaps, 0.0):
                break
            trial *= 0.5
            counts["halvings"] += 1
        else:
            raise CollisionError(
                f"step rejected after {MAX_HALVINGS} halvings "
                f"(dt={dt}, kappa={kappa})")
        g = min(gaps)
        if g < GAP_FLOOR:
            # reflected gap = 2*floor - g; only the nearest pair moves
            i = gaps.index(g)
            prop[i] -= GAP_FLOOR - g
            prop[(i + 1) % n] += GAP_FLOOR - g
            gaps = _chain_gaps(prop)
            counts["reflections"] += 1
        counts["rare_substeps"] += 1
        x, left = prop, left - trial
    return x, gaps


def _rewind(rng, start, taken, drawn, n):
    """Set ``rng``, which drew ``drawn`` rows of n normals from the state
    ``start``, to where it stood after the first ``taken`` of them."""
    if taken < drawn:
        rng.bit_generator.state = start
        rng.standard_normal((taken, n))


def _integrate_chain(x, kappa, dt, n_steps, rng, counts):
    """:func:`_integrate` for one chain, a list of sorted floats: the same
    draws and arithmetic, so the same path, PATH_COUNTERS and final state
    of ``rng``, without the batched kernel's per-call numpy overhead.  As
    there, each step's gaps are those its order check or rare path
    computed.  Returns the list of states after each step.

    The proposal normals of up to DRAW_BLOCK steps are drawn in one
    (k, N) call, which numpy fills row-major from the one stream as k
    size-N calls would; the last block stops at ``n_steps``.  Only a
    pair-jump step or a rare step draws anything else.  At one, the stream
    is set back to the block's start and the rows the steps took, this
    step's included, are drawn again, so the step's own draws come next,
    as in the kernel; the next EM step starts a new block, and a pair-jump
    step with no block open draws its row alone."""
    n = len(x)
    sqrt_kdt = math.sqrt(kappa * dt)
    gaps = _chain_gaps(x)
    trail = []
    # the open block's rows, how many steps took one, and the stream's
    # state before the block was drawn
    rows, used, start = [], 0, None
    for step in range(n_steps):
        mu = _chain_drift(x)
        if n > 1 and min(gaps) < (4.0 * sqrt_kdt
                                  + 4.0 * dt * max(map(abs, mu))):
            # the kernel draws this step's proposal before the jump's draws
            if used < len(rows):
                _rewind(rng, start, used + 1, len(rows), n)
            else:
                rng.standard_normal(n)
            rows, used = [], 0
            path = "pair_jumps"
            (chi2,), (z_mid,), (z,) = _pair_jump_draws([min(gaps)], n,
                                                       kappa, dt, rng)
            new, new_gaps, ok = _chain_pair_jump(x, gaps, mu, kappa, dt,
                                                 chi2, z_mid, z)
        else:
            if used == len(rows):
                start = rng.bit_generator.state
                rows, used = rng.standard_normal(
                    (min(DRAW_BLOCK, n_steps - step), n)).tolist(), 0
            new = [a + m * dt + sqrt_kdt * z
                   for a, m, z in zip(x, mu, rows[used])]
            used += 1
            path = "em_steps"
            new_gaps = _chain_gaps(new)
            ok = _chain_accepted(x, new, new_gaps, GAP_FLOOR)
            if not ok:
                _rewind(rng, start, used, len(rows), n)
                rows, used = [], 0
        if not ok:
            path = "rare_steps"
            new, new_gaps = _rare_step(x, kappa, dt, rng, counts)
        counts[path] += 1
        x, gaps = new, new_gaps
        trail.append(x)
    return trail


def _integrate(x, kappa, dt, n_steps, rng, counts):
    """Advance the sorted (N, chains) array ``x`` by ``n_steps`` steps of
    ``dt``; each step's noise is one (chains, N) draw read transposed.

    Chains clear of collision take one shared Euler-Maruyama proposal, and
    chains that trip the close-pair guard take :func:`_pair_jump`, or,
    when at most FLOAT_JUMP_MAX do, :func:`_chain_pair_jump` one chain at
    a time on the same draws.  Chains either path rejects take
    :func:`_rare_step` from where they stood, one chain at a time.  The
    gaps of each step's result, which the order checks and the rare path
    compute, are carried into the next step's guard.  ``counts``
    accumulates the PATH_COUNTERS.
    """
    n, c = x.shape
    sqrt_kdt = math.sqrt(kappa * dt)
    gaps = _gaps(x)
    gmin = np.minimum.reduce(gaps)
    for _ in range(n_steps):
        mu = _drift(x)
        # x + mu*dt + sqrt_kdt*z, built in place: IEEE addition commutes
        new = mu * dt
        new += x
        new += (sqrt_kdt * rng.standard_normal((c, n))).T
        new_gaps, new_gmin, ok = _checked(x, new, GAP_FLOOR)
        n_jump = 0
        if n > 1:
            # close-pair trigger: a step may not come near the collision scale
            near, = (gmin < (4.0 * sqrt_kdt
                             + 4.0 * dt * np.maximum.reduce(np.abs(mu)))
                     ).nonzero()
            if near.size > FLOAT_JUMP_MAX:
                # a rejected jump's chain is redone by the rare path below
                (new[:, near], new_gaps[:, near], new_gmin[near],
                 ok[near]) = _pair_jump(x.take(near, 1), gaps.take(near, 1),
                                        mu.take(near, 1), kappa, dt, rng)
                n_jump = int(np.count_nonzero(ok.take(near)))
            elif near.size:
                draws = _pair_jump_draws(gmin.take(near).tolist(), n, kappa,
                                         dt, rng)
                for r, *d in zip(near.tolist(), *draws):
                    new[:, r], g, jumped = _chain_pair_jump(
                        x[:, r].tolist(), gaps[:, r].tolist(),
                        mu[:, r].tolist(), kappa, dt, *d)
                    new_gaps[:, r], new_gmin[r], ok[r] = g, min(g), jumped
                    n_jump += jumped
        rare, = np.logical_not(ok).nonzero()
        counts["em_steps"] += c - rare.size - n_jump
        counts["pair_jumps"] += n_jump
        counts["rare_steps"] += rare.size
        for r in rare.tolist():
            # chain by chain: a chain draws all its sub-steps' noise before
            # the next starts, so one chain's sub-step count never reorders
            # the draws of another
            new[:, r], g = _rare_step(x[:, r].tolist(), kappa, dt, rng,
                                      counts)
            new_gaps[:, r], new_gmin[r] = g, min(g)
        x, gaps, gmin = new, new_gaps, new_gmin
    return x


def _n_steps(name: str, duration: float, dt: float) -> int:
    """Steps of ``dt`` in ``duration``, which must be an integer multiple of
    ``dt`` to a relative 1e-9."""
    ratio = duration / dt
    n_steps = round(ratio)
    if not math.isclose(ratio, n_steps, rel_tol=1e-9):
        raise ValueError(f"{name}={duration!r} is not an integer multiple of "
                         f"dt={dt!r}")
    return n_steps


def simulate(params: ProcessParams, t_end: float) -> TrajectoryRecord:
    """Integrate one trajectory from ``equally_spaced(params.n_particles)``
    to ``t_end``, recording every ``params.dt``.

    ``t_end`` must be a positive integer multiple of ``params.dt`` (to a
    relative 1e-9).  Bit-for-bit reproducible from (seed, params).
    """
    n_steps = _n_steps("t_end", _real("t_end", t_end), params.dt)
    rng = np.random.default_rng(np.random.SeedSequence(params.seed))
    x = equally_spaced(params.n_particles).angles.tolist()  # sorted
    trail = _integrate_chain(x, params.kappa, params.dt, n_steps, rng,
                             dict.fromkeys(PATH_COUNTERS, 0))
    return TrajectoryRecord(times=np.arange(n_steps + 1) * params.dt,
                            states=wrap_angle(np.array([x] + trail)))


@dataclass(frozen=True)
class SampleBatch:
    """Stationary angle samples (rows) plus the metadata that produced them."""

    rows: np.ndarray  # shape (n_samples, N)
    created_by: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        if rows.ndim != 2:
            raise ValueError("sample rows must be a 2-D array, one row per "
                             "sample")
        if np.any(rows < 0.0) or np.any(rows >= TWO_PI) or not np.all(np.isfinite(rows)):
            raise ValueError("sample rows must hold finite angles in [0, 2*pi)")
        object.__setattr__(self, "rows", rows)


def sample_stationary(params: ProcessParams, n_samples: int,
                      n_chains: int | None = None) -> SampleBatch:
    """Draw ``n_samples`` approximately independent stationary configurations.

    Runs a deterministic number of independent chains in parallel (each from
    the equally spaced start), discards the burn-in, then retains one row per
    chain every ``params.thinning`` time units.  ``params.thinning`` and an
    explicit ``params.burn_in`` must be integer multiples of ``params.dt``
    (to a relative 1e-9); the default burn-in is on the dt grid already.
    """
    _count("n_samples", n_samples, 1)
    if n_chains is None:
        n_chains = int(min(n_samples, 1024))
    _count("n_chains", n_chains, 1)
    burn_steps = _n_steps("burn_in", params.effective_burn_in, params.dt)
    thin_steps = _n_steps("thinning", params.thinning, params.dt)
    per_chain = -(-n_samples // n_chains)  # ceil
    rng = np.random.default_rng(np.random.SeedSequence(params.seed))
    n = params.n_particles
    starts = rng.uniform(0.0, TWO_PI, size=n_chains)
    x = starts + (TWO_PI * np.arange(n) / n)[:, None]  # (N, chains), sorted
    counts = dict.fromkeys(PATH_COUNTERS, 0)
    x = _integrate(x, params.kappa, params.dt, burn_steps, rng, counts)
    out = np.empty((per_chain, n_chains, n))
    for k in range(per_chain):
        x = _integrate(x, params.kappa, params.dt, thin_steps, rng, counts)
        out[k] = x.T
    rows = wrap_angle(out.reshape(per_chain * n_chains, n)[:n_samples])
    meta = {"seed": params.seed, "kappa": params.kappa, "beta": params.beta,
            "n_particles": n, "dt": params.dt,
            "burn_in": params.effective_burn_in, "thinning": params.thinning,
            **counts}
    return SampleBatch(rows=rows, created_by="DYSON_SDE", meta=meta)
