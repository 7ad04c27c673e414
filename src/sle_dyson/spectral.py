"""Reduced two-particle operators on the relative angle theta in (0, 2*pi).

Two tridiagonal discretizations of the same diffusion, in one place, each
held as its three bands and eigensolved through LAPACK:

* the backward (first-passage) generator acting on observables,
  (kappa/2) h'' + cot(theta/2) h'  in the half-speed clock, as plain
  central differences on h / theta^alpha, the regular-singular branch
  factored out at theta = 0 and a mirrored ghost node below it;
* the Fokker-Planck generator acting on densities, an exponentially fitted
  (Scharfetter-Gummel) flux whose discrete kernel approximates the
  stationary gap density sin^{4/kappa}(theta/2).

The Calogero-Sutherland Hamiltonian is not discretized separately: it is
the symmetrized fitted generator, -D^{-1/2} L D^{1/2} with the diagonal D
that makes it symmetric, so it shares the generator's spectrum exactly.
The backward generator is symmetrized the same way, by one function that
checks the bands admit D and are finite.  Each problem then has its own
solver: the one-arm operator's lowest eigenpair comes from shifted inverse
iteration on LAPACK's LDL^T factorization of the symmetric bands, each
shift certified to lie below the spectrum by a factorization with positive
pivots; the Hamiltonian takes its ground state the same way and its next
few states from Rayleigh quotient iteration on LAPACK's pivoted LU,
deflated against the states below, each certified by its count of sign
changes (the oscillation theorem for Jacobi matrices).

The lowest decaying mode of the backward generator on the singular branch
theta^{1-4/kappa} has the closed-form rate (kappa^2-16)/(32 kappa), which
the solvers here reproduce to second order in the grid spacing.

The backward generator and its rates are in the half-speed (LSW_HALF)
clock; the Fokker-Planck generator and the Hamiltonian are in the Dyson
clock, where every rate is twice its LSW_HALF value.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
from scipy.linalg.lapack import dgtsv, dpttrf, dpttrs
from scipy.special import exprel

from . import _count, _real

TWO_PI = 2.0 * math.pi
ADJOINT_ORDER_GRIDS = (32, 64, 128, 256)  # m of measured_convergence_order
FP_ORDER_GRIDS = (256, 512, 1024, 2048)   # m of fp_residual_order
FP_RESIDUAL_WINDOW = (np.pi / 4.0, 7.0 * np.pi / 4.0)  # theta of FP residual
INVERSE_ITERATION_STEPS = 32  # cap of the solves per eigenpair
SIGN_FLOOR = 1e-8  # entries below this share of max|w| carry no sign


@dataclass(frozen=True)
class GridOperator:
    """A tridiagonal finite-difference operator on its grid.

    ``grid`` holds the cell-centred nodes (i+1/2)h on (0, 2*pi), and
    ``lower``, ``diag`` and ``upper`` the sub-, main and super-diagonal.
    """

    grid: np.ndarray
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray


def _cell_grid(m: int) -> np.ndarray:
    h = TWO_PI / _count("m", m, 16)
    return (np.arange(m) + 0.5) * h


def one_arm_lambda_exact(kappa: float) -> float:
    """Closed-form lowest decay rate (kappa^2 - 16) / (32 kappa).

    Zero at kappa = 4; below 4 the particles never meet and no decaying
    one-arm mode exists.
    """
    if _real("kappa", kappa) < 4.0:
        raise ValueError("no decaying one-arm mode for kappa < 4")
    return (kappa * kappa - 16.0) / (32.0 * kappa)


def _decaying(kappa: float) -> float:
    """kappa as given where it is a finite real above 4, the domain of the
    decaying one-arm mode; any other kappa raises ValueError."""
    if _real("kappa", kappa) <= 4.0:
        raise ValueError("no decaying one-arm mode for kappa <= 4")
    return kappa


def one_arm_eigenfunction(kappa: float, theta) -> np.ndarray:
    """The decaying mode sin(theta/4)^(1 - 4/kappa) on the singular branch,
    which exists for 4 < kappa < inf (see :func:`_decaying`)."""
    exponent = 1.0 - 4.0 / _decaying(kappa)
    return np.sin(np.asarray(theta, dtype=float) / 4.0) ** exponent


def build_adjoint_n2(kappa: float, m: int) -> GridOperator:
    """Central differences for (kappa/2) h'' + cot(theta/2) h' on (0, 2*pi].

    The origin is a regular singular point with indicial exponents 0 and
    1 - 4/kappa.  With h = theta^alpha g, where alpha = 1 - 4/kappa selects
    the decaying branch for kappa > 4 and alpha = 0 the regular one for
    kappa <= 4, the operator becomes (kappa/2) g'' + b g' + c g with

        b = kappa alpha / theta + cot(theta/2),
        c = alpha ((kappa/2)(alpha - 1) / theta^2 + cot(theta/2) / theta),

    b odd and c even in theta, so g is even about theta = 0.  Every row
    takes plain central differences on g: row 0's ghost node -h/2 mirrors
    node 0, g(-h/2) = g(h/2), and the far end 2*pi gets a Neumann ghost
    cell on h.  Scaling row i by theta_i^alpha and column j by
    theta_j^-alpha returns the bands on the nodal values of h.
    """
    _real("kappa", kappa)
    th = _cell_grid(m)
    alpha = 1.0 - 4.0 / kappa if kappa > 4.0 else 0.0
    h = TWO_PI / m
    cot = 1.0 / np.tan(th / 2.0)
    b = kappa * alpha / th + cot
    c = alpha * (0.5 * kappa * (alpha - 1.0) / th ** 2 + cot / th)
    lower = 0.5 * kappa / h ** 2 - 0.5 * b / h  # coefficient of g_{i-1}
    upper = 0.5 * kappa / h ** 2 + 0.5 * b / h  # coefficient of g_{i+1}
    diag = c - kappa / h ** 2
    # fold the ghosts into the diagonal: g_{-1} = g_0, h_m = h_{m-1}
    diag[0] += lower[0]
    diag[-1] += upper[-1] * (th[-1] / (th[-1] + h)) ** alpha
    ratio = (th[1:] / th[:-1]) ** alpha
    return GridOperator(th, lower[1:] * ratio, diag, upper[:-1] / ratio)


def _symmetric_bands(op: GridOperator):
    """Diagonal d, off-diagonal e and row sums of S = -D T D^{-1}, with the
    diagonal D that makes it symmetric: e = -sqrt(lower * upper) < 0, so
    the row sums are d less the Gershgorin radii.  Raises ValueError where
    an off-diagonal product of T is not positive, so that D does not
    exist, and then where the bands are not finite.
    """
    if not np.all(op.lower * op.upper > 0.0):
        raise ValueError("an off-diagonal product is not positive")
    d, e = -op.diag, -np.sqrt(op.lower * op.upper)
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValueError("the bands are not finite")
    return d, e, d + np.append(e, 0.0) + np.insert(e, 0, 0.0)


def _rayleigh(rows, e, w):
    """Rayleigh quotient rho of the unit vector w on the symmetric
    tridiagonal S with row sums ``rows`` and off-diagonal ``e``, and the
    residual norm |S w - rho w|.

    From the row sums and the differences of w: (S w)_i = rows_i w_i
    + e_i (w_{i+1} - w_i) + e_{i-1} (w_{i-1} - w_i), and w.S.w = sum rows
    w^2 - sum e (w_{i+1} - w_i)^2.  Where d nearly cancels the e, as here,
    the rows are exact (Sterbenz) and no term of w.S.w cancels, so its
    round-off does not grow with max|d|.
    """
    # numpy's own sums, not BLAS dot: on a 2-core x86 host OpenBLAS's
    # threaded ddot took about 5 ms at n = 16384, against 2 us at 4096
    dw = w[1:] - w[:-1]
    edw = e * dw
    sw = rows * w
    dw *= edw
    rho = float(np.add.reduce(sw * w) - np.add.reduce(dw))
    sw[:-1] += edw
    sw[1:] -= edw
    sw -= rho * w
    sw *= sw
    return rho, math.sqrt(np.add.reduce(sw))


def _deflated(w, found):
    """w less its components along the orthonormal vectors ``found``,
    scaled to unit norm; w is overwritten."""
    for y in found:
        w -= np.add.reduce(y * w) * y
    return w / math.sqrt(np.add.reduce(w * w))


def _sign_changes(w) -> int:
    """Sign changes of w over its entries above SIGN_FLOOR * max|w|; the
    signs of the smaller ones, as of tails that underflow, are round-off."""
    big = w[np.abs(w) > SIGN_FLOOR * np.max(np.abs(w))]
    return int(np.count_nonzero(np.signbit(big[1:]) != np.signbit(big[:-1])))


def _ground_symmetric(d, e, rows):
    """Lowest eigenpair (value, unit vector) of the symmetric tridiagonal S
    with diagonal ``d``, off-diagonal ``e`` < 0 and row sums ``rows``, by
    certified shifted inverse iteration from the all-ones vector.

    S is an irreducible Z-matrix, so its lowest eigenvector is positive
    and not orthogonal to the start.  Each shift sigma is certified below
    the whole spectrum by LAPACK's LDL^T factorization of S - sigma I
    succeeding: first sigma = 0, else sigma = -1e-12 max|d|, just below
    0.  Every operator built here is a generator, killed or reflecting, so
    S is positive semidefinite and only round-off puts its lowest value
    below 0; an operator with a growing mode factors at neither shift and
    raises.  After each solve the shift moves up to rho - r, the Rayleigh
    quotient less the residual norm, wherever that factorization also
    succeeds, so the iteration converges to the lowest pair and to no
    other.  It stops when r stops falling, at the round-off floor, and
    takes that step's pair; a fixed tolerance on r would stop before the
    smallest entries of the vector converge.  Raises ValueError when no
    shift factors or INVERSE_ITERATION_STEPS solves pass without a stall.
    """
    df, ef, info = dpttrf(d, e)
    if info:
        df, ef, info = dpttrf(d + 1e-12 * np.max(np.abs(d)), e)
        if info:
            raise ValueError("no shift below the spectrum factors")
    w, r_best = np.ones(d.size), math.inf
    for _ in range(INVERSE_ITERATION_STEPS):
        w = dpttrs(df, ef, w, overwrite_b=1)[0]
        w /= math.sqrt(np.add.reduce(w * w))
        rho, r = _rayleigh(rows, e, w)
        if not r < r_best:
            if math.isfinite(r):
                return rho, w
            break
        r_best = r
        shifted = dpttrf(d - (rho - r), e, overwrite_d=1)
        if shifted[2] == 0:
            df, ef = shifted[:2]
    raise ValueError("inverse iteration found no lowest eigenpair")


def _odd_profile(n: int) -> np.ndarray:
    """sin(pi (i - c) / n) for i < n, c the middle index: -cos(theta/2) on
    the cell grid.  Times a Calogero-Sutherland state sin^g(theta/2)
    C_{j-1}(cos(theta/2)), C a Gegenbauer polynomial, it spans only the
    states j - 2 and j, by the polynomials' three-term recurrence."""
    return np.sin(np.pi / n * (np.arange(n) - 0.5 * (n - 1)))


def _excited_symmetric(d, e, rows, found):
    """Eigenpair j = len(found) >= 1 of S (see :func:`_ground_symmetric`),
    found above the orthonormal lower states ``found``.

    It starts from :func:`_odd_profile` times state j - 1 and runs
    Rayleigh quotient iteration through LAPACK's pivoted LU of the
    indefinite S - rho I, deflated against the states below, until the
    residual norm r stops falling; in exact arithmetic it does not rise
    (Parlett), so a stall is the round-off floor.  An LU that meets an
    exact zero pivot, where rho is an eigenvalue to round-off, counts as
    a stall at the last solve's pair, or raises at the first solve.  Its
    certificate is the oscillation theorem: in an irreducible Jacobi
    matrix with e < 0 the eigenvector of the j-th lowest value has exactly
    j sign changes, so a converged vector with j of them is state j, and
    one with any other count raises ValueError, as does a run of
    INVERSE_ITERATION_STEPS solves without a stall.
    """
    j = len(found)
    w = _deflated(_odd_profile(d.size) * found[-1], found)
    rho, r_best = _rayleigh(rows, e, w)[0], math.inf
    for _ in range(INVERSE_ITERATION_STEPS):
        # one LU of S - rho I per solve, as each shift is used once
        *_, x, info = dgtsv(e, d - rho, e, w, overwrite_d=1)
        if info:
            # an exact zero pivot (as at m = 16, kappa = 4): a stall
            r = r_best
        else:
            w = _deflated(x, found)
            rho, r = _rayleigh(rows, e, w)
        if not r < r_best:
            if not math.isfinite(r):
                break
            changes = _sign_changes(w)
            if changes != j:
                raise ValueError(f"state {j} converged to a vector with "
                                 f"{changes} sign changes, not {j}")
            return rho, w
        r_best = r
    raise ValueError(f"inverse iteration found no state {j}")


def lowest_eigenpair(op: GridOperator) -> tuple[float, np.ndarray]:
    """Slowest decaying mode of the operator: (decay rate, eigenfunction).

    The decay rate is minus the largest eigenvalue of T, the lowest of the
    symmetrized S = -D T D^{-1}, found by :func:`_ground_symmetric`'s
    certified inverse iteration; the eigenvector is mapped back by D^{-1}
    and scaled to max-norm 1 with positive sign at its interior maximum.
    Raises ValueError where an off-diagonal product is not positive, so
    that D^{-1} does not exist: on the regular branch, next to the far
    end, for kappa below about 1.34; and where the bands are not finite.
    """
    lam, y = _ground_symmetric(*_symmetric_bands(op))
    vec = np.cumprod(np.append(1.0, np.sqrt(op.lower / op.upper))) * y
    return lam, vec / vec[np.argmax(np.abs(vec))]


def adjoint_decay_rate(kappa: float, m: int) -> float:
    """The decay rate of :func:`lowest_eigenpair` on build_adjoint_n2(kappa,
    m), in the LSW_HALF clock, without mapping its eigenvector back."""
    return _ground_symmetric(*_symmetric_bands(build_adjoint_n2(kappa, m)))[0]


def measured_convergence_order(kappa: float) -> float:
    """Fitted order of the eigenvalue error against the exact rate.

    Runs on coarse grids; at very fine grids the round-off of the bands
    themselves, which grows as m^2, contaminates the error and the fit
    becomes meaningless.  Needs kappa > 4 (see :func:`_decaying`): at
    kappa = 4 the rate is 0 and the fit would run on round-off.
    """
    exact = one_arm_lambda_exact(_decaying(kappa))
    return _grid_order(ADJOINT_ORDER_GRIDS,
                       lambda m: abs(adjoint_decay_rate(kappa, m) - exact))


def _grid_order(ms, error) -> float:
    """Fitted slope of log error(m) against log h, h = 2 pi / m."""
    errs = [error(m) for m in ms]
    slope, _ = np.polyfit(np.log([TWO_PI / m for m in ms]), np.log(errs), 1)
    return float(slope)


def build_fp_generator_n2(kappa: float, m: int) -> GridOperator:
    """Density-evolution matrix d/dth(V' P + kappa P') in flux form, in the
    Dyson clock.

    Finite volumes on cell-centred nodes: cell i sees (F_{i+1} - F_i)/h,
    with the Scharfetter-Gummel flux through face f (between cells f-1
    and f, at theta_f = f h)

        F_f = (kappa/h) [B(-delta_f) P_f - B(delta_f) P_{f-1}],
        delta_f = h V'(theta_f) / kappa,   B(x) = x / (e^x - 1),

    and zero flux through both ends.  B(-x) - B(x) = x, so F_f is
    kappa P' + V' P to second order and the matrix annihilates the
    stationary density to second order; its columns sum to zero, so it
    conserves total mass exactly; B > 0 keeps every off-diagonal product
    positive for all kappa > 0.
    """
    th = _cell_grid(m)
    _real("kappa", kappa)
    h = TWO_PI / m
    # V' = -2 cot(theta/2), of the gap's drift potential -4 ln|sin(theta/2)|
    delta = h * (-2.0 / np.tan(np.arange(1, m) * h / 2.0)) / kappa
    upper = kappa / h ** 2 / exprel(-delta)  # L[f-1, f]
    lower = kappa / h ** 2 / exprel(delta)   # L[f, f-1]
    diag = -(np.append(lower, 0.0) + np.insert(upper, 0, 0.0))
    return GridOperator(th, lower, diag, upper)


def stationary_gap_density(kappa: float, theta) -> np.ndarray:
    """Unnormalized stationary density of the gap, sin^{4/kappa}(theta/2)."""
    _real("kappa", kappa)
    return np.sin(np.asarray(theta, dtype=float) / 2.0) ** (4.0 / kappa)


def fp_equilibrium_residual(kappa: float, m: int) -> float:
    """Sup-norm of the Dyson-clock generator applied to the stationary density.

    Measured away from the endpoints: for kappa > 4 the density has
    unbounded derivative at theta = 0 where no finite-difference order
    survives, while on any interior window the residual is O(h^2).
    """
    op = build_fp_generator_n2(kappa, m)
    p = stationary_gap_density(kappa, op.grid)
    res = op.diag * p
    res[1:] += op.lower * p[:-1]
    res[:-1] += op.upper * p[1:]
    lo, hi = FP_RESIDUAL_WINDOW
    mask = (op.grid > lo) & (op.grid < hi)
    return float(np.max(np.abs(res[mask])))


def fp_residual_order(kappa: float) -> float:
    """Fitted grid order of :func:`fp_equilibrium_residual`."""
    return _grid_order(FP_ORDER_GRIDS,
                       lambda m: fp_equilibrium_residual(kappa, m))


def cs_ground_state(kappa: float, m: int, n_states: int = 2):
    """The ``n_states`` lowest eigenpairs of the Hamiltonian, state 0 by
    :func:`_ground_symmetric` and each next one by
    :func:`_excited_symmetric`, all certified, so reruns are bit-identical.

    H = -D^{-1/2} L D^{1/2}, symmetric tridiagonal, from the density-
    generator bands: D is the discrete stationary density, so the ground
    state is its square root, approximately sin^{2/kappa}(theta/2), at
    eigenvalue zero, and H and -L share their spectrum, which approximates
    Sutherland's E_n = n + kappa n^2 / 4 in the Dyson clock, twice the
    levels of the symmetrized build_adjoint_n2 bands for kappa <= 4.  Returns (values, vectors m x
    n_states, grid).  Raises ValueError, naming kappa and m, where an
    off-diagonal product of the bands is not positive: at m = 4096, from
    kappa = 0.005 down; and where a state fails its certificate, as where
    round-off splits the grid into blocks with equal levels (at kappa =
    0.006, from state 4 at m = 16 and from state 14 at m = 64), or where
    the values are not strictly increasing.
    """
    op = build_fp_generator_n2(kappa, m)
    if _count("n_states", n_states, 1) > m:
        raise ValueError(f"n_states must be an integer >= 1 and <= m = {m}")
    try:
        d, e, rows = _symmetric_bands(op)
        rho, w = _ground_symmetric(d, e, rows)
        vals, vecs = [rho], [w]
        while len(vals) < n_states:
            rho, w = _excited_symmetric(d, e, rows, vecs)
            if not rho > vals[-1]:
                raise ValueError("the eigenvalues are not strictly increasing")
            vals.append(rho)
            vecs.append(w)
    except ValueError as exc:
        # where exprel overflows in the end cells, which would split the
        # grid into decoupled blocks, or a state fails its certificate
        raise ValueError(f"{exc} at kappa = {kappa}, m = {m}") from None
    return np.array(vals), np.array(vecs).T, op.grid


def normalized_overlap(u, v) -> float:
    """|cos| of the angle between u and v, which rounding can lift above
    its Cauchy-Schwarz bound 1; that is clamped.  Raises ValueError where
    either norm is zero or not finite, as for a vector with a NaN."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if not (0.0 < nu < math.inf and 0.0 < nv < math.inf):
        raise ValueError("overlap needs vectors of finite, nonzero norm")
    return min(1.0, float(abs(u @ v) / (nu * nv)))


def survival_decay_rate(kappa: float, m: int = 512) -> float:
    """Asymptotic decay rate of the non-meeting probability for kappa > 4.

    That rate is by definition the principal eigenvalue of the backward
    generator, so this is adjoint_decay_rate(kappa, m), in the LSW_HALF
    clock.  For 0 < kappa <= 4 the particles never meet and the survival
    probability stays 1, and :func:`_decaying` rejects that kappa.
    """
    return adjoint_decay_rate(_decaying(kappa), m)
