"""Reduced two-particle operators on the relative angle theta in (0, 2*pi).

Two banded discretizations of the same diffusion, in one place:

* the backward (first-passage) generator acting on observables,
  (kappa/2) h'' + cot(theta/2) h'  in the half-speed clock, collocated on
  the regular-singular branch at theta = 0;
* the Fokker-Planck generator acting on densities, an exponentially fitted
  (Scharfetter-Gummel) flux whose discrete kernel approximates the
  stationary gap density sin^{4/kappa}(theta/2).

The Calogero-Sutherland Hamiltonian is not discretized separately: it is
the symmetrized fitted generator, -D^{-1/2} L D^{1/2} with the diagonal D
that makes it symmetric, so it shares the generator's spectrum exactly.

The lowest decaying mode of the backward generator on the singular branch
theta^{1-4/kappa} has the closed-form rate (kappa^2-16)/(32 kappa), which
the solvers here reproduce to second order in the grid spacing.

Every rate here is in the half-speed (LSW_HALF) clock; a Dyson-clock rate
is twice it.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal
from scipy.special import exprel

TWO_PI = 2.0 * math.pi
SURVIVAL_DT = 1e-2              # implicit-Euler step of the survival solve
DECAY_THETA0 = math.pi          # initial gap of the decay-rate fit
DECAY_FIT_RANGE = (1e-4, 1e-1)  # survival values the decay rate is fitted on


@dataclass(frozen=True)
class GridOperator:
    """A finite-difference operator with its collocation grid.

    ``grid`` holds the cell-centred nodes (i+1/2)h on (0, 2*pi).
    """

    grid: np.ndarray
    matrix: object  # scipy sparse, banded

    def __post_init__(self):
        m = self.grid.size
        if m < 16:
            raise ValueError("need at least 16 grid nodes")
        if self.matrix.shape != (m, m):
            raise ValueError("matrix must be square over the grid")


def _cell_grid(m: int) -> np.ndarray:
    if m < 16:
        raise ValueError("need at least 16 grid nodes")
    h = TWO_PI / m
    return (np.arange(m) + 0.5) * h


def one_arm_lambda_exact(kappa: float) -> float:
    """Closed-form lowest decay rate (kappa^2 - 16) / (32 kappa).

    Zero at kappa = 4; below 4 the particles never meet and no decaying
    one-arm mode exists.
    """
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    if kappa < 4.0:
        raise ValueError("no decaying one-arm mode for kappa < 4")
    return (kappa * kappa - 16.0) / (32.0 * kappa)


def one_arm_eigenfunction(kappa: float, theta) -> np.ndarray:
    """The decaying mode sin(theta/4)^(1 - 4/kappa) on the singular branch."""
    theta = np.asarray(theta, dtype=float)
    return np.sin(theta / 4.0) ** (1.0 - 4.0 / kappa)


def build_adjoint_n2(kappa: float, m: int) -> GridOperator:
    """Collocation matrix for (kappa/2) h'' + cot(theta/2) h' on (0, 2*pi].

    The origin is a regular singular point with indicial exponents 0 and
    1 - 4/kappa.  For kappa > 4 the decaying branch theta^{1-4/kappa} is
    selected by collocating in the basis theta^alpha * (local quadratic),
    which keeps the scheme second order through the singular endpoint; for
    kappa <= 4 that exponent is nonpositive and only the regular (alpha=0)
    branch makes sense.  The far end 2*pi gets a Neumann ghost cell.
    """
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    th = _cell_grid(m)
    alpha = 1.0 - 4.0 / kappa if kappa > 4.0 else 0.0
    h = TWO_PI / m
    # three-point stencils: one-sided at the singular end, and at 2*pi a
    # ghost node (m + 1/2) h that mirrors the last cell (Neumann)
    idx = np.clip(np.arange(m) - 1, 0, m - 2)[:, None] + np.arange(3)
    pts = (idx + 0.5) * h

    # column k: the operator applied to theta^alpha * ell_k at the row's
    # node x, with ell_k the Lagrange basis polynomial of stencil point k,
    # scaled by pts^-alpha so the unknowns are the nodal values
    x = th[:, None]
    o1, o2 = pts[:, [1, 0, 0]], pts[:, [2, 2, 1]]  # the other two points
    den = (pts - o1) * (pts - o2)
    ell = (x - o1) * (x - o2) / den
    d1 = (2.0 * x - o1 - o2) / den
    d2 = 2.0 / den
    vals = ((0.5 * kappa * (alpha * (alpha - 1.0) * ell / x ** 2
                            + 2.0 * alpha * d1 / x + d2)
             + (alpha * ell / x + d1) / np.tan(x / 2.0))
            * (x / pts) ** alpha)
    rows = np.repeat(np.arange(m), 3)
    a = sp.csc_matrix((vals.ravel(), (rows, np.minimum(idx, m - 1).ravel())),
                      shape=(m, m))
    return GridOperator(grid=th, matrix=a)


def lowest_eigenpair(op: GridOperator) -> tuple[float, np.ndarray]:
    """Slowest decaying mode of the operator: (decay rate, eigenfunction).

    The decay rate is minus the largest real eigenvalue.  The eigenvector
    is scaled to max-norm 1 with positive sign at its interior maximum.
    Shift-invert Arnoldi from a fixed start vector, so reruns are
    bit-identical.
    """
    vals, vecs = spla.eigs(sp.csc_matrix(op.matrix), k=4, sigma=0.5,
                           v0=np.ones(op.grid.size))
    pick = int(np.argmax(vals.real))
    lam, vec = vals[pick], vecs[:, pick]
    if abs(lam.imag) > 1e-8 * max(1.0, abs(lam.real)):
        raise ArithmeticError("leading eigenvalue is not real")
    vec = vec.real
    vec = vec / vec[np.argmax(np.abs(vec))]
    return float(-lam.real), vec


def adjoint_decay_rate(kappa: float, m: int) -> float:
    lam, _ = lowest_eigenpair(build_adjoint_n2(kappa, m))
    return lam


def measured_convergence_order(kappa: float, ms=(32, 64, 128, 256)) -> float:
    """Fitted order of the eigenvalue error against the exact rate.

    Runs on coarse grids; at very fine grids the eigensolver's residual
    floor contaminates the error and the fit becomes meaningless.
    """
    exact = one_arm_lambda_exact(kappa)
    errs = [abs(adjoint_decay_rate(kappa, m) - exact) for m in ms]
    slope, _ = np.polyfit(np.log([TWO_PI / m for m in ms]), np.log(errs), 1)
    return float(slope)


def relative_potential_prime(theta):
    """d/dtheta of -4 ln|sin(theta/2)|, the drift potential of the gap."""
    return -2.0 / np.tan(np.asarray(theta, dtype=float) / 2.0)


def _fp_bands(kappa: float, m: int):
    """Sub-, main and super-diagonal of the fitted density generator.

    Cell i sees (F_{i+1} - F_i)/h, with the Scharfetter-Gummel flux through
    face f (between cells f-1 and f, at theta_f = f h)

        F_f = (kappa/h) [B(-delta_f) P_f - B(delta_f) P_{f-1}],
        delta_f = h V'(theta_f) / kappa,   B(x) = x / (e^x - 1),

    and zero flux through both ends.  B(-x) - B(x) = x, so F_f is
    kappa P' + V' P to second order; B > 0 keeps every off-diagonal
    product positive for all kappa > 0.
    """
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    h = TWO_PI / m
    delta = h * relative_potential_prime(np.arange(1, m) * h) / kappa
    upper = kappa / h ** 2 / exprel(-delta)  # L[f-1, f]
    lower = kappa / h ** 2 / exprel(delta)   # L[f, f-1]
    # columns sum to zero: mass is conserved exactly
    diag = -(np.append(lower, 0.0) + np.insert(upper, 0, 0.0))
    return lower, diag, upper


def build_fp_generator_n2(kappa: float, m: int) -> GridOperator:
    """Density-evolution matrix d/dth(V' P + kappa P') in flux form.

    Finite volumes on cell-centred nodes with an exponentially fitted flux
    and zero flux through both ends, so the matrix conserves total mass
    exactly (columns sum to zero) and annihilates the stationary density to
    second order.
    """
    th = _cell_grid(m)
    lower, diag, upper = _fp_bands(kappa, m)
    mat = sp.diags([lower, diag, upper], offsets=[-1, 0, 1], format="csr")
    return GridOperator(grid=th, matrix=mat)


def stationary_gap_density(kappa: float, theta) -> np.ndarray:
    """Unnormalized stationary density of the gap, sin^{4/kappa}(theta/2)."""
    return np.sin(np.asarray(theta, dtype=float) / 2.0) ** (4.0 / kappa)


def fp_equilibrium_residual(kappa: float, m: int,
                            window=(np.pi / 4.0, 7.0 * np.pi / 4.0)) -> float:
    """Sup-norm of the generator applied to the stationary density.

    Measured away from the endpoints: for kappa > 4 the density has
    unbounded derivative at theta = 0 where no finite-difference order
    survives, while on any interior window the residual is O(h^2).
    """
    op = build_fp_generator_n2(kappa, m)
    res = op.matrix @ stationary_gap_density(kappa, op.grid)
    mask = (op.grid > window[0]) & (op.grid < window[1])
    return float(np.max(np.abs(res[mask])))


def fp_residual_order(kappa: float, ms=(256, 512, 1024, 2048)) -> float:
    errs = [fp_equilibrium_residual(kappa, m) for m in ms]
    slope, _ = np.polyfit(np.log([TWO_PI / m for m in ms]), np.log(errs), 1)
    return float(slope)


def cs_ground_state(kappa: float, m: int, n_states: int = 2):
    """Lowest eigenpairs of the Hamiltonian via the tridiagonal solver.

    H = -D^{-1/2} L D^{1/2}, symmetric tridiagonal, from the density-
    generator bands: D is the discrete stationary density, so the ground
    state is its square root, approximately sin^{2/kappa}(theta/2), at
    eigenvalue zero, and H and -L share their spectrum, which approximates
    Sutherland's E_n = n + kappa n^2 / 4.  Returns (values, vectors, grid).
    """
    th = _cell_grid(m)
    lower, diag, upper = _fp_bands(kappa, m)
    vals, vecs = eigh_tridiagonal(-diag, -np.sqrt(lower * upper), select="i",
                                  select_range=(0, n_states - 1))
    return vals, vecs, th


def normalized_overlap(u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(abs(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def _survival_steps(op: GridOperator, n_steps: int):
    """Non-meeting probability h(theta, t) on op's grid at t = SURVIVAL_DT,
    2 SURVIVAL_DT, ..., n_steps SURVIVAL_DT: implicit Euler on the backward
    generator ``op`` from h = 1, one step per item."""
    h = np.ones(op.grid.size)
    lu = spla.splu(sp.identity(h.size, format="csc") - SURVIVAL_DT * op.matrix)
    for _ in range(n_steps):
        h = lu.solve(h)
        yield h


def survival_probability(kappa: float, theta0: float, t: float,
                         m: int = 1024) -> float:
    """P(the two particles have not met by time t | gap theta0 at 0).

    ``t`` must be a nonnegative integer multiple of SURVIVAL_DT (to a
    relative 1e-9).  For kappa <= 4 the particles never collide and the
    answer is exactly 1.  Above 4 the backward PDE is stepped implicitly
    from h = 1 with the absorbing singular branch at theta = 0.
    """
    if not kappa > 0.0:
        raise ValueError("kappa must be positive")
    if not 0.0 < theta0 < TWO_PI:
        raise ValueError("theta0 must lie in (0, 2*pi)")
    if not t >= 0.0:
        raise ValueError(f"t must be nonnegative, got {t!r}")
    ratio = t / SURVIVAL_DT
    if not (math.isfinite(ratio)
            and math.isclose(ratio, round(ratio), rel_tol=1e-9)):
        raise ValueError(f"t={t!r} is not a finite integer multiple of the "
                         f"step {SURVIVAL_DT!r}")
    if kappa <= 4.0 or t == 0.0:
        return 1.0
    op = build_adjoint_n2(kappa, m)
    for h in _survival_steps(op, round(ratio)):
        pass
    return float(np.interp(theta0, op.grid, h))


def survival_decay_rate(kappa: float, m: int = 512) -> float:
    """Fitted asymptotic decay rate of the non-meeting probability.

    Least squares on log h(DECAY_THETA0, t) over the window where h lies in
    DECAY_FIT_RANGE; matches one_arm_lambda_exact for kappa > 4.
    """
    if kappa <= 4.0:
        raise ValueError("no decay for kappa <= 4: survival is constant 1")
    lo, hi = DECAY_FIT_RANGE
    t_max = -math.log(lo / 2.0) / one_arm_lambda_exact(kappa)  # generous
    n_steps = int(round(t_max / SURVIVAL_DT))
    op = build_adjoint_n2(kappa, m)
    j = int(np.argmin(np.abs(op.grid - DECAY_THETA0)))
    hvals = np.fromiter((h[j] for h in _survival_steps(op, n_steps)), float)
    k = np.flatnonzero((hvals > lo) & (hvals < hi))  # hvals[k]: step k + 1
    if k.size < 10:
        raise ArithmeticError("too few points in the decay-fit window")
    slope, _ = np.polyfit((k + 1) * SURVIVAL_DT, np.log(hvals[k]), 1)
    return float(-slope)
