"""Reduced two-particle operators on the relative angle theta in (0, 2*pi).

Two tridiagonal discretizations of the same diffusion, in one place, each
held as its three bands and eigensolved by LAPACK's eigh_tridiagonal:

* the backward (first-passage) generator acting on observables,
  (kappa/2) h'' + cot(theta/2) h'  in the half-speed clock, collocated on
  the regular-singular branch at theta = 0;
* the Fokker-Planck generator acting on densities, an exponentially fitted
  (Scharfetter-Gummel) flux whose discrete kernel approximates the
  stationary gap density sin^{4/kappa}(theta/2).

The Calogero-Sutherland Hamiltonian is not discretized separately: it is
the symmetrized fitted generator, -D^{-1/2} L D^{1/2} with the diagonal D
that makes it symmetric, so it shares the generator's spectrum exactly.
The backward generator is symmetrized the same way for its eigensolve.

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
from scipy.linalg import eigh_tridiagonal
from scipy.special import exprel

TWO_PI = 2.0 * math.pi
ADJOINT_ORDER_GRIDS = (32, 64, 128, 256)  # m of measured_convergence_order
FP_ORDER_GRIDS = (256, 512, 1024, 2048)   # m of fp_residual_order
FP_RESIDUAL_WINDOW = (np.pi / 4.0, 7.0 * np.pi / 4.0)  # theta of FP residual


@dataclass(frozen=True)
class GridOperator:
    """A finite-difference operator S^{-1} T S with its collocation grid.

    ``grid`` holds the cell-centred nodes (i+1/2)h on (0, 2*pi).  T is the
    tridiagonal matrix with sub-, main and super-diagonal ``lower``,
    ``diag`` and ``upper``, and S = I + c e_0 e_1^T, so the operator and T
    share their spectrum and every eigenvector entry but the first.
    """

    grid: np.ndarray
    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    c: float = 0.0


def _cell_grid(m: int) -> np.ndarray:
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
        raise ValueError("m must be an integer")
    if m < 16:
        raise ValueError("need at least 16 grid nodes")
    h = TWO_PI / m
    return (np.arange(m) + 0.5) * h


def one_arm_lambda_exact(kappa: float) -> float:
    """Closed-form lowest decay rate (kappa^2 - 16) / (32 kappa).

    Zero at kappa = 4; below 4 the particles never meet and no decaying
    one-arm mode exists.
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError("kappa must be positive and finite")
    if kappa < 4.0:
        raise ValueError("no decaying one-arm mode for kappa < 4")
    return (kappa * kappa - 16.0) / (32.0 * kappa)


def one_arm_eigenfunction(kappa: float, theta) -> np.ndarray:
    """The decaying mode sin(theta/4)^(1 - 4/kappa) on the singular branch,
    which exists for 4 < kappa < inf."""
    if not 4.0 < kappa < math.inf:
        raise ValueError("no decaying one-arm mode: kappa must be finite "
                         "and > 4")
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

    Rows 0 and 1 share the one-sided stencil on nodes 0-2, so the matrix A
    has one entry off its bands, A[0, 2]; c = -A[0, 2] / A[1, 2] clears it,
    and the bands returned are those of T = S A S^{-1}.
    """
    if not 0.0 < kappa < math.inf:
        raise ValueError("kappa must be positive and finite")
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
    # row i holds A[i, i-1], A[i, i], A[i, i+1], except row 0 (A[0, 0..2])
    # and row m-1, whose ghost column folds into the diagonal
    lower, diag, upper = vals[1:, 0], vals[:, 1].copy(), vals[:-1, 2].copy()
    diag[-1] += vals[-1, 2]
    # S A S^{-1}: row 0 += c row 1, then column 1 -= c column 0
    c = -vals[0, 2] / vals[1, 2]
    diag[0], upper[0] = vals[0, :2] + c * vals[1, :2]
    upper[0] -= c * diag[0]
    diag[1] -= c * lower[0]
    return GridOperator(th, lower, diag, upper, c)


def lowest_eigenpair(op: GridOperator) -> tuple[float, np.ndarray]:
    """Slowest decaying mode of the operator: (decay rate, eigenfunction).

    The decay rate is minus the largest eigenvalue.  The bands are
    symmetrized by a diagonal similarity, as in cs_ground_state, and solved
    by LAPACK bisection and inverse iteration, so reruns are bit-identical.
    The eigenvector is scaled to max-norm 1 with positive sign at its
    interior maximum.  Raises ValueError where an off-diagonal product
    T[i+1, i] T[i, i+1] is not positive, so that no such similarity exists:
    on the regular branch, for kappa below about 1.35.
    """
    prod = op.lower * op.upper
    if not np.all(prod > 0.0):
        raise ValueError("an off-diagonal product is not positive")
    off = np.sqrt(prod)
    lam, y = eigh_tridiagonal(-op.diag, -off, select="i", select_range=(0, 0))
    vec = np.cumprod(np.append(1.0, off / op.upper)) * y[:, 0]
    vec[0] -= op.c * vec[1]
    return float(lam[0]), vec / vec[np.argmax(np.abs(vec))]


def adjoint_decay_rate(kappa: float, m: int) -> float:
    lam, _ = lowest_eigenpair(build_adjoint_n2(kappa, m))
    return lam


def measured_convergence_order(kappa: float) -> float:
    """Fitted order of the eigenvalue error against the exact rate.

    Runs on coarse grids; at very fine grids the eigensolver's residual
    floor contaminates the error and the fit becomes meaningless.  Needs
    kappa > 4: at kappa = 4 the rate is 0 and the fit would run on
    round-off.
    """
    exact = one_arm_lambda_exact(kappa)
    if exact == 0.0:
        raise ValueError("no order to fit at kappa = 4, where the rate is 0")
    ms = ADJOINT_ORDER_GRIDS
    errs = [abs(adjoint_decay_rate(kappa, m) - exact) for m in ms]
    slope, _ = np.polyfit(np.log([TWO_PI / m for m in ms]), np.log(errs), 1)
    return float(slope)


def relative_potential_prime(theta):
    """d/dtheta of -4 ln|sin(theta/2)|, the drift potential of the gap."""
    return -2.0 / np.tan(np.asarray(theta, dtype=float) / 2.0)


def build_fp_generator_n2(kappa: float, m: int) -> GridOperator:
    """Density-evolution matrix d/dth(V' P + kappa P') in flux form.

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
    if not 0.0 < kappa < math.inf:
        raise ValueError("kappa must be positive and finite")
    h = TWO_PI / m
    delta = h * relative_potential_prime(np.arange(1, m) * h) / kappa
    upper = kappa / h ** 2 / exprel(-delta)  # L[f-1, f]
    lower = kappa / h ** 2 / exprel(delta)   # L[f, f-1]
    diag = -(np.append(lower, 0.0) + np.insert(upper, 0, 0.0))
    return GridOperator(th, lower, diag, upper)


def stationary_gap_density(kappa: float, theta) -> np.ndarray:
    """Unnormalized stationary density of the gap, sin^{4/kappa}(theta/2)."""
    if not 0.0 < kappa < math.inf:
        raise ValueError("kappa must be positive and finite")
    return np.sin(np.asarray(theta, dtype=float) / 2.0) ** (4.0 / kappa)


def fp_equilibrium_residual(kappa: float, m: int) -> float:
    """Sup-norm of the generator applied to the stationary density.

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
    ms = FP_ORDER_GRIDS
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
    if (isinstance(n_states, bool)
            or not isinstance(n_states, (int, np.integer)) or n_states < 1):
        raise ValueError("n_states must be an integer >= 1")
    op = build_fp_generator_n2(kappa, m)
    vals, vecs = eigh_tridiagonal(-op.diag, -np.sqrt(op.lower * op.upper),
                                  select="i", select_range=(0, n_states - 1))
    return vals, vecs, op.grid


def normalized_overlap(u, v) -> float:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return float(abs(u @ v) / (np.linalg.norm(u) * np.linalg.norm(v)))


def survival_decay_rate(kappa: float, m: int = 512) -> float:
    """Asymptotic decay rate of the non-meeting probability for kappa > 4.

    That rate is by definition the principal eigenvalue of the backward
    generator, so this is adjoint_decay_rate(kappa, m), which rejects a
    kappa that is not positive and finite.  For 0 < kappa <= 4 the
    particles never meet and the survival probability stays 1.
    """
    if 0.0 < kappa <= 4.0:
        raise ValueError("no decay for kappa <= 4: survival is constant 1")
    return adjoint_decay_rate(kappa, m)
