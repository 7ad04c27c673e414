"""Exact-rational scaling-exponent calculator.

Everything here is pure `fractions.Fraction` arithmetic -- no floats --
so the identities between the Kac-table combinations, the multi-leg
fusion exponent p(p-1)/kappa and the product-ansatz exponent
p(p-1)*beta/2 can be asserted with zero tolerance.

Three beta conventions are in circulation (beta = 4/kappa from the
stationary Dyson law, 2/kappa from a boundary-operator counting, and
8/kappa from the corrected conformal-factor argument).  BetaConvention
names them by their exact integer numerators; this module takes no
position on which is physical and simply computes under each.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction

from . import _count, _real


class BetaConvention(Enum):
    """Mapping from the SLE parameter kappa to the ensemble beta, as the
    exact numerator of beta = value/kappa."""

    DYSON_4_OVER_KAPPA = 4   # realized by the simulated SDE
    CFT_2_OVER_KAPPA = 2
    CORRECTED_8_OVER_KAPPA = 8


def _positive(x, name: str) -> Fraction:
    """x as an exact Fraction; floats, bools, zero denominators, other
    non-rationals and x <= 0 are rejected, the last two with the package's
    ``_real`` message."""
    if isinstance(x, float):
        raise TypeError("exact arithmetic only: pass int, Fraction or str")
    if isinstance(x, bool):
        raise ValueError(f"{name} must be an int, Fraction or str, not a bool")
    try:
        x = Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"{name} {x!r} has a zero denominator") from None
    except TypeError:
        x = None  # a complex or other non-rational, which _real refuses
    return _real(name, x)


def beta_from_kappa(kappa, convention: BetaConvention
                    = BetaConvention.DYSON_4_OVER_KAPPA) -> Fraction:
    """beta as an exact rational: 4/kappa, 2/kappa or 8/kappa."""
    kappa = _positive(kappa, "kappa")
    return Fraction(convention.value) / kappa


def kac_h_1_s(kappa, p: int) -> Fraction:
    """Kac weight of the (p+1)-st first-row operator: p(2p+4-kappa)/(2 kappa)."""
    kappa = _positive(kappa, "kappa")
    p = int(_count("p", p, 1))  # exact: numpy's int64 would wrap
    return p * (2 * p + 4 - kappa) / (2 * kappa)


def fusion_exponent(p: int, kappa) -> Fraction:
    """Exponent p(p-1)/kappa of the p-leg fusion; equals the Kac-table
    combination h_{1,p+1} - p*h_{1,2}, an exact identity."""
    kappa = _positive(kappa, "kappa")
    p = int(_count("p", p, 2))
    return Fraction(p * (p - 1)) / kappa


def ansatz_exponent(p: int, beta) -> Fraction:
    """Exponent p(p-1)*beta/2 of the pairwise small-separation product.

    With beta = 4/kappa this is exactly twice fusion_exponent(p, kappa);
    the two agree only under beta = 2/kappa -- the factor-of-two
    discrepancy between the conventions, reproduced here exactly.
    """
    beta = _positive(beta, "beta")
    p = int(_count("p", p, 2))
    return Fraction(p * (p - 1)) * beta / 2


def h21(kappa) -> Fraction:
    """Weight (6 - kappa)/(2 kappa) of the degenerate second-column operator."""
    kappa = _positive(kappa, "kappa")
    return (6 - kappa) / (2 * kappa)


def exponent_table(kappas, p_max: int = 4):
    """Rows (kappa, beta_dyson, h21, fusion_2..p_max) as exact fractions."""
    _count("p_max", p_max, 2)
    rows = []
    for kap in kappas:
        kap = _positive(kap, "kappa")
        row = {
            "kappa": kap,
            "beta_dyson": beta_from_kappa(kap),
            "beta_cft": beta_from_kappa(kap, BetaConvention.CFT_2_OVER_KAPPA),
            "beta_corrected": beta_from_kappa(
                kap, BetaConvention.CORRECTED_8_OVER_KAPPA),
            "h21": h21(kap),
        }
        for p in range(2, p_max + 1):
            row[f"fusion_{p}"] = fusion_exponent(p, kap)
        rows.append(row)
    return rows
