"""N-particle radial SLE / circular Dyson Brownian motion toolkit."""

import math
import numbers

__version__ = "0.1.0"


def _count(name, value, low):
    """``value``, a Python or numpy integer >= ``low``, unchanged; a bool,
    a float, a string or a smaller integer raises ValueError naming it."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Integral)
            or value < low):
        raise ValueError(f"{name} must be an integer >= {low}")
    return value


def _real(name, value, zero_ok=False):
    """``value``, a finite real above 0 (at least 0 where ``zero_ok``),
    unchanged; a bool, NaN, an infinity or a non-real raises ValueError
    naming it."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (0.0 <= value if zero_ok else 0.0 < value)
            or not value < math.inf):
        sign = "nonnegative" if zero_ok else "positive"
        raise ValueError(f"{name} must be {sign} and finite")
    return value
