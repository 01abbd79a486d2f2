"""Natural-log arithmetic for quantities that overflow float64.

Closed-form bound values for large predicate workloads reach 10^310 and
beyond, so they are carried as natural logarithms and only exponentiated
at the edges (where the result may legitimately be inf).
"""

import math

LN10 = math.log(10.0)


def log_sub(la: float, lb: float) -> float:
    """log(exp(la) - exp(lb)) for la > lb; lb = -inf passes through la."""
    if lb == -math.inf:
        return la
    if lb >= la:
        raise ValueError("log_sub requires la > lb")
    return la + math.log1p(-math.exp(lb - la))


def log_add(la: float, lb: float) -> float:
    """log(exp(la) + exp(lb))."""
    if la == -math.inf:
        return lb
    if lb == -math.inf:
        return la
    hi, lo = (la, lb) if la >= lb else (lb, la)
    return hi + math.log1p(math.exp(lo - hi))


def to_float(l: float) -> float:
    """exp(l), returning inf on overflow and 0.0 for -inf."""
    if l == -math.inf:
        return 0.0
    try:
        return math.exp(l)
    except OverflowError:
        return math.inf


def log10_of(l: float) -> float:
    """Convert a natural log to a base-10 log."""
    return l / LN10


def fmt_log10(l10: float) -> str:
    """Render a base-10 log as 'm.mmmmme+XXX' with 6 significant digits."""
    if l10 == -math.inf:
        return "0"
    exp10 = math.floor(l10)
    mant = 10.0 ** (l10 - exp10)
    # keep the mantissa in [1, 10) despite rounding at the digit boundary:
    # '.5f' gives 10.00000 exactly from 9.999995 up (the double nearest
    # 9.999995 lies above it)
    if mant >= 9.999995:
        mant /= 10.0
        exp10 += 1
    return f"{mant:.5f}e{exp10:+03d}"


def json_num(v):
    """A float for JSON output; None for a missing or non-finite value."""
    return None if v is None or not math.isfinite(v) else float(v)
