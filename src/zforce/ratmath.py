"""Exact rational arithmetic for bound values.

Nothing here touches floating point: bound comparisons must not fail
from rounding.  The one transcendental quantity in the catalog, log2(n),
is handled two ways: bound *values* use a dyadic rational overestimate
accurate to well under 1e-9, and bound *checks* rearrange the inequality
into a pure integer power comparison.
"""

from __future__ import annotations

from fractions import Fraction


def harmonic(r: int) -> Fraction:
    """The r-th harmonic number 1 + 1/2 + ... + 1/r."""
    if r < 0:
        raise ValueError("harmonic number needs r >= 0")
    return sum((Fraction(1, i) for i in range(1, r + 1)), Fraction(0))


def fraction_json(f: Fraction) -> dict:
    """The JSON rendering of an exact value: numerator, denominator, decimal."""
    return {"num": f.numerator, "den": f.denominator, "decimal": float(f)}


#: The girths at which ``lower_girth_degree`` is a proven lower bound.
GIRTH_DEGREE_PROVEN = frozenset({3, 4, 5, 6})


def lower_girth_degree(gir: int, delta: int) -> Fraction:
    """(girth-2)*(delta-2) + 2; proven for the girths in
    ``GIRTH_DEGREE_PROVEN``, where at girth 3 it reads delta."""
    if gir < 3:
        raise ValueError("needs finite girth >= 3")
    if delta < 2:
        raise ValueError("needs minimum degree >= 2")
    return Fraction((gir - 2) * (delta - 2) + 2)


def girth5_regular_factor(r: int) -> Fraction:
    """prod_{i=1..r} (1 - 1/(r*i + 1)): the per-vertex inclusion probability
    of the random-permutation construction on an r-regular graph whose
    distance-2 balls are trees (girth at least 5)."""
    if r < 0:
        raise ValueError("regular factor needs r >= 0")
    out = Fraction(1)
    for i in range(1, r + 1):
        out *= 1 - Fraction(1, r * i + 1)
    return out


def log2_overestimate(n: int, frac_bits: int = 40) -> Fraction:
    """Dyadic rational L with log2(n) <= L < log2(n) + 1e-9.

    Classic square-and-extract bit recurrence on a 256-bit integer
    mantissa.  Every rounding step rounds up and one final ulp is added,
    so the result never falls below log2(n); the total overshoot is under
    2**-frac_bits plus accumulated mantissa error, far below 1e-9 at the
    default precision.  Exact for powers of two.
    """
    if n < 1:
        raise ValueError("log2 needs n >= 1")
    ip = n.bit_length() - 1
    if n == 1 << ip:
        return Fraction(ip)
    scale = 256
    big = 1 << scale
    m = -(-(n << scale) >> ip)  # ceil(n * 2^scale / 2^ip), in (big, 2*big)
    acc = 0
    for _ in range(frac_bits):
        m *= m
        if m >= 2 * big * big:
            acc = acc << 1 | 1
            m = -(-m >> (scale + 1))
        else:
            acc <<= 1
            m = -(-m >> scale)
    return ip + Fraction(acc + 1, 1 << frac_bits)


def subcubic_girth5_value(n: int) -> Fraction:
    """n/2 - n/(24*log2(n) + 6) + 2 as an exact rational.

    The log2 term uses the certified overestimate, and the expression is
    increasing in it, so the returned value never undercuts the true
    bound (safe direction for an upper bound) and overshoots by < 1e-9.
    """
    if n < 4:
        raise ValueError("the subcubic bound needs n >= 4")
    lg = log2_overestimate(n)
    return Fraction(n, 2) - n / (24 * lg + 6) + 2


def running_ratio_ok(n: int, z_size: int, closure_size: int) -> bool:
    """Exact check of (|Z|-2)/|F| <= 1/2 - 1/(8*log2(n)+2).

    Equivalent integer form: with t = |Z|-2 and m = 2|F| - 4t, the
    inequality holds iff t <= 0, or m > 0 and n**m >= 2**t.
    """
    t = z_size - 2
    if t <= 0:
        return True
    m = 2 * closure_size - 4 * t
    if m <= 0:
        return False
    return n ** m >= 1 << t


def log_budget(n: int) -> int:
    """floor(2*log2(n)), exactly: the largest c with 2**c <= n**2."""
    return (n * n).bit_length() - 1
