"""Closed-form regularity values and bound evaluators for the two circulant
families, plus the Hoshino independence polynomial for cubic circulants.

The Hoshino polynomial is kept in two variants because the printed exponent
of (1+x) fails small cases; the brute-force independence polynomial decides
which variant is right, and `corrected` is the oracle-selected default.
"""

from __future__ import annotations

import math

from .complexes import IntPoly
from .graphs import davis_domke

__all__ = [
    "reg_hat_j",
    "reg_cubic",
    "hoshino_poly",
    "hoshino_for",
    "bound_family",
    "bound_cubic",
    "HOSHINO_VARIANTS",
]

HOSHINO_VARIANTS = ("printed", "corrected")


def reg_hat_j(n: int, j: int) -> int:
    """Regularity of the edge ideal of the circulant on n vertices whose
    distance set is 1..n//2 with j removed: 2 exactly when the complement
    (the single-distance circulant) is chordal, else 3."""
    if n < 4:
        raise ValueError("need n >= 4")
    if not 1 <= j <= n // 2:
        raise ValueError(f"need 1 <= j <= {n // 2}, got j={j}")
    return 2 if (n == 2 * j or n == 3 * math.gcd(j, n)) else 3


def reg_cubic(n: int, a: int) -> int:
    """Regularity of the edge ideal of the cubic circulant on 2n vertices with
    distances {a, n}: one more than the sum of reg(R/I) over the twisted-ladder
    or prism copies of its Davis-Domke decomposition."""
    copies, m, step = davis_domke(n, a)
    k = m // 2
    if step == 1:
        per_copy = k if m % 2 == 0 or k % 2 == 1 else k + 1
    else:
        per_copy = k if k % 2 == 0 else k + 1
    return copies * per_copy + 1


def hoshino_poly(n: int, variant: str = "corrected") -> IntPoly:
    """Hoshino's closed form for the independence polynomial of the cubic
    ladder circulants on 2n vertices.

    Every term's rational prefactor must clear to an integer; a remainder
    is reported with the offending (n, term index).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if variant not in HOSHINO_VARIANTS:
        raise ValueError(f"variant must be one of {HOSHINO_VARIANTS}")
    one_plus_x = IntPoly((1, 1))
    total = IntPoly((1,))
    for ell in range((n - 2) // 4 + 1):
        num = 2 * n * math.comb(n - 2 * ell - 2, 2 * ell)
        den = 2 * ell + 1
        if num % den:
            raise ValueError(f"non-integer coefficient at n={n}, term {ell}")
        exp = n - 4 * ell + 2 if variant == "printed" else n - 4 * ell - 2
        total = total + (num // den) * (one_plus_x ** exp).shifted(2 * ell + 1)
    return total


def hoshino_for(kind: str, n: int, variant: str = "corrected") -> IntPoly:
    """Predicted independence polynomial of moebius(n) or prism(n): the base
    closed form, plus 2x^n for the twisted ladder on an odd cycle (its two
    alternating transversals are independent there)."""
    poly = hoshino_poly(n, variant)
    if kind == "moebius":
        if n % 2 == 1:
            poly = poly + IntPoly((0,) * n + (2,))
        return poly
    if kind == "prism":
        if n % 2 == 0:
            raise ValueError("prism needs odd n")
        return poly
    raise ValueError(f"unknown kind {kind!r}")


def bound_family(kind: str, t: int) -> tuple[int, int | None]:
    """(regularity bound, pd bound or None) for the pendant-ladder families.

    Family A is the ladder with the rungless pendant column, B the plain
    ladder, D the ladder with two pendant vertices; D's bound only holds for
    t = 2l+1 with l odd.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    kind = kind.upper()
    if kind == "A":
        reg = (t + 4) // 2 if t % 2 == 0 else (t + 3) // 2
        pd = 3 * t // 2 + 1 if t % 2 == 0 else 3 * (t - 1) // 2 + 2
        return reg, pd
    if kind == "B":
        reg = (t + 4) // 2 if t % 2 == 0 else (t + 3) // 2
        return reg, None
    if kind == "D":
        if t % 4 != 3:
            raise ValueError("family D bound needs t = 2l+1 with l odd")
        return (t + 3) // 2, None
    raise ValueError(f"unknown family {kind!r}")


def bound_cubic(kind: str, n: int) -> tuple[int, int]:
    """(regularity bound, pd bound) for moebius(n) / prism(n), n >= 4."""
    if n < 4:
        raise ValueError("bounds need n >= 4")
    if kind == "moebius":
        if n % 2 == 0:
            k = n // 2
            return k + 1, 3 * k - 1
        k = (n - 1) // 2
        reg = k + 1 if k % 2 == 1 else k + 2
        return reg, 3 * k + 1
    if kind == "prism":
        if n % 2 == 0:
            raise ValueError("prism needs odd n")
        k = (n - 1) // 2
        reg = k + 1 if k % 2 == 0 else k + 2
        return reg, 3 * k + 1
    raise ValueError(f"unknown kind {kind!r}")
