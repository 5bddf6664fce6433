"""Reduced simplicial homology dimensions over exact fields.

The chain complex is augmented: the empty face generates degree -1, so a
single point has no reduced homology and the empty-face complex has one
dimension of homology in degree -1.  The faces may also be a relative list,
the faces of a complex K outside a subcomplex L.  Its chain complex is the
quotient by L's chains: a boundary face that is not listed counts as zero,
nothing maps onto an empty face that is not listed, and the dims are those
of H(K, L).  Ranks are computed by exact Gaussian elimination: bit-packed
XOR elimination over GF(2), modular elimination for odd primes, and an
integer-preserving elimination for the rationals.

Over GF(2) the maps are ranked from the top size down, with clearing (C. Chen
and M. Kerber, "Persistent homology computation with a twist", EuroCG 2011).
Each column is reduced by the earlier ones until its highest row is one no
earlier column has.  A reduced column r of the map from size k + 1 is a
boundary, so its own boundary is zero.  If its highest row is face i, that
says the boundary of i is a sum of boundaries of faces listed before i: the
column of i in the map from size k lies in the span of lower-indexed
columns.  So that column is skipped, and the rank does not change.

Over Q most complexes need no integer elimination.  By the universal
coefficient theorem (Hatcher, *Algebraic Topology*, 2002, section 3.A),
dim H_d(K; GF(2)) = rank H_d(K; Z) + t_d + t_(d-1), where t_d counts the
2-primary cyclic summands of H_d(K; Z).  So the GF(2) dims exceed the Q dims
by nonnegative amounts that vanish wherever the GF(2) dim does, and since
both alternating sums equal the reduced Euler characteristic, the excesses
have alternating sum zero.  When the nonzero GF(2) dims all lie in degrees
of one parity, the excesses all carry one sign in that sum, so each is
zero: the GF(2) dims are the Q dims.  Otherwise the boundaries are ranked
over the integers.  2-torsion raises the GF(2) dims in two adjacent degrees,
so a complex with 2-torsion always takes that fallback.  The rule is for Q
alone: a Q result equal to the GF(2) one says nothing about odd torsion.
All of this holds for a relative list alike, since its chains are free.
"""

from __future__ import annotations

from math import gcd

from ._bitops import bits
from .complexes import SimplicialComplex

__all__ = [
    "RATIONALS",
    "normalize_field",
    "field_name",
    "reduced_homology_dims",
    "euler_from_homology",
]

RATIONALS = "Q"


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def normalize_field(field) -> int | str:
    """Accept a prime (int or digit string) or a rationals marker ('Q')."""
    if isinstance(field, str):
        if field.strip().upper() == "Q":
            return RATIONALS
        field = int(field)
    if not _is_prime(field):
        raise ValueError(f"field must be a prime or 'Q', got {field!r}")
    return field


def field_name(field) -> str:
    f = normalize_field(field)
    return "Q" if f == RATIONALS else str(f)


# -- exact ranks -------------------------------------------------------------


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    """In-place modular Gaussian elimination; returns the rank."""
    if not rows or not rows[0]:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if rows[i][col] % p:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        prow = rows[rank]
        for i in range(rank + 1, nrows):
            f = rows[i][col] % p
            if f:
                f = f * inv % p
                row = rows[i]
                for k in range(col, ncols):
                    row[k] = (row[k] - f * prow[k]) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def _rank_int(rows: list[list[int]]) -> int:
    """Fraction-free elimination over the integers (rational rank).

    Cross-multiplication keeps every entry integral; rows are divided by
    their gcd after each update to control growth.
    """
    if not rows or not rows[0]:
        return 0
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    for col in range(ncols):
        piv = None
        for i in range(rank, nrows):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        prow = rows[rank]
        for i in range(rank + 1, nrows):
            a = rows[i][col]
            if a:
                row = [x * pv - a * y for x, y in zip(rows[i], prow)]
                g = 0
                for x in row:
                    g = gcd(g, x)
                    if g == 1:
                        break
                rows[i] = [x // g for x in row] if g > 1 else row
        rank += 1
        if rank == nrows:
            break
    return rank


# -- boundary construction ---------------------------------------------------


def _signed_rows(smaller: list[int], larger: list[int]) -> list[list[int]]:
    """Signed boundary matrix with a row per face in *smaller* and a column
    per face in *larger*: dropping the t-th vertex of a face gives the entry
    (-1)^t at the face that is left, or nothing when that face is unlisted."""
    index = {m: i for i, m in enumerate(smaller)}
    rows = [[0] * len(larger) for _ in smaller]
    for cj, face in enumerate(larger):
        sign = 1
        for v in bits(face):
            i = index.get(face ^ (1 << v))
            if i is not None:
                rows[i][cj] = sign
            sign = -sign
    return rows


def _boundary_rank(smaller: list[int], larger: list[int], field, pivots: set) -> int:
    """Rank of the boundary map from the size-(k) faces in *larger* down to
    the size-(k-1) faces in *smaller*; a face missing from *smaller* counts
    as zero.  Over GF(2) the columns are reduced in order, each by the
    earlier column with the same highest row, and *pivots* gets the face of
    each reduced column's highest row."""
    if field == 2:
        index = {m: 1 << i for i, m in enumerate(smaller)}
        reduced: dict[int, int] = {}  # highest row -> reduced column
        for face in larger:
            col = 0
            rest = face
            while rest:
                low = rest & -rest
                col |= index.get(face ^ low, 0)
                rest ^= low
            while col:
                top = col.bit_length() - 1
                if top not in reduced:
                    reduced[top] = col
                    break
                col ^= reduced[top]
        pivots.update(smaller[i] for i in reduced)
        return len(reduced)
    rows = _signed_rows(smaller, larger)
    if field == RATIONALS:
        return _rank_int(rows)
    return _rank_mod_p(rows, field)


def homology_dims_from_sizes(sizes: list[list[int]], field) -> dict[int, int]:
    """Reduced homology dimensions given faces grouped by cardinality.

    *sizes* may be a relative list, the faces of K not in a subcomplex L,
    and the dims are then those of H(K, L).  Returns {degree: dim} for
    degrees -1..dim.  Over Q the GF(2) dims are taken first; when their
    nonzero degrees share one parity they are the Q dims (universal
    coefficients, see the module docstring), and otherwise the boundaries
    are ranked over the integers.  Over GF(2) the maps are ranked from the
    top size down, with clearing.
    """
    field = normalize_field(field)
    if field == RATIONALS:
        dims = homology_dims_from_sizes(sizes, 2)
        if len({d % 2 for d, dim in dims.items() if dim}) < 2:
            return dims
    top = len(sizes) - 1
    # ranks[k]: rank of the boundary from size-k faces to size-(k-1) faces,
    # zero for k = 0 and k = top + 1; k = 1 is the all-ones row onto the
    # empty face, when it is listed.
    ranks = [0] * (top + 2)
    if top >= 1 and sizes[0] and sizes[1]:
        ranks[1] = 1
    cleared: set[int] = set()  # over GF(2), the pivots of the map one size up
    for k in range(top, 1, -1):
        cols = [f for f in sizes[k] if f not in cleared]
        cleared = set()
        if sizes[k - 1] and cols:
            ranks[k] = _boundary_rank(sizes[k - 1], cols, field, cleared)
    return {d: len(sizes[d + 1]) - ranks[d + 1] - ranks[d + 2] for d in range(-1, top)}


# -- public operations --------------------------------------------------------


def reduced_homology_dims(cx: SimplicialComplex, field=2) -> dict[int, int]:
    """dim of each reduced homology group of the complex over the field.

    Keys run from -1 up to the complex dimension.  The void complex has no
    homology and is rejected.
    """
    if cx.is_void:
        raise ValueError("the void complex has no reduced homology")
    return homology_dims_from_sizes(cx.faces_by_size(), field)


def euler_from_homology(cx: SimplicialComplex, field=2) -> int:
    """Alternating sum of reduced homology dimensions, starting in degree -1."""
    dims = reduced_homology_dims(cx, field)
    return sum(dim if d % 2 == 0 else -dim for d, dim in dims.items())
