"""Independence complexes, f-vectors, independence polynomials, and a
transfer-matrix evaluator for the cubic-ladder independence polynomials.

A complex stores its faces as vertex bitmasks, grouped by size, and always
holds the empty face.  One routine, _list_faces, lists the independent sets
of a graph, for independence_complex and the Betti sweep's cores.
independent_set_counts counts independent sets without listing them.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import Graph, bits

__all__ = [
    "IntPoly",
    "SimplicialComplex",
    "independence_complex",
    "independence_polynomial",
    "euler_via_independence",
    "transfer_matrix_indpoly",
]

MAX_MATERIALIZED_FACES = 1 << 20


class IntPoly:
    """Univariate polynomial with integer coefficients, index = power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = [int(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return IntPoly(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(c * other for c in self.coeffs)
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "IntPoly":
        if k < 0:
            raise ValueError("negative power")
        out = IntPoly((1,))
        for _ in range(k):
            out = out * self
        return out

    def shifted(self, k: int) -> "IntPoly":
        """Multiply by x^k."""
        if not self.coeffs:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                term = str(c)
            else:
                mag = "" if abs(c) == 1 else str(abs(c))
                term = f"{'-' if c < 0 else ''}{mag}x" + (f"^{k}" if k > 1 else "")
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"

    def to_json_dict(self) -> dict:
        return {"coeffs": list(self.coeffs)}


class SimplicialComplex:
    """Downward-closed face family, stored as its faces: vertex masks grouped
    by cardinality (index 0 = the empty face), each group ascending.  A list
    without the empty face is rejected."""

    __slots__ = ("_sizes",)

    def __init__(self, sizes: list[list[int]]):
        if sizes[:1] != [[0]]:
            raise ValueError("a complex must hold the empty face")
        self._sizes = sizes

    def faces_by_size(self) -> list[list[int]]:
        """All faces as masks, grouped by cardinality, each group ascending."""
        return self._sizes

    def f_vector(self) -> tuple[int, ...]:
        """(f_-1, f_0, ..., f_D)."""
        return tuple(len(b) for b in self._sizes)

    def euler_char(self) -> int:
        """Reduced Euler characteristic: alternating f-vector sum from f_-1."""
        fv = self.f_vector()
        return sum(f if k % 2 else -f for k, f in enumerate(fv))


# -- face listing -------------------------------------------------------------


def _list_faces(adj: Sequence[int], mask: int) -> list[int]:
    """Every independent subset of *mask* in the graph with adjacency *adj*,
    in increasing mask order.  Faces grow from the empty face by the vertices
    of *mask* in ascending order; a face takes a vertex adjacent to none of
    its members.  Refuses more than MAX_MATERIALIZED_FACES faces, counted
    before a vertex is added.
    """
    limit = MAX_MATERIALIZED_FACES
    faces, free = [0], [mask]  # free[i]: the vertices of mask adjacent to no member of faces[i]
    for v in bits(mask):
        bit, keep = 1 << v, ~adj[v]
        # A vertex at most doubles the list, so only one past half the bound is counted.
        if 2 * len(faces) > limit and len(faces) + sum(1 for s in free if s & bit) > limit:
            raise ValueError(f"complex has more than {limit} faces")
        faces += [f | bit for f, s in zip(faces, free) if s & bit]
        free += [s & keep for s in free if s & bit]
    return faces


def _by_size(faces: list[int]) -> list[list[int]]:
    """Faces grouped by cardinality, each group in the order given."""
    sizes: list[list[int]] = [[] for _ in range(max(map(int.bit_count, faces), default=-1) + 1)]
    for f in faces:
        sizes[f.bit_count()].append(f)
    return sizes


# -- independence complexes ------------------------------------------------


def independence_complex(g: Graph) -> SimplicialComplex:
    """Complex whose faces are exactly the independent vertex sets of g,
    listed once, refusing more than MAX_MATERIALIZED_FACES."""
    return SimplicialComplex(_by_size(_list_faces(g.adj, g.full_mask)))


def independent_set_counts(g: Graph) -> list[int]:
    """counts[r] = number of independent sets of size r (counts[0] == 1)."""
    counts = [0] * (g.n + 1)
    adj = g.adj

    def rec(cand: int, size: int) -> None:
        counts[size] += 1
        c = cand
        while c:
            low = c & -c
            c ^= low
            rec(c & ~adj[low.bit_length() - 1], size + 1)

    rec(g.full_mask, 0)
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts


def independence_polynomial(g: Graph) -> IntPoly:
    """Generating polynomial of independent-set counts by size."""
    return IntPoly(independent_set_counts(g))


def euler_via_independence(g: Graph) -> int:
    """Reduced Euler characteristic of the independence complex, computed
    as minus the independence polynomial evaluated at -1."""
    return -independence_polynomial(g)(-1)


# -- transfer matrix for cyclic ladders --------------------------------------


def _matmul(a, b):
    size = len(a)
    return [
        [sum((a[i][j] * b[j][k] for j in range(size)), IntPoly()) for k in range(size)]
        for i in range(size)
    ]


def transfer_matrix_indpoly(kind: str, n: int) -> IntPoly:
    """Independence polynomial of the cubic ladder circulants via a
    3-state-per-rung transfer matrix.

    States per rung: empty, top occupied, bottom occupied.  A rung edge
    forbids both-occupied outright; rail edges forbid equal occupied states
    on adjacent rungs.  The cycle closes with a plain step for the prism and
    with a top/bottom swap at the seam for the twisted (moebius) ladder.
    """
    x = IntPoly((0, 1))
    one = IntPoly((1,))
    zero = IntPoly()
    step = [[one, one, one], [x, zero, x], [x, x, zero]]
    twist = [[one, one, one], [x, x, zero], [x, zero, x]]
    if kind == "moebius":
        if n < 2:
            raise ValueError("moebius ladder needs n >= 2")
        closing = twist
    elif kind == "prism":
        if n < 3 or n % 2 == 0:
            raise ValueError("prism needs odd n >= 3")
        closing = step
    else:
        raise ValueError(f"unknown ladder kind {kind!r}")
    acc = [[one, zero, zero], [zero, one, zero], [zero, zero, one]]
    for _ in range(n - 1):
        acc = _matmul(acc, step)
    acc = _matmul(closing, acc)
    return acc[0][0] + acc[1][1] + acc[2][2]
