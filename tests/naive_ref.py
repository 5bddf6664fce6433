"""Slow, independent reference implementations used as test oracles.

Everything here works by direct enumeration and textbook row reduction
(Fractions over the rationals, modular arithmetic otherwise) with none of
the pruning, symmetry, bit-packing or memoization the library uses, so the
two routes to each number share no code beyond the definitions.
complex_from_facets only builds the library's complex from vertex lists, and
complete_graph and path_graph build the graphs K_n and P_n, and RP2_EDGES
lists the edges of a graph whose tables differ by field, as inputs of
checks.  The last five sections are the exceptions.  One generates
the binary necklaces by the Fredricksen-Kessler-Maiorana algorithm one
prenecklace step at a time, the reference the library's block walk must
match list for list.  One runs
the rounds of the sweep's fold on one subset at a time, with sets, as the
reference the bit-sliced fold, which folds every subset of a sweep at once,
must match exactly.  One lists the rows of a relabelled core, which the
sweep's int memo key packs, and walks the sweep's matching tree keeping
every critical cell, not a count per size: the references for the key and
for the tree's counts.  One states the cubic circulants' regularity by cases on
t = gcd(2n, a), as a reference for the library's form, which reads the
Davis-Domke decomposition.  The last tests graphs for isomorphism by
backtracking, and builds the disjoint union of ladder copies that the
Davis-Domke decomposition names, so that the decomposition can be checked
against the circulant it decomposes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from circreg.complexes import SimplicialComplex
from circreg.graphs import Graph, bits, circulant, davis_domke


def complete_graph(n: int) -> Graph:
    return Graph(n, combinations(range(n), 2))


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


# 1-skeleton complement of a 12-vertex flag triangulation of RP^2 (the
# 6-vertex RP^2 with edges subdivided until no empty triangle remains).
RP2_EDGES = (
    (0, 1), (0, 2), (0, 5), (0, 11), (1, 5), (1, 6), (1, 7), (1, 10), (2, 3),
    (2, 8), (2, 11), (3, 6), (3, 8), (3, 9), (3, 10), (4, 5), (4, 7), (4, 8),
    (4, 9), (4, 10), (4, 11), (5, 9), (5, 10), (6, 7), (6, 9), (6, 10),
    (6, 11), (7, 8), (7, 9), (7, 11), (8, 10), (9, 11), (10, 11),
)


def independent_mask(g: Graph, mask: int) -> bool:
    return not any(mask >> i & 1 and mask >> j & 1 for (i, j) in g.edges)


def independent_masks_within(g: Graph, w: int) -> list[int]:
    out = []
    sub = w
    while True:
        if independent_mask(g, sub):
            out.append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & w
    return sorted(out)


def faces_by_size_within(g: Graph, w: int) -> list[list[int]]:
    masks = independent_masks_within(g, w)
    top = max(m.bit_count() for m in masks)
    sizes: list[list[int]] = [[] for _ in range(top + 1)]
    for m in masks:
        sizes[m.bit_count()].append(m)
    return sizes


def relative_faces_by_size(g: Graph, w: int) -> list[list[int]]:
    """The faces of Ind(g - w) that meet N(w), grouped by size, ascending:
    the relative list of Ind(g - w) over Ind(g - N[w]).  Group 0 is empty,
    since the empty face meets nothing."""
    masks = [m for m in independent_masks_within(g, g.full_mask & ~(1 << w)) if m & g.adj[w]]
    top = max((m.bit_count() for m in masks), default=0)
    return [[m for m in masks if m.bit_count() == k] for k in range(top + 1)]


def complex_from_facets(n: int, facets) -> SimplicialComplex:
    """The complex on 0..n-1 whose facets are the given vertex lists, its
    faces listed by faces_of_facets."""
    return SimplicialComplex(faces_of_facets(n, [sum(1 << v for v in f) for f in facets]))


def maximal_independent_masks(g: Graph) -> list[int]:
    """Independent sets that no vertex can join, ascending."""
    return [
        m for m in independent_masks_within(g, g.full_mask)
        if not any(independent_mask(g, m | 1 << v) for v in range(g.n) if not m >> v & 1)
    ]


def faces_of_facets(n: int, facets: list[int]) -> list[list[int]]:
    """Every subset of 0..n-1 inside some facet, grouped by size, ascending;
    [] when there are no facets."""
    faces = [m for m in range(1 << n) if any(not m & ~f for f in facets)]
    if not faces:
        return []
    top = max(m.bit_count() for m in faces)
    return [[m for m in faces if m.bit_count() == k] for k in range(top + 1)]


def f_vector(g: Graph) -> tuple[int, ...]:
    sizes = faces_by_size_within(g, g.full_mask)
    return tuple(len(b) for b in sizes)


def indpoly_coeffs(g: Graph) -> list[int]:
    return list(f_vector(g))


def rank(matrix: list[list[int]], field) -> int:
    """Textbook Gauss-Jordan rank over GF(p) or (with Fractions) the rationals."""
    if not matrix or not matrix[0]:
        return 0
    rational = field == "Q"
    if rational:
        m = [[Fraction(x) for x in row] for row in matrix]
    else:
        m = [[x % field for x in row] for row in matrix]
    nrows, ncols = len(m), len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        if rational:
            pv = m[r][c]
            m[r] = [x / pv for x in m[r]]
        else:
            inv = pow(m[r][c], -1, field)
            m[r] = [x * inv % field for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                if rational:
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
                else:
                    m[i] = [(a - f * b) % field for a, b in zip(m[i], m[r])]
        r += 1
        if r == nrows:
            break
    return r


def boundary_rows(smaller: list[int], larger: list[int]) -> list[list[int]]:
    """Signed boundary matrix; a face missing from *smaller* has no row."""
    rows = [[0] * len(larger) for _ in smaller]
    index = {f: i for i, f in enumerate(smaller)}
    for j, face in enumerate(larger):
        for t, v in enumerate(sorted(bits(face))):
            if face ^ (1 << v) in index:
                rows[index[face ^ (1 << v)]][j] = (-1) ** t
    return rows


def homology_dims(sizes: list[list[int]], field) -> dict[int, int]:
    top = len(sizes) - 1

    def rank_k(k: int) -> int:
        if k < 1 or k > top or not sizes[k - 1] or not sizes[k]:
            return 0
        return rank(boundary_rows(sizes[k - 1], sizes[k]), field)

    return {d: len(sizes[d + 1]) - rank_k(d + 1) - rank_k(d + 2) for d in range(-1, top)}


def betti_entries(g: Graph, field=2) -> dict[tuple[int, int], int]:
    """Hochster sums over every subset, no shortcuts; graphs up to ~7 vertices."""
    entries: dict[tuple[int, int], int] = {}
    for w in range(1, 1 << g.n):
        j = w.bit_count()
        sizes = faces_by_size_within(g, w)
        for d, dim in homology_dims(sizes, field).items():
            if dim and j - d - 2 >= 0:
                cell = (j - d - 2, j)
                entries[cell] = entries.get(cell, 0) + dim
    return entries


def orbit_reps(g: Graph) -> list[tuple[int, int]]:
    """Least mask and size of each orbit of nonempty vertex subsets under the
    rotation v -> v+1 (mod n) when it is an automorphism of g, found by
    rotating every mask until it comes back; every mask with size 1
    otherwise.  Ascending."""
    n = g.n
    if {tuple(sorted(((i + 1) % n, (j + 1) % n))) for (i, j) in g.edges} != set(g.edges):
        return [(m, 1) for m in range(1, 1 << n)]
    seen: set[int] = set()
    out = []
    for m in range(1, 1 << n):
        if m in seen:
            continue
        orbit = {m}
        x = m
        while True:
            x = sum(1 << ((v + 1) % n) for v in range(n) if x >> v & 1)
            if x == m:
                break
            orbit.add(x)
        seen |= orbit
        out.append((min(orbit), len(orbit)))
    return out


def is_chordal(g: Graph) -> bool:
    """No induced cycle of length >= 4, by exhausting vertex subsets."""
    for w in range(1 << g.n):
        if w.bit_count() < 4:
            continue
        verts = list(bits(w))
        degs = [(g.adj[v] & w).bit_count() for v in verts]
        if any(d != 2 for d in degs):
            continue
        # connected 2-regular induced subgraph = induced cycle
        seen = 1 << verts[0]
        frontier = seen
        while frontier:
            nxt = 0
            for v in bits(frontier):
                nxt |= g.adj[v] & w
            frontier = nxt & ~seen
            seen |= frontier
        if seen == w:
            return False
    return True


def is_gap_free(g: Graph) -> bool:
    """No two edges on four distinct vertices with no edge between them."""
    return not any(
        len({a, b, c, d}) == 4 and not any(g.adjacent(x, y) for x in (a, b) for y in (c, d))
        for (a, b) in g.edges
        for (c, d) in g.edges
    )


# -- binary necklaces, one FKM step at a time ---------------------------------


def necklaces_fkm(n: int) -> list[tuple[int, int]]:
    """Least member and size of every rotation orbit of nonzero n-bit masks,
    read most significant bit first, ascending: the iterative
    Fredricksen-Kessler-Maiorana algorithm.  Each step increments the last 0
    of the current prenecklace, at position p, and repeats the first p bits;
    the result is a necklace with p rotations when p divides n."""
    out = []
    m, full = 0, (1 << n) - 1
    while m != full:
        t = (m ^ (m + 1)).bit_length() - 1  # trailing 1s, after the last 0
        p = n - t
        word = format((m >> t) | 1, f"0{p}b")
        m = int((word * n)[:n], 2)
        if not n % p:
            out.append((m, p))
    return out


# -- per-subset version of the sweep's fold ------------------------------------


def fold_rounds(g: Graph, masks) -> list[int]:
    """The vertex set each of *masks* folds to, or 0 for a cone, one subset
    at a time, in the rounds and pair order of the sweep's bit-sliced fold.

    A round returns 0 if the induced graph has an isolated vertex.  Then,
    for u and v ascending, with u, v distinct, non-adjacent and with a
    common neighbour in g, it removes v when both are in the set and every
    neighbour of u in the set is a neighbour of v.  Rounds repeat until one
    removes nothing."""
    n = g.n
    nbrs = [{w for w in range(n) if g.adjacent(v, w)} for v in range(n)]
    pairs = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and v not in nbrs[u] and nbrs[u] & nbrs[v]
    ]
    out = []
    for mask in masks:
        left = set(bits(mask))
        while left:
            if any(not nbrs[v] & left for v in left):
                left = set()
                break
            before = set(left)
            for u, v in pairs:
                if u in left and v in left and nbrs[u] & left <= nbrs[v]:
                    left.discard(v)
            if left == before:
                break
        out.append(sum(1 << v for v in left))
    return out


# -- the sweep's memo key as rows, and its matching tree's cells ---------------


def relabelled_rows(adj, core: int, verts: list[int]) -> tuple[int, ...]:
    """The graph induced on *core* with verts[k] relabelled k, as adjacency
    masks in that order: the rows the sweep's int memo key packs."""
    relabel = {1 << v: 1 << k for k, v in enumerate(verts)}
    key = []
    for v in verts:
        nbrs = adj[v] & core
        row = 0
        while nbrs:
            low = nbrs & -nbrs
            row |= relabel[low]
            nbrs ^= low
        key.append(row)
    return tuple(key)


def critical_cells(adj, core: int):
    """The critical cells of the sweep's matching tree on Ind(G), G the
    graph induced on *core*, as faces grouped by size; None once two of
    them sit in adjacent sizes.  The same walk as the sweep's, pivot rule
    and stop included, but it keeps every cell, not a count per size.

    A node holds a face A and a free set F.  A free vertex with no free
    neighbour ends the node with no cell; an empty F is the cell A.
    Otherwise the pivot p is the neighbour of largest free degree (lowest
    label on ties) of a free vertex u of least free degree (lowest label on
    ties); "p out" drops p from F, unless p is u's only free neighbour, and
    "p in" adds p to A and drops N[p] from F.  The nodes are walked last in,
    first out, "p in" first."""
    cells: dict[int, list[int]] = {}  # size -> the cells of that size
    stack = [(core, 0)]
    while stack:
        free, face = stack.pop()
        if not free:
            size = face.bit_count()
            if size not in cells:
                if size - 1 in cells or size + 1 in cells:
                    return None
                cells[size] = []
            cells[size].append(face)
            continue
        degree = {v: (adj[v] & free).bit_count() for v in bits(free)}
        if not all(degree.values()):
            continue
        u = min(degree, key=lambda v: (degree[v], v))
        p = max(bits(adj[u] & free), key=lambda v: (degree[v], -v))
        out = free & ~(1 << p)
        if degree[u] > 1:
            stack.append((out, face))
        stack.append((out & ~adj[p], face | 1 << p))
    return [cells.get(size, []) for size in range(max(cells, default=-1) + 1)]


# -- cubic circulant regularity by cases on gcd(2n, a) -------------------------


def reg_cubic_by_gcd(n: int, a: int) -> int:
    """reg of the edge ideal of the circulant on 2n vertices with distances
    {a, n}, 1 <= a < n, from t = gcd(2n, a) and the parity of 2n/t."""
    t = math.gcd(2 * n, a)
    if (2 * n // t) % 2 == 0:
        m = n // t
        if m % 2 == 0:
            return m // 2 * t + 1
        k = (m - 1) // 2
        return (k if k % 2 == 1 else k + 1) * t + 1
    k = (2 * n // t - 1) // 2
    return (k if k % 2 == 0 else k + 1) * t // 2 + 1


# -- isomorphism (desk scale) and the Davis-Domke union ------------------------


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Backtracking isomorphism test, meant for graphs up to ~14 vertices."""
    n = g.n
    if n != h.n or g.edge_count != h.edge_count:
        return False
    hdeg = [a.bit_count() for a in h.adj]
    gdeg = [a.bit_count() for a in g.adj]
    if sorted(gdeg) != sorted(hdeg):
        return False
    if n == 0:
        return True

    # Order g's vertices so each one touches as many earlier ones as possible.
    order: list[int] = []
    placed = 0
    while len(order) < n:
        best = max(
            (v for v in range(n) if not placed >> v & 1),
            key=lambda v: ((g.adj[v] & placed).bit_count(), gdeg[v], -v),
        )
        order.append(best)
        placed |= 1 << best

    mapping = [-1] * n

    def extend(k: int, used: int) -> bool:
        if k == n:
            return True
        v = order[k]
        need = 0
        for u in order[:k]:
            if g.adjacent(v, u):
                need |= 1 << mapping[u]
        for w in range(n):
            if used >> w & 1 or hdeg[w] != gdeg[v]:
                continue
            if (h.adj[w] & used) != need:
                continue
            mapping[v] = w
            if extend(k + 1, used | (1 << w)):
                return True
        mapping[v] = -1
        return False

    return extend(0, 0)


def davis_domke_graph(n: int, a: int) -> Graph:
    """Materialize the decomposition as a disjoint union of ladder copies."""
    copies, m, step = davis_domke(n, a)
    base = circulant(2 * m, {step, m})
    g = Graph(0)
    for _ in range(copies):
        g = g.disjoint_union(base)
    return g
