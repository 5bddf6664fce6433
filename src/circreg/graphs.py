"""Finite simple graphs on labelled vertices, with every generator used by
the regularity computations: circulants, cubic circulant (Moebius/prism)
ladders, and the pendant-ladder families.

Vertices are always 0..n-1.  Edges are unordered pairs (i, j) with i < j.
Adjacency is also kept as per-vertex bitmasks because induced-subgraph
queries sit in the innermost loop of the Betti-number subset sweep.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import Iterable, Iterator, Sequence

__all__ = [
    "Graph",
    "circulant",
    "moebius",
    "prism",
    "family_a",
    "family_b",
    "family_d",
    "davis_domke",
    "cochordal_split_c4j",
    "is_cochordal_cover",
    "random_graph",
    "graph_from_json_dict",
]


def bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of *mask*, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable simple graph: no loops, no multi-edges, labels 0..n-1."""

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = [0] * n
        es = set()
        for e in edges:
            i, j = e
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge {e!r} out of range for {n} vertices")
            if i == j:
                raise ValueError(f"loop at vertex {i}")
            if i > j:
                i, j = j, i
            es.add((i, j))
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        self.n = n
        self.edges = frozenset(es)
        self.adj = tuple(adj)

    # -- basic queries -------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return list(bits(self.adj[v]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges)})"

    # -- derived graphs ------------------------------------------------

    def complement(self) -> "Graph":
        es = [
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if not self.adj[i] >> j & 1
        ]
        return Graph(self.n, es)

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on *vertices*, relabelled 0..|W|-1.

        Returns (subgraph, mapping) where mapping[new] == old label.
        """
        vs = sorted(set(vertices))
        for v in vs:
            if not 0 <= v < self.n:
                raise ValueError(f"vertex {v} out of range")
        pos = {v: k for k, v in enumerate(vs)}
        es = [
            (pos[i], pos[j]) for (i, j) in self.edges if i in pos and j in pos
        ]
        return Graph(len(vs), es), tuple(vs)

    def without_vertex(self, x: int) -> "Graph":
        if not 0 <= x < self.n:
            raise ValueError(f"vertex {x} out of range")
        return self.induced(v for v in range(self.n) if v != x)[0]

    def without_closed_neighborhood(self, x: int) -> "Graph":
        if not 0 <= x < self.n:
            raise ValueError(f"vertex {x} out of range")
        dropped = self.adj[x] | (1 << x)
        return self.induced(v for v in range(self.n) if not dropped >> v & 1)[0]

    def disjoint_union(self, other: "Graph") -> "Graph":
        shift = self.n
        es = list(self.edges) + [(i + shift, j + shift) for (i, j) in other.edges]
        return Graph(self.n + other.n, es)

    def connected_components(self) -> list[list[int]]:
        seen = 0
        comps = []
        for start in range(self.n):
            if seen >> start & 1:
                continue
            comp = 1 << start
            frontier = 1 << start
            while frontier:
                nxt = 0
                for v in bits(frontier):
                    nxt |= self.adj[v]
                frontier = nxt & ~comp
                comp |= frontier
            seen |= comp
            comps.append(list(bits(comp)))
        return comps

    # -- structure tests -----------------------------------------------

    def is_chordal(self) -> bool:
        """True when no induced cycle has four or more vertices.

        A vertex is simplicial when its neighbours form a clique.  Every
        chordal graph has one (Dirac), deleting it leaves a chordal graph, and
        any simplicial vertex may go first (Fulkerson-Gross): the graph is
        chordal iff deleting simplicial vertices empties it.
        """
        left = self.full_mask
        while left:
            before = left
            for v in bits(before):
                nbrs = self.adj[v] & left
                if all(nbrs & ~self.adj[u] == 1 << u for u in bits(nbrs)):
                    left ^= 1 << v
            if left == before:
                return False
        return True

    def is_claw_free(self) -> bool:
        """True when no induced star on three leaves exists."""
        for v in range(self.n):
            nb = self.neighbors(v)
            if len(nb) < 3:
                continue
            for a, b, c in combinations(nb, 3):
                if not (self.adjacent(a, b) or self.adjacent(a, c) or self.adjacent(b, c)):
                    return False
        return True

    def is_gap_free(self) -> bool:
        """True when no two edges form an induced 2K2 (a gap): edges ab and
        cd on four distinct vertices with no edge between {a, b} and {c, d}.
        Edges that share a vertex pass the same mask test."""
        return all(
            (self.adj[a] | self.adj[b]) & (1 << c | 1 << d)
            for (a, b), (c, d) in combinations(self.edges, 2)
        )

    # -- serialization ---------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in sorted(self.edges)]}


# -- generators ---------------------------------------------------------


def circulant(n: int, distances: Iterable[int]) -> Graph:
    """Circulant graph: i ~ j iff the cyclic distance of i and j is listed.

    Distances must lie in 1..n//2; anything else is rejected.
    """
    if n < 1:
        raise ValueError("circulant needs a positive vertex count")
    dset = set()
    for s in distances:
        s = int(s)
        if s < 1 or s > n // 2:
            raise ValueError(f"distance {s} outside 1..{n // 2}")
        dset.add(s)
    es = set()
    for i in range(n):
        for s in dset:
            j = (i + s) % n
            es.add((min(i, j), max(i, j)))
    return Graph(n, es)


def moebius(n: int) -> Graph:
    """Moebius ladder on 2n vertices: the cyclic ladder closed with a twist."""
    if n < 2:
        raise ValueError("moebius ladder needs n >= 2")
    return circulant(2 * n, {1, n})


def prism(n: int) -> Graph:
    """Prism on 2n vertices (two n-cycles plus a perfect matching), n odd."""
    if n < 3 or n % 2 == 0:
        raise ValueError("prism needs odd n >= 3")
    return circulant(2 * n, {2, n})


def family_a(t: int) -> Graph:
    """Ladder with t squares plus a rungless pendant column on the left.

    Top row u_0..u_{t+1} is 0..t+1, bottom row v_0..v_{t+1} is t+2..2t+3;
    rungs join u_i to v_i for 1 <= i <= t+1 (no rung at column 0).
    """
    if t < 1:
        raise ValueError("need t >= 1")
    return Graph(2 * t + 4, family_b(t + 1).edges - {(0, t + 2)})


def family_b(t: int) -> Graph:
    """Plain ladder with t squares: rows u_1..u_{t+1} and v_1..v_{t+1}."""
    if t < 1:
        raise ValueError("need t >= 1")
    top = list(range(t + 1))
    bot = list(range(t + 1, 2 * t + 2))
    es = [(top[i], top[i + 1]) for i in range(t)]
    es += [(bot[i], bot[i + 1]) for i in range(t)]
    es += [(top[i], bot[i]) for i in range(t + 1)]
    return Graph(2 * t + 2, es)


def family_d(t: int) -> Graph:
    """Ladder with t squares plus pendants at bottom-left and top-right.

    Vertex 2t+2 hangs off v_1, vertex 2t+3 hangs off u_{t+1}; t must be odd.
    """
    if t < 1:
        raise ValueError("need t >= 1")
    if t % 2 == 0:
        raise ValueError("this family is only defined for odd t")
    base = family_b(t)
    es = list(base.edges)
    es.append((t + 1, 2 * t + 2))
    es.append((t, 2 * t + 3))
    return Graph(2 * t + 4, es)


# -- circulant structure -------------------------------------------------


def davis_domke(n: int, a: int) -> tuple[int, int, int]:
    """Decompose the cubic circulant on 2n vertices with distances {a, n}.

    Returns (copies, m, step) meaning the graph is isomorphic to `copies`
    disjoint copies of the circulant on 2m vertices with distances
    {step, m} (step is 1 for the twisted ladder, 2 for the prism).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 1 <= a < n:
        raise ValueError(f"need 1 <= a < n, got a={a}")
    t = math.gcd(2 * n, a)
    if (2 * n // t) % 2 == 0:
        return t, n // t, 1
    return t // 2, 2 * n // t, 2


def _induced_edge_set(g: Graph, vertices: set[int]) -> set[tuple[int, int]]:
    return {e for e in g.edges if e[0] in vertices and e[1] in vertices}


def cochordal_split_c4j(j: int) -> tuple[Graph, Graph]:
    """Two-part edge cover, by co-chordal subgraphs, of the circulant on 4j
    vertices whose distance set is 1..2j with j removed.

    The parts keep the full vertex set.  The first takes the distances below
    the gap together with the clique on the even half-blocks, the second the
    distances above together with the clique on the odd half-blocks; each
    part then drops the other clique's edges, so the complements are split
    graphs (clique plus independent set) and in particular chordal.
    """
    if j < 1:
        raise ValueError("need j >= 1")
    n = 4 * j
    dists = set(range(1, 2 * j + 1)) - {j}
    target = circulant(n, dists)
    v1 = set(range(j)) | set(range(2 * j, 3 * j))
    v2 = set(range(n)) - v1
    e_v1 = _induced_edge_set(target, v1)
    e_v2 = _induced_edge_set(target, v2)
    low = circulant(n, range(1, j)).edges if j > 1 else frozenset()
    high = circulant(n, range(j + 1, 2 * j + 1)).edges
    part1 = (set(low) | e_v1) - e_v2
    part2 = (set(high) | e_v2) - e_v1
    return Graph(n, part1), Graph(n, part2)


def is_cochordal_cover(g: Graph, parts: Sequence[Graph]) -> bool:
    """True iff the parts' edges cover E(g) and every part is co-chordal."""
    union: set[tuple[int, int]] = set()
    for p in parts:
        if p.n != g.n:
            raise ValueError("cover part lives on a different vertex set")
        stray = p.edges - g.edges
        if stray:
            raise ValueError(f"cover part has edges outside the graph: {sorted(stray)[:3]}")
        union |= p.edges
    if union != g.edges:
        return False
    return all(p.complement().is_chordal() for p in parts)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    es = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph(n, es)


# -- JSON interchange ------------------------------------------------------


def graph_from_json_dict(d: dict) -> Graph:
    """Graph from its JSON dict.  JSON booleans are not integers here, and an
    edge listed twice is an error; Graph rejects loops and out-of-range ends."""
    if not isinstance(d, dict) or "n" not in d or "edges" not in d:
        raise ValueError("graph JSON needs 'n' and 'edges'")
    n, edges = d["n"], d["edges"]
    if type(n) is not int:
        raise ValueError("'n' must be a non-negative integer")
    if not isinstance(edges, (list, tuple)):
        raise ValueError("'edges' must be a list of [i, j] pairs")
    seen = set()
    for e in edges:
        if not isinstance(e, (list, tuple)) or len(e) != 2 or any(type(x) is not int for x in e):
            raise ValueError(f"malformed edge {e!r}")
        key = (min(e), max(e))
        if key in seen:
            raise ValueError(f"duplicate edge {e!r}")
        seen.add(key)
    return Graph(n, seen)
