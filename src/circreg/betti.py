"""Graded Betti tables of edge ideals by exhaustive subset sweep, the
derived regularity / projective-dimension invariants, and the Euler-sign
decision procedure.

The sweep sums, over every vertex subset W, the reduced homology of the
independence complex restricted to W; the entry (i, j) collects degree
j - i - 2 from the subsets of size j.  Each restriction is first reduced by
the fold lemma (A. Engström, "Complexes of directed trees and independence
complexes", Discrete Math. 2009): if N(u) is contained in N(v) for
distinct u, v, then Ind(G) is homotopy equivalent to Ind(G - v).  Folds
are repeated until none applies.  Homotopy equivalence keeps torsion, so
the reduction is exact over every field.  An isolated vertex is the
degenerate fold: a restriction that holds one is a cone and adds nothing.
So hochster_betti_table drops a graph's isolated vertices before its sweep
starts, and within a sweep a subset that folds to a cone is not counted.
Otherwise the homology is computed once per folded graph up to
relabelling, while the entry still uses the size j of the original subset:
once per table, or once per suite when the caller passes the tables one
memo (the relabelled graph does not depend on the graph it was folded from).
Each such computation first walks one matching tree on Ind(G), G the core
(M. Bousquet-Mélou, S. Linusson and E. Nevo, "On the independence complex
of square grids", J. Algebraic Combin. 2008).  A node of the tree holds the
faces that contain a set A and lie in A plus a free set F.  It splits at a
pivot p into "p out" and "p in", A + p with F - N[p]; a free vertex with no
free neighbour pairs its node's faces by toggling it; an empty F leaves one
unpaired face, A, a critical cell.  Each split orders its two halves ("p
out" below "p in"), and a toggle pairs faces within one leaf, so the pairs
are an acyclic matching on the faces, the empty face included (the cluster
lemma, J. Jonsson, "Simplicial complexes of graphs", LNM 1928, 2008).  By
discrete Morse theory (R. Forman, "Morse theory for cell complexes", Adv.
Math. 1998) the reduced chains of Ind(G) are then chain homotopy equivalent
over Z to a complex with one generator in degree k - 1 per critical cell of
size k.  When no two cells sit in adjacent sizes its differentials are zero,
so H~(Ind G; Z) is free on the cells, with the same dims over every field:
the tree keeps only a count of cells per size, and no face is listed or
ranked.  Otherwise the core falls back to a split at a vertex w of least
degree:
Ind(G) = Ind(G - w) ∪ w * Ind(G - N[w]) (M. Adamaszek, "Splittings of
independence complexes and the powers of cycles", J. Combin. Theory Ser. A
2012).  The cone w * Ind(G - N[w]) is contractible, so by excision
H~(Ind G) = H(Ind(G - w), Ind(G - N[w])) over Z with no condition on G;
reading it off the homology of the two smaller complexes alone would need
the inclusion of the second in the first to be null-homotopic.  The
relative complex is ranked on its faces, those of Ind(G - w) that meet N(w).
The fold is bit-sliced (E. Biham, "A fast new DES implementation in
software", FSE 1997): the subsets of a sweep are transposed into one
bit-plane per vertex, an integer whose bit t says that subset t holds the
vertex, so that one integer operation acts on every subset at once.  A
slice of consecutive subsets is not transposed: bit v of consecutive
integers flips every 2^v of them, so each plane is written from that
period.  Each round drops the subsets with an isolated vertex and then,
for each ordered pair (u, v) of non-adjacent vertices with a common
neighbour, clears v from every subset holding u and v but no vertex of
N(u) - N(v); rounds repeat until one folds nothing.  The planes are
transposed back to one folded core per subset, and the subsets are counted
by core and size.
When the rotation v -> v+1 (mod n) is an automorphism, only one subset per
orbit is computed and its contribution multiplied by the orbit size.  The
orbits are binary necklaces, generated directly by the Fredricksen-Kessler-
Maiorana algorithm (K. Cattell et al., "Fast algorithms to generate
necklaces, unlabeled necklaces, and irreducible polynomials over GF(2)",
J. Algorithms 2000), its steps taken a block of the last k <= n/2 bits at a
time.  A step inside the block leaves a period p > n/2, so it gives a
necklace only when p = n, and the bits it fills are copied from the fixed
head of the mask: each run of such steps depends on the block's entry bits
and the head's first k bits alone, and is walked once per list.  Each n's
list is built once per memo, so a suite that passes its tables one memo
builds it once.  The orbits a sweep visits are two flat sequences, the
least members and the orbit sizes, sliced together by the fold: a list and
a bytearray for the necklaces, and for a graph without the rotation
range(1, 2^n) and a bytes of 1s, so that no subset is listed before its
slice is folded.  The memo key of a core is one int: the rows of its
relabelled adjacency, packed under a sentinel bit.  Mirror images are
merged by the memo instead of the orbits: each new core is also stored
under its key with the ranks reversed, the key of its mirror image.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Optional, Sequence

from .complexes import _by_size, _list_faces
from .graphs import Graph, bits
from .homology import field_name, homology_dims_from_sizes, normalize_field

__all__ = [
    "BettiTable",
    "ZeroIdealError",
    "VertexLimitError",
    "hochster_betti_table",
    "induced_betti_tables",
    "decide_regularity",
]

DEFAULT_VERTEX_LIMIT = 20


class ZeroIdealError(ValueError):
    """Raised when regularity or pd is asked of the zero (edgeless) ideal."""


class VertexLimitError(ValueError):
    """Raised when a graph exceeds the configured sweep limit."""


class BettiTable:
    """Map (i, j) -> graded Betti number of an edge ideal over one field."""

    __slots__ = ("n", "field", "entries")

    def __init__(self, n: int, field, entries: dict):
        self.n = n
        self.field = normalize_field(field)
        self.entries = {k: v for k, v in entries.items() if v}

    @property
    def zero_ideal(self) -> bool:
        """True for the ideal of an edgeless graph: each edge gives beta(0,2)
        a 1, so no entries means no edges."""
        return not self.entries

    def beta(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def _require_nonzero(self) -> None:
        if self.zero_ideal:
            raise ZeroIdealError("the zero ideal has no regularity or projective dimension")

    @property
    def regularity(self) -> int:
        self._require_nonzero()
        return max(j - i for (i, j) in self.entries)

    @property
    def projective_dimension(self) -> int:
        self._require_nonzero()
        return max(i for (i, j) in self.entries)

    def items_sorted(self) -> list[tuple[int, int, int]]:
        return [(i, j, b) for (i, j), b in sorted(self.entries.items())]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BettiTable)
            and self.n == other.n
            and self.field == other.field
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        if self.zero_ideal:
            return f"BettiTable(n={self.n}, zero ideal)"
        return f"BettiTable(n={self.n}, field={field_name(self.field)}, entries={len(self.entries)})"

    def to_json_dict(self) -> dict:
        d: dict = {
            "field": field_name(self.field),
            "n": self.n,
            "entries": [[i, j, b] for (i, j, b) in self.items_sorted()],
        }
        if self.zero_ideal:
            d.update(zero_ideal=True, reg=None, pd=None)
        else:
            d.update(reg=self.regularity, pd=self.projective_dimension)
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "BettiTable":
        entries = {(i, j): b for i, j, b in d["entries"]}
        return cls(d["n"], d["field"], entries)

    def to_csv(self, nonzero_only: bool = False) -> str:
        if nonzero_only or self.zero_ideal:
            lines = ["i,j,beta"]
            lines += [f"{i},{j},{b}" for (i, j, b) in self.items_sorted()]
            return "\n".join(lines) + "\n"
        imax = max(i for (i, j) in self.entries)
        jmax = max(j for (i, j) in self.entries)
        lines = ["i\\j," + ",".join(str(j) for j in range(jmax + 1))]
        for i in range(imax + 1):
            lines.append(f"{i}," + ",".join(str(self.beta(i, j)) for j in range(jmax + 1)))
        return "\n".join(lines) + "\n"


# -- the subset sweep ---------------------------------------------------------


def _rotation_is_automorphism(g: Graph) -> bool:
    n = g.n
    return all(
        g.adjacent((i + 1) % n, (j + 1) % n) for (i, j) in g.edges
    )


@dataclass(frozen=True)
class _Orbits:
    """The orbits of nonempty subsets that one sweep visits, as two flat
    sequences: orbit i has least member masks[i] and sizes[i] members.
    len is the number of orbits, and iterating gives (mask, size) pairs."""

    masks: Sequence[int]
    sizes: Sequence[int]

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        return zip(self.masks, self.sizes)


def _subset_orbit_reps(g: Graph, memo: dict) -> _Orbits:
    """The orbits of nonempty subsets under the rotation v -> v+1 (mod n),
    least members ascending, when it is an automorphism of g; every subset
    as an orbit of size 1 otherwise, with masks range(1, 2^n) and sizes a
    bytes of 1s, so that no list of subsets is built.

    Under the rotation the orbits are the binary necklaces.  Each n's
    orbits are built once per *memo*, under memo["necklaces"][n], and then
    shared by every graph on n vertices swept with that memo; no field is
    named "necklaces".  Mirror images are not merged here: the memo in
    _core_homology gives a core and its mirror image one homology
    computation.
    """
    if _rotation_is_automorphism(g):
        lists = memo.setdefault("necklaces", {})
        reps = lists.get(g.n)
        if reps is None:
            reps = lists[g.n] = _necklaces(g.n)
        return reps
    return _Orbits(range(1, 1 << g.n), b"\1" * ((1 << g.n) - 1))


def _necklaces(n: int) -> _Orbits:
    """Every rotation orbit of nonzero n-bit masks: its least member, and
    its size as a byte.

    The masks are read most significant bit first, so lexicographic order is
    integer order.  The iterative Fredricksen-Kessler-Maiorana algorithm walks
    the prenecklaces in increasing order: the next one increments the last 0
    of the current one, at position p, and repeats the first p symbols.  It
    is a necklace, the least of its rotations with period p, when p divides
    n, and its orbit then has p members.

    The steps are taken a block at a time.  Fix the first n - k bits of the
    mask, the head, with k = n // 3 <= n / 2.  A step whose last 0 lies in
    the last k bits has t < k trailing 1s, so p = n - t > n / 2: it gives a
    necklace only when p = n, t = 0, where it adds 1 to the mask.  The t
    bits it fills are the first t bits, which lie in the head.  So the run
    of steps from a block's entry suffix until its last k bits are all 1s
    depends on that suffix and the first k bits alone.  Each run is walked
    once per call and stored as the suffixes at which it gives a necklace;
    the step out of the block, whose last 0 lies in the head, is the
    ordinary one, with its test that p divides n.  The masks go to a list
    and the periods to a bytearray, so no tuple is built per necklace.
    """
    k = n // 3
    low = (1 << k) - 1
    shift = n - k  # m >> shift is the first k bits of m
    full = (1 << n) - 1
    # A p-bit block times repeat[p] is the block written ceil(n/p) times;
    # shifting right by cut[p] keeps its first n bits.
    repeat = [0] + [((1 << (p * -(-n // p))) - 1) // ((1 << p) - 1) for p in range(1, n + 1)]
    cut = [0] + [p * -(-n // p) - n for p in range(1, n + 1)]
    runs: dict[int, list[int]] = {}  # first k bits, then the entry suffix -> the run
    masks: list[int] = []
    sizes = bytearray()
    whole = bytes([n])
    m = 0
    while True:
        key = m >> shift << k | m & low
        run = runs.get(key)
        if run is None:
            run = runs[key] = []
            s, first = m & low, m >> shift
            while s != low:
                t = (s ^ (s + 1)).bit_length() - 1  # trailing 1s, after the last 0
                s = ((s >> t) | 1) << t | first >> (k - t)
                if not t:
                    run.append(s)
        if run:
            head = m & ~low
            masks += [head | s for s in run]
            sizes += whole * len(run)
        m |= low
        if m == full:
            return _Orbits(masks, sizes)
        t = (m ^ (m + 1)).bit_length() - 1
        p = n - t
        m = ((m >> t) | 1) * repeat[p] >> cut[p]
        if not n % p:
            masks.append(m)
            sizes.append(p)


# Subsets folded together.  A slice's planes are _SLICE bits wide, and its
# transpositions copy it a few times over, so this bounds their memory.
_SLICE = 1 << 16

# _ONES[i] maps a byte to b"1" when its bit i is set and to b"0" otherwise;
# _BIT[i] maps b"1" to the byte 1 << i and b"0" to 0.
_ONES = [bytes(b"01"[x >> i & 1] for x in range(256)) for i in range(8)]
_BIT = [bytes((1 << i) * (x == ord("1")) for x in range(256)) for i in range(8)]


def _planes(masks: Sequence[int], n: int) -> list[int]:
    """Transpose *masks* into n bit-planes: bit t of plane v is set when
    masks[t] holds vertex v.

    The masks are packed as 64-bit little-endian words whatever the host's
    byte order.  Every 8th byte from offset b is byte b of each mask;
    reversed and translated to b"0"/b"1" for one of its bits, it is the
    binary numeral of that vertex's plane, read by int(..., 2).

    A range of step 1 is not transposed: bit v of start, start + 1, ...
    keeps start's bit v until the next multiple of 2^v and then flips every
    2^v subsets, so each plane is written from that period."""
    if isinstance(masks, range) and masks.step == 1:
        start, count = masks.start, len(masks)
        planes = []
        for v in range(n):
            half = 1 << v
            first = half - (start & half - 1)  # the subsets before the first flip
            wave, width = (1 << min(half, count)) - 1, 2 * half  # half 1s, half 0s, ...
            while width < count:
                wave |= wave << width
                width *= 2
            if start >> v & 1:
                plane = (1 << first) - 1 | wave << first + half
            else:
                plane = wave << first
            planes.append(plane & (1 << count) - 1)
        return planes
    words = array("Q", masks)
    if sys.byteorder == "big":
        words.byteswap()
    data = words.tobytes()
    planes = []
    for v in range(n):
        if not v % 8:
            column = data[v // 8::8][::-1]
        planes.append(int(column.translate(_ONES[v % 8]), 2))
    return planes


def _masks(planes: Sequence[int], count: int) -> list[int]:
    """The *count* masks whose bit-planes are *planes*: _planes inverted."""
    digits = f"0{count}b"
    data = bytearray(8 * count)
    for b in range(0, len(planes), 8):
        column = 0
        for i, plane in enumerate(planes[b:b + 8]):
            column |= int.from_bytes(format(plane, digits).encode().translate(_BIT[i]), "big")
        data[b // 8::8] = column.to_bytes(count, "big")[::-1]
    words = array("Q", data)
    if sys.byteorder == "big":
        words.byteswap()
    return words.tolist()


def _fold_planes(adj: Sequence[int], planes: Sequence[int]) -> list[int]:
    """Fold every item of *planes* (_planes of the subsets) at once: the
    planes of the vertex sets left, with a cone's set emptied.

    Fold lemma: if N(u) is a subset of N(v) for u != v, Ind(G) and Ind(G - v)
    are homotopy equivalent.  Each round first empties every item with an
    isolated vertex, a cone.  Then, for each ordered pair of distinct,
    non-adjacent vertices with a common neighbour, u and then v ascending,
    it clears v from every item that holds u and v and no vertex of
    N(u) - N(v): in the graph that item induces, N(u) lies in N(v).  A pair
    with no common neighbour could only fold an item in which u is
    isolated, which stays a cone, so those pairs are left out.  Rounds
    repeat until one folds nothing; emptying a cone changes no other item.
    An item changes by its own bits alone, so it ends as the per-subset
    loop of the same rounds would leave it: with no isolated vertex and no
    N(u) inside N(v).
    """
    nbrs = [list(bits(a)) for a in adj]
    pairs = []  # (u, v, the vertices of N(u) - N(v))
    for u, a in enumerate(adj):
        for v, b in enumerate(adj):
            if a & b and u != v and not a >> v & 1:
                pairs.append((u, v, [w for w in nbrs[u] if not b >> w & 1]))
    planes = list(planes)
    while True:
        cone = 0
        for v, lone in enumerate(planes):
            for w in nbrs[v]:
                lone &= ~planes[w]
            cone |= lone
        if cone:
            keep = ~cone
            planes = [p & keep for p in planes]
        folded = False
        for u, v, rest in pairs:
            hit = planes[u] & planes[v]
            if hit:
                for w in rest:
                    hit &= ~planes[w]
                if hit:
                    planes[v] ^= hit
                    folded = True
        if not folded:
            return planes


def _sweep_chunk(
    adj: Sequence[int],
    field,
    items: _Orbits,
    memo: dict,
) -> dict:
    """Hochster sums over subsets with multiplicities, items.masks and
    items.sizes: the whole sweep when *items* are the orbits of
    _subset_orbit_reps, with one memo across all of them (*memo*'s entry
    for the field).

    The subsets are folded together, _SLICE at a time (_fold_planes), and
    counted by (core, size, multiplicity); each nonzero reduced homology
    dimension of a core, times the multiplicity and the count, goes to the
    cell (j - d - 2, j) of the subset size j.  A core recurs across sizes
    and multiplicities; its homology is looked up once.  A cone's core is 0
    and adds nothing, so each slice's masks and multiplicities are
    compressed by its cores before a key is built."""
    groups: Counter = Counter()
    for start in range(0, len(items), _SLICE):
        masks = items.masks[start:start + _SLICE]
        cores = _masks(_fold_planes(adj, _planes(masks, len(adj))), len(masks))
        sizes = items.sizes[start:start + _SLICE]
        groups.update(zip(
            compress(cores, cores),
            map(int.bit_count, compress(masks, cores)),
            compress(sizes, cores),
        ))
    memo = memo.setdefault(field, {})
    dims = {core: _core_homology(adj, core, field, memo) for core in {c for c, _, _ in groups}}
    entries: dict[tuple[int, int], int] = {}
    for (core, j, count), times in groups.items():
        for d, dim in dims[core].items():
            cell = (j - d - 2, j)
            entries[cell] = entries.get(cell, 0) + times * count * dim
    return entries


def _relabelled(adj: Sequence[int], core: int, mirror: bool = False) -> int:
    """The memo key of the graph induced on *core*: its k vertices
    relabelled 0, ..., k-1 by rank, ascending, and each one's row of
    neighbour ranks, k bits with bit r for rank r, written one row after
    another, rank 0 first, under a sentinel 1 bit.  The sentinel fixes k:
    the key has k*k + 1 bits, so rows of 0s cannot drop off its top.

    With *mirror* the ranks are reversed, r -> k-1-r, both for the order of
    the rows and for their bits: the key of the core's mirror image under
    v -> n-1-v.  That reverses the k*k bits under the sentinel."""
    k = core.bit_count()
    key = 1
    rest = core
    while rest:
        low = rest & -rest
        rest ^= low
        nbrs = adj[low.bit_length() - 1] & core
        row = 0
        while nbrs:
            b = nbrs & -nbrs
            nbrs ^= b
            row |= 1 << (core & b - 1).bit_count()
        key = key << k | row
    if mirror:
        key = int("1" + f"{key:b}"[:0:-1], 2)
    return key


def _tree_dims(adj: Sequence[int], core: int) -> Optional[dict[int, int]]:
    """Nonzero reduced homology of Ind(G), G the graph induced on *core*,
    from the critical cells of one matching tree on Ind(G): degree k - 1
    has one dimension per cell of size k.  None once two cells sit in
    adjacent sizes, where the counts alone do not give the homology.

    A node of the tree holds the faces that contain a set A of vertices and
    miss the vertices outside A and a free set F, with no vertex of F next
    to A.  A free vertex with no free neighbour pairs every face of the
    node with the face that toggles it, so the node ends with no cell.  An
    empty F leaves the one face A, a critical cell of size |A|.  Otherwise
    the node splits at a pivot p, the neighbour of largest free degree
    (lowest label on ties) of a free vertex u of least free degree (lowest
    label on ties), into "p out", F - p, and "p in", A + p with F - N[p].
    When p is u's only free neighbour, "p out" leaves u with none, so that
    branch is not walked.  The pairs are an acyclic matching on the faces,
    the empty face included (module docstring).  Only the count of cells
    per size is kept, not the cells.
    """
    dims: dict[int, int] = {}  # size - 1 -> the number of cells of that size
    stack = [(core, -1)]
    while stack:
        free, d = stack.pop()
        if not free:
            if d in dims:
                dims[d] += 1
            elif d - 1 in dims or d + 1 in dims:
                return None
            else:
                dims[d] = 1
            continue
        least = len(adj)
        rest = free
        while rest:
            low = rest & -rest
            rest ^= low
            near = adj[low.bit_length() - 1] & free
            if not near:
                break
            degree = near.bit_count()
            if degree < least:
                least, nbrs = degree, near
        else:
            most = -1
            while nbrs:
                low = nbrs & -nbrs
                nbrs ^= low
                v = low.bit_length() - 1
                degree = (adj[v] & free).bit_count()
                if degree > most:
                    most, p = degree, v
            out = free & ~(1 << p)
            if least > 1:
                stack.append((out, d))
            stack.append((out & ~adj[p], d + 1))
    # Ascending, as the fallback's dims: induced_betti_tables groups subsets
    # by the (cell, dim) tuple their core's dims give.
    return dict(sorted(dims.items()))


def _core_homology(adj: Sequence[int], core: int, field, memo: dict) -> dict[int, int]:
    """Nonzero reduced homology of the independence complex induced on *core*.

    A miss first walks the core's matching tree (_tree_dims;
    Bousquet-Mélou, Linusson and Nevo 2008), counting its critical cells by
    size.  When no two sizes are adjacent, the Morse complex has no
    differential (Forman 1998), so H~_(k-1)(Ind G; Z) is free on the cells
    of size k, G the graph induced on *core*: the counts are the dims over
    every field, and nothing is listed or ranked.  A cone's core ends the
    tree at its root with no cell and no homology.  Otherwise the miss falls
    back to splitting Ind(G) at a vertex w of least degree, the lowest such
    label, so that few faces meet N(w) (Adamaszek 2012).  The cone
    w * Ind(G - N[w]) is contractible, so one split is exact for every G
    (module docstring): H~_d(Ind G) = H_d(Ind(G - w), Ind(G - N[w])) over Z,
    ranked by homology_dims_from_sizes on the relative list, the faces of
    Ind(G - w) that meet N(w).

    The memo key is one int, _relabelled(adj, core): the core read in
    ascending vertex order.  A miss also stores the dims under the key read
    with the ranks reversed.  That is the key of the core's mirror image
    under v -> n-1-v, an automorphism of every circulant, so a core and its
    mirror image share one homology computation.
    """
    key = _relabelled(adj, core)
    dims = memo.get(key)
    if dims is None:
        dims = _tree_dims(adj, core)
        if dims is None:
            w = min(bits(core), key=lambda v: (adj[v] & core).bit_count())
            near = adj[w] & core
            faces = _list_faces(adj, core & ~(1 << w))
            found = homology_dims_from_sizes(_by_size([f for f in faces if f & near]), field)
            dims = {d: v for d, v in found.items() if v}
        memo[key] = memo[_relabelled(adj, core, True)] = dims
    return dims


def hochster_betti_table(
    g: Graph,
    field=2,
    workers: int = 1,
    vertex_limit: int = DEFAULT_VERTEX_LIMIT,
    *,
    memo: Optional[dict] = None,
) -> BettiTable:
    """Full graded Betti table of the edge ideal of g over the given field.

    Edgeless graphs give the distinguished zero-ideal table.  The sweep is
    exponential in the vertex count and refuses graphs above *vertex_limit*,
    counting every vertex of g.  A subset that holds an isolated vertex is a
    cone and adds nothing, so the graph induced on the other vertices is
    swept, by necklaces when the rotation is one of its automorphisms
    (as for C5 plus an isolated vertex), and the table keeps g's vertex
    count.  Without the rotation every subset is swept, straight from
    range(1, 2^n), _SLICE at a time, with no list of subsets.  It is serial
    and ignores *workers*.  The parameter stays because perfbench/run.py
    reads it from this signature to time workers=2.

    *memo*, when given, is a dict that this sweep reads and fills with the
    homology of its folded cores, under the key *memo*[field], and with the
    necklaces of the swept vertex count, under *memo*["necklaces"][n],
    so that one dict can serve sweeps over several fields and several
    graphs.  The caller owns it and decides how long it lives (verify keeps
    one per suite call); without it the sweep starts a fresh memo of its own.
    """
    field = normalize_field(field)
    _check_vertex_limit(g.n, vertex_limit, "vertex_limit")
    if not g.edges:
        return BettiTable(g.n, field, {})
    swept = g if all(g.adj) else g.induced(compress(range(g.n), g.adj))[0]
    memo = {} if memo is None else memo
    entries = _sweep_chunk(swept.adj, field, _subset_orbit_reps(swept, memo), memo)
    return BettiTable(g.n, field, entries)


def induced_betti_tables(
    g: Graph,
    field,
    vertex_sets: Iterable[Iterable[int]],
    *,
    memo: Optional[dict] = None,
) -> list[BettiTable]:
    """Betti tables of the induced subgraphs g[W], in the order of
    *vertex_sets*, from one sweep of g.

    Restriction lemma (H. T. Hà and A. Van Tuyl, "Monomial ideals, edge
    ideals of hypergraphs, and their graded Betti numbers", J. Algebraic
    Combin. 2008): the table of g[W] is Hochster's sum taken over the subsets
    of W alone.  So every nonempty subset of g is swept once, with no orbit
    reduction because the sets need not be invariant, and each table sums
    the subsets inside its W.  Each g[W] is relabelled as by Graph.induced;
    an edgeless one gives the zero-ideal table.  *memo* is the homology memo
    of hochster_betti_table, keyed by field and owned by the caller alike.
    """
    field = normalize_field(field)
    _check_vertex_limit(g.n)
    tables: list[tuple[int, dict]] = []  # (W as a mask, its entries)
    for vs in vertex_sets:
        w = 0
        for v in vs:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")
            w |= 1 << v
        tables.append((w, {}))
    # The subsets are folded _SLICE at a time, and grouped by what they add
    # to a table: the list of (cell, dimension) of their core's homology at
    # their size.  Each table counts a group's members inside its W.  Group
    # 0 adds nothing: the cones and the acyclic cores.
    memo = {} if memo is None else memo.setdefault(field, {})
    dims: dict[int, dict[int, int]] = {0: {}}
    added_by: dict[tuple, int] = {(): 0}  # what a group adds -> its number
    for start in range(1, 1 << g.n, _SLICE):
        masks = range(start, min(start + _SLICE, 1 << g.n))
        planes = _planes(masks, g.n)
        cores = _masks(_fold_planes(g.adj, planes), len(masks))
        for core in set(cores) - dims.keys():
            dims[core] = _core_homology(g.adj, core, field, memo)
        keys = list(zip(cores, map(int.bit_count, masks)))
        number = {}
        for core, j in set(keys):
            added = tuple(((j - d - 2, j), dim) for d, dim in dims[core].items())
            number[core, j] = added_by.setdefault(added, len(added_by))
        # Bit-planes of the subsets' group numbers; group k is where they read k.
        numbers = _planes([number[key] for key in keys], len(added_by).bit_length())
        everything = (1 << len(masks)) - 1
        groups = []
        for k, added in enumerate(added_by):
            members = everything
            for b, plane in enumerate(numbers):
                members &= plane if k >> b & 1 else ~plane
            if k and members:
                groups.append((members, added))
        for w, entries in tables:
            inside = everything  # the subsets in no plane of a vertex outside W
            for v, plane in enumerate(planes):
                if not w >> v & 1:
                    inside &= ~plane
            for members, added in groups:
                count = (members & inside).bit_count()
                if count:
                    for cell, dim in added:
                        entries[cell] = entries.get(cell, 0) + count * dim
    return [BettiTable(w.bit_count(), field, entries) for w, entries in tables]


def _check_vertex_limit(
    vertices: int,
    vertex_limit: int = DEFAULT_VERTEX_LIMIT,
    override: str = "",
    subject: str = "graph",
) -> None:
    """Refuse a sweep of *vertices* vertices above the limit, before it
    starts.  *subject* names what has them in the message; *override* names
    the setting that raises the limit, where the caller has one."""
    if vertices > vertex_limit:
        hint = f" (pass a larger {override} to override)" if override else ""
        raise VertexLimitError(
            f"{subject} has {vertices} vertices; the sweep is limited to {vertex_limit}{hint}"
        )


# -- the Euler-sign decision procedure ----------------------------------------

def decide_regularity(n: int, r: int, pd: int, chi: int) -> dict:
    """Decide reg or pd of a square-free ideal in n variables from a
    certified regularity bound r, a certified pd bound pd, and the reduced
    Euler characteristic of the associated complex.

    With pd <= n-r+1 only the top two column-n Betti numbers can survive, so
    the sign of chi pins one of them; with pd <= n-r a single entry remains
    and any nonzero chi certifies reg = r.  Returns the record
    {"outcome", "value", "n", "r", "pd_bound", "chi"}: outcome is
    "regularity_determined" (value r), "pd_determined" (value n - r + 1) or
    "inconclusive" (chi = 0, value None), and pd_bound is "n-r" or "n-r+1",
    the case that applied.
    """
    if r < 1 or r > n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if pd > n - r + 1:
        raise ValueError(f"need pd <= n - r + 1 = {n - r + 1}, got pd={pd}")
    tight = pd <= n - r
    if chi == 0:
        outcome, value = "inconclusive", None
    elif tight or (r % 2 == 0) == (chi > 0):
        outcome, value = "regularity_determined", r
    else:
        outcome, value = "pd_determined", n - r + 1
    return {"outcome": outcome, "value": value, "n": n, "r": r,
            "pd_bound": "n-r" if tight else "n-r+1", "chi": chi}
