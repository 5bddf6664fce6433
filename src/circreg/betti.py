"""Graded Betti tables of edge ideals by exhaustive subset sweep, the
derived regularity / projective-dimension invariants, the Euler-sign
decision procedure, and a property harness for the classical regularity
facts the package cross-checks.

The sweep sums, over every vertex subset W, the reduced homology of the
independence complex restricted to W; the entry (i, j) collects degree
j - i - 2 from the subsets of size j.  Each restriction is first reduced by
the fold lemma (A. Engström, "Complexes of directed trees and independence
complexes", Discrete Math. 2009): if N(u) is contained in N(v) for
distinct u, v, then Ind(G) is homotopy equivalent to Ind(G - v).  Folds
are repeated until none applies.  Homotopy equivalence keeps torsion, so
the reduction is exact over every field.  An isolated vertex is the
degenerate fold: the restriction is a cone and the subset is skipped.
Otherwise the homology is computed once per folded graph up to
relabelling, while the entry still uses the size j of the original subset.
The fold reads neighbourhood unions and intersections off lookup tables
built once per sweep: the vertices split into a low and a high half, and
for every subset of each half one table holds the union and one the
intersection of its vertices' neighbourhoods, so any vertex set's union or
intersection is one lookup per half (2^ceil(n/2) entries per table).
When the rotation v -> v+1 (mod n) is an automorphism, only one subset per
orbit is computed and its contribution multiplied by the orbit size.  The
orbits are binary necklaces, generated directly by the Fredricksen-Kessler-
Maiorana algorithm (K. Cattell et al., "Fast algorithms to generate
necklaces, unlabeled necklaces, and irreducible polynomials over GF(2)",
J. Algorithms 2000).  Mirror images are merged by the memo instead: each
new core is also stored under its relabelled adjacency read in descending
vertex order, the key of its mirror image.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from ._bitops import bits
from .complexes import _by_size, _list_faces
from .graphs import Graph, is_cochordal_cover
from .homology import RATIONALS, field_name, homology_dims_from_sizes, normalize_field

__all__ = [
    "BettiTable",
    "ZeroIdealError",
    "VertexLimitError",
    "hochster_betti_table",
    "induced_betti_tables",
    "RegDecision",
    "decide_regularity",
    "PropertyCheck",
    "PropertyReport",
    "property_suite",
    "property_vertex_sets",
    "betti_across_fields",
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

    @property
    def regularity_quotient(self) -> int:
        return self.regularity - 1

    @property
    def projective_dimension_quotient(self) -> int:
        return self.projective_dimension + 1

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
        if self.entries:
            imax = max(i for (i, j) in self.entries)
            jmax = max(j for (i, j) in self.entries)
        else:
            imax = jmax = 0
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


def _subset_orbit_reps(g: Graph) -> list[tuple[int, int]]:
    """Least member and size of each orbit of nonempty subsets under the
    rotation v -> v+1 (mod n), ascending, when it is an automorphism of g;
    every subset with size 1 otherwise.

    Under the rotation the orbits are the binary necklaces.  Mirror images
    are not merged here: the memo in _core_homology gives a core and its
    mirror image one homology computation.
    """
    if _rotation_is_automorphism(g):
        return _necklaces(g.n)
    return [(m, 1) for m in range(1, 1 << g.n)]


def _necklaces(n: int) -> list[tuple[int, int]]:
    """Least member and size of every rotation orbit of nonzero n-bit masks.

    The masks are read most significant bit first, so lexicographic order is
    integer order.  The iterative Fredricksen-Kessler-Maiorana algorithm walks
    the prenecklaces in increasing order: the next one increments the last 0
    of the current one, at position p, and repeats the first p symbols.  It
    is a necklace, the least of its rotations with period p, when p divides
    n, and its orbit then has p members.
    """
    full = (1 << n) - 1
    # A p-bit block times repeat[p] is the block written ceil(n/p) times;
    # shifting right by cut[p] keeps its first n bits.
    repeat = [0] + [((1 << (p * -(-n // p))) - 1) // ((1 << p) - 1) for p in range(1, n + 1)]
    cut = [0] + [p * -(-n // p) - n for p in range(1, n + 1)]
    out = []
    m = 0
    while m != full:
        t = (m ^ (m + 1)).bit_length() - 1  # trailing 1s, after the last 0
        p = n - t
        m = ((m >> t) | 1) * repeat[p] >> cut[p]
        if not n % p:
            out.append((m, p))
    return out


def _fold_tables(adj: Sequence[int]) -> tuple:
    """Lookup tables for _fold: (adj, k, low-half mask, union_lo, inter_lo,
    union_hi, inter_hi).  The n vertices split into the low k = ceil(n/2) and
    the high n - k; for every sub-mask s of a half, union[s] is the union and
    inter[s] the intersection of the neighbourhoods of the vertices in s,
    with 0 and the full mask for the empty s.  Any vertex set's union or
    intersection is then one lookup per half."""
    n = len(adj)
    k = (n + 1) // 2
    full = (1 << n) - 1
    tables = []
    for half in (adj[:k], adj[k:]):
        union = [0] * (1 << len(half))
        inter = [full] * (1 << len(half))
        for s in range(1, 1 << len(half)):
            low = s & -s
            a = half[low.bit_length() - 1]
            union[s] = union[s ^ low] | a
            inter[s] = inter[s ^ low] & a
        tables += (union, inter)
    return (adj, k, (1 << k) - 1, *tables)


def _fold(tables: tuple, mask: int) -> int:
    """Vertex set left after folding the graph induced on *mask*, or 0 when
    its independence complex is a cone; *tables* are _fold_tables(adj).

    Fold lemma: if N(u) is a subset of N(v) for u != v, Ind(G) and Ind(G - v)
    are homotopy equivalent.  The vertices v whose neighbourhood contains
    N(u) are the common neighbours of N(u) other than u, the intersection of
    the neighbourhoods over N(u) looked up by halves; none of them is
    adjacent to u, so all are removed at once.  A removal shrinks only its
    neighbours' neighbourhoods, so only those, the union of the removed
    vertices' neighbourhoods, can play u anew and are checked again.  An
    isolated vertex u has N(u) empty, contained in every neighbourhood, so
    folding would leave the point u: the cone case.  The isolated vertices of
    the input are those outside the union of its neighbourhoods, and folding
    never removes one, so a cone input is rejected before the first fold.
    """
    adj, k, lo, union_lo, inter_lo, union_hi, inter_hi = tables
    if mask & ~(union_lo[mask & lo] | union_hi[mask >> k]):
        return 0
    todo = mask
    while todo:
        low = todo & -todo
        todo ^= low
        nbrs = adj[low.bit_length() - 1] & mask
        if not nbrs:
            return 0
        dominated = inter_lo[nbrs & lo] & inter_hi[nbrs >> k] & mask & ~low
        if dominated:
            mask ^= dominated
            todo = (todo | union_lo[dominated & lo] | union_hi[dominated >> k]) & mask
    return mask


def _sweep_chunk(adj: Sequence[int], field, items: Sequence[tuple[int, int]]) -> dict:
    """Hochster sums over (subset, multiplicity) pairs: the whole sweep when
    *items* are the orbit representatives, with one memo across all of them."""
    entries: dict[tuple[int, int], int] = {}
    for _, cell, value in _contributions(adj, field, items):
        entries[cell] = entries.get(cell, 0) + value
    return entries


def _contributions(adj: Sequence[int], field, items: Iterable[tuple[int, int]]):
    """Yield (mask, (i, j), value) for each Betti cell a (subset, multiplicity)
    pair adds to: j is the subset size, and each nonzero reduced homology
    dimension of the restriction, times the multiplicity, goes to its cell."""
    # Homology by relabelled adjacency of the folded graph, and by the folded
    # vertex set, which many subsets share, so that key is built once per set.
    memo: dict[tuple, dict[int, int]] = {}
    by_core: dict[int, dict[int, int]] = {}
    tables = _fold_tables(adj)
    for mask, count in items:
        core = _fold(tables, mask)
        if not core:
            continue  # the restriction folds to a cone => acyclic
        dims = by_core.get(core)
        if dims is None:
            dims = by_core[core] = _core_homology(adj, core, field, memo)
        j = mask.bit_count()
        for d, dim in dims.items():
            yield mask, (j - d - 2, j), count * dim


def _relabelled(adj: Sequence[int], core: int, verts: list[int]) -> tuple[int, ...]:
    """The graph induced on *core* with verts[k] relabelled k, as adjacency
    masks in that order: the memo key of its homology."""
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


def _core_homology(adj: Sequence[int], core: int, field, memo: dict) -> dict[int, int]:
    """Nonzero reduced homology of the independence complex induced on *core*.

    The memo key reads the core in ascending vertex order.  A miss also
    stores the dims under the key read in descending order.  That is the key
    of the core's mirror image under v -> n-1-v, an automorphism of every
    circulant, so a core and its mirror image share one homology computation.
    """
    verts = list(bits(core))
    key = _relabelled(adj, core, verts)
    dims = memo.get(key)
    if dims is None:
        # A face's state is the core vertices adjacent to none of its members.
        faces, _ = _list_faces(core, [(1 << v, 1 << v, ~adj[v]) for v in verts])
        dims = {d: v for d, v in homology_dims_from_sizes(_by_size(faces), field).items() if v}
        memo[key] = memo[_relabelled(adj, core, verts[::-1])] = dims
    return dims


def hochster_betti_table(
    g: Graph,
    field=2,
    workers: int = 1,
    vertex_limit: int = DEFAULT_VERTEX_LIMIT,
) -> BettiTable:
    """Full graded Betti table of the edge ideal of g over the given field.

    Edgeless graphs give the distinguished zero-ideal table.  The sweep is
    exponential in the vertex count and refuses graphs above *vertex_limit*.
    It is serial and ignores *workers*.  The parameter stays because
    perfbench/run.py reads it from this signature to time workers=2.
    """
    field = normalize_field(field)
    _check_vertex_limit(g, vertex_limit, "vertex_limit")
    if not g.edges:
        return BettiTable(g.n, field, {})
    entries = _sweep_chunk(g.adj, field, _subset_orbit_reps(g))
    return BettiTable(g.n, field, entries)


def induced_betti_tables(
    g: Graph,
    field,
    vertex_sets: Iterable[Iterable[int]],
) -> list[BettiTable]:
    """Betti tables of the induced subgraphs g[W], in the order of
    *vertex_sets*, from one sweep of g.

    Restriction lemma (H. T. Hà and A. Van Tuyl, "Monomial ideals, edge
    ideals of hypergraphs, and their graded Betti numbers", J. Algebraic
    Combin. 2008): the table of g[W] is Hochster's sum taken over the subsets
    of W alone.  So every nonempty subset of g is swept once, with no orbit
    reduction because the sets need not be invariant, and each table sums
    the subsets inside its W.  Each g[W] is relabelled as by Graph.induced;
    an edgeless one gives the zero-ideal table.
    """
    field = normalize_field(field)
    _check_vertex_limit(g, DEFAULT_VERTEX_LIMIT)
    tables: list[tuple[int, dict]] = []  # (W as a mask, its entries)
    for vs in vertex_sets:
        w = 0
        for v in vs:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")
            w |= 1 << v
        tables.append((w, {}))
    items = ((m, 1) for m in range(1, 1 << g.n))
    for mask, cell, value in _contributions(g.adj, field, items):
        for w, entries in tables:
            if not mask & ~w:
                entries[cell] = entries.get(cell, 0) + value
    return [BettiTable(w.bit_count(), field, entries) for w, entries in tables]


def _check_vertex_limit(g: Graph, vertex_limit: int, override: str = "") -> None:
    """Refuse g above the limit; *override* names the setting that raises it,
    where the caller has one."""
    if g.n > vertex_limit:
        hint = f" (pass a larger {override} to override)" if override else ""
        raise VertexLimitError(
            f"graph has {g.n} vertices; the sweep is limited to {vertex_limit}{hint}"
        )


def betti_across_fields(g: Graph, fields=(2, 3, RATIONALS)):
    """Betti tables over several fields plus an agreement flag.

    Disagreement is possible (homology of independence complexes can depend
    on the field) and is surfaced to the caller, never resolved silently.
    """
    tables = {field_name(f): hochster_betti_table(g, f) for f in fields}
    vals = list(tables.values())
    agree = all(t.entries == vals[0].entries for t in vals[1:])
    return tables, agree


# -- the Euler-sign decision procedure ----------------------------------------

PD_BOUND_LOOSE = "n-r+1"
PD_BOUND_TIGHT = "n-r"

OUTCOME_REGULARITY = "regularity_determined"
OUTCOME_PD = "pd_determined"
OUTCOME_INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RegDecision:
    """Outcome of the parity/sign decision given certified reg and pd bounds."""

    outcome: str
    value: Optional[int]
    n: int
    r: int
    pd_bound: str
    chi: int

    @property
    def is_regularity(self) -> bool:
        return self.outcome == OUTCOME_REGULARITY

    def to_json_dict(self) -> dict:
        return {
            "outcome": self.outcome,
            "value": self.value,
            "n": self.n,
            "r": self.r,
            "pd_bound": self.pd_bound,
            "chi": self.chi,
        }


def decide_regularity(n: int, r: int, pd_bound: str, chi: int) -> RegDecision:
    """Decide reg or pd of a square-free ideal in n variables from a
    certified regularity bound r, a pd bound of the stated shape, and the
    reduced Euler characteristic of the associated complex.

    With pd <= n-r+1 only the top two column-n Betti numbers can survive, so
    the sign of chi pins one of them; with pd <= n-r a single entry remains
    and any nonzero chi certifies reg = r.
    """
    if r < 1 or r > n:
        raise ValueError(f"need 1 <= r <= n, got r={r}, n={n}")
    if pd_bound not in (PD_BOUND_LOOSE, PD_BOUND_TIGHT):
        raise ValueError(f"pd_bound must be '{PD_BOUND_LOOSE}' or '{PD_BOUND_TIGHT}'")
    if chi == 0:
        return RegDecision(OUTCOME_INCONCLUSIVE, None, n, r, pd_bound, chi)
    if pd_bound == PD_BOUND_TIGHT:
        return RegDecision(OUTCOME_REGULARITY, r, n, r, pd_bound, chi)
    if (r % 2 == 0) == (chi > 0):
        return RegDecision(OUTCOME_REGULARITY, r, n, r, pd_bound, chi)
    return RegDecision(OUTCOME_PD, n - r + 1, n, r, pd_bound, chi)


# -- property harness ----------------------------------------------------------


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    applicable: bool
    passed: bool
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.passed or not self.applicable


@dataclass(frozen=True)
class PropertyReport:
    graph: dict
    checks: tuple[PropertyCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[PropertyCheck]:
        return [c for c in self.checks if not c.ok]

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph,
            "passed": self.all_passed,
            "checks": [
                {"name": c.name, "applicable": c.applicable, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }


def _reg_ideal(oracle: Callable[[Graph], BettiTable], g: Graph) -> int:
    # Edgeless graphs carry the zero ideal; reg(R/0) = 0 gives the value 1
    # under the reg(I) = reg(R/I) + 1 normalization used throughout.
    if not g.edges:
        return 1
    return oracle(g).regularity


def property_vertex_sets(
    g: Graph,
) -> tuple[list[list[int]], list[tuple[list[int], list[int]]]]:
    """The vertex sets W whose induced subgraphs g[W] property_suite reads
    tables of: the connected components when there are at least two, and
    the pair (V - N[x], V - {x}) for each vertex x.  Both lists are empty
    for an edgeless graph, whose checks read no table."""
    if not g.edges:
        return [], []
    comps = g.connected_components()
    deletions = []
    for x in range(g.n):
        dropped = g.adj[x] | (1 << x)
        deletions.append((
            [v for v in range(g.n) if not dropped >> v & 1],
            [v for v in range(g.n) if v != x],
        ))
    return (comps if len(comps) >= 2 else []), deletions


def property_suite(
    g: Graph,
    oracle: Callable[[Graph], BettiTable],
    cover_witness: Optional[Sequence[Graph]] = None,
    edge_partition: Optional[tuple[Graph, Graph]] = None,
) -> PropertyReport:
    """Check the classical regularity facts on one graph against the oracle.

    The oracle maps a graph to its Betti table (normally the subset sweep);
    every check that applies is evaluated exactly and failures are reported,
    not raised.
    """
    table = oracle(g)
    checks: list[PropertyCheck] = []
    has_edges = bool(g.edges)
    reg = table.regularity if has_edges else None
    comp_sets, deletion_sets = property_vertex_sets(g)

    applicable = bool(comp_sets)
    if applicable:
        total = sum(_reg_ideal(oracle, g.induced(vs)[0]) - 1 for vs in comp_sets)
        passed = reg - 1 == total
        detail = f"reg(R/I)={reg - 1}, component sum={total}"
    else:
        passed, detail = True, ""
    checks.append(PropertyCheck("disjoint_union_additivity", applicable, passed, detail))

    if has_edges:
        chordal_c = g.complement().is_chordal()
        passed = (reg == 2) == chordal_c
        detail = f"reg={reg}, complement chordal={chordal_c}"
        checks.append(PropertyCheck("reg2_iff_complement_chordal", True, passed, detail))
    else:
        checks.append(PropertyCheck("reg2_iff_complement_chordal", False, True))

    if cover_witness is not None and has_edges:
        try:
            valid = is_cochordal_cover(g, cover_witness)
        except ValueError as exc:
            checks.append(PropertyCheck("cochordal_cover_bound", True, False, str(exc)))
        else:
            passed = valid and reg <= len(cover_witness) + 1
            detail = f"cover valid={valid}, reg={reg}, parts={len(cover_witness)}"
            checks.append(PropertyCheck("cochordal_cover_bound", True, passed, detail))
    else:
        checks.append(PropertyCheck("cochordal_cover_bound", False, True))

    applicable = has_edges and g.is_gap_free() and g.is_claw_free()
    passed = reg <= 3 if applicable else True
    checks.append(
        PropertyCheck("gapfree_clawfree_reg_at_most_3", applicable, passed, f"reg={reg}" if applicable else "")
    )

    if has_edges:
        bad = []
        for x, (nbhd_set, vertex_set) in enumerate(deletion_sets):
            drop_nbhd = _reg_ideal(oracle, g.induced(nbhd_set)[0]) + 1
            drop_vertex = _reg_ideal(oracle, g.induced(vertex_set)[0])
            if reg not in (drop_nbhd, drop_vertex):
                bad.append((x, drop_nbhd, drop_vertex))
        passed = not bad
        detail = f"reg={reg}, violations={bad}" if bad else f"reg={reg}, all {g.n} vertices"
        checks.append(PropertyCheck("vertex_deletion_membership", True, passed, detail))
    else:
        checks.append(PropertyCheck("vertex_deletion_membership", False, True))

    if edge_partition is not None:
        h, k = edge_partition
        applicable = bool(h.edges) and bool(k.edges) and has_edges
        if applicable:
            th, tk = oracle(h), oracle(k)
            rh, rk = th.regularity - 1, tk.regularity - 1
            ph, pk = th.projective_dimension, tk.projective_dimension
            pg = table.projective_dimension
            passed = (reg - 1 <= rh + rk) and (pg <= ph + pk + 1)
            detail = f"reg(R/I)={reg - 1}<={rh}+{rk}; pd={pg}<={ph}+{pk}+1"
        else:
            passed, detail = True, ""
        checks.append(PropertyCheck("edge_split_subadditivity", applicable, passed, detail))
    else:
        checks.append(PropertyCheck("edge_split_subadditivity", False, True))

    return PropertyReport(g.to_json_dict(), tuple(checks))
