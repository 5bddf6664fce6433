"""Homology dimensions over GF(p) and the rationals, boundary identities,
and agreement with the combinatorial Euler characteristic."""

import random
import signal
from math import gcd

import pytest

import circreg.homology as homology_mod
import naive_ref
from circreg.betti import hochster_betti_table
from circreg.complexes import SimplicialComplex, independence_complex
from circreg.graphs import circulant, random_graph
from circreg.homology import (
    _reduced_columns,
    _signed_columns,
    euler_from_homology,
    homology_dims_from_sizes,
    normalize_field,
)
from naive_ref import complete_graph

FIELDS = (2, 3, "Q")


class TestFieldHandling:
    def test_accepts_primes_and_q(self):
        assert normalize_field("2") == 2
        assert normalize_field(13) == 13
        assert normalize_field("q") == "Q"

    @pytest.mark.parametrize("bad", [1, 4, 9, "x", 0, -3])
    def test_rejects_non_primes(self, bad):
        with pytest.raises(ValueError):
            normalize_field(bad)


class TestKnownComplexes:
    def test_three_points(self):
        cx = naive_ref.complex_from_facets(3, [[0], [1], [2]])
        for f in FIELDS:
            assert homology_dims_from_sizes(cx.faces_by_size(), f) == {-1: 0, 0: 2}

    def test_hollow_triangle(self):
        cx = naive_ref.complex_from_facets(3, [[0, 1], [1, 2], [0, 2]])
        for f in FIELDS:
            assert homology_dims_from_sizes(cx.faces_by_size(), f) == {-1: 0, 0: 0, 1: 1}

    def test_full_simplex_is_acyclic(self):
        cx = naive_ref.complex_from_facets(4, [[0, 1, 2, 3]])
        for f in FIELDS:
            assert all(v == 0 for v in homology_dims_from_sizes(cx.faces_by_size(), f).values())

    def test_empty_face_complex(self):
        cx = naive_ref.complex_from_facets(2, [[]])
        assert homology_dims_from_sizes(cx.faces_by_size(), 2) == {-1: 1}

    def test_void_raises(self):
        # The void complex has no faces, not even the empty one: it is rejected.
        with pytest.raises(ValueError, match="empty face"):
            naive_ref.complex_from_facets(3, [])

    def test_ind_c5_is_a_circle(self):
        cx = independence_complex(circulant(5, {1}))
        for f in FIELDS:
            assert homology_dims_from_sizes(cx.faces_by_size(), f)[1] == 1


class TestCones:
    def test_cone_homology_vanishes(self):
        rng = random.Random(61)
        for _ in range(10):
            g = random_graph(7, rng.random(), rng)
            apex_facets = [(m << 1) | 1 for m in naive_ref.maximal_independent_masks(g)]
            cone = SimplicialComplex(naive_ref.faces_of_facets(8, apex_facets))
            for f in FIELDS:
                assert all(v == 0 for v in homology_dims_from_sizes(cone.faces_by_size(), f).values())


def _face_lists():
    """Faces grouped by size: every face of each complex, and the relative
    lists of Ind(G - w) over Ind(G - N[w]), the faces of Ind(G - w) that
    meet N(w), at each w with a neighbour."""
    rng = random.Random(67)
    graphs = [circulant(6, {1}), complete_graph(4)]
    graphs += [random_graph(7, rng.random(), rng) for _ in range(6)]
    out = [independence_complex(g).faces_by_size() for g in graphs]
    out += [naive_ref.relative_faces_by_size(g, w) for g in graphs for w in range(g.n) if g.adj[w]]
    return out


class TestBoundaryIdentities:
    @staticmethod
    def _composites(sizes, p=None):
        """For each k >= 2 and each face of size k, the column of its
        boundary followed by the boundary one size down, as a dense list,
        each signed column taken mod p first when p is given."""
        for k in range(2, len(sizes)):
            upper = _signed_columns(sizes[k - 1], sizes[k])
            lower = _signed_columns(sizes[k - 2], sizes[k - 1])
            if p:
                upper = [{t: x % p for t, x in col.items()} for col in upper]
                lower = [{i: x % p for i, x in col.items()} for col in lower]
            for col in upper:
                acc = [0] * len(sizes[k - 2])
                for t, x in col.items():
                    for i, y in lower[t].items():
                        acc[i] += x * y
                yield acc

    def test_relative_lists_are_sampled(self):
        lists = _face_lists()
        assert sum(not sizes[0] and len(sizes) > 3 for sizes in lists) > 10

    def test_boundary_of_boundary_is_zero(self):
        for sizes in _face_lists():
            for composite in self._composites(sizes):
                assert all(acc == 0 for acc in composite)

    def test_boundary_of_boundary_mod_p(self):
        for sizes in _face_lists():
            for p in (2, 3):
                for composite in self._composites(sizes, p):
                    assert all(acc % p == 0 for acc in composite)

    def test_signed_columns_match_the_reference(self):
        # The sign alternates over every vertex of a face, listed or not.
        for sizes in _face_lists():
            for k in range(1, len(sizes)):
                rows = naive_ref.boundary_rows(sizes[k - 1], sizes[k])
                expected = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(len(sizes[k]))]
                assert _signed_columns(sizes[k - 1], sizes[k]) == expected


class TestColumnReduction:
    """The sparse reduction that ranks boundaries over odd primes and Q, on
    integer columns given as {row: entry}."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        # A step that leaves the top entry standing loops forever: fail it.
        def expire(signum, frame):
            raise TimeoutError("the reduction did not finish in 10 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(10)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    def test_determinant_minus_three(self):
        # Columns (1, 1) and (1, -2): rank 1 over GF(3), rank 2 over GF(5) and Q.
        columns = [{0: 1, 1: 1}, {0: 1, 1: -2}]
        assert len(_reduced_columns(columns, 3)) == 1
        assert len(_reduced_columns(columns, 5)) == 2
        assert len(_reduced_columns(columns, "Q")) == 2

    def test_ranks_match_textbook_elimination(self):
        # Every column holds a unit, as a boundary column does, so it starts
        # primitive; over Q each reduced column must stay primitive.  A
        # column over GF(p) lists only its entries that p does not divide.
        rng = random.Random(181)
        for _ in range(300):
            nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
            rows = [[rng.choice((0, 0, 0, 1, -1, 2, -2, 3)) for _ in range(ncols)] for _ in range(nrows)]
            for j in range(ncols):
                rows[rng.randrange(nrows)][j] = rng.choice((1, -1))
            for f in (3, 5, "Q"):
                columns = [{} for _ in range(ncols)]
                for i, row in enumerate(rows):
                    for j, x in enumerate(row):
                        if x if f == "Q" else x % f:
                            columns[j][i] = x
                reduced = _reduced_columns(columns, f)
                assert len(reduced) == naive_ref.rank(rows, f), (rows, f)
                assert all(max(col) == top for top, col in reduced.items())
                if f == "Q":
                    assert all(gcd(*col.values()) == 1 for col in reduced.values()), rows


class TestRelativeLists:
    """A relative list has no empty face, so nothing maps onto it, and
    over GF(2) the maps are ranked from the top size down with clearing."""

    def test_dims_match_textbook_elimination(self):
        for sizes in _face_lists():
            for f in (2, 3, 5, "Q"):
                assert homology_dims_from_sizes(sizes, f) == naive_ref.homology_dims(sizes, f), (sizes, f)

    def test_single_edge_is_two_points(self):
        # Ind(K2) at w = 0: the one face {1}, with nothing below it.
        for f in (2, 3, "Q"):
            assert homology_dims_from_sizes([[], [0b10]], f) == {-1: 0, 0: 1}

    def test_clearing_skips_one_column_per_pivot_one_size_up(self, monkeypatch):
        calls = []
        real = homology_mod._boundary_rank

        def record(smaller, larger, field, pivots):
            calls.append((field, len(smaller), len(larger)))
            return real(smaller, larger, field, pivots)

        monkeypatch.setattr(homology_mod, "_boundary_rank", record)
        skipped = dict.fromkeys((2, 3, 5, "Q"), 0)
        # A circle beside a filled triangle has GF(2) dims in degrees 0 and 1.
        lists = _face_lists() + [naive_ref.complex_from_facets(6, [[0, 1], [1, 2], [0, 2], [3, 4, 5]]).faces_by_size()]
        for sizes in lists:
            # Over Q the boundaries are ranked only when the GF(2) dims lie
            # in degrees of both parities.
            gf2_dims = naive_ref.homology_dims(sizes, 2)
            ranked_over_q = len({d % 2 for d, dim in gf2_dims.items() if dim}) > 1
            for f in skipped:
                calls.clear()
                homology_dims_from_sizes(sizes, f)
                top = len(sizes) - 1
                ranks = [naive_ref.rank(naive_ref.boundary_rows(sizes[k - 1], sizes[k]), f) for k in range(1, top + 1)]
                ranks = [0] + ranks + [0]  # ranks[k]: the map from size k
                expected = []
                if f != "Q" or ranked_over_q:
                    for k in range(top, 1, -1):
                        columns = len(sizes[k]) - ranks[k + 1]
                        if sizes[k - 1] and columns:
                            expected.append((len(sizes[k - 1]), columns))
                        skipped[f] += ranks[k + 1]
                assert [c[1:] for c in calls if c[0] == f] == expected, (sizes, f)
        assert all(skipped.values()), skipped


class TestEulerAgreement:
    def test_homology_euler_equals_f_vector_euler(self):
        rng = random.Random(71)
        graphs = [circulant(n, {1}) for n in range(3, 8)]
        graphs += [random_graph(rng.randint(2, 9), rng.random(), rng) for _ in range(12)]
        for g in graphs:
            cx = independence_complex(g)
            expected = cx.euler_char()
            for f in FIELDS:
                assert euler_from_homology(cx, f) == expected

    def test_cross_field_dims_reported(self):
        # For every complex on <= 10 vertices used here the three fields agree;
        # any disagreement must surface as data rather than being merged.
        rng = random.Random(73)
        for _ in range(12):
            g = random_graph(rng.randint(2, 10), rng.random(), rng)
            cx = independence_complex(g)
            per_field = {f: homology_dims_from_sizes(cx.faces_by_size(), f) for f in FIELDS}
            assert per_field[2] == per_field[3] == per_field["Q"], per_field


class TestClassicalCycleComplexes:
    def test_cycle_independence_complexes_are_spheres_or_wedges(self):
        # Classical fact: the independence complex of an n-cycle is a single
        # sphere of dimension (n+1)//3 - 1, doubled when 3 divides n.
        for n in range(3, 12):
            cx = independence_complex(circulant(n, {1}))
            top = (n + 1) // 3 - 1
            expected = {d: 0 for d in range(-1, len(cx.faces_by_size()) - 1)}
            expected[top] = 2 if n % 3 == 0 else 1
            for f in FIELDS:
                assert homology_dims_from_sizes(cx.faces_by_size(), f) == expected, (n, f)


def _naive_rank_sample():
    rng = random.Random(79)
    return [random_graph(rng.randint(2, 8), rng.random(), rng) for _ in range(12)]


class TestAgainstNaiveRank:
    def test_dims_match_textbook_elimination(self):
        for g in _naive_rank_sample():
            sizes = naive_ref.faces_by_size_within(g, g.full_mask)
            cx = independence_complex(g)
            for f in FIELDS:
                assert homology_dims_from_sizes(cx.faces_by_size(), f) == naive_ref.homology_dims(sizes, f)


class TestRationalsByParity:
    """Over Q the GF(2) dims are returned when their nonzero degrees share one
    parity; otherwise the boundaries are ranked over Q.  The reference ranks
    every boundary with Fractions and applies no rule."""

    def test_dims_match_fraction_rank_on_every_induced_subgraph(self, rational_rank_calls):
        rng = random.Random(163)
        for n in range(4, 10):
            for _ in range(3):
                g = random_graph(n, rng.uniform(0.2, 0.8), rng)
                for w in range(1, 1 << n):
                    sizes = naive_ref.faces_by_size_within(g, w)
                    assert homology_dims_from_sizes(sizes, "Q") == naive_ref.homology_dims(sizes, "Q"), (g.edges, w)
        assert rational_rank_calls, "the sample must reach the Q fallback"

    def test_tables_match_the_naive_sweep(self, rational_rank_calls):
        for g in _naive_rank_sample():
            if g.n <= 7:
                assert hochster_betti_table(g, "Q").entries == naive_ref.betti_entries(g, "Q"), g.edges
        assert rational_rank_calls, "the sample must reach the Q fallback"

    def test_circle_plus_point_falls_back(self, rational_rank_calls):
        # GF(2) dims in degrees 0 and 1: the parity rule cannot decide.
        cx = naive_ref.complex_from_facets(4, [[0, 1], [1, 2], [0, 2], [3]])
        assert homology_dims_from_sizes(cx.faces_by_size(), "Q") == {-1: 0, 0: 1, 1: 1}
        assert rational_rank_calls
