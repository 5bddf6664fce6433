"""Homology dimensions over GF(p) and the rationals, boundary identities,
and agreement with the combinatorial Euler characteristic."""

import random

import pytest

import circreg.homology as homology_mod
import naive_ref
from circreg.betti import hochster_betti_table
from circreg.complexes import SimplicialComplex, independence_complex
from circreg.graphs import complete_graph, cycle_graph, random_graph
from circreg.homology import (
    _signed_rows,
    euler_from_homology,
    homology_dims_from_sizes,
    normalize_field,
    reduced_homology_dims,
)

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
            assert reduced_homology_dims(cx, f) == {-1: 0, 0: 2}

    def test_hollow_triangle(self):
        cx = naive_ref.complex_from_facets(3, [[0, 1], [1, 2], [0, 2]])
        for f in FIELDS:
            assert reduced_homology_dims(cx, f) == {-1: 0, 0: 0, 1: 1}

    def test_full_simplex_is_acyclic(self):
        cx = naive_ref.complex_from_facets(4, [[0, 1, 2, 3]])
        for f in FIELDS:
            assert all(v == 0 for v in reduced_homology_dims(cx, f).values())

    def test_empty_face_complex(self):
        cx = naive_ref.complex_from_facets(2, [[]])
        assert reduced_homology_dims(cx) == {-1: 1}

    def test_void_raises(self):
        with pytest.raises(ValueError):
            reduced_homology_dims(SimplicialComplex.void(3))

    def test_ind_c5_is_a_circle(self):
        cx = independence_complex(cycle_graph(5))
        for f in FIELDS:
            assert reduced_homology_dims(cx, f)[1] == 1


class TestCones:
    def test_cone_homology_vanishes(self):
        rng = random.Random(61)
        for _ in range(10):
            g = random_graph(7, rng.random(), rng)
            apex_facets = [(m << 1) | 1 for m in independence_complex(g).facets]
            cone = SimplicialComplex(8, apex_facets)
            for f in FIELDS:
                assert all(v == 0 for v in reduced_homology_dims(cone, f).values())


def _face_lists():
    """Faces grouped by size: every face of each complex, and the relative
    lists of Ind(G - w) over Ind(G - N[w]), the faces of Ind(G - w) that
    meet N(w), at each w with a neighbour."""
    rng = random.Random(67)
    graphs = [cycle_graph(6), complete_graph(4)]
    graphs += [random_graph(7, rng.random(), rng) for _ in range(6)]
    out = [independence_complex(g).faces_by_size() for g in graphs]
    out += [naive_ref.relative_faces_by_size(g, w) for g in graphs for w in range(g.n) if g.adj[w]]
    return out


class TestBoundaryIdentities:
    @staticmethod
    def _composites(sizes, p=None):
        """For each k >= 2, the boundary from size-k faces to size-(k-1)
        faces followed by the one down to size-(k-2) faces, each signed
        matrix reduced mod p first when p is given."""
        for k in range(2, len(sizes)):
            upper = _signed_rows(sizes[k - 1], sizes[k])
            lower = _signed_rows(sizes[k - 2], sizes[k - 1])
            if p:
                upper = [[x % p for x in row] for row in upper]
                lower = [[x % p for x in row] for row in lower]
            yield [
                [sum(lower[i][t] * upper[t][j] for t in range(len(upper))) for j in range(len(upper[0]))]
                for i in range(len(lower))
            ]

    def test_relative_lists_are_sampled(self):
        lists = _face_lists()
        assert sum(not sizes[0] and len(sizes) > 3 for sizes in lists) > 10

    def test_boundary_of_boundary_is_zero(self):
        for sizes in _face_lists():
            for composite in self._composites(sizes):
                assert all(acc == 0 for row in composite for acc in row)

    def test_boundary_of_boundary_mod_p(self):
        for sizes in _face_lists():
            for p in (2, 3):
                for composite in self._composites(sizes, p):
                    assert all(acc % p == 0 for row in composite for acc in row)

    def test_signed_rows_match_the_reference(self):
        # The sign alternates over every vertex of a face, listed or not.
        for sizes in _face_lists():
            for k in range(1, len(sizes)):
                assert _signed_rows(sizes[k - 1], sizes[k]) == naive_ref.boundary_rows(sizes[k - 1], sizes[k])


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

        def record(smaller, larger, *args):
            calls.append((len(smaller), len(larger)))
            return real(smaller, larger, *args)

        monkeypatch.setattr(homology_mod, "_boundary_rank", record)
        skipped = 0
        for sizes in _face_lists():
            calls.clear()
            homology_dims_from_sizes(sizes, 2)
            top = len(sizes) - 1
            ranks = [naive_ref.rank(naive_ref.boundary_rows(sizes[k - 1], sizes[k]), 2) for k in range(1, top + 1)]
            ranks = [0] + ranks + [0]  # ranks[k]: the map from size k
            expected = []
            for k in range(top, 1, -1):
                columns = len(sizes[k]) - ranks[k + 1]
                if sizes[k - 1] and columns:
                    expected.append((len(sizes[k - 1]), columns))
                skipped += ranks[k + 1]
            assert calls == expected, sizes
        assert skipped


class TestEulerAgreement:
    def test_homology_euler_equals_f_vector_euler(self):
        rng = random.Random(71)
        graphs = [cycle_graph(n) for n in range(3, 8)]
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
            per_field = {f: reduced_homology_dims(cx, f) for f in FIELDS}
            assert per_field[2] == per_field[3] == per_field["Q"], per_field


class TestClassicalCycleComplexes:
    def test_cycle_independence_complexes_are_spheres_or_wedges(self):
        # Classical fact: the independence complex of an n-cycle is a single
        # sphere of dimension (n+1)//3 - 1, doubled when 3 divides n.
        for n in range(3, 12):
            cx = independence_complex(cycle_graph(n))
            top = (n + 1) // 3 - 1
            expected = {d: 0 for d in range(-1, cx.dim + 1)}
            expected[top] = 2 if n % 3 == 0 else 1
            for f in FIELDS:
                assert reduced_homology_dims(cx, f) == expected, (n, f)


def _naive_rank_sample():
    rng = random.Random(79)
    return [random_graph(rng.randint(2, 8), rng.random(), rng) for _ in range(12)]


class TestAgainstNaiveRank:
    def test_dims_match_textbook_elimination(self):
        for g in _naive_rank_sample():
            sizes = naive_ref.faces_by_size_within(g, g.full_mask)
            cx = independence_complex(g)
            for f in FIELDS:
                assert reduced_homology_dims(cx, f) == naive_ref.homology_dims(sizes, f)


class TestRationalsByParity:
    """Over Q the GF(2) dims are returned when their nonzero degrees share one
    parity; otherwise the boundaries are ranked over the integers.  The
    reference ranks every boundary with Fractions and applies no rule."""

    def test_dims_match_fraction_rank_on_every_induced_subgraph(self, rank_int_calls):
        rng = random.Random(163)
        for n in range(4, 10):
            for _ in range(3):
                g = random_graph(n, rng.uniform(0.2, 0.8), rng)
                for w in range(1, 1 << n):
                    sizes = naive_ref.faces_by_size_within(g, w)
                    assert homology_dims_from_sizes(sizes, "Q") == naive_ref.homology_dims(sizes, "Q"), (g.edges, w)
        assert rank_int_calls, "the sample must reach the integer fallback"

    def test_tables_match_the_naive_sweep(self, rank_int_calls):
        for g in _naive_rank_sample():
            if g.n <= 7:
                assert hochster_betti_table(g, "Q").entries == naive_ref.betti_entries(g, "Q"), g.edges
        assert rank_int_calls, "the sample must reach the integer fallback"

    def test_circle_plus_point_falls_back(self, rank_int_calls):
        # GF(2) dims in degrees 0 and 1: the parity rule cannot decide.
        cx = naive_ref.complex_from_facets(4, [[0, 1], [1, 2], [0, 2], [3]])
        assert reduced_homology_dims(cx, "Q") == {-1: 0, 0: 1, 1: 1}
        assert rank_int_calls
