"""Complexes, polynomials and Euler characteristics, checked against
subset-enumeration oracles."""

import random
from itertools import combinations

import pytest

import circreg.complexes
import naive_ref
from circreg.complexes import (
    IntPoly,
    SimplicialComplex,
    euler_via_independence,
    independence_complex,
    independence_polynomial,
    transfer_matrix_indpoly,
)
from circreg.graphs import (
    Graph,
    circulant,
    moebius,
    prism,
    random_graph,
)
from naive_ref import complete_graph


class TestIntPoly:
    def test_trims_trailing_zeros(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([0, 0]).coeffs == ()
        assert IntPoly([0, 0, 5]).coeffs == (0, 0, 5)

    def test_arithmetic(self):
        x = IntPoly((0, 1))
        assert (IntPoly((1, 1)) ** 2).coeffs == (1, 2, 1)
        assert (3 * x + IntPoly((1,))).coeffs == (1, 3)
        assert x.shifted(2).coeffs == (0, 0, 0, 1)

    def test_eval(self):
        p = IntPoly((1, 6, 6))
        assert p(-1) == 1
        assert p(1) == 13

    def test_str(self):
        assert str(IntPoly((1, 8, 16, 8))) == "1 + 8x + 16x^2 + 8x^3"
        assert str(IntPoly(())) == "0"

    def test_json_round_trip(self):
        p = IntPoly((1, 4))
        assert p.to_json_dict() == {"coeffs": [1, 4]}
        assert IntPoly(p.to_json_dict()["coeffs"]) == p


class TestComplexBasics:
    def test_void_vs_empty_face(self):
        # A face list without the empty face is rejected, even with other
        # faces in it; the complex of the empty face alone has dimension -1.
        with pytest.raises(ValueError, match="empty face"):
            SimplicialComplex([[], [0b01, 0b10]])
        irr = naive_ref.complex_from_facets(2, [[]])
        assert irr.faces_by_size() == [[0]]
        assert len(irr.faces_by_size()) - 2 == -1

    def test_f_vector_void_raises(self):
        with pytest.raises(ValueError, match="empty face"):
            SimplicialComplex([])

    def test_simplex_f_vector(self):
        cx = naive_ref.complex_from_facets(3, [[0, 1, 2]])
        assert cx.f_vector() == (1, 3, 3, 1)


class TestIndependenceComplex:
    def test_complete_graph_is_points(self):
        cx = independence_complex(complete_graph(5))
        assert cx.f_vector() == (1, 5)

    def test_c4_facets_are_diagonals(self):
        g = circulant(4, {1})
        cx = independence_complex(g)
        assert cx.faces_by_size() == naive_ref.faces_by_size_within(g, g.full_mask)
        assert cx.faces_by_size()[-1] == [0b0101, 0b1010]
        assert cx.f_vector() == (1, 4, 2)

    def test_edgeless_gives_full_simplex(self):
        cx = independence_complex(Graph(4))
        assert cx.f_vector() == (1, 4, 6, 4, 1)

    def test_faces_match_enumeration(self):
        rng = random.Random(17)
        for _ in range(15):
            g = random_graph(rng.randint(1, 8), rng.random(), rng)
            cx = independence_complex(g)
            got = sorted(m for bucket in cx.faces_by_size() for m in bucket)
            assert got == naive_ref.independent_masks_within(g, g.full_mask)

    def test_f_vectors_from_spec_families(self):
        assert independence_complex(circulant(5, {1})).f_vector() == (1, 5, 5)
        assert independence_complex(circulant(8, {1, 4})).f_vector() == (1, 8, 16, 8)


class TestFaceLister:
    """independence_complex lists its faces once, by the lister the sweep's
    cores share; the lists are checked against brute force, including the
    order of every group."""

    @staticmethod
    def _check_faces(g):
        assert independence_complex(g).faces_by_size() == naive_ref.faces_by_size_within(g, g.full_mask), g.edges

    def test_facets_on_all_five_vertex_graphs(self):
        pairs = list(combinations(range(5), 2))
        for m in range(1 << len(pairs)):
            self._check_faces(Graph(5, [e for k, e in enumerate(pairs) if m >> k & 1]))

    def test_facets_on_a_seeded_sample(self):
        rng = random.Random(59)
        for n in range(6, 11):
            for _ in range(4):
                self._check_faces(random_graph(n, rng.uniform(0.1, 0.8), rng))

    def test_facets_without_vertices_and_with_one(self):
        for g, sizes in ((Graph(0), [[0]]), (Graph(1), [[0], [1]])):
            assert independence_complex(g).faces_by_size() == sizes == naive_ref.faces_by_size_within(g, g.full_mask)

    def test_faces_by_size_of_void_and_empty_face_complexes(self):
        assert naive_ref.faces_of_facets(3, []) == []
        with pytest.raises(ValueError, match="empty face"):
            naive_ref.complex_from_facets(3, [])
        assert naive_ref.complex_from_facets(3, [[]]).faces_by_size() == [[0]] == naive_ref.faces_of_facets(3, [0])

    def test_independence_complex_refuses_more_than_the_bound(self, monkeypatch):
        rng = random.Random(67)
        graphs = [Graph(k) for k in range(6)] + [random_graph(7, 0.4, rng) for _ in range(4)]
        for g in graphs:
            count = len(naive_ref.independent_masks_within(g, g.full_mask))
            for limit in range(max(1, count - 2), count + 3):
                monkeypatch.setattr(circreg.complexes, "MAX_MATERIALIZED_FACES", limit)
                if limit < count:
                    with pytest.raises(ValueError, match=f"more than {limit} faces"):
                        independence_complex(g)
                else:
                    assert independence_complex(g).faces_by_size() == naive_ref.faces_by_size_within(g, g.full_mask)


class TestIndependencePolynomial:
    def test_complete(self):
        assert independence_polynomial(complete_graph(4)) == IntPoly((1, 4))

    def test_prism_and_ladder(self):
        assert independence_polynomial(circulant(6, {2, 3})) == IntPoly((1, 6, 6))
        assert independence_polynomial(circulant(8, {1, 4})) == IntPoly((1, 8, 16, 8))

    def test_matches_enumeration(self):
        rng = random.Random(41)
        for _ in range(15):
            g = random_graph(rng.randint(1, 9), rng.random(), rng)
            assert list(independence_polynomial(g).coeffs) == naive_ref.indpoly_coeffs(g)

    def test_degree_is_max_independent_set(self):
        rng = random.Random(43)
        for _ in range(10):
            g = random_graph(rng.randint(2, 9), rng.random(), rng)
            naive = max(m.bit_count() for m in naive_ref.independent_masks_within(g, g.full_mask))
            assert len(independence_polynomial(g).coeffs) - 1 == naive


class TestEuler:
    def test_empty_face_complex(self):
        assert naive_ref.complex_from_facets(2, [[]]).euler_char() == -1

    def test_c4_and_c5(self):
        assert independence_complex(circulant(4, {1})).euler_char() == 1
        assert independence_complex(circulant(5, {1})).euler_char() == -1

    def test_via_independence_complete(self):
        for n in range(1, 7):
            assert euler_via_independence(complete_graph(n)) == n - 1

    def test_via_independence_c10_15(self):
        assert euler_via_independence(circulant(10, {1, 5})) == 1

    def test_two_routes_agree_on_random_graphs(self):
        rng = random.Random(47)
        for _ in range(20):
            g = random_graph(rng.randint(1, 12), rng.random(), rng)
            assert independence_complex(g).euler_char() == euler_via_independence(g)

    def test_two_routes_agree_at_sixteen_vertices(self):
        g = moebius(8)
        assert g.n == 16
        assert independence_complex(g).euler_char() == euler_via_independence(g)


class TestTransferMatrix:
    def test_small_values(self):
        assert transfer_matrix_indpoly("moebius", 2) == IntPoly((1, 4))
        assert transfer_matrix_indpoly("moebius", 3) == IntPoly((1, 6, 6, 2))
        assert transfer_matrix_indpoly("prism", 3) == IntPoly((1, 6, 6))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_moebius_matches_brute_force(self, n):
        assert transfer_matrix_indpoly("moebius", n) == independence_polynomial(moebius(n))

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_prism_matches_brute_force(self, n):
        assert transfer_matrix_indpoly("prism", n) == independence_polynomial(prism(n))

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            transfer_matrix_indpoly("prism", 4)
        with pytest.raises(ValueError):
            transfer_matrix_indpoly("ladder", 3)
