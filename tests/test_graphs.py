"""Graph construction, generators, and structure tests."""

import math
import random

import pytest

import naive_ref
from circreg.graphs import (
    Graph,
    are_isomorphic,
    circulant,
    cochordal_split_c4j,
    complete_graph,
    cycle_decomposition,
    cycle_graph,
    davis_domke,
    davis_domke_graph,
    empty_graph,
    family_a,
    family_b,
    family_d,
    graph_from_json_dict,
    is_cochordal_cover,
    moebius,
    path_graph,
    prism,
    random_graph,
)


class TestConstruction:
    def test_rejects_loops(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_normalizes_edge_order(self):
        assert Graph(3, [(2, 0)]).edges == frozenset({(0, 2)})

    def test_labels_and_no_loops_for_generators(self):
        for g in [circulant(10, {1, 3}), family_a(3), family_d(3), moebius(4), prism(5)]:
            assert all(0 <= i < j < g.n for (i, j) in g.edges)


class TestCirculant:
    def test_c10_13_degrees(self):
        g = circulant(10, {1, 3})
        assert g.edge_count == 20
        assert all(g.degree(v) == 4 for v in range(10))

    def test_full_range_is_complete(self):
        assert circulant(4, {1, 2}) == complete_graph(4)

    def test_half_distance_is_matching(self):
        g = circulant(6, {3})
        assert g.edges == frozenset({(0, 3), (1, 4), (2, 5)})

    @pytest.mark.parametrize("bad", [0, -1, 6])
    def test_rejects_bad_distances(self, bad):
        with pytest.raises(ValueError):
            circulant(10, {bad})

    def test_complement_drops_to_single_distance(self):
        assert circulant(8, {1, 3, 4}).complement() == circulant(8, {2})


class TestBasicOperations:
    def test_complement_of_complete_is_empty(self):
        assert complete_graph(4).complement().edge_count == 0

    def test_complement_involution(self):
        rng = random.Random(11)
        for _ in range(10):
            g = random_graph(7, rng.random(), rng)
            assert g.complement().complement() == g

    def test_induced_path_from_c5(self):
        sub, mapping = cycle_graph(5).induced({0, 1, 2})
        assert sub == path_graph(3)
        assert mapping == (0, 1, 2)

    def test_induced_identity(self):
        g = circulant(9, {2, 4})
        assert g.induced(range(9))[0] == g

    def test_induced_c5_inside_c10_2(self):
        sub, _ = circulant(10, {2}).induced({0, 2, 4, 6, 8})
        assert sub == cycle_graph(5)

    def test_delete_vertex_k3(self):
        assert complete_graph(3).without_vertex(0) == Graph(2, [(0, 1)])

    def test_delete_closed_neighborhood_complete(self):
        assert complete_graph(5).without_closed_neighborhood(2).n == 0

    def test_delete_closed_neighborhood_c5(self):
        g = cycle_graph(5).without_closed_neighborhood(0)
        assert g.n == 2 and g.edge_count == 1

    def test_disjoint_union(self):
        g = Graph(2, [(0, 1)]).disjoint_union(Graph(2, [(0, 1)]))
        assert g.n == 4 and g.edges == frozenset({(0, 1), (2, 3)})
        assert Graph(3, [(0, 2)]).disjoint_union(empty_graph(0)) == Graph(3, [(0, 2)])

    def test_three_c4s_match_circulant_cycle_structure(self):
        g = empty_graph(0)
        for _ in range(3):
            g = g.disjoint_union(cycle_graph(4))
        assert are_isomorphic(g, circulant(12, {3}))


class TestCycleDecomposition:
    @pytest.mark.parametrize(
        "n,j,d,length",
        [(12, 3, 3, 4), (6, 3, 3, 2), (10, 2, 2, 5)],
    )
    def test_counts(self, n, j, d, length):
        got_d, got_len, classes = cycle_decomposition(n, j)
        assert (got_d, got_len) == (d, length)
        assert len(classes) == d
        assert sorted(v for cls in classes for v in cls) == list(range(n))

    def test_classes_walk_the_cycles(self):
        _, _, classes = cycle_decomposition(12, 3)
        g = circulant(12, {3})
        for cls in classes:
            for k, v in enumerate(cls):
                assert g.adjacent(v, cls[(k + 1) % len(cls)])

    def test_components_match_decomposition(self):
        for n in range(3, 13):
            for j in range(1, n // 2 + 1):
                d, length, _ = cycle_decomposition(n, j)
                comps = circulant(n, {j}).connected_components()
                assert len(comps) == d == math.gcd(j, n)
                assert all(len(c) == length for c in comps)


class TestChordal:
    def test_complete_chordal(self):
        assert complete_graph(6).is_chordal()

    def test_c4_not_chordal(self):
        assert not cycle_graph(4).is_chordal()

    def test_matches_induced_cycle_definition(self):
        rng = random.Random(5)
        for _ in range(60):
            g = random_graph(rng.randint(4, 8), rng.uniform(0.2, 0.9), rng)
            assert g.is_chordal() == naive_ref.is_chordal(g), g.edges

    def test_single_distance_circulant_criterion(self):
        for n in range(4, 15):
            for j in range(1, n // 2 + 1):
                d = math.gcd(j, n)
                expected = n == 2 * j or n == 3 * d
                assert circulant(n, {j}).is_chordal() == expected
                full = set(range(1, n // 2 + 1)) - {j}
                assert circulant(n, full).complement().is_chordal() == expected


class TestClawGapFree:
    def test_claw_is_not_claw_free(self):
        claw = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert not claw.is_claw_free()

    def test_long_component_circulants_are_claw_free(self):
        for n in range(5, 13):
            for j in range(1, n // 2 + 1):
                if n // math.gcd(j, n) >= 5:
                    dists = set(range(1, n // 2 + 1)) - {j}
                    assert circulant(n, dists).is_claw_free()

    def test_complete_is_gap_free(self):
        assert complete_graph(5).is_gap_free()

    def test_two_disjoint_edges_have_a_gap(self):
        assert not Graph(4, [(0, 1), (2, 3)]).is_gap_free()

    def test_gap_free_matches_the_definition_on_all_five_vertex_graphs(self):
        pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        for m in range(1 << len(pairs)):
            g = Graph(5, [e for k, e in enumerate(pairs) if m >> k & 1])
            assert g.is_gap_free() == naive_ref.is_gap_free(g), g.edges
            assert g.is_chordal() == naive_ref.is_chordal(g), g.edges


class TestCochordalCover:
    def test_c4_covers_itself(self):
        assert is_cochordal_cover(cycle_graph(4), [cycle_graph(4)])

    def test_empty_cover_only_for_edgeless(self):
        assert not is_cochordal_cover(cycle_graph(4), [])
        assert is_cochordal_cover(empty_graph(3), [])

    def test_rejects_stray_edges(self):
        with pytest.raises(ValueError):
            is_cochordal_cover(Graph(3, [(0, 1)]), [Graph(3, [(0, 2)])])

    @pytest.mark.parametrize("j", [1, 2, 3, 4])
    def test_split_is_a_two_part_cover(self, j):
        dists = set(range(1, 2 * j + 1)) - {j}
        target = circulant(4 * j, dists)
        parts = cochordal_split_c4j(j)
        assert is_cochordal_cover(target, parts)

    def test_split_j2_blocks(self):
        g1, g2 = cochordal_split_c4j(2)
        v1 = {0, 1, 4, 5}
        # one clique block per part, the other side independent
        assert all(g1.adjacent(a, b) for a in v1 for b in v1 if a != b)
        assert all(not g1.adjacent(a, b) for a in {2, 3, 6, 7} for b in {2, 3, 6, 7} if a != b)

    def test_split_union_j3(self):
        g1, g2 = cochordal_split_c4j(3)
        target = circulant(12, {1, 2, 4, 5, 6})
        assert g1.edges | g2.edges == target.edges


class TestCubicDecomposition:
    @pytest.mark.parametrize(
        "n,a,expected",
        [(6, 4, (2, 3, 2)), (4, 2, (2, 2, 1)), (3, 1, (1, 3, 1))],
    )
    def test_known_splits(self, n, a, expected):
        assert davis_domke(n, a) == expected

    def test_rejects_bad_a(self):
        with pytest.raises(ValueError):
            davis_domke(5, 5)

    def test_materialized_isomorphism(self):
        for n in range(2, 8):
            for a in range(1, n):
                g = circulant(2 * n, {a, n})
                h = davis_domke_graph(n, a)
                assert g.n == h.n
                assert sorted(g.degrees()) == sorted(h.degrees())
                gc = sorted(len(c) for c in g.connected_components())
                hc = sorted(len(c) for c in h.connected_components())
                assert gc == hc
                if g.n <= 14:
                    assert are_isomorphic(g, h)


class TestFamilies:
    def test_family_a1_shape(self):
        g = family_a(1)
        assert (g.n, g.edge_count) == (6, 6)

    def test_family_b1_is_c4(self):
        assert are_isomorphic(family_b(1), cycle_graph(4))

    def test_family_d1_shape(self):
        g = family_d(1)
        assert (g.n, g.edge_count) == (6, 6)
        assert sorted(g.degrees()).count(1) == 2

    def test_family_sizes(self):
        for t in range(1, 6):
            assert family_b(t).n == 2 * t + 2
            assert family_b(t).edge_count == 3 * t + 1
            assert family_a(t).n == 2 * t + 4
            assert family_a(t).edge_count == 3 * t + 3
        for t in (1, 3, 5):
            assert family_d(t).n == 2 * t + 4
            assert family_d(t).edge_count == 3 * t + 3

    def test_family_d_rejects_even(self):
        with pytest.raises(ValueError):
            family_d(2)

    def test_moebius_2_is_k4(self):
        assert moebius(2) == complete_graph(4)

    def test_moebius_3_is_k33(self):
        k33 = Graph(6, [(a, b) for a in (0, 2, 4) for b in (1, 3, 5)])
        assert are_isomorphic(moebius(3), k33)

    def test_prism_3_two_triangles_and_matching(self):
        g = prism(3)
        comps = circulant(6, {2}).connected_components()
        assert sorted(len(c) for c in comps) == [3, 3]
        assert all(g.degree(v) == 3 for v in range(6))

    def test_prism_rejects_even(self):
        with pytest.raises(ValueError):
            prism(4)


class TestIsomorphism:
    def test_c5_vs_path_rejected(self):
        assert not are_isomorphic(cycle_graph(5), path_graph(5))

    def test_relabelled_random_graphs(self):
        rng = random.Random(23)
        for _ in range(20):
            g = random_graph(8, 0.4, rng)
            perm = list(range(8))
            rng.shuffle(perm)
            h = Graph(8, [(perm[i], perm[j]) for (i, j) in g.edges])
            assert are_isomorphic(g, h)

    def test_same_degree_sequence_not_isomorphic(self):
        # C_6 vs two triangles: both 2-regular on 6 vertices
        assert not are_isomorphic(cycle_graph(6), circulant(6, {2}))


class TestJson:
    def test_round_trip(self):
        g = circulant(10, {1, 3})
        assert graph_from_json_dict(g.to_json_dict()) == g

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            graph_from_json_dict({"n": 3, "edges": [[0, 1], [1, 0]]})

    def test_rejects_loops_and_range(self):
        with pytest.raises(ValueError):
            graph_from_json_dict({"n": 3, "edges": [[2, 2]]})
        with pytest.raises(ValueError):
            graph_from_json_dict({"n": 3, "edges": [[0, 5]]})

    @pytest.mark.parametrize(
        "d",
        [
            {"n": 3, "edges": 5},
            {"n": True, "edges": []},
            {"n": 3.0, "edges": []},
            {"n": 3, "edges": [[True, 2]]},
            {"n": 3, "edges": [[0, 1.0]]},
        ],
    )
    def test_rejects_non_list_edges_and_non_integers(self, d):
        with pytest.raises(ValueError):
            graph_from_json_dict(d)

    def test_sorted_output(self):
        d = circulant(6, {1, 2}).to_json_dict()
        assert d["edges"] == sorted(d["edges"])
