"""Betti tables from the subset sweep, checked entry-by-entry against the
no-shortcut enumeration oracle, plus the decision procedure."""

import functools
import json
import math
import random
from itertools import combinations

import pytest

import naive_ref
import circreg.betti as betti_mod
import circreg.homology as homology_mod
from circreg.betti import (
    BettiTable,
    VertexLimitError,
    ZeroIdealError,
    _core_homology,
    _fold_planes,
    _masks,
    _necklaces,
    _Orbits,
    _planes,
    _relabelled,
    _rotation_is_automorphism,
    _subset_orbit_reps,
    _sweep_chunk,
    _tree_dims,
    decide_regularity,
    hochster_betti_table,
    induced_betti_tables,
)
from circreg.cli import main, parse_graph_spec
from circreg.complexes import euler_via_independence, independence_complex
from circreg.formulas import bound_cubic
from circreg.graphs import (
    Graph,
    bits,
    circulant,
    moebius,
    prism,
    random_graph,
)
from circreg.homology import homology_dims_from_sizes
from circreg.verify import _cubic_ladders, run_suite
from naive_ref import RP2_EDGES, complete_graph, path_graph


class TestKnownTables:
    def test_k3(self):
        t = hochster_betti_table(complete_graph(3))
        assert t.entries == {(0, 2): 3, (1, 3): 2}
        assert (t.regularity, t.projective_dimension) == (2, 1)

    def test_c4(self):
        t = hochster_betti_table(circulant(4, {1}))
        assert t.entries == {(0, 2): 4, (1, 3): 4, (2, 4): 1}
        assert (t.regularity, t.projective_dimension) == (2, 2)

    def test_k4(self):
        t = hochster_betti_table(complete_graph(4))
        assert t.entries == {(0, 2): 6, (1, 3): 8, (2, 4): 3}

    def test_complete_graphs_reg_2(self):
        for n in range(2, 7):
            assert hochster_betti_table(complete_graph(n)).regularity == 2

    def test_complete_graph_closed_form(self):
        # Linear resolution of the complete graph's edge ideal:
        # beta_{i,i+2} = (i+1) * C(n, i+2), everything else zero.
        from math import comb

        for n in range(2, 7):
            t = hochster_betti_table(complete_graph(n))
            expected = {(i, i + 2): (i + 1) * comb(n, i + 2) for i in range(n - 1)}
            assert t.entries == expected
            assert t.projective_dimension == n - 2

    def test_quotient_normalizations(self, capsys):
        # `reg --json` prints reg(R/I) = reg(I) - 1 and pd(R/I) = pd(I) + 1.
        for spec in ("circulant:4:1,2", "circulant:8:1,4", "prism:3"):
            t = hochster_betti_table(parse_graph_spec(spec))
            assert main(["reg", spec, "--json"]) == 0
            data = json.loads(capsys.readouterr().out)
            assert data["reg_quotient"] == t.regularity - 1, spec
            assert data["pd_quotient"] == t.projective_dimension + 1, spec


def _all_circulants(nmax):
    """circulant(n, S) for every n <= nmax and every S in 1..n//2."""
    return [
        circulant(n, [d for d in range(1, n // 2 + 1) if k >> (d - 1) & 1])
        for n in range(1, nmax + 1)
        for k in range(1 << (n // 2))
    ]


class TestAgainstNaiveSweep:
    @pytest.mark.parametrize("field", [2, 3, "Q"])
    def test_small_graphs_all_fields(self, field):
        rng = random.Random(83)
        graphs = [
            circulant(5, {1}),
            complete_graph(4),
            path_graph(4),
            Graph(5, [(0, 1), (2, 3)]),
            circulant(6, {2, 3}),
        ]
        graphs += [random_graph(rng.randint(2, 6), rng.random(), rng) for _ in range(6)]
        for g in graphs:
            fast = hochster_betti_table(g, field)
            naive = naive_ref.betti_entries(g, field)
            assert fast.entries == naive, (g.edges, field)

    @pytest.mark.parametrize("field", [2, 3, "Q"])
    def test_all_five_vertex_graphs(self, field):
        pairs = list(combinations(range(5), 2))
        for m in range(1 << len(pairs)):
            g = Graph(5, [e for k, e in enumerate(pairs) if m >> k & 1])
            fast = hochster_betti_table(g, field)
            assert fast.entries == naive_ref.betti_entries(g, field), (g.edges, field)

    @pytest.mark.parametrize("field", [2, 3, "Q"])
    def test_seeded_sample_and_circulants(self, field):
        # Circulants take the orbit path; relabelled, the full sweep.
        rng = random.Random(101)
        graphs = [random_graph(n, rng.uniform(0.2, 0.8), rng) for n in (6, 6, 7, 7, 8, 8)]
        for c in (circulant(7, {1, 2}), circulant(8, {1, 4}), circulant(8, {2, 3})):
            perm = list(range(c.n))
            rng.shuffle(perm)
            graphs += [c, Graph(c.n, [(perm[i], perm[j]) for i, j in c.edges])]
        for g in graphs:
            fast = hochster_betti_table(g, field)
            assert fast.entries == naive_ref.betti_entries(g, field), (g.edges, field)

    @pytest.mark.parametrize("field", [2, 3, "Q"])
    def test_orbit_reduction_and_memo_change_nothing(self, field):
        # Against the same sweep over every subset (no orbit reduction) and
        # over one subset per call, each call with a fresh memo (no memo).
        graphs = _all_circulants(8)
        graphs += [circulant(9, {1, 3}), circulant(9, {2, 4}), circulant(10, {1, 5}), circulant(10, {2, 3, 5})]
        # Necklaces of every period dividing 12, so every orbit size occurs.
        graphs.append(circulant(12, {2, 6}))
        for g in graphs:
            masks = range(1, 1 << g.n)
            entries = hochster_betti_table(g, field).entries
            assert _sweep_chunk(g.adj, field, _Orbits(masks, b"\1" * len(masks)), {}) == entries, (g.n, g.edges)
            unshared: dict = {}
            for m in masks:
                for cell, v in _sweep_chunk(g.adj, field, _Orbits([m], b"\1"), {}).items():
                    unshared[cell] = unshared.get(cell, 0) + v
            assert unshared == entries, (g.n, g.edges)

    @pytest.mark.parametrize("field", [2, 3, "Q"])
    def test_induced_tables_on_all_five_vertex_graphs(self, field):
        pairs = list(combinations(range(5), 2))
        swept: dict = {}
        for m in range(1 << len(pairs)):
            g = Graph(5, [e for k, e in enumerate(pairs) if m >> k & 1])
            _assert_induced_tables_match(g, field, swept)

    @pytest.mark.parametrize("field", [2, 3, "Q"])
    def test_induced_tables_on_seeded_sample_and_circulants(self, field):
        rng = random.Random(107)
        graphs = [random_graph(n, rng.uniform(0.2, 0.8), rng) for n in (6, 6, 7, 7, 8, 8)]
        graphs += [circulant(7, {1, 2}), circulant(8, {1, 4}), circulant(8, {2, 3})]
        graphs.append(Graph(7, [(0, 1), (2, 3), (3, 4)]))  # isolated vertices, three components
        swept: dict = {}
        for g in graphs:
            _assert_induced_tables_match(g, field, swept)

    @pytest.mark.parametrize("field", [2, "Q"])
    def test_induced_tables_of_flag_rp2_depend_on_the_field(self, field):
        g = Graph(12, RP2_EDGES)
        sets = [range(12)] + [[v for v in range(12) if v != x] for x in range(12)]
        tables = induced_betti_tables(g, field, sets)
        for vs, t in zip(sets, tables):
            swept = hochster_betti_table(g.induced(vs)[0], field)
            assert t == swept and t.to_json_dict() == swept.to_json_dict(), (field, list(vs))
        expected = {2: (4, 9), "Q": (3, 8)}[field]
        assert (tables[0].regularity, tables[0].projective_dimension) == expected

    def test_generator_count_entry(self):
        rng = random.Random(89)
        for _ in range(15):
            g = random_graph(rng.randint(2, 9), rng.random(), rng)
            t = hochster_betti_table(g)
            if g.edges:
                assert t.beta(0, 2) == g.edge_count
            else:
                assert t.zero_ideal

    def test_index_ranges(self):
        rng = random.Random(97)
        for _ in range(10):
            g = random_graph(rng.randint(2, 8), 0.5, rng)
            t = hochster_betti_table(g)
            for (i, j), b in t.entries.items():
                assert 0 <= i <= max(g.n - 1, 0)
                assert 0 <= j <= g.n
                assert b > 0


class TestDegenerateAndLimits:
    def test_zero_ideal(self):
        t = hochster_betti_table(Graph(4))
        assert t.zero_ideal and t.entries == {}
        with pytest.raises(ZeroIdealError):
            t.regularity
        with pytest.raises(ZeroIdealError):
            t.projective_dimension

    def test_vertex_limit_names_the_limit(self):
        with pytest.raises(VertexLimitError, match="20"):
            hochster_betti_table(circulant(22, {1}), vertex_limit=20)

    def test_induced_tables_vertex_limit(self):
        with pytest.raises(VertexLimitError, match="20"):
            induced_betti_tables(circulant(21, {1}), 2, [range(5)])

    def test_induced_tables_vertex_limit_offers_no_override(self):
        # induced_betti_tables takes no vertex_limit, so the error names none.
        with pytest.raises(VertexLimitError) as exc:
            induced_betti_tables(circulant(21, {1}), 2, [range(5)])
        assert str(exc.value) == "graph has 21 vertices; the sweep is limited to 20"

    def test_induced_tables_reject_out_of_range_vertices(self):
        with pytest.raises(ValueError, match="out of range"):
            induced_betti_tables(circulant(5, {1}), 2, [[0, 5]])

    def test_vertex_limit_override(self):
        t = hochster_betti_table(circulant(6, {1}), vertex_limit=6)
        assert t.beta(0, 2) == 6


class TestIsolatedVertices:
    """A subset that holds an isolated vertex is a cone, so the sweep drops
    the isolated vertices first; the table keeps the graph's vertex count."""

    @pytest.mark.parametrize("field", [2, 3, "Q"])
    def test_seeded_sample_and_c5_plus_k1_against_the_naive_sweep(self, field):
        # Each sample graph is a random graph placed on some of n vertices.
        rng = random.Random(223)
        graphs = [circulant(5, {1}).disjoint_union(Graph(1)), Graph(6, [(1, 3), (3, 5)])]
        while len(graphs) < 12:
            n = rng.randint(3, 8)
            k = rng.randint(2, n - 1)
            place = rng.sample(range(n), k)
            h = random_graph(k, rng.uniform(0.2, 0.8), rng)
            g = Graph(n, [(place[i], place[j]) for i, j in h.edges])
            if g.edges:
                graphs.append(g)
        for g in graphs:
            assert not all(g.adj)
            t = hochster_betti_table(g, field)
            assert t.n == g.n
            assert t.entries == naive_ref.betti_entries(g, field), (g.n, sorted(g.edges), field)

    def test_c5_plus_k1_is_swept_by_necklaces(self, monkeypatch):
        # C5 + K1 has no rotation automorphism; C5, left once K1 is dropped, has.
        g = circulant(5, {1}).disjoint_union(Graph(1))
        assert not _rotation_is_automorphism(g)
        swept = []
        real = betti_mod._subset_orbit_reps
        monkeypatch.setattr(
            betti_mod, "_subset_orbit_reps", lambda h, memo: swept.append(h) or real(h, memo)
        )
        t = hochster_betti_table(g, 2)
        assert swept == [circulant(5, {1})]
        assert t == BettiTable(6, 2, hochster_betti_table(circulant(5, {1}), 2).entries)

    @pytest.mark.parametrize("field", [2, 3, "Q"])
    def test_flag_rp2_plus_k1(self, field):
        # Against the sweep of every subset of all 13 vertices, with no orbit
        # reduction and no vertex dropped: the fold empties each cone.
        g = Graph(12, RP2_EDGES).disjoint_union(Graph(1))
        t = hochster_betti_table(g, field)
        assert t.n == 13
        every = _Orbits(range(1, 1 << 13), b"\1" * ((1 << 13) - 1))
        assert t.entries == _sweep_chunk(g.adj, field, every, {})
        assert t.entries == hochster_betti_table(Graph(12, RP2_EDGES), field).entries
        expected = {2: (4, 9), 3: (3, 8), "Q": (3, 8)}[field]
        assert (t.regularity, t.projective_dimension) == expected

    def test_vertex_limit_counts_the_isolated_vertices(self):
        g = Graph(21, [(0, 1), (1, 2), (2, 3), (3, 4)])
        with pytest.raises(VertexLimitError) as exc:
            hochster_betti_table(g, 2)
        assert str(exc.value) == (
            "graph has 21 vertices; the sweep is limited to 20 (pass a larger vertex_limit to override)"
        )


class TestDeterminismAndSymmetry:
    def test_workers_identical(self):
        g = moebius(5)
        t1 = hochster_betti_table(g, workers=1)
        t8 = hochster_betti_table(g, workers=8)
        assert t1 == t8 and t1.to_json_dict() == t8.to_json_dict()

    def test_symmetric_vs_asymmetric_relabelling(self):
        # Breaking the circulant labelling disables orbit reduction; the
        # sweep must still produce the same invariant table.
        g = circulant(9, {1, 3})
        perm = [3, 1, 4, 0, 5, 8, 2, 7, 6]
        h = Graph(9, [(perm[i], perm[j]) for (i, j) in g.edges])
        assert hochster_betti_table(g).entries == hochster_betti_table(h).entries

    def test_reflection_only_symmetry(self):
        # A star centered at 0 is fixed by v -> -v (mod n) but not by rotation.
        star = Graph(5, [(0, v) for v in range(1, 5)])
        for field in (2, "Q"):
            assert hochster_betti_table(star, field).entries == naive_ref.betti_entries(star, field)

    def test_column_n_alternating_sum_is_euler(self):
        for g in [circulant(5, {1}), circulant(8, {1, 4}), circulant(6, {2, 3})]:
            t = hochster_betti_table(g)
            n = g.n
            cx = independence_complex(g)
            dims = homology_dims_from_sizes(cx.faces_by_size(), 2)
            for a in range(n):
                assert t.beta(a, n) == dims.get(n - a - 2, 0)
            signed = sum((-1) ** (n - a) * t.beta(a, n) for a in range(n + 1))
            assert signed == cx.euler_char()


def _closed(n, edges, f):
    """Edge set closed under the vertex map f."""
    out = set()
    for i, j in edges:
        for _ in range(2 * n):
            out.add((min(i, j), max(i, j)))
            i, j = f(i), f(j)
    return out


def _assert_induced_tables_match(g, field, swept):
    """induced_betti_tables over every nonempty W against a separate sweep
    of each g[W]; *swept* holds those sweeps by induced graph, so equal
    induced graphs are swept once."""
    sets = [list(bits(w)) for w in range(1, 1 << g.n)]
    for vs, t in zip(sets, induced_betti_tables(g, field, sets)):
        sub = g.induced(vs)[0]
        key = (sub.n, sub.edges)
        if key not in swept:
            swept[key] = hochster_betti_table(sub, field)
        assert t == swept[key], (sorted(g.edges), vs, field)
        assert t.to_json_dict() == swept[key].to_json_dict(), (sorted(g.edges), vs, field)


class TestOrbitReps:
    def test_matches_brute_force_orbits(self):
        # Reflection-only and asymmetric graphs get every subset as a singleton.
        rng = random.Random(131)
        graphs = _all_circulants(10)
        graphs += [circulant(11, {1, 3}), circulant(12, {1, 6}), circulant(13, {2, 5}), circulant(14, {1, 4, 7})]
        graphs.append(Graph(2, [(0, 1)]))  # K2: the rotation is the swap
        for n in range(3, 13):
            pairs = [e for e in combinations(range(n), 2) if rng.random() < 0.3]
            g = Graph(n, _closed(n, pairs, lambda v: (n - v) % n))
            if g.edges and not _rotation_is_automorphism(g):
                graphs.append(g)
        asymmetric = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 2)])
        assert not _rotation_is_automorphism(asymmetric)
        graphs.append(asymmetric)
        assert sum(1 for g in graphs if g.n >= 3 and not _rotation_is_automorphism(g)) >= 6
        for g in graphs:
            reps = list(_subset_orbit_reps(g, {}))
            assert reps == naive_ref.orbit_reps(g), (g.n, sorted(g.edges))
            if not _rotation_is_automorphism(g):
                assert reps == [(m, 1) for m in range(1, 1 << g.n)], (g.n, sorted(g.edges))

    def test_block_walk_matches_one_step_fkm(self):
        # The block walk against the FKM steps taken one prenecklace at a
        # time, list for list, and against rotating every mask.
        for n in range(1, 21):
            assert list(_necklaces(n)) == naive_ref.necklaces_fkm(n), n
        for n in range(1, 15):
            assert list(_necklaces(n)) == naive_ref.orbit_reps(Graph(n)), n

    def test_orbits_are_two_flat_sequences(self):
        # An asymmetric graph's masks are the range of every subset, not a
        # list; either kind lists and counts its orbits as the reference.
        asymmetric = [Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 2)])]
        asymmetric += [random_graph(n, 0.4, random.Random(n)) for n in (9, 11, 13)]
        symmetric = [circulant(n, {1, n // 2}) for n in (6, 9, 12)] + [circulant(13, {2, 5}), Graph(2, [(0, 1)])]
        for g in asymmetric:
            assert not _rotation_is_automorphism(g)
            assert _subset_orbit_reps(g, {}).masks == range(1, 1 << g.n), (g.n, sorted(g.edges))
        for g in asymmetric + symmetric:
            orbits = _subset_orbit_reps(g, {})
            reference = naive_ref.orbit_reps(g)
            assert list(orbits) == reference, (g.n, sorted(g.edges))
            assert len(orbits) == len(reference), (g.n, sorted(g.edges))

    def test_one_memo_builds_each_necklace_list_once(self, monkeypatch):
        # One list per vertex count, shared across graphs and fields; a sweep
        # without a memo builds its own.
        built = []
        real = betti_mod._necklaces
        monkeypatch.setattr(betti_mod, "_necklaces", lambda n: built.append(n) or real(n))
        memo: dict = {}
        for g in (circulant(8, {1}), circulant(8, {1, 4}), circulant(9, {1, 3}), circulant(8, {2})):
            hochster_betti_table(g, 2, memo=memo)
        hochster_betti_table(circulant(8, {1}), "Q", memo=memo)
        assert built == [8, 9]
        assert memo["necklaces"] == {8: real(8), 9: real(9)}
        hochster_betti_table(circulant(8, {1}), 2)
        assert built == [8, 9, 8]

    def test_cycle_orbits_are_the_binary_necklaces(self):
        # OEIS A000031(n), the number of binary necklaces of length n, counts
        # the empty subset too.
        necklaces = {
            3: 4, 4: 6, 5: 8, 6: 14, 7: 20, 8: 36, 9: 60, 10: 108, 11: 188, 12: 352,
            13: 632, 14: 1182, 15: 2192, 16: 4116, 17: 7712, 18: 14602, 19: 27596, 20: 52488,
        }
        for n, count in necklaces.items():
            reps = _subset_orbit_reps(circulant(n, {1}), {})
            assert len(reps) == count - 1, n
            assert sum(size for _, size in reps) == 2**n - 1, n

    @pytest.mark.parametrize("field", [2, "Q"])
    def test_mirror_images_share_one_homology_call(self, field, monkeypatch):
        # {0, 1, 2, 4} induces a triangle with a pendant edge at its last
        # vertex; its image {2, 4, 5, 6} under v -> 6-v has it at its first.
        g = circulant(7, {1, 2})
        core, mirror = 0b0010111, 0b1110100
        assert mirror == sum(1 << (6 - v) for v in bits(core))
        assert g.induced(bits(core))[0].edges != g.induced(bits(mirror))[0].edges
        calls = []
        real = betti_mod._tree_dims  # every miss walks one tree
        monkeypatch.setattr(betti_mod, "_tree_dims", lambda *a: calls.append(a) or real(*a))
        memo: dict = {}
        dims = _core_homology(g.adj, core, field, memo)
        assert _core_homology(g.adj, mirror, field, memo) == dims
        assert len(calls) == 1
        sub = g.induced(bits(mirror))[0]
        expected = homology_dims_from_sizes(independence_complex(sub).faces_by_size(), field)
        assert dims == {d: v for d, v in expected.items() if v}

    def test_one_homology_lookup_per_distinct_core(self, monkeypatch):
        # A core recurs at several sizes and multiplicities; the sweep looks
        # its homology up once.
        g = circulant(18, {1, 9})
        cores = naive_ref.fold_rounds(g, [m for m, _ in _subset_orbit_reps(g, {})])
        distinct = set(cores) - {0}
        assert len(distinct) == 121
        calls = []
        real = betti_mod._core_homology
        monkeypatch.setattr(
            betti_mod, "_core_homology", lambda adj, core, *a: calls.append(core) or real(adj, core, *a)
        )
        hochster_betti_table(g, 2)
        assert sorted(calls) == sorted(distinct)


class TestCrossField:
    def test_fields_agree_on_small_suite(self):
        for g in [circulant(5, {1}), circulant(8, {1, 4}), moebius(3), complete_graph(4)]:
            t2, t3, tq = (hochster_betti_table(g, f) for f in (2, 3, "Q"))
            assert t2.entries == t3.entries == tq.entries, (t2.entries, t3.entries, tq.entries)

    def test_flag_rp2_tables_depend_on_the_field(self):
        g = Graph(12, RP2_EDGES)
        assert g.edge_count == 33
        tables = {name: hochster_betti_table(g, name) for name in ("2", "3", "Q")}
        assert not tables["2"].entries == tables["3"].entries == tables["Q"].entries
        reg_pd = {name: (t.regularity, t.projective_dimension) for name, t in tables.items()}
        assert reg_pd == {"2": (4, 9), "3": (3, 8), "Q": (3, 8)}
        cx = independence_complex(g)
        for field, expected in ((2, {1: 1, 2: 1}), (3, {}), ("Q", {})):
            dims = homology_dims_from_sizes(cx.faces_by_size(), field)
            assert {d: v for d, v in dims.items() if v} == expected, field

    def test_flag_rp2_over_q_ranks_over_the_integers(self, rational_rank_calls):
        # RP^2's torsion cores have GF(2) dims in two adjacent degrees, so
        # their Q dims come from the boundaries ranked over Q.
        t = hochster_betti_table(Graph(12, RP2_EDGES), "Q")
        assert rational_rank_calls
        assert (t.regularity, t.projective_dimension) == (3, 8)

    @pytest.mark.parametrize("sweep", ["hochster_betti_table", "induced_betti_tables"])
    def test_one_memo_keeps_the_fields_apart(self, sweep):
        # RP^2's cores have homology over GF(2) that they lack over Q, so a
        # memo that handed GF(2) dims to the Q sweep would give GF(2)'s table.
        g = Graph(12, RP2_EDGES)

        def table(field, memo=None):
            kwargs = {} if memo is None else {"memo": memo}
            if sweep == "hochster_betti_table":
                return hochster_betti_table(g, field, **kwargs)
            [t] = induced_betti_tables(g, field, [range(g.n)], **kwargs)
            return t

        memo: dict = {}
        gf2, q = table(2, memo), table("Q", memo)
        assert (gf2.regularity, gf2.projective_dimension) == (4, 9)
        assert (q.regularity, q.projective_dimension) == (3, 8)
        assert q == table("Q")
        assert gf2 == table(2)

    def test_circulant_over_q_ranks_nothing_over_the_integers(self, rational_rank_calls):
        t = hochster_betti_table(circulant(18, {1, 9}), "Q")
        assert rational_rank_calls == []
        assert t.entries == hochster_betti_table(circulant(18, {1, 9}), 2).entries

    def test_json_round_trip(self):
        t = hochster_betti_table(circulant(5, {1}))
        assert BettiTable.from_json_dict(t.to_json_dict()) == t

    def test_csv_shapes(self):
        t = hochster_betti_table(complete_graph(3))
        assert t.to_csv(nonzero_only=True) == "i,j,beta\n0,2,3\n1,3,2\n"
        assert t.to_csv().splitlines()[0].startswith("i\\j,")


def _cores(g, masks):
    """The bit-sliced fold's core of each of *masks*."""
    masks = list(masks)
    return _masks(_fold_planes(g.adj, _planes(masks, g.n)), len(masks))


def _assert_fold_matches_bit_loop(g, masks):
    masks = list(masks)
    assert _cores(g, masks) == naive_ref.fold_rounds(g, masks), (g.n, sorted(g.edges))


def _all_graphs(n):
    pairs = list(combinations(range(n), 2))
    return [Graph(n, [e for t, e in enumerate(pairs) if k >> t & 1]) for k in range(1 << len(pairs))]


def _fold_sample():
    # n = 1 to 12, so the planes' bytes split at every offset up to 8 and
    # some vertex sets fill a second byte.
    rng = random.Random(149)
    graphs = [Graph(1, []), Graph(2, []), Graph(2, [(0, 1)]), path_graph(3), circulant(7, {1})]
    graphs += [random_graph(n, rng.uniform(0.1, 0.9), rng) for n in range(1, 13) for _ in range(3)]
    return graphs


def _full_dims(g, w, field):
    """Nonzero reduced homology of Ind(g[w]) by the reference, from every face."""
    found = naive_ref.homology_dims(naive_ref.faces_by_size_within(g, w), field)
    return {d: v for d, v in found.items() if v}


class TestCoreHomology:
    """_core_homology ranks the faces of Ind(G - w) that meet N(w); the
    reference ranks every face of Ind(G).  Each call gets a fresh memo."""

    @pytest.mark.parametrize("field", [2, 3, 5, "Q"])
    def test_every_core_of_every_graph_on_at_most_five_vertices(self, field):
        # Every vertex set of every graph on 5 vertices, one per induced
        # graph up to the relabelling that keeps their order; that covers
        # every graph on at most 5 vertices, cones included.
        seen = set()
        for g in _all_graphs(5):
            for w in range(1, 1 << 5):
                sub = g.induced(bits(w))[0]
                if (sub.n, sub.edges) not in seen:
                    seen.add((sub.n, sub.edges))
                    assert _core_homology(g.adj, w, field, {}) == _full_dims(g, w, field), (g.edges, w)
        assert len(seen) == sum(1 << k * (k - 1) // 2 for k in range(1, 6))

    @pytest.mark.parametrize("field", [2, 3, 5, "Q"])
    def test_seeded_sample_on_six_to_eleven_vertices(self, field):
        rng = random.Random(157)
        nonzero = 0
        for n in range(6, 12):
            for _ in range(3):
                g = random_graph(n, rng.uniform(0.2, 0.7), rng)
                cores = sorted(set(_cores(g, range(1, 1 << n))) - {0})
                for w in [g.full_mask] + rng.sample(cores, min(6, len(cores))):
                    dims = _core_homology(g.adj, w, field, {})
                    assert dims == _full_dims(g, w, field), (g.edges, w)
                    nonzero += bool(dims)
        assert nonzero > 50

    def test_flag_rp2_depends_on_the_field(self):
        g = Graph(12, RP2_EDGES)
        for field, expected in ((2, {1: 1, 2: 1}), (3, {}), (5, {}), ("Q", {})):
            assert _core_homology(g.adj, g.full_mask, field, {}) == expected == _full_dims(g, g.full_mask, field)


def _key_rows(key):
    """The rows an int memo key packs: k rows of k bits, rank 0 first,
    under the sentinel 1 bit, so the key has k*k + 1 bits."""
    k = math.isqrt(key.bit_length() - 1)
    assert key >> k * k == 1, bin(key)
    return tuple(key >> k * (k - 1 - i) & (1 << k) - 1 for i in range(k))


class TestMemoKey:
    """_relabelled packs the core's relabelled rows into one int."""

    def test_key_packs_the_relabelled_rows(self):
        rng = random.Random(167)
        for n in range(2, 21):
            g = random_graph(n, rng.uniform(0.1, 0.9), rng)
            for core in [0, g.full_mask] + [rng.getrandbits(n) for _ in range(30)]:
                verts = list(bits(core))
                rows = naive_ref.relabelled_rows(g.adj, core, verts)
                assert _key_rows(_relabelled(g.adj, core)) == rows, (g.edges, core)
                mirrored = naive_ref.relabelled_rows(g.adj, core, verts[::-1])
                assert _key_rows(_relabelled(g.adj, core, True)) == mirrored, (g.edges, core)

    def test_mirror_key_is_the_key_of_the_mirror_image(self):
        rng = random.Random(173)
        for g in (circulant(7, {1, 2}), circulant(12, {2, 6}), circulant(20, {1, 3})):
            for core in [rng.getrandbits(g.n) for _ in range(50)]:
                mirror = sum(1 << (g.n - 1 - v) for v in bits(core))
                assert _relabelled(g.adj, core, True) == _relabelled(g.adj, mirror), (g.n, core)

    @pytest.mark.parametrize("field", [2, "Q"])
    def test_sentinel_keeps_an_isolated_lowest_vertex(self, field):
        # Without the sentinel a key would lose its leading rows of 0s, so a
        # vertex alone and the empty set would share a key, though one is a
        # point (acyclic) and the other the empty complex (H~_-1 of rank 1).
        memo: dict = {}
        masks = 0
        for g in _all_graphs(4):
            for mask in range(1, 1 << 4):
                low = mask & -mask
                if g.adj[low.bit_length() - 1] & mask:
                    continue
                rest = mask ^ low
                assert _relabelled(g.adj, mask) != _relabelled(g.adj, rest), (g.edges, mask)
                assert _core_homology(g.adj, mask, field, memo) == {} == _full_dims(g, mask, field)
                assert _core_homology(g.adj, rest, field, memo) == _full_dims(g, rest, field), (g.edges, rest)
                masks += 1
        assert _full_dims(Graph(1, []), 0, field) == {-1: 1}
        assert masks > 300


@functools.lru_cache(maxsize=None)
def _tree_sample():
    """(graph, core, the graph the core induces) for one core of each
    isomorphism class of folded cores of flag RP^2, circulant(16, {4, 8}),
    three ladders and three seeded random graphs on 12 vertices."""
    rng = random.Random(163)
    graphs = [Graph(12, RP2_EDGES), circulant(16, {4, 8}), moebius(5), moebius(6), prism(5)]
    graphs += [random_graph(12, p, rng) for p in (0.3, 0.45, 0.6)]
    sample = []
    for g in graphs:
        classes: dict = {}  # (vertices, edges, degrees) -> the induced graphs seen
        for core in sorted(set(_cores(g, [m for m, _ in _subset_orbit_reps(g, {})])) - {0}):
            sub = g.induced(bits(core))[0]
            degrees = tuple(sorted(a.bit_count() for a in sub.adj))
            seen = classes.setdefault((sub.n, sub.edge_count, degrees), [])
            if not any(naive_ref.are_isomorphic(sub, h) for h in seen):
                seen.append(sub)
                sample.append((g, core, sub))
    return sample


def _cell_counts(cells):
    """The reference's cells as the tree's dims: size - 1 -> count."""
    return None if cells is None else {size - 1: len(group) for size, group in enumerate(cells) if group}


class TestMatchingTree:
    """_tree_dims counts the critical cells of a core's matching tree by
    size, and certifies its homology when no two sizes are adjacent; the
    counts must be the reference walk's cells per size, and the certified
    dims the reference's homology over every field."""

    def test_counts_are_the_reference_cells_per_size(self):
        certified = 0
        for g, core, _ in _tree_sample():
            cells = naive_ref.critical_cells(g.adj, core)
            assert _tree_dims(g.adj, core) == _cell_counts(cells), (g.n, g.edges, core)
            certified += cells is not None
        assert certified >= 180 and len(_tree_sample()) - certified >= 10

    @pytest.mark.parametrize("field", [2, 3, 5, "Q"])
    def test_certified_cores_of_a_seeded_sample(self, field):
        certified = nonzero = 0
        for g, core, sub in _tree_sample():
            cells = naive_ref.critical_cells(g.adj, core)
            if cells is None:
                continue
            for size, group in enumerate(cells):  # faces of Ind(G[core]), by size
                assert all(c & ~core == 0 and c.bit_count() == size for c in group)
                assert not any(g.adj[v] & c for c in group for v in bits(c))
            dims = _core_homology(g.adj, core, field, {})
            certified += 1
            nonzero += bool(dims)
            if sub.n <= 12:
                assert dims == _full_dims(sub, sub.full_mask, field), (g.n, g.edges, core)
        assert certified >= 180 and nonzero >= 170
        assert len(_tree_sample()) - certified >= 10

    def test_cores_of_disjoint_cliques_are_joins_of_points(self):
        # circulant(16, {4, 8}) is four disjoint K4s, so each core is a
        # disjoint union of cliques K_a1, ..., K_ak with every a >= 2.  Its
        # complex is the join of k discrete sets of a_i points: H~ is free,
        # of rank (a1 - 1) ... (ak - 1), in degree k - 1.  This covers the
        # cores on 13 to 16 vertices, which the reference cannot rank in
        # test time.
        g = circulant(16, {4, 8})
        cores = [(core, sub) for h, core, sub in _tree_sample() if h == g]
        assert len(cores) == 34  # multisets of 1 to 4 clique sizes from {2, 3, 4}
        for core, sub in cores:
            parts = sub.connected_components()
            assert sub.edge_count == sum(len(c) * (len(c) - 1) // 2 for c in parts)
            cells = naive_ref.critical_cells(g.adj, core)
            rank = math.prod(len(c) - 1 for c in parts)
            assert list(map(len, cells)) == [0] * len(parts) + [rank], core
            assert _tree_dims(g.adj, core) == {len(parts) - 1: rank}, core

    def test_flag_rp2_is_not_certified(self):
        # Z/2 in H_1 puts the GF(2) dims in degrees 1 and 2, so every
        # acyclic matching leaves cells in adjacent sizes.
        g = Graph(12, RP2_EDGES)
        assert _tree_dims(g.adj, g.full_mask) is None
        assert naive_ref.critical_cells(g.adj, g.full_mask) is None

    @pytest.mark.parametrize("field", [2, 3, 5, "Q"])
    def test_bowtie_takes_the_fallback(self, field, monkeypatch):
        # Two triangles on vertex 0: no fold applies, and Ind is a point
        # apart from a square, with H~_0 = H~_1 = Z, so the tree leaves
        # cells of sizes 1 and 2 and the relative complex is listed and ranked.
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        assert _cores(g, [g.full_mask]) == [g.full_mask]
        assert _tree_dims(g.adj, g.full_mask) is None
        assert naive_ref.critical_cells(g.adj, g.full_mask) is None
        calls = []
        real = betti_mod._list_faces
        monkeypatch.setattr(betti_mod, "_list_faces", lambda *a: calls.append(a) or real(*a))
        dims = _core_homology(g.adj, g.full_mask, field, {})
        assert dims == {0: 1, 1: 1} == _full_dims(g, g.full_mask, field)
        assert len(calls) == 1

    def test_certified_core_ranks_nothing(self, monkeypatch):
        # C5's complex is a circle; its tree leaves one cell, of size 2.
        g = circulant(5, {1})
        assert list(map(len, naive_ref.critical_cells(g.adj, g.full_mask))) == [0, 0, 1]
        assert _tree_dims(g.adj, g.full_mask) == {1: 1}
        monkeypatch.setattr(homology_mod, "_boundary_rank", None)
        monkeypatch.setattr(betti_mod, "_list_faces", None)
        monkeypatch.setattr(betti_mod, "homology_dims_from_sizes", None)
        assert _core_homology(g.adj, g.full_mask, "Q", {}) == {1: 1}


class TestFold:
    def test_isolated_vertex_is_a_cone(self):
        c5 = circulant(5, {1})
        assert _cores(c5, [0b01011]) == [0]  # vertex 3 has no neighbour in {0, 1, 3}

    def test_c5_has_no_domination(self):
        c5 = circulant(5, {1})
        assert _cores(c5, [c5.full_mask]) == [c5.full_mask]

    def test_p3_folds_to_an_edge(self):
        p3 = path_graph(3)
        [core] = _cores(p3, [p3.full_mask])
        edge = p3.induced(bits(core))[0]
        assert edge.n == 2 and edge.edge_count == 1
        for g in (p3, edge):
            dims = homology_dims_from_sizes(independence_complex(g).faces_by_size(), 2)
            assert {d: v for d, v in dims.items() if v} == {0: 1}

    def test_p4_folds_to_a_cone(self):
        # 0-1-2-3: N(0) = {1} lies in N(2), so 2 goes and leaves 3 isolated;
        # the cone shows at the start of the second round.
        p4 = path_graph(4)
        assert _cores(p4, [p4.full_mask]) == [0]

    def test_matches_bit_loop_fold_on_all_five_vertex_graphs(self):
        for g in _all_graphs(5):
            _assert_fold_matches_bit_loop(g, range(1 << 5))

    def test_matches_bit_loop_fold_on_seeded_sample(self):
        for g in _fold_sample():
            _assert_fold_matches_bit_loop(g, range(1 << g.n))

    def test_matches_bit_loop_fold_on_bracelets(self):
        g = circulant(18, {1, 9})
        _assert_fold_matches_bit_loop(g, [m for m, _ in _subset_orbit_reps(g, {})])

    def test_cone_count_matches_the_reference(self):
        # A subset with an isolated vertex is a cone, whatever the order;
        # the rest fold to a cone exactly when the per-subset loop does.
        for g in _all_graphs(5) + _fold_sample():
            masks = range(1, 1 << g.n)
            cores = _cores(g, masks)
            isolated = [m for m in masks if any(not g.adj[v] & m for v in bits(m))]
            assert all(cores[m - 1] == 0 for m in isolated), (g.n, sorted(g.edges))
            assert cores.count(0) == naive_ref.fold_rounds(g, masks).count(0), (g.n, sorted(g.edges))

    @pytest.mark.parametrize("field", [2, 3, "Q"])
    def test_cores_are_folded_and_keep_homology(self, field):
        # Checks that hold for any fold order: a core lies in its subset,
        # has no isolated vertex and no N(u) inside N(v), and has the
        # subset's homology; a cone's subset is acyclic.
        dims: dict = {}

        def homology(g, w):
            sub = g.induced(bits(w))[0]
            key = (sub.n, sub.edges)
            if key not in dims:
                found = naive_ref.homology_dims(naive_ref.faces_by_size_within(sub, sub.full_mask), field)
                dims[key] = {d: v for d, v in found.items() if v}
            return dims[key]

        for g in _all_graphs(5):
            masks = range(1, 1 << 5)
            for mask, core in zip(masks, _cores(g, masks)):
                where = (sorted(g.edges), mask, core)
                assert not core & ~mask, where
                nbhd = {v: g.adj[v] & core for v in bits(core)}
                assert all(nbhd.values()), where
                assert not any(u != v and not nbhd[u] & ~nbhd[v] for u in nbhd for v in nbhd), where
                assert homology(g, mask) == (homology(g, core) if core else {}), where

    def test_planes_round_trip(self):
        rng = random.Random(151)
        for n in (1, 7, 8, 9, 16, 17, 20):
            full = (1 << n) - 1
            for count in (1, 7, 8, 9, 300):
                masks = [rng.getrandbits(n) for _ in range(count)]
                masks[:2] = [full, 1 << n - 1][:count]
                planes = _planes(masks, n)
                assert len(planes) == n
                for v, plane in enumerate(planes):
                    assert plane == sum(1 << t for t, m in enumerate(masks) if m >> v & 1), (n, count, v)
                assert _masks(planes, count) == masks, (n, count)
                # A range is read off its period, not transposed.
                start = rng.randrange(1 << n)
                masks = range(start, min(start + count, 1 << n))
                assert _planes(masks, n) == _planes(list(masks), n), (n, start, count)
        # The slices of a sweep without the rotation: range(1, 2^n) cut
        # every 2^16 subsets, so each but the first starts at 1 + 65536 s.
        for n in (17, 18, 19, 20):
            total = 1 << n
            for s in sorted({0, 1, rng.randrange(total >> 16), (total - 1) >> 16}):
                masks = range(1 + 65536 * s, min(1 + 65536 * (s + 1), total))
                planes = _planes(masks, n)
                assert planes == _planes(list(masks), n), (n, s)
                assert _masks(planes, len(masks)) == list(masks), (n, s)


class TestDecision:
    def test_loose_bound_cases(self):
        assert decide_regularity(10, 4, 7, 1)["outcome"] == "regularity_determined"
        assert decide_regularity(10, 4, 7, 1)["value"] == 4
        assert decide_regularity(10, 5, 6, -2)["value"] == 5
        d = decide_regularity(10, 4, 7, -3)
        assert d["outcome"] == "pd_determined" and d["value"] == 7
        d = decide_regularity(10, 5, 6, 3)
        assert d["outcome"] == "pd_determined" and d["value"] == 6
        assert decide_regularity(10, 4, 7, 0)["outcome"] == "inconclusive"

    def test_tight_bound_cases(self):
        assert decide_regularity(12, 4, 8, -1)["value"] == 4
        assert decide_regularity(12, 4, 8, 5)["value"] == 4
        assert decide_regularity(12, 4, 8, 0)["outcome"] == "inconclusive"

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            decide_regularity(5, 0, 5, 1)
        with pytest.raises(ValueError):
            decide_regularity(5, 6, -1, 1)
        with pytest.raises(ValueError):
            decide_regularity(5, 2, 5, 1)

    def test_case_is_read_off_the_numbers(self):
        # A ladder's bounds have one of the two shapes, and the decision
        # records which; pd <= n - r is the tight case, its edge included.
        for kind, n in _cubic_ladders(10):
            r, pd = bound_cubic(kind, n)
            shape = {2 * n - r: "n-r", 2 * n - r + 1: "n-r+1"}[pd]
            assert decide_regularity(2 * n, r, pd, 1)["pd_bound"] == shape, (kind, n)
        for n, r in [(4, 2), (10, 4), (12, 5)]:
            assert decide_regularity(n, r, n - r - 1, 1)["pd_bound"] == "n-r"
            assert decide_regularity(n, r, n - r, 1)["pd_bound"] == "n-r"
            assert decide_regularity(n, r, n - r + 1, 1)["pd_bound"] == "n-r+1"
            with pytest.raises(ValueError, match=rf"n - r \+ 1 = {n - r + 1}\b"):
                decide_regularity(n, r, n - r + 2, 1)

    def test_record_is_theorem2s_decision(self):
        # The record is what theorem2 prints as each ladder's decision.
        printed = run_suite("theorem2", nmax=4)["instances"][-1]["decision"]
        assert set(printed) == {"outcome", "value", "n", "r", "pd_bound", "chi"}
        assert decide_regularity(8, 3, 5, -1) == printed
        assert decide_regularity(10, 4, 7, 0) == {
            "outcome": "inconclusive", "value": None, "n": 10, "r": 4, "pd_bound": "n-r+1", "chi": 0
        }

    def test_never_contradicts_oracle_on_k4(self):
        # K_4: reg <= 2 and pd <= n-r+1 = 3 both hold; chi = 3 > 0, r even.
        g = complete_graph(4)
        chi = euler_via_independence(g)
        d = decide_regularity(4, 2, 3, chi)
        assert d["outcome"] == "regularity_determined" and d["value"] == hochster_betti_table(g).regularity
