"""The properties suite reads its tables off one sweep per graph; every
seeded table must equal a separate sweep of its induced graph, and the
default properties, theorem1, theorem2 and lemmas reports must not change.
chi_report lists the independence complex once, whatever its fields.
The property harness checks the classical regularity facts on one graph;
it reads every table of the graph and its induced subgraphs from one
sweep, reached through this module's names, and tables that differ by
field pass it.  A suite's sweeps share one homology memo that lives as long
as the suite call, and sharing it changes no table; the memo also holds
each vertex count's necklace list, built once per suite call.  Each properties report
is plain JSON data, and a check that does not apply passes.  An instance
whose Euler-characteristic routes disagree fails, and a suite whose largest
graph is over the sweep's vertex limit refuses before it sweeps."""

import hashlib
import json
import random

import pytest

import circreg.betti as betti_mod
import circreg.complexes as complexes_mod
import circreg.verify as verify
from circreg.cli import main
from circreg.betti import BettiTable, VertexLimitError, hochster_betti_table
from circreg.graphs import Graph, circulant, cochordal_split_c4j, random_graph
from naive_ref import RP2_EDGES, path_graph

# sha256 of the default properties report (count 200, nmax 9, seed 1729,
# GF(2)) with the wall_ms fields removed, as the suite produced it when it
# swept every induced subgraph separately.
DEFAULT_PROPERTIES_SHA256 = "97f1efc30fbc5d4f543fef5e3747999759f9e36517f1c635e17f7e879b5915df"

# The same digest over Q and over GF(3), taken while every sweep of the
# suite still started a homology memo of its own.
PROPERTIES_SHA256_BY_FIELD = {
    "Q": "1c8b527d7dc9e4d401ad96087dc317cf0626f02ee4839c33bb4db4945b08a3fd",
    3: "d798ac97f244f9cf9e1c8f2a89c2d61f71b688015667e4fc1394395522cfa1d1",
}

# sha256 of the default theorem1, theorem2 and lemmas reports over GF(2), Q
# and GF(3), with the wall_ms fields removed.  The GF(3) digests were taken on
# commit 4855de3, before the signed boundary columns walked each face's
# vertices by its lowest set bit.
DEFAULT_REPORT_SHA256 = {
    ("theorem1", 2): "c46ae663c7f14963842e125731c67e67a1c5f83e4ffacca6f1e07b3a9d05eed4",
    ("theorem1", "Q"): "27d72f91f32ccc98e1272a49d62a2a52db7d7f48969de1e1a97841a20fabd930",
    ("theorem2", 2): "f16f0b971410700d1725a1b6a74b378517db075ddcbf5b447c436e0532a608a7",
    ("theorem2", "Q"): "ed4557b7cd721992351047af330bbf5818013eba0412a09eed605518a7b70aa3",
    ("lemmas", 2): "b3c2312e4e6cd8720e89fa651f537b55adcf6aad4bf2315a2ee4f6311f93827f",
    ("lemmas", "Q"): "b2b2afa6fb361c1a7e42fc27739aeb8c6c7f37c2296114d0c3cdde993743f114",
    ("theorem1", 3): "adb6d4665fc4464f7c650806af96cacd760b5fcc90601e8d42c00e2a4a0c065c",
    ("theorem2", 3): "d0c7243d7641f8243e7942c32578860c55ff4f63869e658d0664555c9c766439",
    ("lemmas", 3): "824bc7db102ede5a45b9f57b15a915b73e63eb34e2d224cdef79e83d2dd09a55",
}


def test_properties_seeded_tables_equal_separate_sweeps(monkeypatch):
    seeded = []
    induced_betti_tables = verify.induced_betti_tables

    def recording(g, field, vertex_sets, **kwargs):
        vertex_sets = [list(vs) for vs in vertex_sets]
        tables = induced_betti_tables(g, field, vertex_sets, **kwargs)
        seeded.append((g, field, vertex_sets, tables))
        return tables

    monkeypatch.setattr(verify, "induced_betti_tables", recording)
    report = verify.verify_properties()
    monkeypatch.undo()

    assert len(seeded) == 200
    for g, _field, vertex_sets, tables in seeded:
        assert vertex_sets == [list(range(g.n)), *_harness_vertex_sets(g)]
        assert len(tables) == len(vertex_sets)
        for vs, t in zip(vertex_sets, tables):
            # The suite's default field is GF(2); equality compares fields too.
            assert t == hochster_betti_table(g.induced(vs)[0], 2), (sorted(g.edges), vs)

    assert report["ok"]
    for rec in report["instances"]:
        rec.pop("wall_ms")
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == DEFAULT_PROPERTIES_SHA256


def test_property_reports_are_json_data_and_inapplicable_checks_pass(monkeypatch):
    reports = []
    property_suite = verify.property_suite

    def recording(*args, **kwargs):
        reports.append(property_suite(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(verify, "property_suite", recording)
    verify.verify_properties(count=20)
    oracle = verify._Oracle(2)
    reports += [property_suite(Graph(5), oracle), property_suite(Graph(3, [(0, 1)]), oracle)]
    assert len(reports) == 22
    for report in reports:
        assert json.loads(json.dumps(report)) == report
        assert all(c["passed"] for c in report["checks"] if not c["applicable"]), report


def _harness_vertex_sets(g: Graph) -> list[list[int]]:
    """The vertex sets W whose g[W] the harness reads, in its order: the
    components when there are at least two, then V - N[x] and V - {x} for
    each vertex x; none for an edgeless g."""
    if not g.edges:
        return []
    comps = g.connected_components()
    sets = comps if len(comps) >= 2 else []
    for x in range(g.n):
        sets.append(sorted(set(range(g.n)) - {x} - set(g.neighbors(x))))
        sets.append([v for v in range(g.n) if v != x])
    return sets


def test_harness_sweeps_through_verify_names(monkeypatch):
    # perfbench wraps verify.hochster_betti_table and
    # verify.induced_betti_tables to count the tables verify sweeps; a
    # harness that called betti's names directly would go uncounted.
    events = []  # ("graph" | "table" | "induced", graph[, vertex sets])
    table, induced, property_suite = (
        verify.hochster_betti_table, verify.induced_betti_tables, verify.property_suite
    )

    def recording_table(g, field, **kwargs):
        events.append(("table", g))
        return table(g, field, **kwargs)

    def recording_induced(g, field, vertex_sets, **kwargs):
        vertex_sets = [list(vs) for vs in vertex_sets]
        events.append(("induced", g, vertex_sets))
        return induced(g, field, vertex_sets, **kwargs)

    def recording_suite(g, *args, **kwargs):
        events.append(("graph", g))
        return property_suite(g, *args, **kwargs)

    monkeypatch.setattr(verify, "hochster_betti_table", recording_table)
    monkeypatch.setattr(verify, "induced_betti_tables", recording_induced)
    monkeypatch.setattr(verify, "property_suite", recording_suite)
    assert verify.verify_properties(count=40)["ok"]
    monkeypatch.undo()

    starts = [i for i, e in enumerate(events) if e[0] == "graph"]
    assert len(starts) == 40
    for start, end in zip(starts, [*starts[1:], len(events)]):
        g = events[start][1]
        calls = events[start + 1:end]
        [sweep] = [e for e in calls if e[0] == "induced"]
        assert sweep[1] == g
        assert sweep[2] == [list(range(g.n)), *_harness_vertex_sets(g)], sorted(g.edges)
        assert all(e[1] != g for e in calls if e[0] == "table"), sorted(g.edges)


class _LyingOracle:
    """An oracle whose table of a graph h is *fake*(h).  Like the sweep, it
    gives an edgeless induced subgraph the zero-ideal table."""

    def __init__(self, fake):
        self.table = fake

    def sweep_induced(self, g, vertex_sets):
        subs = [g.induced(vs)[0] for vs in vertex_sets]
        return [self.table(h) if h.edges else BettiTable(h.n, 2, {}) for h in subs]


def _checks(report: dict) -> dict:
    return {c["name"]: c for c in report["checks"]}


class TestPropertySuite:
    def test_two_disjoint_edges_additivity(self):
        g = Graph(4, [(0, 1), (2, 3)])
        check = _checks(verify.property_suite(g, verify._Oracle(2)))["disjoint_union_additivity"]
        assert check["applicable"] and check["passed"]

    def test_c4_froberg(self):
        report = verify.property_suite(circulant(4, {1}), verify._Oracle(2))
        check = _checks(report)["reg2_iff_complement_chordal"]
        assert check["applicable"] and check["passed"]

    def test_c8_14_vertex_deletion(self):
        g = circulant(8, {1, 4})
        t = hochster_betti_table(g, 2)
        assert t.regularity == 3
        a = hochster_betti_table(g.without_closed_neighborhood(0), 2).regularity + 1
        b = hochster_betti_table(g.without_vertex(0), 2).regularity
        assert t.regularity in (a, b)
        check = _checks(verify.property_suite(g, verify._Oracle(2)))["vertex_deletion_membership"]
        assert check["applicable"] and check["passed"]

    def test_vertex_set_order(self):
        swept = []

        class Recording(verify._Oracle):
            def sweep_induced(self, g, vertex_sets):
                swept.append(vertex_sets)
                return super().sweep_induced(g, vertex_sets)

        for g in [Graph(4, [(0, 1), (2, 3)]), path_graph(3), Graph(3)]:
            verify.property_suite(g, Recording(2))
        assert swept == [
            # The components, then V - N[x] and V - {x} for each x.
            [[0, 1], [2, 3], [2, 3], [1, 2, 3], [2, 3], [0, 2, 3], [0, 1], [0, 1, 3], [0, 1], [0, 1, 2]],
            [[2], [1, 2], [], [0, 2], [0], [0, 1]],
            [],
        ]

    def test_vertex_deletion_reads_the_right_subgraphs(self):
        # An oracle whose regularity is the vertex count tells G - N[x]
        # from G - x in the violations it reports.
        oracle = _LyingOracle(lambda h: BettiTable(h.n, 2, {(0, h.n): 1}))
        check = _checks(verify.property_suite(path_graph(3), oracle))["vertex_deletion_membership"]
        assert not check["passed"]
        assert check["detail"] == "reg=3, violations=[(0, 2, 2), (1, 2, 1), (2, 2, 2)]"

    def test_cover_witness_bound(self):
        g = circulant(8, {1, 3, 4})
        report = verify.property_suite(g, verify._Oracle(2), cover_witness=list(cochordal_split_c4j(2)))
        check = _checks(report)["cochordal_cover_bound"]
        assert check["applicable"] and check["passed"]

    def test_edge_partition_subadditivity(self):
        g = circulant(6, {1})
        edges = sorted(g.edges)
        part = (Graph(6, edges[:3]), Graph(6, edges[3:]))
        report = verify.property_suite(g, verify._Oracle(2), edge_partition=part)
        check = _checks(report)["edge_split_subadditivity"]
        assert check["applicable"] and check["passed"]

    def test_failures_are_reported_not_raised(self):
        # Lying oracle: forces a visible failure entry.
        oracle = _LyingOracle(lambda h: BettiTable(h.n, 2, {(0, 5): 1}))
        report = verify.property_suite(circulant(4, {1}), oracle)
        assert not report["passed"]
        assert [c for c in report["checks"] if not c["passed"]]

    @pytest.mark.parametrize("field, reg", [(2, 5), (3, 4), ("Q", 4)])
    def test_flag_rp2_plus_k2_over_each_field(self, field, reg):
        # RP^2's tables differ by field (reg 4 over GF(2), 3 over GF(3) and
        # Q); with K2 beside it, every check passes on each field's tables.
        g = Graph(12, RP2_EDGES).disjoint_union(Graph(2, [(0, 1)]))
        report = verify.property_suite(g, verify._Oracle(field))
        assert report["passed"]
        checks = _checks(report)
        assert checks["disjoint_union_additivity"]["applicable"]
        assert checks["disjoint_union_additivity"]["detail"] == (
            f"reg(R/I)={reg - 1}, component sum={reg - 1}"
        )
        assert checks["vertex_deletion_membership"]["detail"] == f"reg={reg}, all 14 vertices"

    def test_induced_tables_of_another_field_fail_additivity(self):
        # g's table over Q, its components' over GF(2): RP^2's reg(R/I) is
        # 2 over Q and 3 over GF(2).
        class MixedFields(verify._Oracle):
            def sweep_induced(self, g, vertex_sets):
                return verify._Oracle(2).sweep_induced(g, vertex_sets)

        g = Graph(12, RP2_EDGES).disjoint_union(Graph(2, [(0, 1)]))
        check = _checks(verify.property_suite(g, MixedFields("Q")))["disjoint_union_additivity"]
        assert check["applicable"] and not check["passed"]
        assert check["detail"] == "reg(R/I)=3, component sum=4"


def _digest(report: dict) -> str:
    for rec in report["instances"]:
        rec.pop("wall_ms")
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("suite, field", list(DEFAULT_REPORT_SHA256))
def test_default_report_digest(suite, field):
    report = verify.run_suite(suite, field=field)
    assert report["ok"]
    assert _digest(report) == DEFAULT_REPORT_SHA256[suite, field]


@pytest.mark.parametrize("field", list(PROPERTIES_SHA256_BY_FIELD))
def test_default_properties_digest_by_field(field):
    report = verify.run_suite("properties", field=field)
    assert report["ok"]
    assert _digest(report) == PROPERTIES_SHA256_BY_FIELD[field]


@pytest.fixture
def homology_calls(monkeypatch) -> list:
    """One entry per homology computation of a folded core: every memo miss
    walks one matching tree, certified or not."""
    calls: list = []
    real = betti_mod._tree_dims
    monkeypatch.setattr(betti_mod, "_tree_dims", lambda *a: calls.append(a) or real(*a))
    return calls


@pytest.mark.parametrize("entry", ["table", "sweep_induced"])
def test_relabelled_copy_reuses_the_suite_memo(homology_calls, entry):
    # v -> v+1 (mod 9) moves the isolated vertex 8 to 0 and keeps the order
    # of the others, so each core of the copy is read in the same order as
    # the core it copies, and the memo holds its homology under the same key.
    g = Graph(9, random_graph(8, 0.5, random.Random(5)).edges)
    copy = Graph(9, [(u + 1, v + 1) for u, v in g.edges])
    assert copy != g

    def sweep(oracle, h):
        if entry == "table":
            return oracle.table(h)
        oracle.sweep_induced(h, [])
        return oracle.table(h)

    oracle = verify._Oracle(2)
    table = sweep(oracle, g)
    assert homology_calls
    homology_calls.clear()
    assert sweep(oracle, copy) == table
    assert homology_calls == []
    # A fresh oracle computes them again.
    assert sweep(verify._Oracle(2), copy) == table
    assert homology_calls


def test_memo_lives_one_suite_call(homology_calls):
    verify.run_suite("theorem2")
    first = len(homology_calls)
    homology_calls.clear()
    verify.run_suite("theorem2")
    assert first and len(homology_calls) == first


def test_necklace_lists_built_once_per_suite_call(monkeypatch):
    built = []
    real = betti_mod._necklaces
    monkeypatch.setattr(betti_mod, "_necklaces", lambda n: built.append(n) or real(n))
    verify.run_suite("theorem1")
    first = list(built)
    assert first and len(first) == len(set(first))
    built.clear()
    verify.run_suite("theorem1")
    assert built == first


@pytest.mark.parametrize("field", [2, 3, "Q"])
def test_shared_memo_changes_no_table(monkeypatch, field):
    # Every table the theorem1, theorem2 and lemmas suites and the first 40
    # properties graphs sweep, against a sweep with a fresh memo.
    swept = []  # (memo, graph of each table, tables)
    table, induced = verify.hochster_betti_table, verify.induced_betti_tables

    def recording_table(g, field, **kwargs):
        t = table(g, field, **kwargs)
        swept.append((kwargs["memo"], [g], [t]))
        return t

    def recording_induced(g, field, vertex_sets, **kwargs):
        tables = induced(g, field, vertex_sets, **kwargs)
        swept.append((kwargs["memo"], [g.induced(vs)[0] for vs in vertex_sets], tables))
        return tables

    monkeypatch.setattr(verify, "hochster_betti_table", recording_table)
    monkeypatch.setattr(verify, "induced_betti_tables", recording_induced)
    memos = []
    for suite, kwargs in [("theorem1", {}), ("theorem2", {}), ("lemmas", {}), ("properties", {"count": 40})]:
        start = len(swept)
        assert verify.run_suite(suite, field=field, **kwargs)["ok"]
        # One memo per suite call, handed to each of its sweeps.
        memos.append({id(memo) for memo, _, _ in swept[start:]})
        assert len(memos[-1]) == 1, suite
    monkeypatch.undo()

    assert len(set.union(*memos)) == 4
    for _memo, graphs, tables in swept:
        for g, t in zip(graphs, tables):
            assert t == hochster_betti_table(g, field), (g.n, sorted(g.edges))


def test_chi_report_lists_the_independence_complex_once(monkeypatch):
    # The f-vector route and the homology route over every field read one
    # face list.  Ind of a perfect matching on 16 vertices is the 7-sphere.
    calls = []
    real = complexes_mod._list_faces
    monkeypatch.setattr(complexes_mod, "_list_faces", lambda *a: calls.append(a) or real(*a))
    report = verify.chi_report(circulant(16, {8}), (2, 3, "Q"))
    assert len(calls) == 1
    assert report == {"f_vector": -1, "homology": {"2": -1, "3": -1, "Q": -1}, "neg_indpoly": -1, "agree": True}


@pytest.mark.parametrize(
    "suite, kwargs",
    [("theorem1", {"nmax": 5}), ("theorem2", {"nmax": 4}), ("lemmas", {"tmax": 3, "nmax": 5})],
)
def test_euler_route_disagreement_fails_the_instance(monkeypatch, capsys, suite, kwargs):
    chi_report = verify.chi_report

    def disagreeing(g, fields=(2,)):
        return {**chi_report(g, fields), "agree": False}

    monkeypatch.setattr(verify, "chi_report", disagreeing)
    report = verify.run_suite(suite, **kwargs)
    with_chi = [r for r in report["instances"] if "chi" in r]
    assert with_chi and not any(r["pass"] for r in with_chi)
    assert not report["ok"]
    if suite == "theorem1":
        assert main(["verify", "theorem1", "--nmax", "5"]) == 1
        assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize(
    "suite, kwargs, vertices",
    [
        ("theorem1", {"nmax": 21}, 21),
        ("theorem2", {"nmax": 11}, 22),
        ("lemmas", {"tmax": 9}, 22),
        ("properties", {"nmax": 21}, 21),
    ],
)
def test_suite_over_the_vertex_limit_raises_before_sweeping(monkeypatch, suite, kwargs, vertices):
    # The suites refuse through the sweep's own limit check, naming the suite.
    def no_sweep(*args, **kwargs):
        raise AssertionError("swept a graph before refusing the suite")

    for name in ("hochster_betti_table", "induced_betti_tables", "chi_report"):
        monkeypatch.setattr(verify, name, no_sweep)
    with pytest.raises(VertexLimitError) as exc:
        verify.run_suite(suite, **kwargs)
    assert str(exc.value) == (
        f"the largest {suite} graph has {vertices} vertices; the sweep is limited to 20"
    )
