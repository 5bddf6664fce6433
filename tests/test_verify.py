"""The properties suite reads its tables off one sweep per graph; every
seeded table must equal a separate sweep of its induced graph, and the
default properties, theorem1, theorem2 and lemmas reports must not change.
A suite's sweeps share one homology memo that lives as long as the suite
call, and sharing it changes no table.  Each properties report is plain
JSON data, and a check that does not apply passes.  An instance whose
Euler-characteristic routes disagree fails, and a suite whose largest graph
is over the sweep's vertex limit refuses before it sweeps."""

import hashlib
import json
import random

import pytest

import circreg.betti as betti_mod
import circreg.verify as verify
from circreg.cli import main
from circreg.betti import VertexLimitError, hochster_betti_table, property_vertex_sets
from circreg.graphs import Graph, random_graph

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
        comps, deletions = property_vertex_sets(g)
        assert vertex_sets == [list(range(g.n)), *comps, *(vs for pair in deletions for vs in pair)]
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
    oracle = lambda g: hochster_betti_table(g, 2)
    reports += [property_suite(Graph(5), oracle), property_suite(Graph(3, [(0, 1)]), oracle)]
    assert len(reports) == 22
    for report in reports:
        assert json.loads(json.dumps(report)) == report
        assert all(c["passed"] for c in report["checks"] if not c["applicable"]), report


def test_property_suite_builds_the_tables_verify_hands_it(monkeypatch):
    # The first 40 default properties graphs: verify hands property_suite
    # the induced tables of one sweep; without them it asks the oracle.
    calls = []
    property_suite = verify.property_suite

    def recording(g, oracle, **kwargs):
        report = property_suite(g, oracle, **kwargs)
        calls.append((g, kwargs, report))
        return report

    monkeypatch.setattr(verify, "property_suite", recording)
    verify.verify_properties(count=40)
    monkeypatch.undo()

    assert len(calls) == 40
    oracle = lambda g: hochster_betti_table(g, 2)
    for g, kwargs, report in calls:
        comps, deletions = property_vertex_sets(g)
        assert len(kwargs["induced"]) == len(comps) + 2 * len(deletions)
        built = property_suite(g, oracle, edge_partition=kwargs["edge_partition"])
        assert built == report, (g.n, sorted(g.edges))


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
    """One entry per homology computation of a folded core."""
    calls: list = []
    real = betti_mod.homology_dims_from_sizes
    monkeypatch.setattr(
        betti_mod, "homology_dims_from_sizes", lambda *a: calls.append(a) or real(*a)
    )
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
