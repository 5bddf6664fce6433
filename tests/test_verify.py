"""The properties suite reads its tables off one sweep per graph; every
seeded table must equal a separate sweep of its induced graph, and the
default properties, theorem1, theorem2 and lemmas reports must not change.
An instance whose Euler-characteristic routes disagree fails, and a suite
whose largest graph is over the sweep's vertex limit refuses before it
sweeps."""

import hashlib
import json

import pytest

import circreg.verify as verify
from circreg.cli import main
from circreg.betti import VertexLimitError, hochster_betti_table, property_vertex_sets

# sha256 of the default properties report (count 200, nmax 9, seed 1729,
# GF(2)) with the wall_ms fields removed, as the suite produced it when it
# swept every induced subgraph separately.
DEFAULT_PROPERTIES_SHA256 = "97f1efc30fbc5d4f543fef5e3747999759f9e36517f1c635e17f7e879b5915df"

# sha256 of the default theorem1, theorem2 and lemmas reports over GF(2) and
# over Q, with the wall_ms fields removed.
DEFAULT_REPORT_SHA256 = {
    ("theorem1", 2): "c46ae663c7f14963842e125731c67e67a1c5f83e4ffacca6f1e07b3a9d05eed4",
    ("theorem1", "Q"): "27d72f91f32ccc98e1272a49d62a2a52db7d7f48969de1e1a97841a20fabd930",
    ("theorem2", 2): "f16f0b971410700d1725a1b6a74b378517db075ddcbf5b447c436e0532a608a7",
    ("theorem2", "Q"): "ed4557b7cd721992351047af330bbf5818013eba0412a09eed605518a7b70aa3",
    ("lemmas", 2): "b3c2312e4e6cd8720e89fa651f537b55adcf6aad4bf2315a2ee4f6311f93827f",
    ("lemmas", "Q"): "b2b2afa6fb361c1a7e42fc27739aeb8c6c7f37c2296114d0c3cdde993743f114",
}


def test_properties_seeded_tables_equal_separate_sweeps(monkeypatch):
    seeded = []
    induced_betti_tables = verify.induced_betti_tables

    def recording(g, field, vertex_sets):
        vertex_sets = [list(vs) for vs in vertex_sets]
        tables = induced_betti_tables(g, field, vertex_sets)
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


@pytest.mark.parametrize("suite, field", list(DEFAULT_REPORT_SHA256))
def test_default_report_digest(suite, field):
    report = verify.run_suite(suite, field=field)
    assert report["ok"]
    for rec in report["instances"]:
        rec.pop("wall_ms")
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert digest == DEFAULT_REPORT_SHA256[suite, field]


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
