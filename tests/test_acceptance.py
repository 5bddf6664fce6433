"""Acceptance criteria, one test per criterion, exact equality throughout.

Expensive sweeps are computed once in module-scoped fixtures and shared;
each criterion prints a PASS line with its instance count and wall time.
"""

import time

import pytest

from circreg.betti import decide_regularity, hochster_betti_table
from circreg.complexes import (
    euler_via_independence,
    independence_complex,
    independence_polynomial,
    transfer_matrix_indpoly,
)
from circreg.formulas import (
    bound_cubic,
    bound_family,
    hoshino_for,
    reg_cubic,
    reg_hat_j,
)
from circreg.graphs import (
    circulant,
    davis_domke,
    family_a,
    family_b,
    family_d,
    moebius,
    prism,
)
from circreg.homology import euler_from_homology
from circreg.verify import verify_properties
from naive_ref import complete_graph

FIELDS = (2, 3, "Q")


@pytest.fixture(scope="module")
def theorem1_pool():
    """(n, j) -> (graph, Betti table over GF(2)) for n in 4..12."""
    start = time.perf_counter()
    pool = {}
    for n in range(4, 13):
        for j in range(1, n // 2 + 1):
            g = circulant(n, set(range(1, n // 2 + 1)) - {j})
            pool[(n, j)] = (g, hochster_betti_table(g, 2))
    return time.perf_counter() - start, pool


@pytest.fixture(scope="module")
def theorem2_pool():
    """(n, a) -> (graph, table, base graph, base table) for n in 2..7."""
    start = time.perf_counter()
    pool = {}
    base_tables = {}
    for n in range(2, 8):
        for a in range(1, n):
            g = circulant(2 * n, {a, n})
            table = hochster_betti_table(g, 2)
            copies, m, step = davis_domke(n, a)
            base = circulant(2 * m, {step, m})
            key = (m, step)
            if key not in base_tables:
                base_tables[key] = hochster_betti_table(base, 2)
            pool[(n, a)] = (g, table, copies, base_tables[key])
    return time.perf_counter() - start, pool


@pytest.fixture(scope="module")
def family_pool():
    """Ladder families: A/B t<=5, D odd t<=5, moebius 4..7, prism 5,7."""
    pool = {}
    for t in range(1, 6):
        pool[("A", t)] = family_a(t)
        pool[("B", t)] = family_b(t)
        if t % 2 == 1:
            pool[("D", t)] = family_d(t)
    for n in range(4, 8):
        pool[("moebius", n)] = moebius(n)
        if n % 2 == 1:
            pool[("prism", n)] = prism(n)
    return {key: (g, hochster_betti_table(g, 2)) for key, (g) in pool.items()}


def test_criterion_1_near_complete_regularity_sweep(theorem1_pool):
    elapsed, pool = theorem1_pool
    checked = 0
    for (n, j), (g, table) in pool.items():
        assert table.regularity == reg_hat_j(n, j), (n, j)
        checked += 1
    assert elapsed < 120, f"sweep took {elapsed:.1f}s"
    print(f"PASS criterion 1: closed form matches brute force on {checked} instances ({elapsed:.1f}s)")


def test_criterion_2_cubic_regularity_sweep(theorem2_pool):
    elapsed, pool = theorem2_pool
    checked = 0
    for (n, a), (g, table, copies, base_table) in pool.items():
        expected = reg_cubic(n, a)
        direct = table.regularity
        via_components = copies * (base_table.regularity - 1) + 1
        assert expected == direct == via_components, (n, a)
        checked += 1
    anchors = {(2, 1): 2, (5, 1): 4, (3, 2): 3}
    for (n, a), want in anchors.items():
        assert pool[(n, a)][1].regularity == want
    assert elapsed < 300, f"sweep took {elapsed:.1f}s"
    print(f"PASS criterion 2: cubic formula matches both routes on {checked} instances ({elapsed:.1f}s)")


def test_criterion_3_euler_triple_identity(theorem1_pool, theorem2_pool, family_pool):
    graphs = [g for g, _ in theorem1_pool[1].values()]
    graphs += [g for g, _, _, _ in theorem2_pool[1].values()]
    graphs += [g for g, _ in family_pool.values()]
    checked = 0
    for g in graphs:
        cx = independence_complex(g)
        via_f = cx.euler_char()
        via_poly = euler_via_independence(g)
        assert via_f == via_poly, g
        for field in FIELDS:
            assert euler_from_homology(cx, field) == via_f, (g, field)
        checked += 1
    print(f"PASS criterion 3: three Euler routes agree on {checked} graphs x {len(FIELDS)} fields")


def test_criterion_4_hochster_sanity(theorem1_pool, theorem2_pool, family_pool):
    tables = [(g, t) for g, t in theorem1_pool[1].values()]
    tables += [(g, t) for g, t, _, _ in theorem2_pool[1].values()]
    tables += [(g, t) for g, t in family_pool.values()]
    for g, t in tables:
        assert t.beta(0, 2) == g.edge_count
    k3 = hochster_betti_table(complete_graph(3), 2)
    assert k3.entries == {(0, 2): 3, (1, 3): 2}
    c4 = hochster_betti_table(circulant(4, {1}), 2)
    assert c4.entries == {(0, 2): 4, (1, 3): 4, (2, 4): 1}
    print(f"PASS criterion 4: beta(0,2)=|E| on {len(tables)} instances; K3 and C4 tables exact")


def test_criterion_5_family_base_values_and_bounds(family_pool):
    reg = lambda key: family_pool[key][1].regularity
    pd = lambda key: family_pool[key][1].projective_dimension
    assert (reg(("A", 1)), pd(("A", 1))) == (2, 2)
    assert (reg(("A", 2)), pd(("A", 2))) == (3, 4)
    assert reg(("B", 1)) == 2
    assert reg(("B", 2)) == 3
    checked = 6
    for t in range(1, 6):
        ra, pa = bound_family("A", t)
        assert reg(("A", t)) <= ra and pd(("A", t)) <= pa, ("A", t)
        rb, _ = bound_family("B", t)
        assert reg(("B", t)) <= rb, ("B", t)
        checked += 2
    rd, _ = bound_family("D", 3)
    assert reg(("D", 3)) <= rd
    checked += 1
    for n in range(4, 8):
        rm, pm = bound_cubic("moebius", n)
        assert reg(("moebius", n)) <= rm and pd(("moebius", n)) <= pm, n
        checked += 1
        if n % 2 == 1:
            rp, pp = bound_cubic("prism", n)
            assert reg(("prism", n)) <= rp and pd(("prism", n)) <= pp, n
            checked += 1
    print(f"PASS criterion 5: base values exact and bounds hold on {checked} checks")


def test_criterion_6_decision_procedure_replication(family_pool):
    checked = 0
    for kind in ("moebius", "prism"):
        for n in range(4, 8):
            if kind == "prism" and n % 2 == 0:
                continue
            g, table = family_pool[(kind, n)]
            reg_bound, pd_bound = bound_cubic(kind, n)
            nvars = 2 * n
            if pd_bound == nvars - reg_bound:
                bound_kind = "n-r"
            else:
                assert pd_bound == nvars - reg_bound + 1
                bound_kind = "n-r+1"
            chi = euler_via_independence(g)
            if bound_kind == "n-r":
                assert chi != 0, (kind, n)
            elif reg_bound % 2 == 0:
                assert chi > 0, (kind, n)
            else:
                assert chi < 0, (kind, n)
            decision = decide_regularity(nvars, reg_bound, pd_bound, chi)
            assert decision["pd_bound"] == bound_kind, (kind, n)
            assert decision["outcome"] == "regularity_determined", (kind, n)
            assert decision["value"] == table.regularity, (kind, n)
            checked += 1
    print(f"PASS criterion 6: Euler-sign decision determines reg correctly on {checked} cubic instances")


def test_criterion_7_hoshino_arbitration():
    cases = [("moebius", n) for n in range(2, 9)]
    cases += [("prism", n) for n in (3, 5, 7)]
    brute = {}
    for kind, n in cases:
        g = moebius(n) if kind == "moebius" else prism(n)
        brute[(kind, n)] = independence_polynomial(g)
        assert transfer_matrix_indpoly(kind, n) == brute[(kind, n)], (kind, n)
    winners = []
    for variant in ("printed", "corrected"):
        if all(hoshino_for(k, n, variant) == brute[(k, n)] for k, n in cases):
            winners.append(variant)
    assert winners == ["corrected"], f"expected a unique winner, got {winners}"
    print(f"PASS criterion 7: 'corrected' exponent is the unique variant matching {len(cases)} polynomials")


def test_criterion_8_randomized_property_suites():
    start = time.perf_counter()
    report = verify_properties(count=200, nmax=9, seed=1729, field=2)
    elapsed = time.perf_counter() - start
    failures = [r for r in report["instances"] if not r["pass"]]
    assert not failures, failures[:3]
    assert report["summary"] == {"total": 200, "passed": 200, "failed": 0}
    assert elapsed < 180, f"property sweep took {elapsed:.1f}s"
    print(f"PASS criterion 8: classical properties hold on 200 seeded graphs ({elapsed:.1f}s)")


def test_criterion_9_performance_and_determinism():
    g12 = circulant(12, {1, 6})
    start = time.perf_counter()
    t12 = hochster_betti_table(g12, 2)
    t_12v = time.perf_counter() - start
    assert t_12v < 5, f"12-vertex table took {t_12v:.2f}s"

    g14 = circulant(14, {1, 7})
    start = time.perf_counter()
    t14 = hochster_betti_table(g14, 2)
    t_14v = time.perf_counter() - start
    assert t_14v < 60, f"14-vertex table took {t_14v:.2f}s"

    t14_parallel = hochster_betti_table(g14, 2, workers=8)
    assert t14_parallel == t14
    assert t14_parallel.to_json_dict() == t14.to_json_dict()
    assert t12.beta(0, 2) == g12.edge_count == 18
    assert t14.beta(0, 2) == g14.edge_count == 21
    print(
        f"PASS criterion 9: 12-vertex table {t_12v:.2f}s (<5s), 14-vertex {t_14v:.2f}s (<60s), "
        "workers 1 == workers 8"
    )
