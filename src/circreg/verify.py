"""Verification sweeps: closed forms and bounds against the brute-force
Betti oracle, polynomial identities against enumeration, and randomized
property checks.  These back the `verify` CLI command and the acceptance
suite.  The property harness, property_suite, checks the classical
regularity facts on one graph against the tables of one sweep of it.

Every suite returns a plain-dict report: instance records in a fixed
enumeration order, each with inputs, expected and oracle values, and a
pass flag; the overall flag is the conjunction.  Wall-clock fields are
informational and are the only non-deterministic content.
"""

from __future__ import annotations

import random
import time
from typing import Optional, Sequence

from .betti import (
    BettiTable,
    _check_vertex_limit,
    decide_regularity,
    hochster_betti_table,
    induced_betti_tables,
)
from .complexes import (
    euler_via_independence,
    independence_complex,
    independence_polynomial,
    transfer_matrix_indpoly,
)
from .formulas import (
    HOSHINO_VARIANTS,
    bound_cubic,
    bound_family,
    hoshino_for,
    reg_cubic,
    reg_hat_j,
)
from .graphs import (
    Graph,
    circulant,
    davis_domke,
    family_a,
    family_b,
    family_d,
    is_cochordal_cover,
    moebius,
    prism,
    random_graph,
)
from .homology import euler_from_homology, field_name

__all__ = ["run_suite", "SUITES", "chi_report", "property_suite"]

DEFAULT_SEED = 1729


def chi_report(g: Graph, fields=(2,)) -> dict:
    """The three routes to the reduced Euler characteristic of Ind(g).

    The homology route sets dim H~_d = f_d - r_{d+1} - r_{d+2} (r_k the
    boundary rank on faces of size k), which telescopes to the f-vector sum
    whatever the ranks: it cannot disagree, and shows only that ranks run.
    """
    cx = independence_complex(g)
    via_f = cx.euler_char()
    via_h = {field_name(f): euler_from_homology(cx, f) for f in fields}
    via_poly = euler_via_independence(g)
    agree = all(v == via_f for v in via_h.values()) and via_poly == via_f
    return {"f_vector": via_f, "homology": via_h, "neg_indpoly": via_poly, "agree": agree}


class _Oracle:
    """A suite's one Betti oracle over one field, living as long as the suite
    call that makes it.  It stores each graph's table it sweeps, by graph,
    so a repeated graph is swept once, and it hands every sweep it starts one
    homology memo, so a folded core that recurs across the suite's graphs
    has its homology computed once, and the necklace list of each vertex
    count is built once.  The tables of induced subgraphs are
    returned to the caller by vertex set, and not stored.  The sweeps are
    reached through this module's names, which perfbench/run.py wraps to
    count verify's tables."""

    def __init__(self, field):
        self.field = field
        self._store: dict = {}
        self._memo: dict = {}

    def table(self, g: Graph) -> BettiTable:
        t = self._store.get(g)
        if t is None:
            t = self._store[g] = hochster_betti_table(g, self.field, memo=self._memo)
        return t

    def sweep_induced(self, g: Graph, vertex_sets: list) -> list[BettiTable]:
        """The tables of each g[W], W in *vertex_sets*, in their order, from
        one sweep of g; g's own table, from the same sweep, is stored."""
        tables = induced_betti_tables(g, self.field, [range(g.n), *vertex_sets], memo=self._memo)
        self._store.setdefault(g, tables[0])
        return tables[1:]


def _check(name: str, applicable: bool = False, passed: bool = True, detail: str = "") -> dict:
    """One check of a property report; a check that does not apply passes."""
    return {"name": name, "applicable": applicable, "passed": passed, "detail": detail}


def _reg_ideal(table: BettiTable) -> int:
    """reg of the ideal whose table is *table*.  An edgeless graph carries
    the zero ideal; reg(R/0) = 0 gives the value 1 under the
    reg(I) = reg(R/I) + 1 normalization used throughout."""
    return 1 if table.zero_ideal else table.regularity


def property_suite(
    g: Graph,
    oracle: _Oracle,
    cover_witness: Optional[Sequence[Graph]] = None,
    edge_partition: Optional[tuple[Graph, Graph]] = None,
) -> dict:
    """Check the classical regularity facts on one graph against the oracle.

    The oracle is a suite's _Oracle, or any object with its two methods:
    table(h), the Betti table of a graph h, and sweep_induced(g, vertex_sets),
    the tables of the induced subgraphs g[W] in the order of vertex_sets,
    an edgeless g[W] giving the zero-ideal table.  The induced subgraphs
    read are the connected components when there are at least two, then
    V - N[x] and V - {x} for each vertex x; an edgeless g reads none.  Their
    tables come from one sweep_induced call, and g's own table, through
    table(g), from the same sweep.  The parts of the edge split go through
    table(h).  Every check that applies is evaluated exactly and failures
    are reported, not raised.  The report is plain JSON data: the graph,
    the checks (each with name, applicable, passed and detail) and whether
    all passed.
    """
    has_edges = bool(g.edges)
    comps, deletions = [], []
    if has_edges:
        comps = g.connected_components()
        comps = comps if len(comps) >= 2 else []
        for x in range(g.n):
            dropped = g.adj[x] | (1 << x)
            deletions.append([v for v in range(g.n) if not dropped >> v & 1])
            deletions.append([v for v in range(g.n) if v != x])
    regs = [_reg_ideal(t) for t in oracle.sweep_induced(g, [*comps, *deletions])]
    comp_regs, deletion_regs = regs[:len(comps)], regs[len(comps):]
    table = oracle.table(g)
    checks: list[dict] = []
    reg = table.regularity if has_edges else None

    applicable = bool(comps)
    if applicable:
        total = sum(r - 1 for r in comp_regs)
        passed = reg - 1 == total
        detail = f"reg(R/I)={reg - 1}, component sum={total}"
    else:
        passed, detail = True, ""
    checks.append(_check("disjoint_union_additivity", applicable, passed, detail))

    if has_edges:
        chordal_c = g.complement().is_chordal()
        passed = (reg == 2) == chordal_c
        detail = f"reg={reg}, complement chordal={chordal_c}"
        checks.append(_check("reg2_iff_complement_chordal", True, passed, detail))
    else:
        checks.append(_check("reg2_iff_complement_chordal"))

    if cover_witness is not None and has_edges:
        try:
            valid = is_cochordal_cover(g, cover_witness)
        except ValueError as exc:
            checks.append(_check("cochordal_cover_bound", True, False, str(exc)))
        else:
            passed = valid and reg <= len(cover_witness) + 1
            detail = f"cover valid={valid}, reg={reg}, parts={len(cover_witness)}"
            checks.append(_check("cochordal_cover_bound", True, passed, detail))
    else:
        checks.append(_check("cochordal_cover_bound"))

    applicable = has_edges and g.is_gap_free() and g.is_claw_free()
    passed = reg <= 3 if applicable else True
    checks.append(
        _check("gapfree_clawfree_reg_at_most_3", applicable, passed, f"reg={reg}" if applicable else "")
    )

    if has_edges:
        bad = []
        for x in range(g.n):
            drop_nbhd, drop_vertex = deletion_regs[2 * x] + 1, deletion_regs[2 * x + 1]
            if reg not in (drop_nbhd, drop_vertex):
                bad.append((x, drop_nbhd, drop_vertex))
        passed = not bad
        detail = f"reg={reg}, violations={bad}" if bad else f"reg={reg}, all {g.n} vertices"
        checks.append(_check("vertex_deletion_membership", True, passed, detail))
    else:
        checks.append(_check("vertex_deletion_membership"))

    if edge_partition is not None:
        h, k = edge_partition
        applicable = bool(h.edges) and bool(k.edges) and has_edges
        if applicable:
            th, tk = oracle.table(h), oracle.table(k)
            rh, rk = th.regularity - 1, tk.regularity - 1
            ph, pk = th.projective_dimension, tk.projective_dimension
            pg = table.projective_dimension
            passed = (reg - 1 <= rh + rk) and (pg <= ph + pk + 1)
            detail = f"reg(R/I)={reg - 1}<={rh}+{rk}; pd={pg}<={ph}+{pk}+1"
        else:
            passed, detail = True, ""
        checks.append(_check("edge_split_subadditivity", applicable, passed, detail))
    else:
        checks.append(_check("edge_split_subadditivity"))

    return {"graph": g.to_json_dict(), "passed": all(c["passed"] for c in checks), "checks": checks}


def _finish(name: str, params: dict, instances: list[dict]) -> dict:
    passed = sum(1 for r in instances if r["pass"])
    return {
        "suite": name,
        "params": params,
        "instances": instances,
        "summary": {"total": len(instances), "passed": passed, "failed": len(instances) - passed},
        "ok": passed == len(instances),
    }


def verify_theorem1(nmax: int = 12, field=2) -> dict:
    """Closed form for the near-complete circulants against the oracle."""
    if nmax < 4:
        raise ValueError("theorem1 sweep needs nmax >= 4")
    _check_vertex_limit(nmax, subject="the largest theorem1 graph")
    oracle = _Oracle(field)
    instances = []
    for n in range(4, nmax + 1):
        for j in range(1, n // 2 + 1):
            t0 = time.perf_counter()
            dists = set(range(1, n // 2 + 1)) - {j}
            g = circulant(n, dists)
            expected = reg_hat_j(n, j)
            reg = oracle.table(g).regularity
            chi = chi_report(g, (field,))
            instances.append(
                {
                    "inputs": {"n": n, "j": j},
                    "expected": expected,
                    "oracle": reg,
                    "chi": chi,
                    "pass": expected == reg and chi["agree"],
                    "wall_ms": round((time.perf_counter() - t0) * 1000, 3),
                }
            )
    return _finish("theorem1", {"nmax": nmax, "field": field_name(field)}, instances)


def _ladder(kind: str, n: int) -> Graph:
    return moebius(n) if kind == "moebius" else prism(n)


def _cubic_ladders(nmax: int) -> list[tuple[str, int]]:
    """The twisted ladder at each n in 4..nmax, each followed by the prism
    when n is odd: the ladders whose reg and pd bounds are certified."""
    kinds = {0: ("moebius",), 1: ("moebius", "prism")}
    return [(kind, n) for n in range(4, nmax + 1) for kind in kinds[n % 2]]


def _decision_record(kind: str, n: int, oracle: _Oracle) -> dict:
    """Run the Euler-sign decision on one cubic ladder with its certified
    bounds and compare against the brute-force regularity."""
    t0 = time.perf_counter()
    g = _ladder(kind, n)
    reg_bound, pd_bound = bound_cubic(kind, n)
    chi = euler_via_independence(g)
    decision = decide_regularity(2 * n, reg_bound, pd_bound, chi)
    sign_ok = decision["outcome"] == "regularity_determined"
    brute = oracle.table(g).regularity
    return {
        "inputs": {"kind": kind, "n": n, "check": "euler_sign_decision"},
        "expected": reg_bound,
        "oracle": brute,
        "decision": decision,
        "chi_sign_ok": sign_ok,
        "pass": sign_ok and decision["value"] == brute,
        "wall_ms": round((time.perf_counter() - t0) * 1000, 3),
    }


def verify_theorem2(nmax: int = 7, field=2) -> dict:
    """Cubic circulant regularity: closed form vs direct sweep vs the
    component decomposition, plus the Euler-sign decision replication."""
    if nmax < 2:
        raise ValueError("theorem2 sweep needs nmax >= 2")
    _check_vertex_limit(2 * nmax, subject="the largest theorem2 graph")
    oracle = _Oracle(field)
    instances = []
    for n in range(2, nmax + 1):
        for a in range(1, n):
            t0 = time.perf_counter()
            g = circulant(2 * n, {a, n})
            expected = reg_cubic(n, a)
            direct = oracle.table(g).regularity
            copies, m, step = davis_domke(n, a)
            base = circulant(2 * m, {step, m})
            via_components = copies * (oracle.table(base).regularity - 1) + 1
            chi = chi_report(g, (field,))
            instances.append(
                {
                    "inputs": {"n": n, "a": a},
                    "expected": expected,
                    "oracle": direct,
                    "via_components": via_components,
                    "decomposition": {"copies": copies, "m": m, "step": step},
                    "chi": chi,
                    "pass": expected == direct == via_components and chi["agree"],
                    "wall_ms": round((time.perf_counter() - t0) * 1000, 3),
                }
            )
    instances += [_decision_record(kind, n, oracle) for kind, n in _cubic_ladders(nmax)]
    return _finish("theorem2", {"nmax": nmax, "field": field_name(field)}, instances)


def verify_lemmas(tmax: int = 5, nmax: int = 7, field=2) -> dict:
    """Ladder-family base values and bounds, and the cubic reg/pd bounds."""
    if tmax < 2 or nmax < 4:
        raise ValueError("lemmas sweep needs tmax >= 2 and nmax >= 4")
    _check_vertex_limit(max(2 * tmax + 4, 2 * nmax), subject="the largest lemmas graph")
    oracle = _Oracle(field)
    instances = []

    base_values = [
        ("A", 1, {"reg": 2, "pd": 2}),
        ("A", 2, {"reg": 3, "pd": 4}),
        ("B", 1, {"reg": 2}),
        ("B", 2, {"reg": 3}),
    ]
    makers = {"A": family_a, "B": family_b, "D": family_d}
    for kind, t, expected in base_values:
        t0 = time.perf_counter()
        table = oracle.table(makers[kind](t))
        got = {"reg": table.regularity}
        if "pd" in expected:
            got["pd"] = table.projective_dimension
        instances.append(
            {
                "inputs": {"family": kind, "t": t, "check": "base_value"},
                "expected": expected,
                "oracle": got,
                "pass": got == expected,
                "wall_ms": round((time.perf_counter() - t0) * 1000, 3),
            }
        )

    for kind in ("A", "B", "D"):
        for t in range(1, tmax + 1):
            if kind == "D" and t % 2 == 0:
                continue
            t0 = time.perf_counter()
            g = makers[kind](t)
            table = oracle.table(g)
            reg, pd = table.regularity, table.projective_dimension
            chi = chi_report(g, (field,))
            record = {
                "inputs": {"family": kind, "t": t, "check": "bounds"},
                "oracle": {"reg": reg, "pd": pd},
                "chi": chi,
            }
            if kind == "D" and t % 4 != 3:
                record.update(expected=None, bound_applies=False)
                record["pass"] = chi["agree"]
            else:
                reg_b, pd_b = bound_family(kind, t)
                ok = reg <= reg_b and (pd_b is None or pd <= pd_b)
                record.update(expected={"reg_bound": reg_b, "pd_bound": pd_b})
                record["pass"] = ok and chi["agree"]
            record["wall_ms"] = round((time.perf_counter() - t0) * 1000, 3)
            instances.append(record)

    for kind, n in _cubic_ladders(nmax):
        t0 = time.perf_counter()
        g = _ladder(kind, n)
        table = oracle.table(g)
        reg_b, pd_b = bound_cubic(kind, n)
        reg, pd = table.regularity, table.projective_dimension
        chi = chi_report(g, (field,))
        instances.append(
            {
                "inputs": {"kind": kind, "n": n, "check": "bounds"},
                "expected": {"reg_bound": reg_b, "pd_bound": pd_b},
                "oracle": {"reg": reg, "pd": pd},
                "chi": chi,
                "pass": reg <= reg_b and pd <= pd_b and chi["agree"],
                "wall_ms": round((time.perf_counter() - t0) * 1000, 3),
            }
        )
    return _finish("lemmas", {"tmax": tmax, "nmax": nmax, "field": field_name(field)}, instances)


def verify_hoshino(nmax: int = 8) -> dict:
    """Arbitrate the two closed-form variants against enumeration and check
    the transfer-matrix route; exactly one variant must win uniformly."""
    if nmax < 2:
        raise ValueError("arbitration needs nmax >= 2")
    cases = [("moebius", n) for n in range(2, nmax + 1)]
    cases += [("prism", n) for n in range(3, nmax + 1, 2)]
    brute = {}
    transfer_ok = {}
    instances = []
    for kind, n in cases:
        g = _ladder(kind, n)
        brute[(kind, n)] = independence_polynomial(g)
        transfer_ok[(kind, n)] = transfer_matrix_indpoly(kind, n) == brute[(kind, n)]

    matches = {v: True for v in HOSHINO_VARIANTS}
    for variant in HOSHINO_VARIANTS:
        for kind, n in cases:
            t0 = time.perf_counter()
            predicted = hoshino_for(kind, n, variant)
            hit = predicted == brute[(kind, n)]
            matches[variant] &= hit
            instances.append(
                {
                    "inputs": {"kind": kind, "n": n, "variant": variant},
                    "expected": list(predicted.coeffs),
                    "oracle": list(brute[(kind, n)].coeffs),
                    "transfer_matches_brute": transfer_ok[(kind, n)],
                    "pass": (hit == (variant == "corrected")) and transfer_ok[(kind, n)],
                    "wall_ms": round((time.perf_counter() - t0) * 1000, 3),
                }
            )
    winners = [v for v, ok in matches.items() if ok]
    report = _finish("hoshino", {"nmax": nmax}, instances)
    report["winners"] = winners
    report["ok"] = report["ok"] and len(winners) == 1
    return report


def verify_properties(
    count: int = 200,
    nmax: int = 9,
    seed: int = DEFAULT_SEED,
    field=2,
) -> dict:
    """Randomized graphs through the property harness, reproducibly seeded."""
    if count < 1 or nmax < 4:
        raise ValueError("property sweep needs count >= 1 and nmax >= 4")
    _check_vertex_limit(nmax, subject="the largest properties graph")
    rng = random.Random(seed)
    oracle = _Oracle(field)
    instances = []
    for idx in range(count):
        t0 = time.perf_counter()
        if rng.random() < 0.3:
            n1 = rng.randint(2, nmax - 2)
            n2 = rng.randint(2, nmax - n1)
            g = random_graph(n1, rng.uniform(0.3, 0.9), rng).disjoint_union(
                random_graph(n2, rng.uniform(0.3, 0.9), rng)
            )
        else:
            g = random_graph(rng.randint(4, nmax), rng.uniform(0.15, 0.85), rng)
        partition: Optional[tuple[Graph, Graph]] = None
        edges = sorted(g.edges)
        if len(edges) >= 2:
            left = [e for e in edges if rng.random() < 0.5]
            if not left:
                left = [edges[0]]
            if len(left) == len(edges):
                left = left[:-1]
            chosen = set(left)
            right = [e for e in edges if e not in chosen]
            partition = (Graph(g.n, left), Graph(g.n, right))
        report = property_suite(g, oracle, edge_partition=partition)
        instances.append(
            {
                "inputs": {"index": idx, "n": g.n, "edges": len(g.edges)},
                "report": report,
                "pass": report["passed"],
                "wall_ms": round((time.perf_counter() - t0) * 1000, 3),
            }
        )
    return _finish(
        "properties",
        {"count": count, "nmax": nmax, "seed": seed, "field": field_name(field)},
        instances,
    )


SUITES = {
    "theorem1": verify_theorem1,
    "theorem2": verify_theorem2,
    "lemmas": verify_lemmas,
    "hoshino": verify_hoshino,
    "properties": verify_properties,
}


def run_suite(name: str, **kwargs) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
