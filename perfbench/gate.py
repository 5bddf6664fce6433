"""Correctness gate: every output a pass produces is checked before its time
counts.

Checks that hold on any input and any field:

* ``beta(0, 2) == |E|`` (one quadratic generator per edge);
* the K-polynomial identity
  ``1 - sum_ij (-1)^i beta_ij t^j == sum_F t^|F| (1 - t)^(n - |F|)``
  over the independent sets F, counted by ``independent_set_counts``.

Pinned checks, from ``expected.json``: the digest of every sweep table (the
tables do not depend on the seed, which only relabels vertices), reg/pd of
the RP^2 fixture per field, and the digest of every verify report with its
timing fields left out.
"""

from __future__ import annotations

import functools
import hashlib
import json
from math import comb
from pathlib import Path

from circreg.complexes import independent_set_counts
from circreg.homology import field_name


# Instance keys that carry the verdict.  Timing fields (``wall_ms``) and any
# counters a report gains later are not part of the digest.
REPORT_KEYS = ("suite", "params", "summary", "ok", "winners")
INSTANCE_KEYS = (
    "inputs",
    "expected",
    "oracle",
    "pass",
    "via_components",
    "decomposition",
    "decision",
    "chi",
    "chi_sign_ok",
    "bound_applies",
    "report",
    "transfer_matches_brute",
)


@functools.cache
def expected() -> dict:
    return json.loads((Path(__file__).resolve().parent / "expected.json").read_text())


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def table_digest(table) -> str:
    return _digest([table.n, field_name(table.field), table.items_sorted()])


def report_digest(report: dict) -> str:
    core = {k: report[k] for k in REPORT_KEYS if k in report}
    core["instances"] = [{k: r[k] for k in INSTANCE_KEYS if k in r} for r in report["instances"]]
    return _digest(core)


def k_polynomial_ok(graph, table) -> bool:
    """The Betti table's K-polynomial equals the one the faces give."""
    n = graph.n
    lhs = [0] * (n + 1)
    lhs[0] = 1
    for i, j, b in table.items_sorted():
        if j > n:
            return False
        lhs[j] -= b if i % 2 == 0 else -b
    rhs = [0] * (n + 1)
    for size, f in enumerate(independent_set_counts(graph)):
        for k in range(n - size + 1):
            rhs[size + k] += f * comb(n - size, k) * (-1) ** k
    return lhs == rhs


def table_problems(label: str, graph, table) -> list[str]:
    """Why a table is wrong, or an empty list."""
    problems = []
    if table.n != graph.n:
        problems.append(f"{label}: n={table.n}, graph has {graph.n} vertices")
    if table.beta(0, 2) != len(graph.edges):
        problems.append(f"{label}: beta(0,2)={table.beta(0, 2)} but |E|={len(graph.edges)}")
    if not k_polynomial_ok(graph, table):
        problems.append(f"{label}: K-polynomial differs from the independent-set count")
    pinned = expected()["tables"].get(label)
    if pinned is not None and table_digest(table) != pinned:
        problems.append(f"{label}: table digest differs from the pinned one")
    reg_pd = expected()["reg_pd"].get(label)
    if reg_pd is not None and [table.regularity, table.projective_dimension] != reg_pd:
        problems.append(
            f"{label}: reg/pd {table.regularity}/{table.projective_dimension}, expected {reg_pd[0]}/{reg_pd[1]}"
        )
    return problems


def report_problems(suite: str, report: dict, pinned_digest) -> list[str]:
    """Why a verify report is wrong, or an empty list; *pinned_digest* is
    None when nothing is pinned."""
    problems = []
    if report.get("ok") is not True:
        problems.append(f"{suite}: report ok={report.get('ok')!r}")
    if pinned_digest is not None and report_digest(report) != pinned_digest:
        problems.append(f"{suite}: report digest differs from the pinned one")
    return problems


class Checker:
    """Counts the outputs of a run that were checked and those found wrong."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.problems)

    def record(self, problems: list[str]) -> None:
        """One output checked; *problems* is empty when it was right."""
        self.attempted += 1
        if problems:
            self.problems.append("; ".join(problems))

    def step(self, step, output, error) -> None:
        """One step's output, or the traceback it raised instead."""
        if error is not None:
            self.record([f"{step.label} raised: {error}"])
        elif step.suite is None:
            self.record(table_problems(step.label.split(".", 1)[1], step.graph, output))
        else:
            self.record(report_problems(step.suite, output, expected()["suites"][step.suite]))

    def table(self, graph, table) -> None:
        self.record(table_problems("inner", graph, table))
