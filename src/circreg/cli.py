"""Command-line interface.

Graph arguments accept spec strings ("circulant:10:1,3", "moebius:5",
"prism:3", "A:2", "B:1", "D:3") or a path to a graph JSON file
({"n": ..., "edges": [[i, j], ...]}).  Exit codes: 0 success / all checks
pass, 1 verification mismatch, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import sys
import tempfile
from math import comb

from .betti import BettiTable, DEFAULT_VERTEX_LIMIT, _check_vertex_limit, hochster_betti_table
from .complexes import independence_polynomial, independent_set_counts
from .formulas import (
    CubicParams,
    bound_cubic,
    bound_family,
    hoshino_poly,
    reg_cubic,
    reg_hat_j,
)
from .graphs import (
    Graph,
    circulant,
    family_a,
    family_b,
    family_d,
    graph_from_json_dict,
    moebius,
    prism,
)
from .homology import field_name, normalize_field
from .verify import SUITES, chi_report, run_suite

__all__ = ["main", "parse_graph_spec"]


class SpecError(ValueError):
    """Bad graph spec string or unreadable graph file."""


def parse_graph_spec(spec: str) -> Graph:
    """Build a graph from a spec string or a JSON file path."""
    if os.path.sep in spec or spec.endswith(".json") or os.path.exists(spec):
        try:
            with open(spec, "r", encoding="utf-8") as fh:
                return graph_from_json_dict(json.load(fh))
        except OSError as exc:
            raise SpecError(f"cannot read graph file {spec!r}: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # json recurses once per nesting level
            raise SpecError(f"bad graph JSON in {spec!r}: {exc}") from exc
    parts = spec.split(":")
    try:
        if parts[0] == "circulant" and len(parts) == 3:
            n = int(parts[1])
            dists = [int(tok) for tok in parts[2].split(",") if tok != ""]
            return circulant(n, dists)
        if parts[0] == "moebius" and len(parts) == 2:
            return moebius(int(parts[1]))
        if parts[0] == "prism" and len(parts) == 2:
            return prism(int(parts[1]))
        if parts[0] in ("A", "B", "D") and len(parts) == 2:
            maker = {"A": family_a, "B": family_b, "D": family_d}[parts[0]]
            return maker(int(parts[1]))
    except ValueError as exc:
        raise SpecError(f"bad graph spec {spec!r}: {exc}") from exc
    raise SpecError(
        f"unrecognized graph spec {spec!r}; expected circulant:N:d1,d2 | "
        "moebius:N | prism:N | A:t | B:t | D:t | path to a JSON file"
    )


# Part of every cache key; bump it when the table format or the algorithm
# that produces the tables changes, so older entries are never read.
CACHE_FORMAT = 2


def _graph_cache_key(g: Graph, field) -> str:
    payload = json.dumps(
        {"format": CACHE_FORMAT, "graph": g.to_json_dict(), "field": field_name(field)},
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _k_polynomial_holds(g: Graph, table: BettiTable) -> bool:
    """The table's K-polynomial 1 - sum (-1)^i beta_ij t^j equals
    sum_F t^|F| (1-t)^(n-|F|) over the independent sets F of g; every cell
    must have 2 <= j <= n."""
    n = g.n
    lhs = [1] + [0] * n
    for (i, j), b in table.entries.items():
        lhs[j] -= b if i % 2 == 0 else -b
    rhs = [0] * (n + 1)
    for size, f in enumerate(independent_set_counts(g)):
        for k in range(n - size + 1):
            rhs[size + k] += f * comb(n - size, k) * (-1) ** k
    return lhs == rhs


def _read_cached(path: str, g: Graph, field) -> BettiTable | None:
    """The table stored at *path*, or None when it is missing, unreadable or
    inconsistent with the graph and field it is filed under."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            table = BettiTable.from_json_dict(json.load(fh))
        if (
            # JSON floats and booleans pass the checks below (8.0 == 8, True == 1)
            type(table.n) is not int
            or any(type(x) is not int for (i, j), b in table.entries.items() for x in (i, j, b))
            or table.n != g.n
            or table.field != field
            or table.zero_ideal != (g.edge_count == 0)
            or table.beta(0, 2) != g.edge_count
            # Hochster puts beta_ij in H~_{j-i-2}, so j >= i + 2; by Taylor's
            # resolution i + 1 quadrics have an lcm of degree <= 2i + 2.
            or any(not i + 2 <= j <= min(2 * i + 2, g.n) for i, j in table.entries)
            or not _k_polynomial_holds(g, table)
        ):
            return None
    except (FileNotFoundError, ValueError, KeyError, TypeError, RecursionError):
        return None  # missing, truncated, too deeply nested or hand-edited: recompute it
    return table


def _table_for(g: Graph, field, args) -> BettiTable:
    """Betti table with optional directory-backed caching."""
    cache_dir = getattr(args, "cache", None)
    use_cache = cache_dir and not getattr(args, "no_cache", False)
    if use_cache:
        try:
            os.makedirs(cache_dir, exist_ok=True)
        except OSError as exc:
            raise ValueError(f"cannot use cache directory {cache_dir!r}: {exc}") from exc
        path = os.path.join(cache_dir, _graph_cache_key(g, field) + ".json")
        table = _read_cached(path, g, field)
        if table is not None:
            return table
    _check_vertex_limit(g, args.limit_vertices, "--limit-vertices")
    table = hochster_betti_table(g, field, vertex_limit=args.limit_vertices)
    if use_cache:
        # A reader sees the old entry or the whole new one, never a partial write.
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(table.to_json_dict(), fh, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    return table


def _emit(args, payload: dict, human: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _fail(args, message: str, code: int) -> int:
    if getattr(args, "json", False):
        print(json.dumps({"error": message}, sort_keys=True))
    else:
        print(f"error: {message}", file=sys.stderr)
    return code


def _cmd_gen(args) -> int:
    g = parse_graph_spec(args.graph)
    print(json.dumps(g.to_json_dict(), sort_keys=True))
    return 0


def _cmd_betti(args) -> int:
    g = parse_graph_spec(args.graph)
    field = normalize_field(args.field)
    if args.json and args.csv:
        return _fail(args, "--json and --csv are mutually exclusive", 2)
    table = _table_for(g, field, args)
    if args.json:
        print(json.dumps(table.to_json_dict(), sort_keys=True))
    else:
        if table.zero_ideal:
            print(f"# zero ideal: graph on {g.n} vertices has no edges")
        print(table.to_csv(nonzero_only=args.nonzero), end="")
    return 0


def _cmd_reg(args) -> int:
    g = parse_graph_spec(args.graph)
    field = normalize_field(args.field)
    table = _table_for(g, field, args)
    if table.zero_ideal:
        payload = {"zero_ideal": True, "reg": None, "pd": None}
        _emit(args, payload, "zero ideal (edgeless graph): reg and pd undefined")
        return 0
    payload = {
        "reg": table.regularity,
        "pd": table.projective_dimension,
        "reg_quotient": table.regularity_quotient,
        "pd_quotient": table.projective_dimension_quotient,
    }
    human = (
        f"reg(I) = {payload['reg']}, pd(I) = {payload['pd']} "
        f"(quotient: reg = {payload['reg_quotient']}, pd = {payload['pd_quotient']})"
    )
    _emit(args, payload, human)
    return 0


def _cmd_euler(args) -> int:
    g = parse_graph_spec(args.graph)
    fields = [normalize_field(f) for f in (args.field or ["2"])]
    report = chi_report(g, fields)
    human_lines = [
        f"chi (f-vector)      = {report['f_vector']}",
        *(
            f"chi (homology, {name}) = {value}"
            for name, value in sorted(report["homology"].items())
        ),
        f"chi (-I(G,-1))      = {report['neg_indpoly']}",
        f"agree: {report['agree']}",
    ]
    _emit(args, report, "\n".join(human_lines))
    return 0


def _cmd_indpoly(args) -> int:
    g = parse_graph_spec(args.graph)
    poly = independence_polynomial(g)
    _emit(args, poly.to_json_dict(), f"{poly}")
    return 0


def _cmd_formula(args) -> int:
    if args.formula == "reg-hat-j":
        payload = {"value": reg_hat_j(args.n, args.j)}
        _emit(args, payload, str(payload["value"]))
    elif args.formula == "reg-cubic":
        payload = {"value": reg_cubic(CubicParams(args.n, args.a))}
        _emit(args, payload, str(payload["value"]))
    elif args.formula == "hoshino":
        poly = hoshino_poly(args.n, args.variant)
        _emit(args, poly.to_json_dict(), f"{poly}")
    elif args.formula == "bounds":
        if args.kind in ("A", "B", "D"):
            reg_b, pd_b = bound_family(args.kind, args.t)
        else:
            reg_b, pd_b = bound_cubic(args.kind, args.t)
        payload = {"reg_bound": reg_b, "pd_bound": pd_b}
        _emit(args, payload, f"reg <= {reg_b}" + (f", pd <= {pd_b}" if pd_b is not None else ""))
    return 0


def _cmd_verify(args) -> int:
    # Each suite gets the flags its signature names; unset ones keep its defaults.
    takes = inspect.signature(SUITES[args.suite]).parameters
    kwargs = {
        name: getattr(args, name)
        for name in ("nmax", "tmax", "count", "seed")
        if name in takes and getattr(args, name) is not None
    }
    if "field" in takes:
        kwargs["field"] = normalize_field(args.field)
    try:
        report = run_suite(args.suite, **kwargs)
    except ValueError as exc:
        return _fail(args, str(exc), 2)
    if args.json:
        print(json.dumps(report, sort_keys=True))
    else:
        s = report["summary"]
        print(f"suite {report['suite']}: {s['passed']}/{s['total']} passed")
        for rec in report["instances"]:
            if not rec["pass"]:
                print(f"  FAIL {json.dumps(rec['inputs'], sort_keys=True)}")
    return 0 if report["ok"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circreg",
        description="Betti tables, regularity and pd of edge ideals of circulant and ladder graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, cache=False):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--field", default="2", help="coefficient field: a prime or Q")
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="ignored: the sweep is serial; kept like the sweep's workers, which perfbench/run.py reads",
        )
        p.add_argument(
            "--limit-vertices",
            type=int,
            default=DEFAULT_VERTEX_LIMIT,
            help="refuse sweeps above this vertex count",
        )
        if cache:
            p.add_argument("--cache", help="directory for Betti table cache")
            p.add_argument("--no-cache", action="store_true", help="bypass the cache")

    p = sub.add_parser("gen", help="emit a graph as JSON")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("betti", help="full graded Betti table")
    p.add_argument("graph")
    p.add_argument("--csv", action="store_true", help="CSV table output (the default)")
    p.add_argument("--nonzero", action="store_true", help="emit only nonzero entries")
    add_common(p, cache=True)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("reg", help="regularity and projective dimension")
    p.add_argument("graph")
    add_common(p, cache=True)
    p.set_defaults(func=_cmd_reg)

    p = sub.add_parser("euler", help="reduced Euler characteristic, three ways")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument(
        "--field",
        action="append",
        help="field for the homology route (repeatable)",
    )
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("indpoly", help="independence polynomial")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_indpoly)

    p = sub.add_parser("formula", help="closed forms and bounds")
    fsub = p.add_subparsers(dest="formula", required=True)
    q = fsub.add_parser("reg-hat-j")
    q.add_argument("n", type=int)
    q.add_argument("j", type=int)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_formula)
    q = fsub.add_parser("reg-cubic")
    q.add_argument("n", type=int)
    q.add_argument("a", type=int)
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_formula)
    q = fsub.add_parser("hoshino")
    q.add_argument("n", type=int)
    q.add_argument("--variant", choices=("printed", "corrected"), default="corrected")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_formula)
    q = fsub.add_parser("bounds")
    q.add_argument("kind", choices=("A", "B", "D", "moebius", "prism"))
    q.add_argument("t", type=int, help="t for families, n for the cubic kinds")
    q.add_argument("--json", action="store_true")
    q.set_defaults(func=_cmd_formula)

    p = sub.add_parser("verify", help="run a verification sweep")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--nmax", type=int, default=None)
    p.add_argument("--tmax", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--field", default="2")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="ignored: the sweep is serial; kept because perfbench/run.py times verify --workers 2",
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # bad input, including spec, vertex-limit and zero-ideal errors
        return _fail(args, str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
