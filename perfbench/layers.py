"""The layer boundaries the traced run wraps, and the per-layer metrics
computed from one traced pass.

Span names are ``<layer>.<what>``; a layer is a package module (graphs,
complexes, homology, betti, verify, cli).  ``formulas`` is negligible and is
not traced.  Paths name the attribute the calling layer looks up, so
``circreg.verify.hochster_betti_table`` is the sweep as verify calls it and
``circreg.betti.homology_dims_from_sizes`` is homology as the sweep calls it.
"""

from __future__ import annotations

from tracer import END, NAME, START, Target, self_times


def _count_orbit_reps(tracer, args, kwargs, result):
    tracer.count("betti.orbit_reps", len(result))


def _keep_sweep_chunk(tracer, args, kwargs, result):
    # (adjacency, items); the cone test that splits hits from misses is
    # replayed after the pass so that it adds nothing to traced time.
    tracer.sweeps.append((args[0], args[2]))


def _count_dims(tracer, args, kwargs, result):
    tracer.count("homology.calls")
    tracer.count("betti.faces", sum(len(group) for group in args[0]))


def _count_rank(tracer, args, kwargs, result):
    tracer.count("homology.rank_calls")
    tracer.count("homology.rank_cells", len(args[0]) * len(args[1]))


def _count_instances(tracer, args, kwargs, result):
    tracer.count("verify.instances", len(result["instances"]))


_GRAPH_METHODS = (
    "connected_components",
    "induced",
    "complement",
    "is_chordal",
    "is_gap_free",
    "is_claw_free",
    "without_vertex",
    "without_closed_neighborhood",
    "disjoint_union",
    "to_json_dict",
)
_GRAPH_BUILDERS = ("circulant", "moebius", "prism", "family_a", "family_b", "family_d", "davis_domke", "random_graph")
_COMPLEX_ROUTES = ("independence_complex", "euler_via_independence", "independence_polynomial", "transfer_matrix_indpoly")

ORBIT = "circreg.betti._subset_orbit_reps"
SWEEP = "circreg.betti._sweep_chunk"
DIMS = "circreg.betti.homology_dims_from_sizes"
RANK = "circreg.homology._boundary_rank"
TABLE = "circreg.verify.hochster_betti_table"
SUITE = "circreg.cli.run_suite"

TARGETS = (
    Target(SUITE, "verify.run_suite", _count_instances),
    Target(TABLE, "betti.table"),
    Target(ORBIT, "betti.orbit", _count_orbit_reps),
    Target(SWEEP, "betti.sweep", _keep_sweep_chunk),
    Target(DIMS, "homology.dims", _count_dims),
    Target(RANK, "homology.rank", _count_rank),
    Target("circreg.verify.euler_from_homology", "homology.euler"),
    Target("circreg.complexes.SimplicialComplex.faces_by_size", "complexes.faces_by_size"),
    Target("circreg.complexes.SimplicialComplex.euler_char", "complexes.euler_char"),
    *(Target(f"circreg.verify.{name}", f"complexes.{name}") for name in _COMPLEX_ROUTES),
    *(Target(f"circreg.graphs.Graph.{name}", f"graphs.{name}") for name in _GRAPH_METHODS),
    *(Target(f"circreg.verify.{name}", f"graphs.{name}") for name in _GRAPH_BUILDERS),
)
ALL = frozenset(t.path for t in TARGETS)

# Paths each metric needs.  A self time needs every target, because a
# missing child would silently be counted as its parent's own work.
NEEDS = {
    "betti.orbit_s": {ORBIT},
    "betti.orbit_reps": {ORBIT},
    "homology.rank_s": {RANK},
    "homology.rank_calls": {RANK},
    "homology.rank_cells": {RANK},
    "homology.calls": {DIMS},
    "homology.self_s": ALL,
    "betti.sweep_self_s": ALL,
    "betti.faces": {DIMS},
    "betti.memo_hit_ratio": {DIMS, SWEEP},
    "betti.tables": {TABLE},
    "verify.instances": {SUITE},
    "graphs.s": ALL,
    "complexes.s": ALL,
    "verify.self_s": ALL,
    "cli.self_s": ALL,
}


def _non_cone_subsets(adj, items) -> int:
    n = 0
    for mask, _count in items:
        rest = mask
        while rest:
            low = rest & -rest
            if not adj[low.bit_length() - 1] & mask:
                break
            rest ^= low
        else:
            n += 1
    return n


def pass_metrics(tracer) -> dict:
    """Per-layer metrics of one traced pass, leaving out any whose wrapped
    function was missing."""
    spans = tracer.spans
    own = self_times(spans)
    dur: dict[str, float] = {}
    self_by_layer: dict[str, float] = {}
    for s, t in zip(spans, own):
        name = s[NAME]
        dur[name] = dur.get(name, 0.0) + s[END] - s[START]
        key = name if name in ("betti.sweep", "homology.rank") else name.split(".")[0]
        self_by_layer[key] = self_by_layer.get(key, 0.0) + t
    counts = tracer.counts
    non_cone = sum(_non_cone_subsets(adj, items) for adj, items in tracer.sweeps)
    calls = counts.get("homology.calls", 0)
    values = {
        "betti.orbit_s": dur.get("betti.orbit", 0.0),
        "betti.orbit_reps": counts.get("betti.orbit_reps", 0),
        "homology.rank_s": dur.get("homology.rank", 0.0),
        "homology.rank_calls": counts.get("homology.rank_calls", 0),
        "homology.rank_cells": counts.get("homology.rank_cells", 0),
        "homology.calls": calls,
        "homology.self_s": self_by_layer.get("homology", 0.0),
        "betti.sweep_self_s": self_by_layer.get("betti.sweep", 0.0),
        "betti.faces": counts.get("betti.faces", 0),
        "betti.memo_hit_ratio": 1 - calls / non_cone if non_cone else 0.0,
        "betti.tables": sum(1 for s in spans if s[NAME] == "betti.table"),
        "verify.instances": counts.get("verify.instances", 0),
        "graphs.s": self_by_layer.get("graphs", 0.0),
        "complexes.s": self_by_layer.get("complexes", 0.0),
        "verify.self_s": self_by_layer.get("verify", 0.0),
        "cli.self_s": self_by_layer.get("cli", 0.0),
    }
    missing = set(tracer.missing)
    return {k: v for k, v in values.items() if not NEEDS[k] & missing}
