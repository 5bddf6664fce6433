"""Exact homological invariants of edge ideals of circulant and ladder
graphs: graded Betti tables by subset sweep, regularity and projective
dimension, independence polynomials, and the closed forms they verify."""

from .graphs import (
    Graph,
    circulant,
    complete_graph,
    cycle_graph,
    path_graph,
    empty_graph,
    moebius,
    prism,
    family_a,
    family_b,
    family_d,
    cycle_decomposition,
    davis_domke,
    davis_domke_graph,
    cochordal_split_c4j,
    is_cochordal_cover,
    are_isomorphic,
    random_graph,
)
from .complexes import (
    IntPoly,
    SimplicialComplex,
    independence_complex,
    independence_polynomial,
    euler_via_independence,
    stanley_reisner_nonfaces,
    complex_from_squarefree_generators,
    transfer_matrix_indpoly,
)
from .homology import (
    RATIONALS,
    normalize_field,
    reduced_homology_dims,
    euler_from_homology,
    boundary_matrix,
)
from .betti import (
    BettiTable,
    ZeroIdealError,
    VertexLimitError,
    hochster_betti_table,
    RegDecision,
    decide_regularity,
    property_suite,
    betti_across_fields,
)
from .formulas import (
    CubicParams,
    reg_hat_j,
    reg_cubic,
    hoshino_poly,
    hoshino_for,
    bound_family,
    bound_cubic,
)
from .verify import run_suite, chi_report

__version__ = "0.1.0"
