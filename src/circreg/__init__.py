"""Exact homological invariants of edge ideals of circulant and ladder
graphs: graded Betti tables by subset sweep, regularity and projective
dimension, independence polynomials, and the closed forms they verify."""

from .graphs import (
    Graph,
    circulant,
    moebius,
    prism,
    family_a,
    family_b,
    family_d,
    davis_domke,
    cochordal_split_c4j,
    is_cochordal_cover,
    random_graph,
)
from .complexes import (
    IntPoly,
    SimplicialComplex,
    independence_complex,
    independence_polynomial,
    euler_via_independence,
    transfer_matrix_indpoly,
)
from .homology import (
    RATIONALS,
    normalize_field,
    euler_from_homology,
)
from .betti import (
    BettiTable,
    ZeroIdealError,
    VertexLimitError,
    hochster_betti_table,
    RegDecision,
    decide_regularity,
)
from .formulas import (
    reg_hat_j,
    reg_cubic,
    hoshino_poly,
    hoshino_for,
    bound_family,
    bound_cubic,
)
from .verify import run_suite, chi_report, property_suite

__version__ = "0.1.0"
