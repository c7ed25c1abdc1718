"""Exact combinatorics of least-change determinant perturbation.

Counts the 0/1 matrices of three random-matrix families whose permanent
equals the family target, three independent ways, and assembles the exact
probability polynomials that a single-entry perturbation changes a
determinant as little as possible.
"""

from .dags import (
    Digraph,
    count_dags_by_edges,
    digraph_to_matrix,
    is_acyclic,
    matrix_to_digraph,
)
from .enumeration import (
    ExtremesReport,
    count_pertinent,
    has_perfect_matching,
    is_pertinent,
    total_pertinent,
    verify_extremes,
)
from .errors import BudgetError, DimensionError, PatternError
from .genfunc import (
    Polynomial,
    WeightedSeries,
    edge_polynomial,
    gf_edge_table,
    one_plus_t_power,
    reciprocal,
    z_series_neg,
)
from .matrices import (
    BinaryMatrix,
    RationalMatrix,
    TypeSpec,
    determinant,
    permanent_expansion,
    support,
)
from .probability import (
    ChainReport,
    CurveSample,
    ProbabilityPolynomial,
    emit_curve,
    family_tables,
    find_order_violation,
)
from .tables import (
    ROUTE_DAG_CENSUS,
    ROUTE_ENUMERATION,
    ROUTE_GENERATING_FUNCTION,
    CoefficientTable,
)
from .valuesets import (
    AttainingSet,
    CheckReport,
    ComplementReport,
    InclusionReport,
    ValueSet,
    attaining_matrices,
    attaining_patterns,
    check_inclusion,
    complement_identity_check,
    counterexample_report,
    least_determinant,
    least_determinant_binary,
)

__version__ = "0.1.0"
