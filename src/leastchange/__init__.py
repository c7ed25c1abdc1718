"""Exact combinatorics of least-change determinant perturbation.

Counts the 0/1 matrices of three random-matrix families whose permanent
equals the family target, three independent ways, and assembles the exact
probability polynomials that a single-entry perturbation changes a
determinant as little as possible.

Exports and submodules load on first access (PEP 562).  Every route and
every value-set scan runs on Python ints and Fractions: the package imports
nothing outside the standard library.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports
_EXPORTED_BY = {
    "dags": "Digraph count_dags_by_edges is_acyclic",
    "enumeration": "count_pertinent has_perfect_matching",
    "errors": "BudgetError DimensionError PatternError",
    "genfunc": "gf_deficiency_table gf_edge_table gf_reachability_table",
    "matrices": "BinaryMatrix RationalMatrix TypeSpec determinant permanent support",
    "probability": "ChainReport CurveSample ProbabilityPolynomial emit_curve family_tables "
    "find_order_violation",
    "tables": "ROUTE_DAG_CENSUS ROUTE_ENUMERATION ROUTE_GENERATING_FUNCTION CoefficientTable",
    "values": "ValueSet",
    "valuesets": "AttainingSet CheckReport ComplementReport InclusionReport "
    "attaining_matrices attaining_patterns check_inclusion complement_identity_check "
    "counterexample_report least_determinant least_determinant_binary",
}
_EXPORTS = {name: module for module, names in _EXPORTED_BY.items() for name in names.split()}
_SUBMODULES = {*_EXPORTED_BY, "cli", "reference"}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
