"""Coefficient tables: pertinent-matrix counts indexed by number of ones."""

from __future__ import annotations

import math
import operator

from .errors import DimensionError
from .matrices import TypeSpec, _Record

ROUTE_ENUMERATION = "enumeration"
ROUTE_DAG_CENSUS = "dag"
ROUTE_GENERATING_FUNCTION = "gf"

# each route's name is also its command-line token and its JSON value
ROUTES = (ROUTE_ENUMERATION, ROUTE_DAG_CENSUS, ROUTE_GENERATING_FUNCTION)

# largest n each route reaches: row-DP states (planes over the 2^n column
# masks, equal ones merged), 3^C(n,2) pair states, series terms
ROUTE_MAX_N = {ROUTE_ENUMERATION: 5, ROUTE_DAG_CENSUS: 6, ROUTE_GENERATING_FUNCTION: 24}


def check_reach(route: str, n: int) -> None:
    """Raise ``DimensionError`` unless ``route`` reaches dimension n."""
    if not 1 <= n <= ROUTE_MAX_N[route]:
        raise DimensionError(f"route {route} supports n = 1..{ROUTE_MAX_N[route]}, got {n}")


class CoefficientTable(_Record):
    """Counts of pertinent matrices with exactly i one-valued variable cells.

    ``coeffs[i]`` covers i = 0 .. spec.i_max; ``route`` records which of the
    independent computations produced the numbers.  Every route builds its
    table through ``from_counts``, so the checks below hold for all of them.
    """

    spec: TypeSpec
    coeffs: tuple[int, ...]
    route: str

    def __init__(self, spec: TypeSpec, coeffs: tuple[int, ...], route: str):
        if route not in ROUTES:
            raise ValueError(f"unknown route {route!r}")
        if len(coeffs) != spec.i_max + 1:
            raise ValueError(
                f"expected {spec.i_max + 1} coefficients for {spec.family}_{spec.n}, "
                f"got {len(coeffs)}"
            )
        if any(c < 0 for c in coeffs):
            raise ValueError("coefficients must be non-negative")
        if coeffs[0] != 1:
            raise ValueError("the all-zeros assignment is always pertinent")
        # The count at i_max is forced: 2n candidate zero lines for family A,
        # 2 for family B (row 1 or column 1), a single one when n = 1, and
        # n! transitive tournaments for family C.
        if spec.family == "C":
            expected = math.factorial(spec.n)
        else:
            expected = 1 if spec.n == 1 else (2 * spec.n if spec.family == "A" else 2)
        if coeffs[-1] != expected:
            raise ValueError(f"family {spec.family} must end with {expected}, got {coeffs[-1]}")
        super().__init__(spec, coeffs, route)

    @classmethod
    def from_counts(cls, spec: TypeSpec, counts, route: str) -> "CoefficientTable":
        """Table from a route's histogram over 0 .. m ones (or any prefix of it).

        Counts must be integers, kept as Python ints; a pertinent assignment
        with more than i_max ones means the family arithmetic or the route
        is wrong.
        """
        coeffs = [operator.index(c) for c in counts]
        if any(coeffs[spec.i_max + 1 :]):
            raise RuntimeError(
                f"route {route} counts an assignment with more than i_max={spec.i_max} "
                f"ones for {spec.family}_{spec.n}"
            )
        return cls(spec, tuple(coeffs[: spec.i_max + 1]), route)

    @property
    def total(self) -> int:
        return sum(self.coeffs)

    def as_dict(self) -> dict:
        """JSON-ready view with a stable field order."""
        return {
            "family": self.spec.family,
            "n": self.spec.n,
            "m": self.spec.m,
            "i_max": self.spec.i_max,
            "route": self.route,
            "coeffs": list(self.coeffs),
            "total": self.total,
        }
