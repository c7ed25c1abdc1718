"""Coefficient tables: pertinent-matrix counts indexed by number of ones."""

from __future__ import annotations

from dataclasses import dataclass

from .matrices import TypeSpec

ROUTE_ENUMERATION = "enumeration"
ROUTE_DAG_CENSUS = "dag"
ROUTE_GENERATING_FUNCTION = "gf"

# each route's name is also its command-line token and its JSON value
ROUTES = (ROUTE_ENUMERATION, ROUTE_DAG_CENSUS, ROUTE_GENERATING_FUNCTION)


@dataclass(frozen=True)
class CoefficientTable:
    """Counts of pertinent matrices with exactly i one-valued variable cells.

    ``coeffs[i]`` covers i = 0 .. spec.i_max; ``route`` records which of the
    independent computations produced the numbers.
    """

    spec: TypeSpec
    coeffs: tuple[int, ...]
    route: str

    def __post_init__(self):
        if self.route not in ROUTES:
            raise ValueError(f"unknown route {self.route!r}")
        spec = self.spec
        if len(self.coeffs) != spec.i_max + 1:
            raise ValueError(
                f"expected {spec.i_max + 1} coefficients for {spec.family}_{spec.n}, "
                f"got {len(self.coeffs)}"
            )
        if any(c < 0 for c in self.coeffs):
            raise ValueError("coefficients must be non-negative")
        if self.coeffs[0] != 1:
            raise ValueError("the all-zeros assignment is always pertinent")
        # The count at i_max is forced: 2n candidate zero lines for family A,
        # 2 for family B (row 1 or column 1), and a single one when n = 1.
        if spec.family in ("A", "B"):
            expected = 1 if spec.n == 1 else (2 * spec.n if spec.family == "A" else 2)
            if self.coeffs[-1] != expected:
                raise ValueError(
                    f"family {spec.family} must end with {expected}, got {self.coeffs[-1]}"
                )

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
