"""Value sets of the variable elements: finite sets of fractions, or an
interval around 0.

Kept apart from ``valuesets`` so that reading a value set loads no scan:
over an interval, ``least`` answers from a coefficient table.
"""

from __future__ import annotations

from fractions import Fraction

from .matrices import _Record


class ValueSet(_Record):
    """Finite rational value set, or an interval around 0."""

    kind: str
    values: tuple[Fraction, ...] = ()
    interval: tuple[Fraction, Fraction] | None = None

    @classmethod
    def discrete(cls, values) -> "ValueSet":
        vals = sorted({Fraction(v) for v in values})
        if Fraction(0) not in vals:
            raise ValueError("a value set must contain 0")
        if len(vals) == 1:
            raise ValueError("a discrete value set needs at least one nonzero value")
        return cls("discrete", tuple(vals))

    @classmethod
    def continuous(cls, lo, hi) -> "ValueSet":
        lo, hi = Fraction(lo), Fraction(hi)
        if not lo < hi:
            raise ValueError("interval must be non-trivial")
        if not lo <= 0 <= hi:
            raise ValueError("a value set must contain 0")
        return cls("continuous", interval=(lo, hi))

    @classmethod
    def parse(cls, text: str) -> "ValueSet":
        """Literal like ``0,1/2,2``: comma-separated fractions."""
        values = []
        for token in text.split(","):
            token = token.strip()
            if not token:
                raise ValueError("empty entry in value-set literal")
            values.append(Fraction(token))
        return cls.discrete(values)

    def contains(self, value) -> bool:
        value = Fraction(value)
        if self.kind == "discrete":
            return value in self.values
        lo, hi = self.interval
        return lo <= value <= hi

    def __str__(self):
        if self.kind == "discrete":
            return "{" + ", ".join(str(v) for v in self.values) + "}"
        return f"[{self.interval[0]}, {self.interval[1]}]"
