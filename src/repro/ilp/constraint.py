"""Linear constraints.

A :class:`Constraint` stores the normalized form ``expr <sense> 0`` where
``expr`` already contains the (negated) right-hand side.  The solver lowers it
to a row ``lhs_coeffs . x  in  [lower, upper]`` of a
``scipy.optimize.LinearConstraint``.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.ilp.expression import LinExpr


class ConstraintSense(enum.Enum):
    """Direction of a linear constraint."""

    LE = "<="
    GE = ">="
    EQ = "=="


class Constraint:
    """A linear constraint ``expression (<=|>=|==) 0``."""

    __slots__ = ("expression", "sense", "name")

    def __init__(self, expression: LinExpr, sense: ConstraintSense, name: Optional[str] = None) -> None:
        if not isinstance(expression, LinExpr):
            raise TypeError("constraint expression must be a LinExpr")
        self.expression = expression
        self.sense = sense
        self.name = name

    # ------------------------------------------------------------------ API
    def is_trivially_satisfied(self) -> bool:
        """True when the constraint has no variables and already holds."""
        if self.expression.terms:
            return False
        value = self.expression.constant
        if self.sense is ConstraintSense.LE:
            return value <= 1e-9
        if self.sense is ConstraintSense.GE:
            return value >= -1e-9
        return abs(value) <= 1e-9

    def is_trivially_infeasible(self) -> bool:
        """True when the constraint has no variables and can never hold."""
        return not self.expression.terms and not self.is_trivially_satisfied()

    def __repr__(self) -> str:
        label = f" [{self.name}]" if self.name else ""
        return f"Constraint({self.expression!r} {self.sense.value} 0{label})"
