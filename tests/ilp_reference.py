"""Row-by-row Python checks of a model's point, the reference for the
vectorized ones in src.

``Model.feasible_objective`` checks a warm start on the lowered arrays of
``Model.to_matrices``.  These walk the ``Constraint`` objects instead,
with the same bounds, integrality and row rules and the same tolerance,
so a test can hold the two against each other and check a solved model's
rows without going through the lowering.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.ilp import Constraint, ConstraintSense, Model


def row_bounds(con: Constraint) -> Tuple[float, float]:
    """``(lower, upper)`` of the lowered row of ``con``: its terms bounded by
    minus its constant on the side(s) its sense names."""
    rhs = -con.expression.constant
    if con.sense is ConstraintSense.LE:
        return (-math.inf, rhs)
    if con.sense is ConstraintSense.GE:
        return (rhs, math.inf)
    return (rhs, rhs)


def row_holds(con: Constraint, tolerance: float = 1e-6) -> bool:
    """Whether ``con`` holds under its variables' ``.value``, up to ``tolerance``."""
    value = con.expression.evaluate()
    if con.sense is ConstraintSense.LE:
        return value <= tolerance
    if con.sense is ConstraintSense.GE:
        return value >= -tolerance
    return abs(value) <= tolerance


def violated_rows(model: Model, tolerance: float = 1e-5) -> List[Constraint]:
    """The constraints violated by the current variable values."""
    return [con for con in model.constraints if not row_holds(con, tolerance)]


def reference_feasible_objective(model: Model, values: Dict[str, float],
                                 tolerance: float = 1e-6) -> Optional[float]:
    """``Model.feasible_objective`` one variable and one row at a time.

    Every variable's ``.value`` is ``None`` afterwards.
    """
    for var in model.variables:
        value = values.get(var.name)
        if value is None:
            return None
        if var.kind != "continuous" and abs(value - round(value)) > tolerance:
            return None
        if (var.low is not None and value < var.low - tolerance) or (
            var.up is not None and value > var.up + tolerance
        ):
            return None
    try:
        for var in model.variables:
            var.value = values[var.name]
        if violated_rows(model, tolerance):
            return None
        return model.objective_value()
    finally:
        for var in model.variables:
            var.value = None
