"""Linear expressions and decision variables.

A :class:`LinExpr` is an affine expression ``sum(coef_i * var_i) + constant``.
Expressions support the natural arithmetic operators so models read like the
mathematical formulation in the paper, e.g. ``alpha * t_end + beta * lin_sum(gaps)``.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Mapping, Optional, Union

Number = Union[int, float]

_VALID_KINDS = ("continuous", "integer", "binary")

_counter = itertools.count()


class Variable:
    """A single decision variable.

    Parameters
    ----------
    name:
        Human readable identifier; must be unique within a model.
    low, up:
        Lower/upper bounds.  ``None`` means unbounded in that direction
        (binaries are always clamped to ``[0, 1]``).
    kind:
        ``"continuous"``, ``"integer"`` or ``"binary"``.
    """

    __slots__ = ("name", "low", "up", "kind", "value", "index", "_uid")

    def __init__(
        self,
        name: str,
        low: Optional[Number] = 0,
        up: Optional[Number] = None,
        kind: str = "continuous",
    ) -> None:
        if kind not in _VALID_KINDS:
            raise ValueError(f"unknown variable kind {kind!r}; expected one of {_VALID_KINDS}")
        if kind == "binary":
            low, up = 0, 1
        if low is not None and up is not None and low > up:
            raise ValueError(f"variable {name!r}: lower bound {low} exceeds upper bound {up}")
        self.name = name
        self.low = low
        self.up = up
        self.kind = kind
        #: Filled in by the solver after a successful solve.
        self.value: Optional[float] = None
        #: Column index assigned when the owning model is lowered to matrices.
        self.index: Optional[int] = None
        self._uid = next(_counter)

    # -- hashing / identity -------------------------------------------------
    def __hash__(self) -> int:
        return self._uid

    def __eq__(self, other: object):  # type: ignore[override]
        # ``==`` is reserved for building equality constraints.
        if isinstance(other, (Variable, LinExpr, int, float)):
            return LinExpr.from_term(self).__eq__(other)
        return NotImplemented

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        return LinExpr.from_term(self) + other

    __radd__ = __add__

    def __sub__(self, other):
        return LinExpr.from_term(self) - other

    def __rsub__(self, other):
        return (-LinExpr.from_term(self)) + other

    def __mul__(self, other):
        return LinExpr.from_term(self) * other

    __rmul__ = __mul__

    def __neg__(self):
        return LinExpr.from_term(self, coefficient=-1.0)

    def __le__(self, other):
        return LinExpr.from_term(self) <= other

    def __ge__(self, other):
        return LinExpr.from_term(self) >= other

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, kind={self.kind!r}, low={self.low}, up={self.up})"

    # -- solution access ----------------------------------------------------
    @property
    def solution(self) -> float:
        """Value after solve, rounded for integer/binary variables.

        Raises
        ------
        RuntimeError
            If the owning model has not been solved (or was infeasible).
        """
        if self.value is None:
            raise RuntimeError(f"variable {self.name!r} has no value; solve the model first")
        if self.kind in ("integer", "binary"):
            return float(round(self.value))
        return float(self.value)

    def as_bool(self, tolerance: float = 1e-6) -> bool:
        """Interpret a (binary) variable's solution as a boolean."""
        return self.solution > 0.5 + 0.0 * tolerance


class LinExpr:
    """An affine linear expression ``sum(coef * var) + constant``."""

    __slots__ = ("terms", "constant")

    def __init__(
        self,
        terms: Optional[Mapping[Variable, Number]] = None,
        constant: Number = 0.0,
    ) -> None:
        self.terms: Dict[Variable, float] = {}
        if terms:
            for var, coef in terms.items():
                if coef:
                    self.terms[var] = float(coef)
        self.constant = float(constant)

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_term(cls, var: Variable, coefficient: Number = 1.0) -> "LinExpr":
        return cls({var: coefficient})

    @classmethod
    def constant_expr(cls, value: Number) -> "LinExpr":
        return cls(constant=value)

    @classmethod
    def coerce(cls, value: Union["LinExpr", Variable, Number]) -> "LinExpr":
        """Convert a variable or number into a :class:`LinExpr`."""
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Variable):
            return cls.from_term(value)
        if isinstance(value, (int, float)):
            return cls.constant_expr(value)
        raise TypeError(f"cannot build a linear expression from {type(value).__name__}")

    def copy(self) -> "LinExpr":
        return LinExpr(dict(self.terms), self.constant)

    # -- arithmetic ---------------------------------------------------------
    def _add_in_place(self, other: "LinExpr", sign: float) -> "LinExpr":
        result = self.copy()
        for var, coef in other.terms.items():
            new_coef = result.terms.get(var, 0.0) + sign * coef
            if abs(new_coef) < 1e-15:
                result.terms.pop(var, None)
            else:
                result.terms[var] = new_coef
        result.constant += sign * other.constant
        return result

    def __add__(self, other):
        return self._add_in_place(LinExpr.coerce(other), 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add_in_place(LinExpr.coerce(other), -1.0)

    def __rsub__(self, other):
        return LinExpr.coerce(other)._add_in_place(self, -1.0)

    def __mul__(self, scalar):
        if isinstance(scalar, (Variable, LinExpr)):
            raise TypeError("products of variables are not linear")
        if not isinstance(scalar, (int, float)):
            return NotImplemented
        return LinExpr({v: c * scalar for v, c in self.terms.items()}, self.constant * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    # -- comparisons build constraints ---------------------------------------
    def __le__(self, other):
        from repro.ilp.constraint import Constraint, ConstraintSense

        return Constraint(self - LinExpr.coerce(other), ConstraintSense.LE)

    def __ge__(self, other):
        from repro.ilp.constraint import Constraint, ConstraintSense

        return Constraint(self - LinExpr.coerce(other), ConstraintSense.GE)

    def __eq__(self, other):  # type: ignore[override]
        from repro.ilp.constraint import Constraint, ConstraintSense

        if isinstance(other, (LinExpr, Variable, int, float)):
            return Constraint(self - LinExpr.coerce(other), ConstraintSense.EQ)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    # -- evaluation ----------------------------------------------------------
    def evaluate(self, values: Optional[Mapping[Variable, Number]] = None) -> float:
        """Evaluate the expression.

        If ``values`` is not given, uses each variable's ``.value`` from the
        last solve.
        """
        total = self.constant
        for var, coef in self.terms.items():
            if values is not None:
                val = float(values[var])
            else:
                if var.value is None:
                    raise RuntimeError(f"variable {var.name!r} has no value; solve the model first")
                val = float(var.value)
            total += coef * val
        return total

    @property
    def variables(self) -> list:
        return list(self.terms.keys())

    def __repr__(self) -> str:
        parts = []
        for var, coef in self.terms.items():
            if coef == 1:
                parts.append(var.name)
            elif coef == -1:
                parts.append(f"-{var.name}")
            else:
                parts.append(f"{coef:g}*{var.name}")
        if self.constant or not parts:
            parts.append(f"{self.constant:g}")
        return " + ".join(parts).replace("+ -", "- ")


def lin_sum(items: Iterable[Union[LinExpr, Variable, Number]]) -> LinExpr:
    """Sum an iterable of expressions/variables/numbers into one :class:`LinExpr`.

    Equivalent to ``sum(items)`` but avoids building a long chain of
    intermediate expressions and accepts an empty iterable.
    """
    terms: Dict[Variable, float] = {}
    constant = 0.0
    for item in items:
        expr = LinExpr.coerce(item)
        constant += expr.constant
        for var, coef in expr.terms.items():
            terms[var] = terms.get(var, 0.0) + coef
    cleaned = {v: c for v, c in terms.items() if abs(c) > 1e-15}
    return LinExpr(cleaned, constant)
