"""MILP model container.

A :class:`Model` owns variables, constraints and an objective, and knows how
to lower itself into the sparse matrix form the solver backends consume
(``scipy.optimize.milp`` for the HiGHS backend, the same arrays for the
pure-Python branch and bound).
"""

from __future__ import annotations

import enum
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.ilp.constraint import Constraint
from repro.ilp.expression import LinExpr, Number, Variable
from repro.obs.trace import span as obs_span


class CsrMatrix(NamedTuple):
    """A compressed-sparse-row matrix as plain numpy arrays.

    Row ``r`` holds ``data[indptr[r]:indptr[r + 1]]`` at the columns
    ``indices[indptr[r]:indptr[r + 1]]``, sorted ascending; no zero is stored.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]


class ObjectiveSense(enum.Enum):
    MINIMIZE = "minimize"
    MAXIMIZE = "maximize"


class Objective:
    """Objective function: an expression plus a direction."""

    __slots__ = ("expression", "sense")

    def __init__(self, expression: LinExpr, sense: ObjectiveSense = ObjectiveSense.MINIMIZE) -> None:
        self.expression = LinExpr.coerce(expression)
        self.sense = sense

    def value(self) -> float:
        """Objective value under the current variable values."""
        return self.expression.evaluate()

    def __repr__(self) -> str:
        return f"Objective({self.sense.value} {self.expression!r})"


class Model:
    """A mixed-integer linear program.

    The model follows the familiar modeling-layer pattern: create variables
    through :meth:`add_var` / :meth:`add_binary` / :meth:`add_integer`, add
    constraints with :meth:`add_constraint`, set the objective and call
    :meth:`solve`.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self.objective: Optional[Objective] = None
        #: A proven lower bound on the minimized objective, or ``None``.
        #: :func:`repro.ilp.solve_model` returns a feasible warm start whose
        #: objective meets it as OPTIMAL without running a backend, so
        #: whoever builds the model is responsible for its validity.
        self.lower_bound: Optional[float] = None
        self._names: Dict[str, Variable] = {}

    # ------------------------------------------------------------ variables
    def add_var(
        self,
        name: str,
        low: Optional[Number] = 0,
        up: Optional[Number] = None,
        kind: str = "continuous",
    ) -> Variable:
        """Create a variable, register it and return it.

        Variable names must be unique; a duplicate name raises ``ValueError``
        to catch modeling bugs early (silently reusing a variable is a common
        source of wrong-but-feasible formulations).
        """
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r} in model {self.name!r}")
        var = Variable(name, low=low, up=up, kind=kind)
        self.variables.append(var)
        self._names[name] = var
        return var

    def add_binary(self, name: str) -> Variable:
        return self.add_var(name, kind="binary")

    def add_integer(self, name: str, low: Optional[Number] = 0, up: Optional[Number] = None) -> Variable:
        return self.add_var(name, low=low, up=up, kind="integer")

    def add_continuous(self, name: str, low: Optional[Number] = 0, up: Optional[Number] = None) -> Variable:
        return self.add_var(name, low=low, up=up, kind="continuous")

    def get_var(self, name: str) -> Variable:
        return self._names[name]

    # ---------------------------------------------------------- constraints
    def add_constraint(self, constraint: Constraint, name: Optional[str] = None) -> Constraint:
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "expected a Constraint (build one with <=, >= or == on expressions); "
                f"got {type(constraint).__name__}"
            )
        if name is not None:
            constraint.name = name
        if constraint.is_trivially_infeasible():
            raise ValueError(f"constraint {constraint!r} is trivially infeasible")
        if not constraint.is_trivially_satisfied() or constraint.expression.terms:
            self.constraints.append(constraint)
        return constraint

    # ------------------------------------------------------------ objective
    def set_objective(
        self,
        expression: Union[LinExpr, Variable, Number],
        sense: ObjectiveSense = ObjectiveSense.MINIMIZE,
    ) -> Objective:
        self.objective = Objective(LinExpr.coerce(expression), sense)
        return self.objective

    def minimize(self, expression: Union[LinExpr, Variable, Number]) -> Objective:
        return self.set_objective(expression, ObjectiveSense.MINIMIZE)

    def maximize(self, expression: Union[LinExpr, Variable, Number]) -> Objective:
        return self.set_objective(expression, ObjectiveSense.MAXIMIZE)

    # ------------------------------------------------------------ statistics
    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_binaries(self) -> int:
        return sum(1 for v in self.variables if v.kind == "binary")

    @property
    def num_integers(self) -> int:
        return sum(1 for v in self.variables if v.kind in ("integer", "binary"))

    def summary(self) -> str:
        return (
            f"Model {self.name!r}: {self.num_variables} variables "
            f"({self.num_integers} integer, {self.num_binaries} binary), "
            f"{self.num_constraints} constraints"
        )

    # -------------------------------------------------------------- lowering
    def _assign_indices(self) -> None:
        for idx, var in enumerate(self.variables):
            var.index = idx

    def to_matrices(self) -> Tuple[np.ndarray, CsrMatrix, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Lower the model to the arrays the solver backends consume.

        Returns
        -------
        tuple
            ``(c, A, lower, upper, lb, ub, integrality)`` where ``c`` is the
            objective vector (already negated for maximization), ``A`` is the
            constraint matrix as a :class:`CsrMatrix` (plain numpy arrays, so
            no scipy is needed) with row bounds ``lower``/``upper``, and
            ``lb``/``ub``/``integrality`` describe the variables.  Row ``r``
            of ``A`` is the ``r``-th constraint that has terms.
        """
        with obs_span("ilp:lower", category="ilp") as opened:
            self._assign_indices()
            n = len(self.variables)

            c = np.zeros(n)
            sign = 1.0
            if self.objective is not None:
                if self.objective.sense is ObjectiveSense.MAXIMIZE:
                    sign = -1.0
                for var, coef in self.objective.expression.terms.items():
                    c[var.index] = sign * coef

            rows = [con for con in self.constraints if con.expression.terms]
            m = len(rows)
            indptr = np.zeros(m + 1, dtype=np.int64)
            indices: List[int] = []
            data: List[float] = []
            lower = np.zeros(m)
            upper = np.zeros(m)
            for r, con in enumerate(rows):
                for index, coef in sorted(
                    (var.index, float(coef)) for var, coef in con.expression.terms.items() if coef
                ):
                    indices.append(index)
                    data.append(coef)
                indptr[r + 1] = len(indices)
                lower[r], upper[r] = con.bounds()
            A = CsrMatrix(indptr, np.array(indices, dtype=np.int64), np.array(data, dtype=float), (m, n))

            lb = np.array([(-np.inf if v.low is None else float(v.low)) for v in self.variables])
            ub = np.array([(np.inf if v.up is None else float(v.up)) for v in self.variables])
            integrality = np.array([1 if v.kind in ("integer", "binary") else 0 for v in self.variables])
            opened.set(vars=n, rows=m)
            return c, A, lower, upper, lb, ub, integrality

    # ----------------------------------------------------------------- solve
    def solve(self, options: Optional["SolverOptions"] = None) -> "SolveResult":
        """Solve the model with the backend named in ``options``.

        A thin delegate to :func:`repro.ilp.solve_model` (the default
        backend, the warm-start rules); kept as the one call path so that
        wrapping this method observes every solve.  On a feasible outcome
        every variable's ``.value`` is populated.
        """
        from repro.ilp.solver import solve_model

        return solve_model(self, options)

    # ------------------------------------------------------------ validation
    def check_solution(self, tolerance: float = 1e-5) -> List[Constraint]:
        """Return the constraints violated by the current variable values."""
        return [con for con in self.constraints if not con.is_satisfied(tolerance)]

    def feasible_objective(self, values: Dict[str, float],
                           tolerance: float = 1e-6) -> Optional[float]:
        """The objective of ``values`` if it is a complete feasible point.

        Complete: every variable is named.  Feasible: every value lies
        within its bounds, integer and binary values are integral, and
        every row holds, each up to ``tolerance``.  Returns ``None``
        otherwise.  Every variable's ``.value`` is ``None`` afterwards.
        """
        for var in self.variables:
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
            for var in self.variables:
                var.value = values[var.name]
            if self.check_solution(tolerance):
                return None
            return self.objective_value()
        finally:
            for var in self.variables:
                var.value = None

    def objective_value(self) -> float:
        if self.objective is None:
            return 0.0
        return self.objective.value()

    def __repr__(self) -> str:
        return f"<{self.summary()}>"
