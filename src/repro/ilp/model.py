"""MILP model container.

A :class:`Model` owns variables, constraints and an objective, and knows how
to lower itself into the sparse matrix form the solver backends consume
(``scipy.optimize.milp`` for the HiGHS backend, the same arrays for the
pure-Python branch and bound).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.ilp.constraint import Constraint, ConstraintSense
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
        #: ``(key, rows)`` of the last :meth:`_rows` lowering.
        self._lowered: Optional[tuple] = None

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

    def add_row(self, terms: Mapping[Variable, Number], sense: ConstraintSense,
                rhs: Number = 0, name: Optional[str] = None) -> Constraint:
        """Add ``sum(coef * var) <sense> rhs`` over ``terms`` as one constraint.

        The same row as :meth:`add_constraint` on an operator-built
        expression, without the intermediate expressions: models with
        thousands of rows are built in one pass over their term dicts.
        """
        return self.add_constraint(Constraint(LinExpr(terms, -rhs), sense), name=name)

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

        The objective and the rows are lowered once, in one ``ilp:lower``
        span, and reused until a variable, a constraint or a new objective
        is added, so their arrays are read-only.  The variable bounds are
        read on every call: a bound tightened after a lowering holds in the
        next one.
        """
        c, A, lower, upper, integrality = self._rows()
        return (c, A, lower, upper) + self._bounds() + (integrality,)

    def _bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """The variables' current ``(lb, ub)``, infinite where unbounded."""
        lb = np.array([-np.inf if v.low is None else v.low for v in self.variables], dtype=float)
        ub = np.array([np.inf if v.up is None else v.up for v in self.variables], dtype=float)
        return lb, ub

    def _rows(self) -> Tuple[np.ndarray, CsrMatrix, np.ndarray, np.ndarray, np.ndarray]:
        """``(c, A, lower, upper, integrality)`` of :meth:`to_matrices`, lowered
        once while the model's variables, constraints and objective stay."""
        key = (len(self.variables), len(self.constraints), self.objective)
        if self._lowered is None or self._lowered[0] != key:
            with obs_span("ilp:lower", category="ilp") as opened:
                self._lowered = (key, self._lower_rows())
                opened.set(vars=key[0], rows=self._lowered[1][1].shape[0])
        return self._lowered[1]

    def _lower_rows(self) -> Tuple[np.ndarray, CsrMatrix, np.ndarray, np.ndarray, np.ndarray]:
        """Lower the objective and the rows into read-only arrays."""
        for idx, var in enumerate(self.variables):
            var.index = idx
        n = len(self.variables)

        c = np.zeros(n)
        if self.objective is not None:
            terms = self.objective.expression.terms
            sign = -1.0 if self.objective.sense is ObjectiveSense.MAXIMIZE else 1.0
            c[[var.index for var in terms]] = sign * np.fromiter(terms.values(), float, len(terms))

        rows = [con.expression for con in self.constraints if con.expression.terms]
        senses = [con.sense for con in self.constraints if con.expression.terms]
        m = len(rows)
        sizes = [len(expr.terms) for expr in rows]
        total = sum(sizes)
        cols = np.fromiter((var.index for expr in rows for var in expr.terms), np.int64, total)
        data = np.fromiter((coef for expr in rows for coef in expr.terms.values()), float, total)
        row_of = np.repeat(np.arange(m, dtype=np.int64), sizes)
        kept = data != 0.0
        order = np.lexsort((cols[kept], row_of[kept]))
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(row_of[kept], minlength=m), out=indptr[1:])
        A = CsrMatrix(indptr, cols[kept][order], data[kept][order], (m, n))

        rhs = -np.fromiter((expr.constant for expr in rows), float, m)
        no_upper = np.fromiter((sense is ConstraintSense.GE for sense in senses), bool, m)
        no_lower = np.fromiter((sense is ConstraintSense.LE for sense in senses), bool, m)
        lower = np.where(no_lower, -np.inf, rhs)
        upper = np.where(no_upper, np.inf, rhs)
        integrality = np.fromiter((v.kind != "continuous" for v in self.variables), np.int64, n)
        arrays = (c, A.indptr, A.indices, A.data, lower, upper, integrality)
        for array in arrays:
            array.flags.writeable = False
        return c, A, lower, upper, integrality

    def fill(self, x: Optional[np.ndarray]) -> Dict[str, float]:
        """Set every variable's ``.value`` from the column vector ``x``.

        Integer and binary values are rounded.  Returns the values by
        variable name; ``x=None`` clears every value and returns ``{}``.
        """
        if x is None:
            for var in self.variables:
                var.value = None
            return {}
        x = np.asarray(x, dtype=float)
        x = np.where(self._rows()[4].astype(bool), np.round(x), x).tolist()
        for var, value in zip(self.variables, x):
            var.value = value
        return dict(zip(self._names, x))

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
    def feasible_objective(self, values: Dict[str, float],
                           tolerance: float = 1e-6) -> Optional[float]:
        """The objective of ``values`` if it is a complete feasible point.

        Complete: every variable is named, with a finite value.  Feasible:
        every value lies within its bounds, integer and binary values are
        integral, and every row holds, each up to ``tolerance``.  Returns
        ``None`` otherwise.  The check runs on the arrays of
        :meth:`to_matrices` (lowering the model if it is not yet) and
        leaves every variable's ``.value`` alone.
        """
        try:
            x = np.array([values[name] for name in self._names], dtype=float)
        except KeyError:
            return None
        if not np.all(np.isfinite(x)):
            return None
        c, A, lower, upper, integrality = self._rows()
        lb, ub = self._bounds()
        ints = x[integrality.astype(bool)]
        if (np.any(np.abs(ints - np.round(ints)) > tolerance)
                or np.any(x < lb - tolerance) or np.any(x > ub + tolerance)):
            return None
        row_of = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        activity = np.bincount(row_of, weights=A.data * x[A.indices], minlength=A.shape[0])
        if np.any(activity > upper + tolerance) or np.any(activity < lower - tolerance):
            return None
        if self.objective is None:
            return 0.0
        sign = -1.0 if self.objective.sense is ObjectiveSense.MAXIMIZE else 1.0
        return sign * float(np.dot(c, x)) + self.objective.expression.constant

    def objective_value(self) -> float:
        if self.objective is None:
            return 0.0
        return self.objective.value()

    def __repr__(self) -> str:
        return f"<{self.summary()}>"
