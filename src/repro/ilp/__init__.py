"""Mixed-integer linear programming modeling layer.

The paper solves its scheduling and architectural-synthesis formulations with
Gurobi.  This package provides an in-repo substitute: a small, PuLP-like
modeling API (:class:`Variable`, :class:`LinExpr`, :class:`Constraint`,
:class:`Model`) whose instances are solved by a named backend
(:mod:`repro.ilp.backends`): scipy's HiGHS branch and cut, or a
dependency-free pure-Python branch and bound — the default when scipy is
not installed.

The layer intentionally mirrors the modeling idioms used in the paper:

* binary assignment variables (``s_ik``, ``a_ik``, ``epsilon_jr`` ...),
* big-M conditional constraints (constraint (4) and (9) of the paper),
* weighted multi-objective minimization (objective (6) and (12)).

Example
-------
>>> from repro.ilp import Model, Variable
>>> m = Model("toy")
>>> x = m.add_var("x", low=0, up=10, kind="integer")
>>> y = m.add_var("y", low=0, up=10, kind="integer")
>>> m.add_constraint(x + y >= 7, name="cover")
>>> m.set_objective(2 * x + 3 * y)
>>> result = m.solve()
>>> result.status.is_feasible()
True
>>> int(x.value + y.value)
7
"""

from repro.ilp.expression import LinExpr, Variable, lin_sum
from repro.ilp.constraint import Constraint, ConstraintSense
from repro.ilp.model import Model, Objective, ObjectiveSense
from repro.ilp.solver import SolveRecord, SolverOptions, SolveResult, WarmStart, solve_model
from repro.ilp.status import SolverLimitError, SolverStatus
from repro.ilp.backends import (
    BackendUnavailableError,
    BranchAndBoundBackend,
    HighsBackend,
    SolverBackend,
    backend_names,
    get_backend,
)

__all__ = [
    "LinExpr",
    "Variable",
    "lin_sum",
    "Constraint",
    "ConstraintSense",
    "Model",
    "Objective",
    "ObjectiveSense",
    "SolverOptions",
    "SolveRecord",
    "SolveResult",
    "WarmStart",
    "solve_model",
    "SolverStatus",
    "SolverLimitError",
    "SolverBackend",
    "BackendUnavailableError",
    "HighsBackend",
    "BranchAndBoundBackend",
    "backend_names",
    "get_backend",
]
