"""Solver-backend protocol.

The paper solves its two ILPs (scheduling, architecture synthesis) with a
commercial solver behind a wall-clock cap; this repository treats the solve
step as a *seam* instead of a hard-wired call.  A :class:`SolverBackend`
turns a :class:`repro.ilp.Model` into a :class:`repro.ilp.SolveResult`;
:data:`repro.ilp.backends.BACKENDS` maps stable string keys (``"highs"``,
``"branch-and-bound"``) to backend instances so every layer above — engine
configs, :class:`~repro.synthesis.config.FlowConfig`, batch manifests, the
CLI's ``--solver`` flag — can name a backend without importing it.

Backend names participate in the stage cache keys of
:mod:`repro.synthesis.pipeline` (via the ``scheduler_backend`` /
``archsyn_backend`` config fields), so two runs differing only in backend
never alias each other's cached artifacts.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Optional

from repro.ilp.status import SolverStatus

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.ilp.model import Model
    from repro.ilp.solver import SolveResult, SolverOptions


class BackendUnavailableError(RuntimeError):
    """A backend was selected whose runtime dependency is not installed.

    Raised by :meth:`SolverBackend.solve` when the backend cannot run at all
    (e.g. :class:`~repro.ilp.backends.highs.HighsBackend` without scipy) —
    as opposed to a solve that ran and failed.  It is never caught: a config
    naming an unavailable backend fails, and a config naming none runs on
    :data:`~repro.ilp.backends.DEFAULT_BACKEND`, which is always available.
    """


class SolverBackend(abc.ABC):
    """One way of solving a :class:`repro.ilp.Model`.

    Subclasses set :attr:`name` (the backend's key and the value reported in
    :attr:`repro.ilp.SolveResult.backend_name`) and implement :meth:`solve`.
    Backends must be stateless across solves — one shared instance serves
    every thread and every model — and must populate each variable's
    ``.value`` on a feasible outcome, exactly like the historical
    ``solve_model`` contract.
    """

    #: Key in :data:`~repro.ilp.backends.BACKENDS`; also stamped on every
    #: result the backend returns.
    name: str = ""

    def is_available(self) -> bool:
        """Whether the backend can run in this environment.

        The default is ``True``; backends with optional dependencies
        override this, and :data:`~repro.ilp.backends.DEFAULT_BACKEND`
        names an available one.
        """
        return True

    @abc.abstractmethod
    def solve(self, model: "Model", options: Optional["SolverOptions"] = None) -> "SolveResult":
        """Solve ``model`` under ``options`` and return a stamped result.

        Implementations must set ``backend_name`` on the result to
        :attr:`name` and fill variable ``.value`` attributes when the
        outcome is feasible (clearing them to ``None`` otherwise).
        """

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


def empty_model_result(model: "Model") -> Optional["SolveResult"]:
    """The trivial result for a variable-less model, or ``None``.

    Shared by every backend so the empty-model contract ("trivially optimal
    unless a constant constraint is violated") cannot drift between them.
    The caller stamps its own ``backend_name`` on the returned result.
    """
    from repro.ilp.solver import SolveResult

    if model.variables:
        return None
    infeasible = any(con.is_trivially_infeasible() for con in model.constraints)
    status = SolverStatus.INFEASIBLE if infeasible else SolverStatus.OPTIMAL
    return SolveResult(status=status, objective=0.0, wall_time_s=0.0, message="empty model")
