"""Pluggable solver backends for the MILP layer.

Two backends ship registered out of the box:

``"highs"``
    The historical scipy/HiGHS branch-and-cut path
    (:class:`~repro.ilp.backends.highs.HighsBackend`); unavailable — but
    harmless — when scipy is not installed.
``"branch-and-bound"``
    A dependency-free pure-Python best-first branch and bound
    (:class:`~repro.ilp.backends.branch_and_bound.BranchAndBoundBackend`),
    exact on the small golden models and always available.

:data:`DEFAULT_BACKEND` — the backend of every solve and config that names
none — is ``"highs"`` when scipy imports and ``"branch-and-bound"``
otherwise.  Whichever runs, a time limit that leaves no incumbent better
than the caller's verified warm start returns that warm start
(:func:`repro.ilp.solve_model`).

Custom backends register with :func:`register_backend`; any string a
:class:`~repro.synthesis.config.FlowConfig` or ``--solver`` flag names is
resolved through :func:`get_backend` at solve time.
"""

from repro.ilp.backends.base import (
    BackendUnavailableError,
    SolverBackend,
    backend_names,
    empty_model_result,
    get_backend,
    register_backend,
    unregister_backend,
)
from repro.ilp.backends.branch_and_bound import BranchAndBoundBackend
from repro.ilp.backends.highs import HighsBackend

register_backend(HighsBackend())
register_backend(BranchAndBoundBackend())

#: Registry key of the backend used when options or configs name none.
DEFAULT_BACKEND = (
    HighsBackend.name if HighsBackend().is_available() else BranchAndBoundBackend.name
)

__all__ = [
    "DEFAULT_BACKEND",
    "BackendUnavailableError",
    "SolverBackend",
    "HighsBackend",
    "BranchAndBoundBackend",
    "backend_names",
    "empty_model_result",
    "get_backend",
    "register_backend",
    "unregister_backend",
]
