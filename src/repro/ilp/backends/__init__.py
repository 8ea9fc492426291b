"""The solver backends of the MILP layer.

:data:`BACKENDS` maps each backend name to its one shared instance:

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

The map is fixed at import; any string a
:class:`~repro.synthesis.config.FlowConfig` or ``--solver`` flag names is
resolved through :func:`get_backend` at solve time.
"""

from typing import Dict, Tuple

from repro.ilp.backends.base import BackendUnavailableError, SolverBackend, empty_model_result
from repro.ilp.backends.branch_and_bound import BranchAndBoundBackend
from repro.ilp.backends.highs import HighsBackend

#: Every backend by name.  Built once here and never mutated.
BACKENDS: Dict[str, SolverBackend] = {
    backend.name: backend for backend in (HighsBackend(), BranchAndBoundBackend())
}

#: Name of the backend used when options or configs name none.
DEFAULT_BACKEND = (
    HighsBackend.name if BACKENDS[HighsBackend.name].is_available() else BranchAndBoundBackend.name
)


def get_backend(name: str) -> SolverBackend:
    """The backend named ``name``.

    Raises
    ------
    ValueError
        When no backend has that name, listing the known names so a manifest
        typo is one read away from its fix.
    """
    try:
        return BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown solver backend {name!r}; known backends: {list(backend_names())}"
        ) from None


def backend_names() -> Tuple[str, ...]:
    """Sorted names of every backend."""
    return tuple(sorted(BACKENDS))


__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "BackendUnavailableError",
    "SolverBackend",
    "HighsBackend",
    "BranchAndBoundBackend",
    "backend_names",
    "empty_model_result",
    "get_backend",
]
