"""A recorder of ``Model.solve`` calls, shared by the scheduler tests and
the ``loose_bound_guard`` fixture."""

from __future__ import annotations

import contextlib
from unittest import mock

from repro.ilp import Model, get_backend


@contextlib.contextmanager
def captured_solves(reference=False):
    """Record ``(model, options, reference result)`` of every ``Model.solve``.

    With ``reference`` set, each model is first solved by the HiGHS backend
    directly, which bypasses the lower-bound close in ``solve_model``.
    """
    calls = []
    original = Model.solve

    def solve(model, options=None):
        ref = get_backend("highs").solve(model, options) if reference else None
        calls.append((model, options, ref))
        return original(model, options)

    with mock.patch.object(Model, "solve", solve):
        yield calls
