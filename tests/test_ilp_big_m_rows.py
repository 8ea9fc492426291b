"""The big-M and linearization rows the formulations write inline.

The scheduling ILP (:mod:`repro.scheduling.ilp_scheduler`) and the
reference formulation in ``test_scheduling_ilp_scheduler.py`` spell these
rows out on :class:`~repro.ilp.Model` directly: the device-gated
non-overlap disjunction of the paper's constraint (4), the completion time
(5), the transport-gated precedence (3), the storage slack ``w`` of
objective (6) and the AND of two binding binaries.  Each case is a model
small enough to solve by hand, solved on both exact backends.
"""

import pytest

from repro.ilp import HighsBackend, Model, SolverOptions, SolverStatus
from repro.ilp.expression import lin_sum

from ilp_reference import violated_rows

BACKENDS = [
    pytest.param(
        "highs",
        marks=pytest.mark.skipif(
            not HighsBackend().is_available(), reason="scipy not installed"
        ),
    ),
    "branch-and-bound",
]

BIG_M = 1000


def solve(model, backend):
    result = model.solve(SolverOptions(backend=backend))
    assert result.status is SolverStatus.OPTIMAL
    assert violated_rows(model) == []
    return result


def two_jobs(model, durations=(10, 10), devices=("k1",)):
    """Two unordered jobs, each bound to exactly one of ``devices``, with
    the scheduler's ordering pair and one activation row per device."""
    start, assign = {}, {}
    for job in ("a", "b"):
        start[job] = model.add_integer(f"ts[{job}]", low=0, up=100)
        binaries = []
        for device in devices:
            assign[(job, device)] = model.add_binary(f"s[{job},{device}]")
            binaries.append(assign[(job, device)])
        model.add_constraint(lin_sum(binaries) == 1)
    d_a, d_b = durations
    before = model.add_binary("ord[a,b]")
    after = model.add_binary("ord[b,a]")
    model.add_constraint(start["a"] + d_a <= start["b"] + BIG_M * (1 - before))
    model.add_constraint(start["b"] + d_b <= start["a"] + BIG_M * (1 - after))
    for device in devices:
        model.add_constraint(
            before + after >= assign[("a", device)] + assign[("b", device)] - 1
        )
    t_end = model.add_integer("tE", low=0, up=200)
    model.add_constraint(t_end >= start["a"] + d_a)
    model.add_constraint(t_end >= start["b"] + d_b)
    model.minimize(t_end)
    return start, assign, before, after, t_end


@pytest.mark.parametrize("backend", BACKENDS)
class TestNonOverlap:
    def test_one_device_serializes_the_jobs(self, backend):
        model = Model()
        start, _, _, _, t_end = two_jobs(model, durations=(10, 7))
        solve(model, backend)
        assert t_end.solution == 17
        a, b = start["a"].solution, start["b"].solution
        assert a + 10 <= b or b + 7 <= a

    def test_jobs_on_different_devices_overlap(self, backend):
        model = Model()
        start, assign, _, _, t_end = two_jobs(model, devices=("k1", "k2"))
        solve(model, backend)
        assert t_end.solution == 10
        assert start["a"].solution == start["b"].solution == 0
        assert assign[("a", "k1")].solution != assign[("b", "k1")].solution

    def test_binding_both_jobs_to_one_device_activates_the_order(self, backend):
        model = Model()
        start, assign, before, after, t_end = two_jobs(model, devices=("k1", "k2"))
        model.add_constraint(assign[("a", "k2")] == 1)
        model.add_constraint(assign[("b", "k2")] == 1)
        solve(model, backend)
        assert t_end.solution == 20
        assert before.solution + after.solution >= 1
        assert abs(start["a"].solution - start["b"].solution) >= 10

    def test_both_orders_at_once_is_infeasible(self, backend):
        model = Model()
        _, _, before, after, _ = two_jobs(model)
        model.add_constraint(before == 1)
        model.add_constraint(after == 1)
        result = model.solve(SolverOptions(backend=backend))
        assert result.status is SolverStatus.INFEASIBLE


@pytest.mark.parametrize("backend", BACKENDS)
class TestCompletionTime:
    def test_t_end_is_the_latest_finish(self, backend):
        model = Model()
        t_end = model.add_integer("tE", low=0, up=100)
        for idx, (ts, duration) in enumerate([(0, 5), (3, 14), (6, 5)]):
            start = model.add_integer(f"ts[{idx}]", low=ts, up=ts)
            model.add_constraint(t_end >= start + duration)
        model.minimize(t_end)
        result = solve(model, backend)
        assert t_end.solution == 17
        assert result.objective == pytest.approx(17.0)


def edge_model(shared_devices, u_c=10, parent_duration=5):
    """A parent -> child edge with the scheduler's one-sided AND per shared
    device and the transport-gated precedence row (3)."""
    model = Model()
    ts_p = model.add_integer("ts[p]", low=0, up=0)
    ts_c = model.add_integer("ts[c]", low=0, up=100)
    per_device = []
    for device in shared_devices:
        s_p = model.add_binary(f"s[p,{device}]")
        s_c = model.add_binary(f"s[c,{device}]")
        both = model.add_binary(f"both[p,c,{device}]")
        model.add_constraint(both <= s_p)
        model.add_constraint(both <= s_c)
        per_device.append(both)
    same = model.add_binary("same[p,c]")
    model.add_constraint(lin_sum(per_device) == same)
    model.add_constraint(
        ts_c - (ts_p + parent_duration) >= u_c - u_c * same
    )
    model.minimize(ts_c)
    return model, ts_c, same


@pytest.mark.parametrize("backend", BACKENDS)
class TestPrecedence:
    def test_cross_device_edge_waits_for_the_transport(self, backend):
        model, ts_c, same = edge_model(shared_devices=[])
        solve(model, backend)
        assert same.solution == 0
        assert ts_c.solution == 15

    def test_same_device_edge_skips_the_transport(self, backend):
        model, ts_c, same = edge_model(shared_devices=["k1"])
        model.add_constraint(model.get_var("s[p,k1]") == 1)
        model.add_constraint(model.get_var("s[c,k1]") == 1)
        solve(model, backend)
        assert same.solution == 1
        assert ts_c.solution == 5


def slack_model(same_value, gap=12):
    """The storage slack ``w >= gap - M * same`` of a fixed edge."""
    model = Model()
    end_p = model.add_integer("end[p]", low=8, up=8)
    ts_c = model.add_integer("ts[c]", low=8 + gap, up=8 + gap)
    same = model.add_binary("same[p,c]")
    model.add_constraint(same == same_value)
    w = model.add_continuous("w[p,c]", low=0, up=100)
    model.add_constraint(w >= (ts_c - end_p) - BIG_M * same)
    model.minimize(w)
    return model, w


@pytest.mark.parametrize("backend", BACKENDS)
class TestStorageSlack:
    def test_w_is_the_gap_of_a_cross_device_edge(self, backend):
        model, w = slack_model(same_value=0)
        solve(model, backend)
        assert w.solution == pytest.approx(12.0)

    def test_w_vanishes_on_a_same_device_edge(self, backend):
        model, w = slack_model(same_value=1)
        solve(model, backend)
        assert w.solution == pytest.approx(0.0)


@pytest.mark.parametrize("backend", BACKENDS)
class TestAnd:
    @pytest.mark.parametrize(
        "values, expected",
        [((1, 1), 1), ((1, 0), 0), ((0, 1), 0), ((0, 0), 0)],
    )
    def test_two_sided_and_pins_the_conjunction(self, backend, values, expected):
        """``z <= a``, ``z <= b``, ``z >= a + b - 1`` leave no freedom:
        minimizing and maximizing ``z`` give the same value."""
        for direction in ("minimize", "maximize"):
            model = Model()
            a = model.add_binary("a")
            b = model.add_binary("b")
            model.add_constraint(a == values[0])
            model.add_constraint(b == values[1])
            z = model.add_binary("z")
            model.add_constraint(z <= a)
            model.add_constraint(z <= b)
            model.add_constraint(z >= a + b - 1)
            getattr(model, direction)(z)
            solve(model, backend)
            assert z.solution == expected, direction

    def test_one_sided_and_only_bounds_from_above(self, backend):
        """The scheduler drops ``z >= a + b - 1``: with both binaries set,
        ``z`` may still be 0, and it is 0 whenever either is clear."""
        outcomes = {}
        for values in [(1, 1), (1, 0)]:
            for direction in ("minimize", "maximize"):
                model = Model()
                a = model.add_binary("a")
                b = model.add_binary("b")
                model.add_constraint(a == values[0])
                model.add_constraint(b == values[1])
                z = model.add_binary("z")
                model.add_constraint(z <= a)
                model.add_constraint(z <= b)
                getattr(model, direction)(z)
                solve(model, backend)
                outcomes[(values, direction)] = z.solution
        assert outcomes == {
            ((1, 1), "minimize"): 0,
            ((1, 1), "maximize"): 1,
            ((1, 0), "minimize"): 0,
            ((1, 0), "maximize"): 0,
        }
