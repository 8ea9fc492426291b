"""Tests of the exact ILP scheduler (paper constraints (1)-(7))."""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.device import default_device_library
from repro.graph.generators import RandomAssayConfig, random_assay
from repro.graph.library import assay_by_name, build_pcr
from repro.graph.sequencing_graph import Operation, OperationType, SequencingGraph
from repro.ilp import HighsBackend, SolverOptions, SolverStatus, WarmStart, solve_model
from repro.obs import TraceRecorder, install_recorder
from repro.obs.trace import uninstall_recorder
from repro.scheduling.ilp_scheduler import IlpScheduler, IlpSchedulerConfig, schedule_lower_bound
from repro.scheduling.list_scheduler import ListScheduler
from repro.scheduling.transport import cross_device_gap_sum, total_storage_time
from repro.synthesis.config import FlowConfig
from repro.synthesis.flow import build_library

from ilp_reference import violated_rows
from solve_capture import captured_solves


@pytest.fixture(scope="module")
def two_mixers():
    return default_device_library(num_mixers=2)


class TestIlpSchedulerSmall:
    def test_diamond_schedule_is_valid_and_tight(self, diamond_graph, two_mixers):
        scheduler = IlpScheduler(
            two_mixers, IlpSchedulerConfig(solver=SolverOptions(time_limit_s=20))
        )
        schedule = scheduler.schedule(diamond_graph)
        assert schedule.validate() == []
        # Optimal: o1 (60) then o2 || o3 (with one transport), then o4.
        assert schedule.makespan <= 200
        assert schedule.solve.status.is_feasible()

    def test_single_operation(self, two_mixers):
        graph = SequencingGraph("one")
        graph.add_mix("o1", 45)
        schedule = IlpScheduler(two_mixers).schedule(graph)
        assert schedule.entry("o1").duration == 45
        assert schedule.makespan == 45

    def test_empty_graph(self, two_mixers):
        graph = SequencingGraph("none")
        schedule = IlpScheduler(two_mixers).schedule(graph)
        assert schedule.makespan == 0

    def test_chain_on_one_mixer_has_no_transport(self, chain_graph):
        library = default_device_library(num_mixers=1)
        schedule = IlpScheduler(
            library, IlpSchedulerConfig(solver=SolverOptions(time_limit_s=20))
        ).schedule(chain_graph)
        assert schedule.validate() == []
        assert schedule.makespan == 5 * 30
        assert cross_device_gap_sum(schedule) == 0

    def test_makespan_not_below_critical_path(self, diamond_graph, two_mixers):
        schedule = IlpScheduler(
            two_mixers, IlpSchedulerConfig(solver=SolverOptions(time_limit_s=20))
        ).schedule(diamond_graph)
        compatible = {op.op_id: two_mixers.devices_for(op.kind)
                      for op in diamond_graph.device_operations()}
        floor, _ = schedule_lower_bound(diamond_graph, compatible, transport_time=10)
        assert schedule.makespan >= floor

    def test_incompatible_operations_raise(self, two_mixers):
        from repro.graph.sequencing_graph import Operation, OperationType

        graph = SequencingGraph("detect-only")
        graph.add_operation(Operation("o1", OperationType.DETECT, 30))
        with pytest.raises(RuntimeError):
            IlpScheduler(two_mixers).schedule(graph)

    def test_empty_library_rejected(self):
        from repro.devices.device import DeviceLibrary

        with pytest.raises(ValueError):
            IlpScheduler(DeviceLibrary())


class TestConfigDefaults:
    def test_default_solver_keeps_the_60_s_limit(self):
        solver = IlpSchedulerConfig().solver
        assert solver == SolverOptions(time_limit_s=60.0)

    def test_default_solver_is_not_shared_between_configs(self):
        first, second = IlpSchedulerConfig(), IlpSchedulerConfig()
        assert first.solver is not second.solver
        first.solver.time_limit_s = 5.0
        assert second.solver.time_limit_s == 60.0


class TestObjectiveWeights:
    def test_storage_weight_reduces_gap_time(self, two_mixers, diamond_graph):
        """With beta > 0 the total cross-device gap never increases."""
        exec_only = IlpScheduler(
            two_mixers,
            IlpSchedulerConfig(alpha=1.0, beta=0.0, solver=SolverOptions(time_limit_s=20)),
        ).schedule(diamond_graph)
        with_storage = IlpScheduler(
            two_mixers,
            IlpSchedulerConfig(alpha=100.0, beta=1.0, solver=SolverOptions(time_limit_s=20)),
        ).schedule(diamond_graph)
        assert total_storage_time(with_storage) <= max(total_storage_time(exec_only), 0) + 1e-9

    def test_ilp_matches_or_beats_list_scheduler_on_pcr(self, two_mixers):
        pcr = build_pcr(mix_time=80)
        ilp = IlpScheduler(
            two_mixers, IlpSchedulerConfig(solver=SolverOptions(time_limit_s=30))
        ).schedule(pcr)
        heuristic = ListScheduler(two_mixers).schedule(pcr)
        assert ilp.validate() == []
        assert ilp.makespan <= heuristic.makespan


# IVD, PCR and seeded 6-8 operation random assays, each on its paper
# device set, with the storage term on (beta > 0).
REFORMULATION_CASES = ["IVD", "PCR"] + [
    (size, seed) for size, seed in ((6, 1), (6, 2), (7, 3), (7, 4), (8, 5), (8, 6))
]


def _case_graph(case):
    if isinstance(case, str):
        return assay_by_name(case)
    size, seed = case
    return random_assay(RandomAssayConfig(num_operations=size, seed=seed))


def _schedule_case(case, **overrides):
    graph = _case_graph(case)
    library = build_library(FlowConfig.paper_defaults_for(graph.name))
    config = IlpSchedulerConfig(transport_time=10, alpha=100.0, beta=1.0,
                                solver=SolverOptions(time_limit_s=30), **overrides)
    return IlpScheduler(library, config).schedule(graph)


@pytest.fixture(scope="module")
def default_schedules():
    return {str(case): _schedule_case(case) for case in REFORMULATION_CASES}


@pytest.mark.parametrize("case", REFORMULATION_CASES, ids=str)
class TestReformulation:
    """The load rows, the incumbent bound on tE and the one-sided same-device
    AND leave the optimum of the paper's objective (6) where it was."""

    def test_objective_is_the_paper_objective_of_the_extracted_schedule(
        self, case, default_schedules
    ):
        schedule = default_schedules[str(case)]
        graph = schedule.graph
        t_end = max(schedule.entry(op.op_id).end for op in graph.device_operations())
        gaps = 0
        for parent_id, child_id in graph.device_edges():
            parent, child = schedule.entry(parent_id), schedule.entry(child_id)
            if parent.device_id != child.device_id:
                gaps += max(0, child.start - parent.end)
        assert schedule.solve.status is SolverStatus.OPTIMAL
        assert schedule.solve.objective == pytest.approx(100.0 * t_end + 1.0 * gaps)

    def test_unbounded_solve_reaches_the_same_optimum(self, case, default_schedules):
        # With no warm start there is no incumbent to bound tE by.
        bounded = default_schedules[str(case)]
        unbounded = _schedule_case(case, warm_start_heuristic=False)
        assert unbounded.solve.objective == pytest.approx(bounded.solve.objective)
        assert unbounded.makespan == bounded.makespan


def _reference_objective(graph, library, transport_time, alpha, beta):
    """Optimum of a plain transcription of the paper's constraints (1)-(7).

    Written independently of :class:`IlpScheduler`: no load rows, no bound
    on ``tE`` beyond the serial horizon, the full two-sided AND for the
    same-device indicators and one ordering binary per shared device.
    """
    import itertools

    from repro.ilp import Model, SolverOptions, lin_sum

    ops = graph.device_operations()
    devices = {op.op_id: [d.device_id for d in library.devices_for(op.kind)] for op in ops}
    duration = {op.op_id: op.duration for op in ops}
    horizon = sum(duration.values()) + transport_time * (len(graph.device_edges()) + 1)
    big_m = horizon + 1
    model = Model(f"reference-{graph.name}")
    ts = {i: model.add_integer(f"ts[{i}]", low=0, up=horizon) for i in duration}
    s = {(i, k): model.add_binary(f"s[{i},{k}]") for i in duration for k in devices[i]}
    for i in duration:
        model.add_constraint(lin_sum(s[i, k] for k in devices[i]) == 1)
    t_end = model.add_integer("tE", low=0, up=horizon)
    for i in duration:
        model.add_constraint(t_end >= ts[i] + duration[i])
    def both(p, c, k):
        # z = s[p,k] AND s[c,k], linearized on both sides.
        z = model.add_binary(f"both[{p},{c},{k}]")
        model.add_constraint(z <= s[p, k])
        model.add_constraint(z <= s[c, k])
        model.add_constraint(z >= s[p, k] + s[c, k] - 1)
        return z

    gaps = []
    for p, c in graph.device_edges():
        same = lin_sum(both(p, c, k) for k in devices[p] if k in devices[c])
        model.add_constraint(ts[c] - ts[p] - duration[p] >= transport_time * (1 - same))
        w = model.add_continuous(f"w[{p},{c}]", low=0, up=None)
        model.add_constraint(w >= ts[c] - ts[p] - duration[p] - big_m * same)
        gaps.append(w)
    for i, j in itertools.combinations(duration, 2):
        if i in graph.ancestors(j) or j in graph.ancestors(i):
            continue
        for k in devices[i]:
            if k not in devices[j]:
                continue
            # Relaxed unless both run on k; then x picks which goes first.
            x = model.add_binary(f"x[{i},{j},{k}]")
            off = big_m * (2 - s[i, k] - s[j, k])
            model.add_constraint(ts[i] + duration[i] <= ts[j] + big_m * (1 - x) + off)
            model.add_constraint(ts[j] + duration[j] <= ts[i] + big_m * x + off)
    objective = alpha * t_end
    if gaps and beta:
        objective = objective + beta * lin_sum(gaps)
    model.minimize(objective)
    result = model.solve(SolverOptions(time_limit_s=30))
    assert result.status is SolverStatus.OPTIMAL
    return result.objective


# (operations, seed, mixers, transport time, beta): one to three mixers,
# transport times 0-20 and the execution-time-only objective (beta = 0).
DIFFERENTIAL_CASES = [
    (5, 1, 1, 10, 1.0), (5, 2, 2, 10, 1.0), (5, 3, 3, 10, 1.0), (5, 4, 2, 0, 1.0),
    (5, 5, 2, 20, 0.0), (6, 1, 2, 10, 1.0), (6, 2, 1, 20, 1.0), (6, 3, 3, 10, 0.0),
    (6, 4, 2, 0, 1.0), (6, 5, 2, 20, 1.0), (6, 6, 3, 20, 1.0), (7, 1, 2, 10, 1.0),
    (7, 2, 3, 10, 1.0), (7, 3, 1, 10, 1.0), (7, 4, 2, 20, 0.0), (7, 5, 3, 0, 1.0),
    (7, 6, 2, 10, 0.0), (7, 7, 2, 20, 1.0), (8, 1, 2, 10, 1.0), (8, 2, 3, 20, 1.0),
    (8, 3, 2, 0, 0.0), (8, 4, 1, 10, 1.0), (8, 5, 2, 10, 1.0), (8, 6, 3, 20, 1.0),
    (8, 7, 3, 10, 0.0), (8, 8, 2, 20, 1.0),
]


def _differential_id(case):
    size, seed, mixers, transport_time, beta = case
    return f"ra{size}-seed{seed}-mixers{mixers}-uc{transport_time}-beta{beta:g}"


class TestReferenceFormulationDifferential:
    """The scheduler's optimum equals the plain paper formulation's optimum."""

    @pytest.mark.parametrize("case", DIFFERENTIAL_CASES, ids=_differential_id)
    def test_random_assay_matches_the_reference_optimum(self, case):
        size, seed, mixers, transport_time, beta = case
        graph = random_assay(RandomAssayConfig(num_operations=size, seed=seed))
        library = default_device_library(num_mixers=mixers)
        config = IlpSchedulerConfig(transport_time=transport_time, alpha=100.0, beta=beta,
                                    solver=SolverOptions(time_limit_s=30))
        schedule = IlpScheduler(library, config).schedule(graph)
        assert schedule.solve.status is SolverStatus.OPTIMAL
        assert schedule.solve.objective == pytest.approx(
            _reference_objective(graph, library, transport_time, 100.0, beta)
        )

    @pytest.mark.parametrize("name", ["IVD", "PCR"])
    def test_paper_assay_matches_the_reference_optimum(self, name):
        graph = assay_by_name(name)
        library = build_library(FlowConfig.paper_defaults_for(name))
        schedule = IlpScheduler(
            library, IlpSchedulerConfig(solver=SolverOptions(time_limit_s=30))
        ).schedule(graph)
        assert schedule.solve.status is SolverStatus.OPTIMAL
        assert schedule.solve.objective == pytest.approx(
            _reference_objective(graph, library, 10, 100.0, 1.0)
        )


needs_scipy = pytest.mark.skipif(not HighsBackend().is_available(), reason="scipy not installed")


def _detect_chain():
    """mix(60) -> detect(30): the edge is a certain transport."""
    graph = SequencingGraph("mix-detect")
    graph.add_mix("o1", 60)
    graph.add_operation(Operation("o2", OperationType.DETECT, 30))
    graph.add_edge("o1", "o2")
    return graph


class TestCertifiedBound:
    """``schedule_lower_bound`` and the solves it closes without a backend."""

    @needs_scipy
    @settings(max_examples=200, deadline=None)
    @given(size=st.integers(4, 9), seed=st.integers(0, 10**6),
           mixers=st.integers(1, 4), transport_time=st.sampled_from([0, 5, 10]))
    def test_bound_never_exceeds_the_optimum(self, size, seed, mixers, transport_time):
        graph = random_assay(RandomAssayConfig(num_operations=size, seed=seed))
        library = default_device_library(num_mixers=mixers)
        config = IlpSchedulerConfig(transport_time=transport_time,
                                    solver=SolverOptions(time_limit_s=60))
        with captured_solves(reference=True) as calls:
            schedule = IlpScheduler(library, config).schedule(graph)
        [(model, _options, ref)] = calls
        assert ref.status is SolverStatus.OPTIMAL
        assert model.lower_bound is not None
        assert model.lower_bound <= ref.objective + 1e-6
        if schedule.solve.backend == "bound":
            assert schedule.solve.objective == pytest.approx(ref.objective)
            schedule.assert_valid()

    def test_ivd_closes_at_the_bound(self):
        graph = assay_by_name("IVD")
        library = build_library(FlowConfig.paper_defaults_for("IVD"))
        compatible = {op.op_id: library.devices_for(op.kind) for op in graph.device_operations()}
        assert schedule_lower_bound(graph, compatible, 10) == (280, 6)
        schedule = IlpScheduler(
            library, IlpSchedulerConfig(solver=SolverOptions(time_limit_s=30))
        ).schedule(graph)
        record = schedule.solve
        assert (record.backend, record.status, record.mip_gap) == ("bound", SolverStatus.OPTIMAL, 0.0)
        assert record.objective == record.bound == 28060
        assert record.warm_start_used is True
        assert schedule.makespan == 280

    def test_certain_transport_edges_reach_the_objective_floor(self):
        library = default_device_library(num_mixers=1, num_detectors=1)
        graph = _detect_chain()
        compatible = {op.op_id: library.devices_for(op.kind) for op in graph.device_operations()}
        assert schedule_lower_bound(graph, compatible, 10) == (100, 1)
        schedule = IlpScheduler(
            library, IlpSchedulerConfig(solver=SolverOptions(time_limit_s=30))
        ).schedule(graph)
        assert schedule.solve.backend == "bound"
        assert schedule.solve.objective == 100.0 * 100 + 1.0 * 10

    def test_load_floor_counts_heads_and_tails(self):
        # mix o1 -> detects d2, d3, d4 -> mix o5 on one mixer and two
        # detectors; all six edges are certain transports (u_c = 10).  The
        # detects start after 60 + 10, need ceil(90 / 2) = 45 on the two
        # detectors and leave 10 + 60 for o5: 185, above the chain's 170.
        graph = SequencingGraph("fan")
        graph.add_mix("o1", 60)
        graph.add_mix("o5", 60)
        for detect in ("d2", "d3", "d4"):
            graph.add_operation(Operation(detect, OperationType.DETECT, 30))
            graph.add_edge("o1", detect)
            graph.add_edge(detect, "o5")
        library = default_device_library(num_mixers=1, num_detectors=2)
        compatible = {op.op_id: library.devices_for(op.kind) for op in graph.device_operations()}
        assert schedule_lower_bound(graph, compatible, 10) == (185, 6)
        assert schedule_lower_bound(graph, compatible, 0) == (165, 6)

    @needs_scipy
    def test_a_warm_start_that_breaks_one_row_never_closes(self):
        graph = assay_by_name("IVD")
        library = build_library(FlowConfig.paper_defaults_for("IVD"))
        with captured_solves() as calls:
            IlpScheduler(
                library, IlpSchedulerConfig(solver=SolverOptions(time_limit_s=30))
            ).schedule(graph)
        [(model, options, _ref)] = calls
        values = dict(options.warm_start.values)
        # Zero one positive storage term: the objective drops below the
        # bound and only that edge's w row is broken.
        gap = next(name for name, value in values.items()
                   if name.startswith("w[") and value > 0)
        values[gap] = 0.0
        for var in model.variables:
            var.value = values[var.name]
        assert len(violated_rows(model, 1e-6)) == 1
        assert model.objective_value() < model.lower_bound
        assert model.feasible_objective(values) is None
        broken = replace(options, warm_start=WarmStart(values=values), backend="highs")
        result = solve_model(model, broken)
        assert result.backend_name == "highs"
        assert result.status is SolverStatus.OPTIMAL
        assert result.objective == pytest.approx(28060)

    @pytest.mark.parametrize("alpha, beta", [(0.0, 1.0), (-1.0, 1.0), (100.0, -1.0)])
    def test_no_bound_without_a_positive_alpha_and_nonnegative_beta(self, alpha, beta):
        library = default_device_library(num_mixers=1, num_detectors=1)
        config = IlpSchedulerConfig(alpha=alpha, beta=beta, solver=SolverOptions(time_limit_s=30))
        with captured_solves() as calls:
            schedule = IlpScheduler(library, config).schedule(_detect_chain())
        [(model, _options, _ref)] = calls
        assert model.lower_bound is None
        assert schedule.solve.backend != "bound"

    @pytest.mark.parametrize("graph, backend, produced", [
        pytest.param(_detect_chain(), None, "bound", id="bound-close"),
        pytest.param(random_assay(RandomAssayConfig(num_operations=4, seed=0)), "highs", "highs",
                     id="highs", marks=needs_scipy),
    ])
    def test_every_solve_is_one_solver_span(self, graph, backend, produced):
        library = default_device_library(num_mixers=2, num_detectors=1)
        config = IlpSchedulerConfig(solver=SolverOptions(time_limit_s=30, backend=backend))
        recorder = TraceRecorder()
        token = install_recorder(recorder)
        try:
            with captured_solves() as calls:
                IlpScheduler(library, config).schedule(graph)
        finally:
            uninstall_recorder(token)
        [(model, _options, _ref)] = calls
        assert all(var.value is not None for var in model.variables)
        [solve_span] = [s for s in recorder.spans() if s.name == "solver:solve"]
        assert solve_span.attributes["backend"] == produced
        assert solve_span.attributes["status"] == "optimal"
