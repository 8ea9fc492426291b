"""Tests of the end-to-end synthesis pipeline, metrics and reports."""

import pytest

from repro.graph.library import assay_by_name, build_pcr
from repro.synthesis.config import FlowConfig, SchedulerEngine, SynthesisEngine
from repro.synthesis.flow import build_library, synthesize
from repro.synthesis.metrics import collect_metrics
from repro.synthesis.report import format_table2_row, result_report, table2_header


class TestFlowConfig:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            FlowConfig(num_mixers=0)
        with pytest.raises(ValueError):
            FlowConfig(transport_time=-1)
        with pytest.raises(ValueError):
            FlowConfig(grid_rows=1)

    def test_paper_defaults(self):
        ra100 = FlowConfig.paper_defaults_for("RA100")
        assert ra100.grid_shape() == (5, 5)
        assert ra100.num_mixers == 4
        ivd = FlowConfig.paper_defaults_for("IVD")
        assert ivd.num_detectors == 2
        pcr = FlowConfig.paper_defaults_for("PCR")
        assert pcr.num_mixers == 2

    def test_build_library_matches_config(self):
        config = FlowConfig(num_mixers=3, num_detectors=1, num_heaters=1)
        library = build_library(config)
        assert len(library) == 5


class TestSynthesizeEndToEnd:
    def test_pcr_full_flow(self, pcr_result):
        assert pcr_result.schedule.validate() == []
        assert pcr_result.architecture.validate() == []
        assert pcr_result.execution_time == pcr_result.schedule.makespan
        assert pcr_result.scheduler_engine in ("ilp", "list")
        assert pcr_result.synthesis_engine == "heuristic"

    def test_invalid_graph_rejected(self):
        from repro.graph.sequencing_graph import Operation, OperationType, SequencingGraph

        bad = SequencingGraph("bad")
        bad.add_operation(Operation("o1", OperationType.MIX, duration=0))
        with pytest.raises(Exception):
            synthesize(bad, FlowConfig())

    def test_explicit_engines(self):
        graph = build_pcr(mix_time=80)
        config = FlowConfig(num_mixers=2, scheduler=SchedulerEngine.LIST)
        result = synthesize(graph, config)
        assert result.scheduler_engine == "list"

    def test_auto_engine_uses_ilp_for_small_graphs(self):
        graph = build_pcr(mix_time=80)
        config = FlowConfig(num_mixers=2, scheduler=SchedulerEngine.AUTO, ilp_operation_limit=10,
                            ilp_time_limit_s=20)
        result = synthesize(graph, config)
        assert result.scheduler_engine == "ilp"

    def test_ilp_synthesis_engine_on_tiny_case(self, diamond_graph):
        config = FlowConfig(
            num_mixers=2,
            scheduler=SchedulerEngine.LIST,
            synthesis=SynthesisEngine.ILP,
            grid_rows=3,
            grid_cols=3,
            archsyn_time_limit_s=60,
        )
        result = synthesize(diamond_graph, config)
        assert result.synthesis_engine == "ilp"
        assert result.architecture.validate() == []


class TestMetricsAndReport:
    def test_collect_metrics_consistency(self, pcr_result):
        metrics = collect_metrics(pcr_result)
        assert metrics.assay == pcr_result.graph.name
        assert metrics.execution_time == pcr_result.schedule.makespan
        assert metrics.num_edges == pcr_result.architecture.num_edges
        assert metrics.num_valves == pcr_result.architecture.num_valves
        assert 0 <= metrics.edge_ratio <= 1
        assert metrics.num_operations == 7

    def test_metrics_as_dict_keys(self, pcr_result):
        data = collect_metrics(pcr_result).as_dict()
        for key in ("assay", "tE", "ne", "nv", "G", "dr", "de", "dp"):
            assert key in data

    def test_table2_row_alignment(self, pcr_result):
        metrics = collect_metrics(pcr_result)
        header = table2_header()
        row = format_table2_row(metrics)
        assert "Assay" in header
        assert metrics.assay in row

    #: (assay, scheduler) -> (transports, storages, peak_storage,
    #: total_storage_time, cross_device_gap) on the paper's per-assay
    #: defaults with a 20 s ILP cap.
    STORAGE_PINS = {
        ("RA30", SchedulerEngine.LIST): (9, 9, 5, 701, 130),
        ("IVD", SchedulerEngine.LIST): (6, 0, 0, 0, 60),
        ("PCR", SchedulerEngine.LIST): (3, 2, 2, 190, 160),
        ("CPA", SchedulerEngine.LIST): (45, 22, 16, 7350, 2260),
        ("RA70", SchedulerEngine.LIST): (15, 13, 6, 2681, 2690),
        ("RA100", SchedulerEngine.LIST): (28, 24, 10, 8860, 6630),
        ("IVD", SchedulerEngine.ILP): (6, 0, 0, 0, 60),
        ("PCR", SchedulerEngine.ILP): (3, 2, 2, 120, 10),
    }

    @pytest.mark.parametrize(
        "assay,scheduler",
        list(STORAGE_PINS),
        ids=[f"{assay}-{scheduler.value}" for assay, scheduler in STORAGE_PINS],
    )
    def test_storage_metrics_are_pinned(self, assay, scheduler):
        config = FlowConfig.paper_defaults_for(assay)
        config.scheduler = scheduler
        config.ilp_time_limit_s = 20.0
        metrics = collect_metrics(synthesize(assay_by_name(assay), config))
        data = metrics.as_dict()
        measured = (data["transports"], data["storages"], data["peak_storage"],
                    metrics.total_storage_time, metrics.cross_device_gap)
        assert measured == self.STORAGE_PINS[(assay, scheduler)]

    def test_result_report_mentions_key_sections(self, pcr_result):
        report = result_report(pcr_result)
        assert "Synthesis report" in report
        assert "execution time" in report
        assert "architecture" in report
        assert "layout" in report
