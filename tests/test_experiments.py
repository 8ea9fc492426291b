"""Tests of the experiment harness (one check per table/figure)."""

import pytest

from repro.experiments.common import ExperimentSettings, assay_names, assay_result, result_cache
from repro.experiments.table2 import PAPER_TABLE2, format_table2, run_table2
from repro.experiments.fig8 import run_fig8
from repro.experiments.fig9 import run_fig9
from repro.experiments.fig10 import run_fig10
from repro.experiments.fig11 import run_fig11
from repro.experiments.ablation import run_grid_ablation, run_weight_ablation


SMALL = ExperimentSettings(fast=True, assays=["RA30", "IVD", "PCR"])


class TestCommon:
    def test_assay_names_default_order(self):
        assert assay_names() == ["RA100", "RA70", "CPA", "RA30", "IVD", "PCR"]
        assert assay_names(SMALL, small=True) == ["RA30", "IVD", "PCR"]

    def test_assay_result_is_cached(self):
        first = assay_result("PCR", SMALL)
        second = assay_result("PCR", SMALL)
        assert first is second
        result_cache().clear()
        third = assay_result("PCR", SMALL)
        assert third is not first


class TestTable2:
    def test_rows_cover_requested_assays(self):
        rows = run_table2(SMALL)
        assert [row.assay for row in rows] == ["RA30", "IVD", "PCR"]
        for row in rows:
            assert row.metrics.execution_time > 0
            assert row.metrics.num_edges > 0
            assert row.metrics.num_valves > 0
            assert row.paper  # the reference values exist for every paper assay

    def test_execution_time_within_factor_two_of_paper(self):
        rows = run_table2(SMALL)
        for row in rows:
            ratio = row.execution_time_vs_paper()
            assert 0.5 <= ratio <= 2.0

    def test_formatting(self):
        rows = run_table2(SMALL)
        text = format_table2(rows)
        assert "Assay" in text
        assert "PCR" in text

    def test_paper_reference_table_complete(self):
        assert set(PAPER_TABLE2) == {"RA100", "RA70", "CPA", "RA30", "IVD", "PCR"}


class TestFig8:
    def test_all_ratios_below_one(self):
        points = run_fig8(SMALL)
        assert len(points) == 3
        for point in points:
            assert point.edge_ratio < 1.0 and point.valve_ratio < 1.0
            assert point.used_edges <= point.grid_edges
            assert point.used_valves <= point.grid_valves


class TestFig9:
    def test_storage_optimization_saves_resources(self):
        rows = run_fig9(SMALL)
        assert [r.assay for r in rows] == ["RA30", "IVD", "PCR"]
        for row in rows:
            # Execution time stays comparable (the paper tolerates a slight
            # increase for RA30).
            assert row.execution_time_overhead <= 1.25
        # Across the benchmark set the storage-aware flow never needs more
        # resources in total, and at least one assay improves strictly
        # (the paper's Fig. 9 shows the big win on RA30).
        assert sum(r.edges_with_storage for r in rows) <= sum(r.edges_only for r in rows)
        assert sum(r.valves_with_storage for r in rows) <= sum(r.valves_only for r in rows)
        assert any(r.edge_saving > 0 for r in rows)


class TestFig10:
    def test_proposed_never_loses(self):
        rows = run_fig10(SMALL)
        for row in rows:
            assert row.execution_time_ratio <= 1.0
            assert row.baseline_execution_time >= row.proposed_execution_time
        # The storage-heavy assay benefits strictly.
        ra30 = next(r for r in rows if r.assay == "RA30")
        assert ra30.execution_improvement > 0.0


class TestFig11:
    def test_snapshots_show_caching_and_transport(self):
        snapshots = run_fig11(SMALL, assay="RA30")
        assert len(snapshots) == 2
        assert snapshots[0].storing_segments >= 1
        assert snapshots[1].storing_segments >= 1
        assert snapshots[1].transporting_segments >= 1
        assert "legend:" in snapshots[0].ascii_art

    def test_explicit_times(self):
        snapshots = run_fig11(SMALL, assay="PCR", times=[0, 50])
        assert [s.time for s in snapshots] == [0, 50]


class TestAblations:
    def test_grid_ablation_produces_rows(self):
        rows = run_grid_ablation("RA30", grid_sizes=((4, 4), (5, 5)), settings=SMALL)
        assert rows
        for row in rows:
            assert row.execution_time > 0
            assert row.num_edges > 0

    def test_weight_ablation_monotone_storage(self):
        rows = run_weight_ablation("PCR", betas=(0.0, 5.0), settings=SMALL)
        assert len(rows) == 2
        # A larger storage weight never increases the cross-device gap time
        # that objective (6) actually penalizes.
        assert rows[1].cross_device_gap <= rows[0].cross_device_gap
