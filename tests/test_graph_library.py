"""Tests of the real-assay library (PCR, IVD, CPA)."""

import pytest

from repro.graph.analysis import critical_path_length
from repro.graph.library import (
    PAPER_ASSAYS,
    assay_by_name,
    build_cpa,
    build_ivd,
    build_pcr,
)
from repro.graph.sequencing_graph import OperationType
from repro.graph.validation import validate_graph


class TestPcr:
    def test_structure_matches_fig2(self):
        pcr = build_pcr()
        assert len(pcr.device_operations()) == 7
        assert len(pcr.input_operations()) == 8
        # o7 is the root of the reduction tree.
        assert [op.op_id for op in pcr.operations() if not pcr.successors(op.op_id)] == ["o7"]
        assert set(pcr.predecessors("o7")) == {"o5", "o6"}

    def test_every_mix_has_two_inputs(self):
        pcr = build_pcr()
        assert all(pcr.in_degree(op.op_id) == 2 for op in pcr.device_operations())

    def test_critical_path_scales_with_mix_time(self):
        assert critical_path_length(build_pcr(mix_time=90)) == 270
        assert critical_path_length(build_pcr(mix_time=60)) == 180

    def test_valid(self):
        assert validate_graph(build_pcr(), require_inputs=True) == []


class TestIvd:
    def test_operation_count_matches_table2(self):
        ivd = build_ivd()
        assert len(ivd.device_operations()) == 12

    def test_has_detection_stages(self):
        ivd = build_ivd()
        detects = [op for op in ivd.device_operations() if op.kind is OperationType.DETECT]
        mixes = [op for op in ivd.device_operations() if op.kind is OperationType.MIX]
        assert len(detects) == len(mixes) == 6

    def test_each_detection_follows_one_mix(self):
        ivd = build_ivd()
        for op in ivd.device_operations():
            if op.kind is OperationType.DETECT:
                parents = ivd.predecessors(op.op_id)
                assert len(parents) == 1
                assert ivd.operation(parents[0]).kind is OperationType.MIX

    def test_custom_sizes(self):
        ivd = build_ivd(num_samples=4, num_reagents=3)
        assert len(ivd.device_operations()) == 24

    def test_valid(self):
        assert validate_graph(build_ivd(), require_inputs=True) == []


class TestCpa:
    def test_operation_count_matches_table2(self):
        cpa = build_cpa()
        assert len(cpa.device_operations()) == 55

    def test_stage_mix(self):
        cpa = build_cpa()
        kinds = [op.kind for op in cpa.device_operations()]
        assert kinds.count(OperationType.DILUTE) == 13
        assert kinds.count(OperationType.MIX) == 21
        assert kinds.count(OperationType.DETECT) == 21

    def test_valid(self):
        assert validate_graph(build_cpa(), require_inputs=True) == []


class TestAssayRegistry:
    def test_all_paper_assays_build_and_validate(self):
        for name in PAPER_ASSAYS:
            graph = assay_by_name(name)
            assert validate_graph(graph) == []

    def test_expected_operation_counts(self):
        expected = {"RA100": 100, "RA70": 70, "CPA": 55, "RA30": 30, "IVD": 12, "PCR": 7}
        for name, count in expected.items():
            assert len(assay_by_name(name).device_operations()) == count

    def test_unknown_assay_raises(self):
        with pytest.raises(KeyError):
            assay_by_name("NOPE")
