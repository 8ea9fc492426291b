"""Tests (including property-based ones) of the random assay generator."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import (
    RandomAssayConfig,
    _pick_parents,
    paper_random_assay,
    random_assay,
)
from repro.graph.validation import validate_graph

from test_graph_analysis import max_parallelism


class TestRandomAssayBasics:
    def test_requested_operation_count(self):
        graph = random_assay(RandomAssayConfig(num_operations=25, seed=1))
        assert len(graph.device_operations()) == 25

    def test_zero_operations_rejected(self):
        with pytest.raises(ValueError):
            random_assay(RandomAssayConfig(num_operations=0))

    def test_same_seed_same_graph(self):
        a = random_assay(RandomAssayConfig(num_operations=15, seed=9))
        b = random_assay(RandomAssayConfig(num_operations=15, seed=9))
        assert a.edges() == b.edges()
        assert [op.duration for op in a.operations()] == [op.duration for op in b.operations()]

    def test_different_seeds_differ(self):
        a = random_assay(RandomAssayConfig(num_operations=15, seed=1))
        b = random_assay(RandomAssayConfig(num_operations=15, seed=2))
        assert a.edges() != b.edges()

    def test_custom_name(self):
        graph = random_assay(RandomAssayConfig(num_operations=5, seed=3, name="mine"))
        assert graph.name == "mine"

    def test_default_name_follows_paper_convention(self):
        graph = random_assay(RandomAssayConfig(num_operations=30, seed=4))
        assert graph.name == "RA30"

    def test_paper_random_assay_sizes(self):
        for size in (30, 70, 100):
            graph = paper_random_assay(size)
            assert len(graph.device_operations()) == size
            assert graph.name == f"RA{size}"

    def test_paper_random_assay_is_stable(self):
        assert paper_random_assay(30).edges() == paper_random_assay(30).edges()

    def test_durations_from_pool(self):
        config = RandomAssayConfig(num_operations=20, seed=5, durations=(42,))
        graph = random_assay(config)
        assert all(op.duration == 42 for op in graph.device_operations())

    def test_generated_graph_has_parallelism(self):
        graph = paper_random_assay(30)
        assert max_parallelism(graph) >= 3


@settings(max_examples=25, deadline=None)
@given(
    num_operations=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
    merge_probability=st.floats(min_value=0.0, max_value=1.0),
)
def test_random_assay_always_valid(num_operations, seed, merge_probability):
    """Property: every generated assay is a well-formed sequencing graph."""
    config = RandomAssayConfig(
        num_operations=num_operations,
        seed=seed,
        merge_probability=merge_probability,
    )
    graph = random_assay(config)
    assert validate_graph(graph) == []
    assert len(graph.device_operations()) == num_operations
    # Mixing operations never have more than two fluid inputs.
    assert all(graph.in_degree(op.op_id) <= 2 for op in graph.device_operations())


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=1000))
def test_random_assay_acyclic_and_connected_to_inputs(seed):
    graph = random_assay(RandomAssayConfig(num_operations=20, seed=seed))
    order = graph.topological_order()  # raises on a cycle
    assert len(order) == len(graph)
    # Every device operation is reachable from at least one input.
    for op in graph.device_operations():
        ancestors = graph.ancestors(op.op_id)
        assert any(graph.operation(a).kind.value == "input" for a in ancestors)


@pytest.mark.parametrize("size", [0, 1, 2, 3, 17, 64, 257])
def test_parent_pick_shuffles_like_random_shuffle(size):
    # The parent pick inlines Fisher-Yates; it must consume and return
    # exactly what random.Random.shuffle does on the running interpreter,
    # or every generated graph would change.
    fluids = [f"f{i}" for i in range(size)]
    for seed in range(25):
        ours, theirs = random.Random(seed), random.Random(seed)
        expected = list(fluids)
        theirs.shuffle(expected)
        assert _pick_parents(ours, fluids, size, None, {}, {}) == expected
        assert ours.getstate() == theirs.getstate()
