"""Reference tests of the router's memoized tables.

:meth:`HeuristicSynthesizer._storage_candidates` sorts the static part of
its order once per ``(source, target)`` pair and grid attempt, and then
only partitions it by "already kept".  The reference below is the full
sort it replaced, keyed on every term per call; both must give the same
order whatever the grid, placement, kept-edge set and seed.

The grid's neighbour and edge-id tables are derived per grid shape and
kept out of the pickled :class:`ConnectionGrid`, so a decoded
architecture must rebuild them on first use.
"""

from __future__ import annotations

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.archsyn.architecture import ChipArchitecture
from repro.archsyn.grid import ConnectionGrid, edge_id
from repro.archsyn.router import HeuristicSynthesizer, RoutingState, SynthesisConfig
from repro.devices.device import default_device_library
from repro.graph.generators import RandomAssayConfig, random_assay
from repro.scheduling.list_scheduler import ListScheduler


def edge_distance_to_node(grid, eid, node_id):
    """Distance from an edge (min over its endpoints) to a node."""
    a, b = grid.edge_endpoints(eid)
    return min(grid.manhattan(a, node_id), grid.manhattan(b, node_id))


def test_edge_distance_to_node():
    grid = ConnectionGrid(3, 3)
    eid = edge_id("n0_0", "n0_1")
    assert edge_distance_to_node(grid, eid, "n0_0") == 0
    assert edge_distance_to_node(grid, eid, "n0_1") == 0
    assert edge_distance_to_node(grid, eid, "n2_2") == 3


def reference_candidates(synthesizer, grid, source, target, device_nodes, used_edges):
    """The full-sort storage-candidate order, every term recomputed per edge."""

    def key(eid):
        a, b = grid.edge_endpoints(eid)
        touches_device = 1 if (a in device_nodes or b in device_nodes) else 0
        already_used = 0 if eid in used_edges else 1
        to_target = edge_distance_to_node(grid, eid, target)
        to_source = edge_distance_to_node(grid, eid, source)
        return (touches_device, already_used, to_target, to_source,
                synthesizer._tiebreak(a, b), (a, b))

    candidates = []
    for eid in grid.edges():
        a, b = grid.edge_endpoints(eid)
        if a in device_nodes and b in device_nodes:
            continue
        candidates.append(eid)
    return sorted(candidates, key=key)


@st.composite
def routing_cases(draw):
    rows = draw(st.integers(min_value=2, max_value=9))
    cols = draw(st.integers(min_value=2, max_value=9))
    grid = ConnectionGrid(rows, cols)
    nodes = grid.nodes()
    placed = draw(st.lists(st.sampled_from(nodes), min_size=2, max_size=min(6, len(nodes)),
                           unique=True))
    source = draw(st.sampled_from(placed))
    target = draw(st.sampled_from(placed))
    edges = grid.edges()
    used = [draw(st.sets(st.sampled_from(edges))) for _ in range(2)]
    seed = draw(st.sampled_from([0, 7, 12345]))
    return grid, placed, source, target, used, seed


@settings(max_examples=150, deadline=None)
@given(case=routing_cases())
def test_storage_order_matches_full_sort_reference(case):
    grid, placed, source, target, used_sets, seed = case
    synthesizer = HeuristicSynthesizer(SynthesisConfig(seed=seed))
    architecture = ChipArchitecture(grid, {f"d{i}": node for i, node in enumerate(placed)})
    state = RoutingState(architecture, transport_time=10)
    device_nodes = set(placed)
    # The second call reuses the memoized order under a different kept set.
    for used in used_sets:
        state.used_edges = set(used)
        assert synthesizer._storage_candidates(state, source, target) == reference_candidates(
            synthesizer, grid, source, target, device_nodes, used
        )


def test_grid_tables_agree_with_the_grid():
    grid = ConnectionGrid(3, 5)
    tables = grid.tables
    for node in grid.nodes():
        assert [nb for nb, _ in tables.neighbours[node]] == sorted(grid.neighbors(node))
        for neighbour, eid in tables.neighbours[node]:
            assert eid == edge_id(node, neighbour)
            assert tables.edge_ids[(node, neighbour)] is eid
            assert tables.edge_ids[(neighbour, node)] is eid
    assert [eid for eid, _, _ in tables.edges] == grid.edges()
    assert len(grid.edges()) == grid.num_edges()
    assert all((a, b) == grid.edge_endpoints(eid) for eid, a, b in tables.edges)


def test_pickled_architecture_rebuilds_the_tables():
    schedule = ListScheduler(default_device_library(num_mixers=3)).schedule(
        random_assay(RandomAssayConfig(num_operations=30, seed=2))
    )
    architecture = HeuristicSynthesizer().synthesize(schedule)
    blob = pickle.dumps(architecture)
    assert b"GridTables" not in blob
    restored = pickle.loads(blob)
    grid = restored.grid
    assert set(vars(grid)) == {"rows", "cols", "_nodes", "_adjacency"}
    assert restored.validate() == []
    assert restored.num_valves == architecture.num_valves
    node = grid.center_node()
    assert [nb for nb, _ in grid.tables.neighbours[node]] == sorted(grid.neighbors(node))
    for routed in restored.routed_tasks:
        for sub in routed.subpaths:
            if sub.purpose == "transport":
                assert sub.edges == tuple(
                    grid.tables.edge_ids[pair] for pair in zip(sub.nodes, sub.nodes[1:])
                )
