"""Connection grid (paper Fig. 6).

The connection grid is a regular ``rows x cols`` mesh.  Every node can host
either a device or a switch; every edge is a channel segment able to carry a
transport or cache one fluid sample.  Architectural synthesis selects which
nodes become devices and which edges are kept in the final chip.

The router's inner loops read a grid through :class:`GridTables`: static
lookup tables built once per grid shape and shared by every grid of that
shape.  They are not part of a grid's pickled state — a decoded grid
finds the tables of its shape again on first use.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Tuple

#: An undirected grid edge is identified by the frozenset of its two node ids.
EdgeId = FrozenSet[str]


@dataclass(frozen=True)
class GridNode:
    """A node of the connection grid, addressed by (row, col)."""

    row: int
    col: int

    @property
    def node_id(self) -> str:
        return f"n{self.row}_{self.col}"

    def manhattan_distance(self, other: "GridNode") -> int:
        return abs(self.row - other.row) + abs(self.col - other.col)


def edge_id(node_a: str, node_b: str) -> EdgeId:
    """Canonical identifier of the undirected edge between two nodes."""
    if node_a == node_b:
        raise ValueError("an edge needs two distinct endpoints")
    return frozenset((node_a, node_b))


class ConnectionGrid:
    """A ``rows x cols`` orthogonal connection grid.

    Node ids follow the pattern ``n<row>_<col>``; rows and columns are
    0-indexed.  Edges connect horizontally and vertically adjacent nodes.
    """

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("grid dimensions must be at least 1x1")
        self.rows = rows
        self.cols = cols
        self._nodes: Dict[str, GridNode] = {}
        self._adjacency: Dict[str, List[str]] = {}
        # Node ids are interned, so every grid, path and table of a run
        # shares one string object per id (pickles store each id once).
        ids = [[sys.intern(GridNode(row, col).node_id) for col in range(cols)]
               for row in range(rows)]
        for row in range(rows):
            for col in range(cols):
                self._nodes[ids[row][col]] = GridNode(row, col)
                self._adjacency[ids[row][col]] = []
        for row in range(rows):
            for col in range(cols):
                for dr, dc in ((0, 1), (1, 0)):
                    nr, nc = row + dr, col + dc
                    if nr < rows and nc < cols:
                        self._adjacency[ids[row][col]].append(ids[nr][nc])
                        self._adjacency[ids[nr][nc]].append(ids[row][col])

    # --------------------------------------------------------------- queries
    @property
    def shape(self) -> Tuple[int, int]:
        return (self.rows, self.cols)

    def node(self, node_id: str) -> GridNode:
        return self._nodes[node_id]

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def nodes(self) -> List[str]:
        return list(self._nodes.keys())

    def num_nodes(self) -> int:
        return len(self._nodes)

    def neighbors(self, node_id: str) -> List[str]:
        return list(self._adjacency[node_id])

    def edges(self) -> List[EdgeId]:
        return [eid for eid, _, _ in self.tables.edges]

    def num_edges(self) -> int:
        return self.rows * (self.cols - 1) + self.cols * (self.rows - 1)

    def has_edge(self, node_a: str, node_b: str) -> bool:
        return node_b in self._adjacency.get(node_a, [])

    def incident_edges(self, node_id: str) -> List[EdgeId]:
        """All grid edges touching a node (the paper's set ``E_i``)."""
        return [edge_id(node_id, other) for other in self._adjacency[node_id]]

    def edge_endpoints(self, eid: EdgeId) -> Tuple[str, str]:
        a, b = sorted(eid)
        return a, b

    def manhattan(self, node_a: str, node_b: str) -> int:
        return self._nodes[node_a].manhattan_distance(self._nodes[node_b])

    def center_node(self) -> str:
        return GridNode(self.rows // 2, self.cols // 2).node_id

    def nodes_sorted_by_distance(self, origin: str) -> List[str]:
        """All nodes ordered by Manhattan distance from ``origin`` (stable)."""
        return sorted(self._nodes, key=lambda n: (self.manhattan(origin, n), n))

    @property
    def tables(self) -> "GridTables":
        """The static lookup tables of this grid's shape (never pickled)."""
        return grid_tables(self.rows, self.cols)

    def __repr__(self) -> str:
        return f"ConnectionGrid({self.rows}x{self.cols})"


@dataclass(frozen=True)
class GridTables:
    """Static lookup tables of one grid shape, for the router's inner loops.

    One instance is shared by every grid of the shape, so callers only read
    it.  Edge ids in the tables are shared objects too: a path that takes
    its edge ids from here shares them with every other such path.
    """

    #: Node id -> ``((neighbour, edge id), ...)`` sorted by neighbour id.
    neighbours: Dict[str, Tuple[Tuple[str, EdgeId], ...]]
    #: ``(node, node)`` -> edge id, for both orders of the endpoints.
    edge_ids: Dict[Tuple[str, str], EdgeId]
    #: ``(edge id, a, b)`` per edge with ``a < b``, in
    #: :meth:`ConnectionGrid.edges` order.
    edges: Tuple[Tuple[EdgeId, str, str], ...]
    #: Node id -> ``(row, col)``.
    coords: Dict[str, Tuple[int, int]]


@lru_cache(maxsize=64)
def grid_tables(rows: int, cols: int) -> GridTables:
    """Build (once per shape) the :class:`GridTables` of a ``rows x cols`` grid."""
    grid = ConnectionGrid(rows, cols)
    edge_ids: Dict[Tuple[str, str], EdgeId] = {}
    edges: List[Tuple[EdgeId, str, str]] = []
    for node_id, others in grid._adjacency.items():
        for other in others:
            if (node_id, other) not in edge_ids:
                eid = edge_id(node_id, other)
                edge_ids[(node_id, other)] = edge_ids[(other, node_id)] = eid
                edges.append((eid, *sorted(eid)))
    return GridTables(
        neighbours={
            node_id: tuple((other, edge_ids[(node_id, other)]) for other in sorted(others))
            for node_id, others in grid._adjacency.items()
        },
        edge_ids=edge_ids,
        edges=tuple(edges),
        coords={node_id: (node.row, node.col) for node_id, node in grid._nodes.items()},
    )
