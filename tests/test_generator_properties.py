"""Statistical property tests of the random-assay generator.

The basic validity properties live in ``test_graph_generators.py``; this
module pins the *statistical contract* of the generator — the properties an
exploration over synthetic workload families relies on:

* the ``layer_width`` cap is a hard bound on per-layer parallelism,
* no mixing operation ever has more than two fluid inputs,
* every sampled duration comes from the configured pool,
* a seed determines the graph bit-for-bit **across processes** (the seeds
  are SHA-derived, never Python's per-process ``hash()``),
* the historical RA30/RA70/RA100 presets are byte-identical to the graphs
  the golden pins were recorded with (the layer cap defaults to off).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import (
    RandomAssayConfig,
    paper_random_assay,
    random_assay,
)
from repro.graph.validation import validate_graph

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def graph_digest(graph) -> str:
    payload = json.dumps(
        [graph.edges(), [(op.op_id, op.duration) for op in graph.operations()]]
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def layer_widths(graph) -> Counter:
    """Device operations per layer (layer = longest path depth from inputs)."""
    depth = {}
    for op_id in graph.topological_order():
        parents = graph.predecessors(op_id)
        depth[op_id] = 0 if not parents else 1 + max(depth[p] for p in parents)
    device_ids = {op.op_id for op in graph.device_operations()}
    return Counter(depth[op_id] for op_id in device_ids)


@settings(max_examples=30, deadline=None)
@given(
    num_operations=st.integers(min_value=1, max_value=60),
    seed=st.integers(min_value=0, max_value=10_000),
    layer_width=st.integers(min_value=1, max_value=10),
    merge_probability=st.floats(min_value=0.0, max_value=1.0),
)
def test_layer_width_cap_is_respected(num_operations, seed, layer_width, merge_probability):
    """Property: no layer ever holds more device operations than the cap."""
    graph = random_assay(
        RandomAssayConfig(
            num_operations=num_operations,
            seed=seed,
            layer_width=layer_width,
            merge_probability=merge_probability,
        )
    )
    widths = layer_widths(graph)
    assert max(widths.values()) <= layer_width, widths
    assert validate_graph(graph) == []
    assert len(graph.device_operations()) == num_operations


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    layer_width=st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
)
def test_at_most_two_fluid_inputs_per_mix(seed, layer_width):
    """Property: the two-input mixer invariant holds with and without a cap."""
    graph = random_assay(
        RandomAssayConfig(num_operations=30, seed=seed, layer_width=layer_width)
    )
    assert all(graph.in_degree(op.op_id) <= 2 for op in graph.device_operations())


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    durations=st.lists(
        st.integers(min_value=1, max_value=500), min_size=1, max_size=6, unique=True
    ),
)
def test_duration_pool_is_honored(seed, durations):
    """Property: every operation's duration comes from the configured pool."""
    graph = random_assay(
        RandomAssayConfig(num_operations=25, seed=seed, durations=tuple(durations))
    )
    pool = set(durations)
    assert all(op.duration in pool for op in graph.device_operations())


def test_seed_determinism_across_processes():
    """The same config produces the same graph in a fresh interpreter."""
    code = (
        "import hashlib, json\n"
        "from repro.graph.generators import RandomAssayConfig, random_assay\n"
        "g = random_assay(RandomAssayConfig(num_operations=20, seed=99, layer_width=4))\n"
        "payload = json.dumps([g.edges(), [(o.op_id, o.duration) for o in g.operations()]])\n"
        "print(hashlib.sha256(payload.encode()).hexdigest()[:16])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = "random"  # determinism must not rely on hash()
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    local = random_assay(RandomAssayConfig(num_operations=20, seed=99, layer_width=4))
    assert out.stdout.strip() == graph_digest(local)


@pytest.mark.parametrize(
    "size,digest",
    [
        (30, "25a257260ca14f0e"),
        (70, "36f0d2c637e72578"),
        (100, "973454999a4cd58a"),
    ],
)
def test_historical_presets_are_byte_identical(size, digest):
    """The RA presets (layer cap off) must never drift: the golden pins,
    the perfbench workloads, and the paper comparison all stand on them."""
    assert graph_digest(paper_random_assay(size)) == digest


def test_layer_width_validation():
    with pytest.raises(ValueError, match="layer_width"):
        random_assay(RandomAssayConfig(num_operations=5, layer_width=0))
    with pytest.raises(ValueError, match="durations"):
        random_assay(RandomAssayConfig(num_operations=5, durations=()))
    with pytest.raises(ValueError, match="num_inputs"):
        random_assay(RandomAssayConfig(num_operations=5, num_inputs=0))


def test_tight_cap_produces_a_chain():
    """layer_width=1 forces a strictly layered chain of depth N."""
    graph = random_assay(RandomAssayConfig(num_operations=15, seed=2, layer_width=1))
    widths = layer_widths(graph)
    assert max(widths.values()) == 1
    assert len(widths) == 15  # one op per layer → depth equals op count
