"""Each output check accepts the program's real output and rejects a
deliberately corrupted copy of it.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # noqa: E402
from repro.core import select_coreset  # noqa: E402
from repro.graphs import Graph, load_dataset  # noqa: E402
from repro.graphs.generators import attributed_graph  # noqa: E402
from repro.nn import GCN  # noqa: E402
from repro.scale import NeighborSampler  # noqa: E402
from repro.stream import DeltaGenerator, MutableGraph  # noqa: E402


@pytest.fixture(scope="module")
def graph():
    return load_dataset("cora", seed=3, scale=0.15)


def test_coreset_check_rejects_duplicated_node(graph):
    budget = 40
    result = select_coreset(graph, budget=budget, num_clusters=8, sample_size=30,
                            rng=np.random.default_rng(0))
    args = (graph.adjacency, graph.features, 2, budget)
    assert checks.check_coreset(*args, result.selected, result.weights, result.assignment) == []
    duplicated = result.selected.copy()
    duplicated[1] = duplicated[0]
    problems = checks.check_coreset(*args, duplicated, result.weights, result.assignment)
    assert any("repeats" in p for p in problems)


def test_coreset_check_rejects_moved_weight(graph):
    budget = 40
    result = select_coreset(graph, budget=budget, num_clusters=8, sample_size=30,
                            rng=np.random.default_rng(1))
    weights = result.weights.copy()
    weights[0] += 1.0
    weights[1] -= 1.0
    problems = checks.check_coreset(graph.adjacency, graph.features, 2, budget,
                                    result.selected, weights, result.assignment)
    assert any("nearest-selected" in p for p in problems)


def test_embedding_checks_reject_one_changed_row(graph):
    encoder = GCN(graph.num_features, 16, 8, num_layers=2, seed=0)
    offline = encoder.embed(graph)
    nodes = np.arange(0, graph.num_nodes, 3)
    served = offline[nodes].copy()
    assert checks.check_rows_identical(served, offline, nodes) == []
    served[5, 2] = np.nextafter(served[5, 2], np.inf)
    assert checks.check_rows_identical(served, offline, nodes)
    healed = offline.copy()
    assert checks.check_rows_close("snapshot", healed, offline) == []
    healed[7] += 1e-3
    assert checks.check_rows_close("snapshot", healed, offline)


def test_unseen_oracle_matches_program_splice(graph):
    encoder = GCN(graph.num_features, 16, 8, num_layers=2, seed=0)
    features = graph.features[4] + 0.1
    neighbors = [4, *graph.neighbors(4)[:2].tolist()]
    adjacency, feats = checks.splice(graph.adjacency, graph.features, features, neighbors)
    spliced = Graph(adjacency, feats, labels=None)
    assert spliced.num_nodes == graph.num_nodes + 1
    assert sorted(spliced.neighbors(graph.num_nodes).tolist()) == sorted(neighbors)
    row = encoder.embed(spliced)[graph.num_nodes]
    assert checks.check_finite("row", row) == []


def test_csr_check_rejects_dropped_edge():
    base = attributed_graph(num_nodes=120, num_classes=3, num_features=6,
                            avg_degree=4.0, homophily=0.8, seed=5)
    deltas = DeltaGenerator(base, seed=5).generate(60)
    mutable = MutableGraph(base)
    mutable.apply(deltas)
    replay = checks.LogReplay(base.num_nodes, base.edge_array(), base.features)
    for delta in deltas:
        assert replay.apply(delta.to_json())
    expect = replay.adjacency()
    served = mutable.as_graph().adjacency
    assert checks.check_csr_equal(served.indptr, served.indices, expect) == []
    rebuilt = Graph.from_edge_list(replay.num_nodes, sorted(replay.edges),
                                   features=replay.feature_matrix())
    assert checks.check_csr_equal(rebuilt.adjacency.indptr, rebuilt.adjacency.indices,
                                  expect) == []
    # Drop the undirected edge (u, v): both directed entries go.
    u = int(np.flatnonzero(np.diff(served.indptr))[0])
    v = int(served.indices[served.indptr[u]])
    dropped = served.tolil()
    dropped[u, v] = 0
    dropped[v, u] = 0
    dropped = sp.csr_matrix(dropped)
    dropped.eliminate_zeros()
    dropped.sort_indices()
    assert checks.check_csr_equal(dropped.indptr, dropped.indices, expect)


def test_block_check_rejects_foreign_edge(graph):
    sampler = NeighborSampler(graph.adjacency, fanouts=[3, 2])
    seeds = np.arange(0, graph.num_nodes, 7)
    block = sampler.sample(seeds, rng=np.random.default_rng(0))
    assert checks.check_block(graph.adjacency, block.nodes, block.a_n, seeds, [3, 2]) == []
    coo = block.a_n.tocoo()
    adjacency = graph.adjacency.tocsr()
    off = np.flatnonzero(coo.row != coo.col)
    # Re-point one block edge at a block node that is not a graph neighbour.
    for slot in off:
        row = int(coo.row[slot])
        neighbours = set(adjacency[block.nodes[row]].indices.tolist())
        foreign = [c for c in range(block.nodes.size)
                   if c != row and int(block.nodes[c]) not in neighbours
                   and c not in set(coo.col[coo.row == row].tolist())]
        if foreign:
            cols = coo.col.copy()
            cols[slot] = foreign[0]
            break
    corrupted = sp.csr_matrix((coo.data, (coo.row, cols)), shape=block.a_n.shape)
    problems = checks.check_block(graph.adjacency, block.nodes, corrupted, seeds, [3, 2])
    assert any("not graph edges" in p for p in problems)


def test_block_check_rejects_fanout_overrun(graph):
    sampler = NeighborSampler(graph.adjacency, fanouts=[None, None], num_hops=2)
    seeds = np.arange(0, graph.num_nodes, 5)
    block = sampler.sample(seeds)
    degree = np.diff(graph.adjacency.indptr)
    assert degree[seeds].max() > 1
    problems = checks.check_block(graph.adjacency, block.nodes, block.a_n, seeds, [1, 1])
    assert any("fanout is 1" in p for p in problems)


def test_loss_ceiling():
    assert checks.check_loss_below_uniform(1.0, 10) == []
    assert checks.check_loss_below_uniform(np.log(19.0), 10)
    assert checks.check_loss_below_uniform(float("nan"), 10)
