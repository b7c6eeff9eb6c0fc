"""Seeded inputs shared by the preparation and workload processes.

Training inputs are graphs drawn from the run's seed.  The serving
workloads serve one fixed graph and model (as a deployment would); their
seed draws the traffic: the request mix, or the delta log.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.graphs import chord_ring_graph, load_dataset
from repro.graphs.generators import attributed_graph

#: train-arxiv: the arxiv analogue at quarter scale (1,000 nodes per graph).
TRAIN_ARXIV_SCALE = 0.25
#: serve-mixed: the arxiv analogue at half scale (2,000 nodes), dataset seed 0.
SERVE_ARXIV_SCALE = 0.5
#: train-sampled: the bench_scale.py acceptance run.
RING_NODES, RING_CHORDS, RING_FEATURES = 500_000, 2.0, 16
#: stream-replay: the sparse SBM of bench_stream.py (seed 0).
SBM_NODES, SBM_CLASSES, SBM_FEATURES, SBM_DEGREE = 2000, 8, 32, 4.0
#: Checkpoint training for the serving workloads (done in prep.py).
CHECKPOINT_METHOD, CHECKPOINT_EPOCHS = "grace", 6
#: serve-mixed request mix: known embed, known classify, unseen embed.
MIX = (0.7, 0.1, 0.2)
#: Requests per second of run length (about today's closed-loop rate).
REQUESTS_PER_SECOND = 1500
#: stream-replay: deltas per second of run length, replayed in batches of
#: LOG_BATCH with PROBES_PER_BATCH reads after each.
DELTAS_PER_SECOND, LOG_BATCH, PROBES_PER_BATCH = 35, 20, 16


def log_deltas(seconds: float) -> int:
    """Length of the run's delta log: whole batches."""
    return LOG_BATCH * max(1, round(DELTAS_PER_SECOND * seconds / LOG_BATCH))


def train_graph(seed: int, index: int):
    """The ``index``-th training graph of a run."""
    return load_dataset("arxiv", seed=seed * 1000 + index, scale=TRAIN_ARXIV_SCALE)


def serve_graph():
    return load_dataset("arxiv", seed=0, scale=SERVE_ARXIV_SCALE)


def ring_graph(seed: int, feature_dir: str):
    return chord_ring_graph(RING_NODES, RING_CHORDS, seed=seed,
                            num_features=RING_FEATURES, feature_dir=feature_dir)


def sbm_graph():
    return attributed_graph(num_nodes=SBM_NODES, num_classes=SBM_CLASSES,
                            num_features=SBM_FEATURES, avg_degree=SBM_DEGREE,
                            homophily=0.8, seed=0, name="stream-sbm")


def serve_requests(graph, seed: int, count: int) -> List[dict]:
    """The serve-mixed request sequence, in ``MIX`` proportions: known-node
    embed, known-node classify, and unseen-node embed (an existing node's
    features plus noise, joined to that node and half of its neighbours)."""
    rng = np.random.default_rng([seed, 7])
    kinds = rng.choice(3, size=count, p=MIX)
    n = graph.num_nodes
    indptr, indices = graph.adjacency.indptr, graph.adjacency.indices
    scale = float(np.std(graph.features)) or 1.0
    out = []
    for kind in kinds:
        node = int(rng.integers(n))
        if kind == 0:
            out.append({"op": "embed", "node": node})
        elif kind == 1:
            out.append({"op": "classify", "node": node})
        else:
            nbrs = indices[indptr[node]:indptr[node + 1]]
            keep = nbrs[rng.random(nbrs.size) < 0.5]
            features = graph.features[node] + rng.normal(scale=0.1 * scale,
                                                         size=graph.num_features)
            out.append({"op": "embed", "features": features.tolist(),
                        "neighbors": sorted({node, *map(int, keep)})})
    return out
