"""Output checks computed apart from the program.

Every function here takes plain arrays and returns a list of problems
(empty when the output is correct).  Nothing here imports ``repro``: the
oracles are rebuilt from numpy/scipy so that a fault in the program cannot
also hide in its own check.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

#: Relative gap between the best and second-best squared distance below
#: which a node's nearest coreset member is a near-tie (float noise between
#: two ways of computing R may pick either).
TIE_RTOL = 1e-9


def gcn_propagate(adjacency: sp.spmatrix, features: np.ndarray, hops: int) -> np.ndarray:
    """``R = (D̃^{-1/2}(A+I)D̃^{-1/2})^hops X`` with D̃ the degrees of A+I."""
    n = adjacency.shape[0]
    a_hat = sp.csr_matrix(adjacency, dtype=np.float64) + sp.identity(n, format="csr")
    deg = np.asarray(a_hat.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(deg)
    a_n = sp.diags(inv_sqrt) @ a_hat @ sp.diags(inv_sqrt)
    r = np.asarray(features, dtype=np.float64)
    for _ in range(hops):
        r = a_n @ r
    return np.asarray(r)


def nearest_with_ties(r: np.ndarray, selected: np.ndarray,
                      chunk: int = 512) -> Tuple[np.ndarray, np.ndarray]:
    """Brute-force nearest selected row per node, plus a near-tie mask."""
    sel = r[selected]
    sel_sq = (sel ** 2).sum(axis=1)
    n = r.shape[0]
    nearest = np.empty(n, dtype=np.int64)
    tied = np.zeros(n, dtype=bool)
    for lo in range(0, n, chunk):
        block = r[lo:lo + chunk]
        d = (block ** 2).sum(axis=1)[:, None] - 2.0 * block @ sel.T + sel_sq[None, :]
        np.maximum(d, 0.0, out=d)
        order = np.argsort(d, axis=1, kind="stable")[:, :2]
        best = np.take_along_axis(d, order, axis=1)
        nearest[lo:lo + chunk] = order[:, 0]
        if sel.shape[0] > 1:
            gap = best[:, 1] - best[:, 0]
            tied[lo:lo + chunk] = gap <= TIE_RTOL * np.maximum(best[:, 1], 1e-300)
    return nearest, tied


def check_coreset(adjacency: sp.spmatrix, features: np.ndarray, hops: int,
                  budget: int, selected: np.ndarray, weights: np.ndarray,
                  assignment: np.ndarray) -> List[str]:
    """Alg. 2 output: ``budget`` distinct nodes, λ = nearest-selected counts."""
    problems: List[str] = []
    n = adjacency.shape[0]
    selected = np.asarray(selected, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.float64)
    assignment = np.asarray(assignment, dtype=np.int64)
    if selected.size != budget:
        problems.append(f"coreset has {selected.size} nodes, budget is {budget}")
    if np.unique(selected).size != selected.size:
        problems.append(f"coreset repeats {selected.size - np.unique(selected).size} node(s)")
    if selected.size and (selected.min() < 0 or selected.max() >= n):
        problems.append("coreset names a node outside the graph")
        return problems
    if weights.shape != selected.shape:
        problems.append(f"{weights.size} weights for {selected.size} coreset nodes")
        return problems
    if not math.isclose(float(weights.sum()), float(n), rel_tol=0, abs_tol=1e-9):
        problems.append(f"weights sum to {weights.sum()}, not n = {n}")
    r = gcn_propagate(adjacency, features, hops)
    nearest, tied = nearest_with_ties(r, selected)
    # Near-ties keep the program's choice if it is one of the tied rows; the
    # tie test is against our own distances, so a wrong choice is still caught.
    expected = nearest.copy()
    if assignment.shape == nearest.shape:
        ok_tie = tied & (assignment >= 0) & (assignment < selected.size)
        expected[ok_tie] = assignment[ok_tie]
    counts = np.bincount(expected, minlength=selected.size).astype(np.float64)
    off = np.flatnonzero(counts != weights)
    if off.size:
        problems.append(
            f"{off.size} weight(s) differ from brute-force nearest-selected "
            f"counts, e.g. coreset slot {off[0]}: {weights[off[0]]} vs {counts[off[0]]}")
    return problems


def check_loss_below_uniform(loss: float, anchors: int) -> List[str]:
    """InfoNCE with ``anchors`` positives must beat uniform similarities."""
    ceiling = math.log(2 * anchors - 1)
    if not math.isfinite(loss):
        return [f"loss is {loss}"]
    if loss >= ceiling:
        return [f"loss {loss:.4f} is not below ln(2*{anchors}-1) = {ceiling:.4f}"]
    return []


def check_finite(name: str, values: np.ndarray) -> List[str]:
    values = np.asarray(values, dtype=np.float64)
    bad = int(values.size - np.isfinite(values).sum())
    return [f"{name} has {bad} non-finite value(s)"] if bad else []


def check_rows_identical(served: np.ndarray, offline: np.ndarray,
                         nodes: np.ndarray) -> List[str]:
    """Served rows must equal the offline rows bit for bit."""
    served = np.asarray(served, dtype=np.float64)
    expect = np.asarray(offline, dtype=np.float64)[np.asarray(nodes, dtype=np.int64)]
    if served.shape != expect.shape:
        return [f"served rows have shape {served.shape}, offline {expect.shape}"]
    differ = np.flatnonzero(np.any(served != expect, axis=1))
    if differ.size:
        return [f"{differ.size} served row(s) differ from the offline embedding, "
                f"e.g. node {int(np.asarray(nodes)[differ[0]])}"]
    return []


def check_rows_close(name: str, got: np.ndarray, expect: np.ndarray,
                     atol: float = 1e-6) -> List[str]:
    got = np.asarray(got, dtype=np.float64)
    expect = np.asarray(expect, dtype=np.float64)
    if got.shape != expect.shape:
        return [f"{name}: shape {got.shape} vs {expect.shape}"]
    err = float(np.max(np.abs(got - expect))) if got.size else 0.0
    if not err <= atol:
        return [f"{name}: max |diff| {err:.3g} exceeds {atol:g}"]
    return []


def check_proba(proba: Sequence[float], label: int, num_classes: int) -> List[str]:
    p = np.asarray(proba, dtype=np.float64)
    problems: List[str] = []
    if p.shape != (num_classes,):
        return [f"classify returned {p.shape} probabilities for {num_classes} classes"]
    if (p < 0).any() or not math.isclose(float(p.sum()), 1.0, abs_tol=1e-6):
        problems.append(f"classify probabilities are not a distribution (sum {p.sum()})")
    if int(np.argmax(p)) != int(label):
        problems.append(f"classify label {label} is not the argmax {int(np.argmax(p))}")
    return problems


def splice(adjacency: sp.spmatrix, features: np.ndarray, new_features: np.ndarray,
           neighbors: Iterable[int]) -> Tuple[sp.csr_matrix, np.ndarray]:
    """The graph with one extra node (id n) joined to ``neighbors``."""
    n = adjacency.shape[0]
    nbrs = np.asarray(list(neighbors), dtype=np.int64)
    link = sp.csr_matrix((np.ones(nbrs.size), (nbrs, np.zeros(nbrs.size, dtype=np.int64))),
                         shape=(n, 1))
    spliced = sp.bmat([[sp.csr_matrix(adjacency, dtype=np.float64), link],
                       [link.T, None]], format="csr")
    feats = np.vstack([np.asarray(features, dtype=np.float64),
                       np.asarray(new_features, dtype=np.float64)[None, :]])
    return spliced, feats


def check_block(adjacency: sp.csr_matrix, nodes: np.ndarray, a_n: sp.spmatrix,
                seeds: np.ndarray, fanouts: Sequence[int]) -> List[str]:
    """A sampled block: every entry is a graph edge or a self-loop, and each
    hop's rows keep at most that hop's fanout (at least one when the node
    has neighbours).

    Hop 0 rows are the seeds; hop h+1 rows are the nodes first reached at
    hop h.  Rows first reached at the last hop carry only their self-loop.
    """
    problems: List[str] = []
    adjacency = sp.csr_matrix(adjacency)
    nodes = np.asarray(nodes, dtype=np.int64)
    coo = sp.coo_matrix(a_n)
    off = coo.row != coo.col
    u, v = nodes[coo.row[off]], nodes[coo.col[off]]
    present = np.asarray(adjacency[u, v]).ravel() != 0 if u.size else np.zeros(0, bool)
    if not present.all():
        bad = np.flatnonzero(~present)[0]
        problems.append(f"{int((~present).sum())} block edge(s) are not graph edges, "
                        f"e.g. ({int(u[bad])}, {int(v[bad])})")
    per_row = np.bincount(coo.row[off], minlength=nodes.size)
    degree = np.diff(adjacency.indptr)
    seen = np.unique(np.asarray(seeds, dtype=np.int64))
    frontier = seen
    for hop, fanout in enumerate(list(fanouts) + [0]):
        local = np.searchsorted(nodes, frontier)
        if (local >= nodes.size).any() or (nodes[np.minimum(local, nodes.size - 1)] != frontier).any():
            problems.append(f"hop {hop} nodes are missing from the block")
            return problems
        counts = per_row[local]
        limit = np.minimum(degree[frontier], fanout)
        if (counts > limit).any():
            problems.append(f"hop {hop}: a row keeps {int(counts.max())} neighbours, "
                            f"fanout is {fanout}")
        if fanout and ((limit > 0) & (counts == 0)).any():
            problems.append(f"hop {hop}: a node with neighbours sampled none")
        reached = np.unique(coo.col[off][np.isin(coo.row[off], local)])
        frontier = np.setdiff1d(nodes[reached], seen)
        seen = np.union1d(seen, frontier)
    if seen.size != nodes.size:
        problems.append(f"block holds {nodes.size - seen.size} node(s) no hop reached")
    return problems


class LogReplay:
    """Set-based replay of a delta log, independent of ``repro.stream``."""

    def __init__(self, num_nodes: int, edges: np.ndarray, features: np.ndarray):
        self.num_nodes = int(num_nodes)
        self.edges = {(int(min(a, b)), int(max(a, b))) for a, b in np.asarray(edges)}
        self.features: Dict[int, np.ndarray] = {}
        self.base = np.asarray(features, dtype=np.float64)

    def apply(self, record: dict) -> bool:
        """Apply one JSON delta record; False if it cannot apply."""
        op = record["op"]
        if op in ("add_edge", "remove_edge"):
            u, v = int(record["u"]), int(record["v"])
            key = (min(u, v), max(u, v))
            if u == v or key[1] >= self.num_nodes:
                return False
            if op == "add_edge" and key not in self.edges:
                self.edges.add(key)
                return True
            if op == "remove_edge" and key in self.edges:
                self.edges.remove(key)
                return True
        elif op == "add_node" and int(record["node"]) == self.num_nodes:
            self.features[self.num_nodes] = np.asarray(record["features"], dtype=np.float64)
            self.num_nodes += 1
            return True
        elif op == "update_features" and 0 <= int(record["node"]) < self.num_nodes:
            self.features[int(record["node"])] = np.asarray(record["features"], dtype=np.float64)
            return True
        return False

    def feature_matrix(self) -> np.ndarray:
        out = np.zeros((self.num_nodes, self.base.shape[1]))
        out[:self.base.shape[0]] = self.base
        for node, row in self.features.items():
            out[node] = row
        return out

    def adjacency(self) -> sp.csr_matrix:
        if not self.edges:
            return sp.csr_matrix((self.num_nodes, self.num_nodes))
        e = np.asarray(sorted(self.edges), dtype=np.int64)
        rows = np.concatenate([e[:, 0], e[:, 1]])
        cols = np.concatenate([e[:, 1], e[:, 0]])
        adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)),
                            shape=(self.num_nodes, self.num_nodes))
        adj.sort_indices()
        return adj


def check_csr_equal(indptr: np.ndarray, indices: np.ndarray,
                    expect: sp.csr_matrix) -> List[str]:
    """The program's CSR structure must equal the rebuilt one exactly."""
    expect = sp.csr_matrix(expect)
    expect.sort_indices()
    indptr = np.asarray(indptr)
    indices = np.asarray(indices)
    if indptr.shape != expect.indptr.shape:
        return [f"CSR has {indptr.size - 1} rows, replay has {expect.shape[0]}"]
    if not np.array_equal(indptr, expect.indptr) or not np.array_equal(indices, expect.indices):
        rows = np.flatnonzero(np.diff(indptr) != np.diff(expect.indptr))
        where = f"row {int(rows[0])}" if rows.size else "column order"
        return [f"CSR differs from the from-scratch rebuild of the log at {where} "
                f"({indices.size // 2} vs {expect.nnz // 2} edges)"]
    return []
