"""The cluster-based coreset objective of Def. 1 (Eq. 13/14).

Given the propagated features ``R = A_n^L X`` and a KMeans partition
``C = {C_i}``, the representativity cost of a selected set ``V_s`` is::

    RS(V_s) = Σ_i Σ_{v ∈ C_i} min( min_{u1 ∈ C_{V_s,i}} ||R[v] − R[u1]||,
                                    min_{u2 ∈ V_s \\ C_i} (||c_i − R[u2]|| + d_i^max) )

(lower is better).  The greedy selector needs *marginal gains*
``ΔRS(v | V_s) = RS(V_s) − RS(V_s ∪ {v})`` for hundreds of candidates per
round, so this module maintains the objective incrementally:

* ``eff[v]`` — each node's current covering cost under ``V_s``;
* a padded ``(n_c, W)`` matrix of ``eff`` grouped by cluster, where ``W``
  is the size of the *largest* cluster (empty slots hold ``-inf``).

Cost of one candidate's gain: the cross-cluster term compares the
candidate's ``n_c`` thresholds against every slot of the padded matrix,
``O(n_c · W)`` (at least ``O(n)``, and up to ``n_c`` times that when the
clusters are unbalanced); the intra-cluster term is ``O(|C_j| · d)`` for
the candidate's own cluster ``j``.  A greedy round batches ``n_s``
candidates into a dense ``(chunk, n_c, W)`` tensor (``chunk`` capped by
``gain_budget_bytes``), so one round costs ``O(n_s · n_c · W)`` time and
selection time follows the widest k-means cluster, not ``n`` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .kmeans import KMeansResult, kmeans


@dataclass
class ClusterModel:
    """Clustered view of the propagated-feature space.

    Attributes
    ----------
    r:
        ``(n, d)`` propagated features (``R``).
    assignments:
        ``(n,)`` cluster index per node.
    centers:
        ``(n_c, d)`` cluster centers.
    members:
        Per-cluster node-index arrays.
    d_max:
        ``d_i^max`` — max distance between a cluster's nodes and its center.
    center_distances:
        ``(n, n_c)`` distances from every node to every center (used for the
        cross-cluster relaxation and the unrepresented-cost cap).
    """

    r: np.ndarray
    assignments: np.ndarray
    centers: np.ndarray
    members: List[np.ndarray]
    d_max: np.ndarray
    center_distances: np.ndarray

    @property
    def num_clusters(self) -> int:
        return self.centers.shape[0]

    @property
    def num_nodes(self) -> int:
        return self.r.shape[0]


def build_cluster_model(
    r: np.ndarray,
    num_clusters: int,
    rng: Optional[np.random.Generator] = None,
    clustering: Optional[KMeansResult] = None,
) -> ClusterModel:
    """Cluster ``R`` (Alg. 2 line 2) and precompute the Def. 1 quantities."""
    r = np.asarray(r, dtype=np.float64)
    if clustering is None:
        clustering = kmeans(r, num_clusters, rng=rng)
    assignments = clustering.assignments
    centers = clustering.centers
    k = centers.shape[0]
    members = [np.flatnonzero(assignments == i) for i in range(k)]

    # ||R[v] - c_i|| for all v, i (chunked matmul keeps memory bounded).
    center_sq = (centers ** 2).sum(axis=1)
    node_sq = (r ** 2).sum(axis=1)
    cross = r @ centers.T
    dist_sq = node_sq[:, None] - 2.0 * cross + center_sq[None, :]
    np.maximum(dist_sq, 0.0, out=dist_sq)
    center_distances = np.sqrt(dist_sq)

    d_max = np.zeros(k)
    for i, mem in enumerate(members):
        if mem.size:
            d_max[i] = center_distances[mem, i].max()

    return ClusterModel(
        r=r,
        assignments=assignments,
        centers=centers,
        members=members,
        d_max=d_max,
        center_distances=center_distances,
    )


class _ClusterCostMatrix:
    """Per-cluster ``eff`` values in one padded matrix.

    Supports the *batched* query ``gains(t) = [Σ_{v ∈ C_i} max(0, eff[v] − t_i)]_i``
    — how much each cluster's covering cost would drop if relaxation
    threshold ``t_i`` became available to it — as a single vectorized
    ``O(n)`` expression.  (An earlier sorted-prefix-sum variant was
    ``O(log |C_i|)`` per cluster but paid a python-level call per cluster
    per candidate, which dominated selection time on larger graphs.)

    Each node's fixed slot ``(row, column) = (cluster, rank-in-cluster)`` is
    precomputed, so a greedy ``add`` scatters only the entries whose ``eff``
    actually dropped instead of refilling the whole padded matrix.
    """

    _PAD = -np.inf  # pads contribute max(0, -inf - t) = 0

    def __init__(self, eff: np.ndarray, members: List[np.ndarray]) -> None:
        self._members = members
        width = max((m.size for m in members), default=0)
        self._matrix = np.full((len(members), max(width, 1)), self._PAD)
        self._row = np.zeros(eff.shape[0], dtype=np.int64)
        self._col = np.zeros(eff.shape[0], dtype=np.int64)
        for i, mem in enumerate(members):
            self._row[mem] = i
            self._col[mem] = np.arange(mem.size)
        self.rebuild(eff)

    def rebuild(self, eff: np.ndarray) -> None:
        self._matrix.fill(self._PAD)
        for i, mem in enumerate(self._members):
            if mem.size:
                self._matrix[i, :mem.size] = eff[mem]

    def update(self, nodes: np.ndarray, values: np.ndarray) -> None:
        """Scatter new ``eff`` values for the given nodes into their slots."""
        self._matrix[self._row[nodes], self._col[nodes]] = values

    def gains(self, thresholds: np.ndarray) -> np.ndarray:
        """Per-cluster gain for a vector of thresholds (one per cluster)."""
        diff = self._matrix - thresholds[:, None]
        np.maximum(diff, 0.0, out=diff)
        return diff.sum(axis=1)


class RepresentativityObjective:
    """Incremental evaluator of ``RS(V_s)`` supporting greedy selection.

    Usage::

        obj = RepresentativityObjective(model)
        gain = obj.marginal_gain(v)     # ΔRS(v | V_s), does not mutate
        obj.add(v)                      # commit v into V_s
        obj.cost()                      # current RS(V_s)

    ``RS(∅)`` is made finite by capping every node's covering cost at a
    constant strictly larger than any achievable relaxed distance, so the
    first selection always has positive gain.
    """

    #: Default ceiling on the transient ``(chunk, n_c, width)`` gain tensor.
    DEFAULT_GAIN_BUDGET_BYTES = 256 * 2 ** 20

    def __init__(self, model: ClusterModel, gain_budget_bytes: Optional[int] = None) -> None:
        self.model = model
        # Cap: any selected node u gives cluster i at most
        # ||c_i - R[u]|| + d_i^max <= max center distance + max d_i, so this
        # constant dominates every reachable cost.
        self.unrepresented_cost = float(
            model.center_distances.max(initial=0.0) + model.d_max.max(initial=0.0) + 1.0
        )
        self.eff = np.full(model.num_nodes, self.unrepresented_cost)
        self.selected: List[int] = []
        self._costs = _ClusterCostMatrix(self.eff, model.members)
        self.gain_budget_bytes = int(
            gain_budget_bytes if gain_budget_bytes is not None
            else self.DEFAULT_GAIN_BUDGET_BYTES
        )
        if self.gain_budget_bytes <= 0:
            raise ValueError("gain_budget_bytes must be positive")

    # ------------------------------------------------------------------
    def cost(self) -> float:
        """Current value of the Def. 1 objective (plus the finite cap)."""
        return float(self.eff.sum())

    def _candidate_terms(self, candidate: int):
        """Intra-cluster distances and cross-cluster thresholds for a node."""
        model = self.model
        j = int(model.assignments[candidate])
        mem_j = model.members[j]
        diff = model.r[mem_j] - model.r[candidate]
        intra = np.sqrt((diff ** 2).sum(axis=1))
        cross = model.center_distances[candidate] + model.d_max  # per-cluster
        return j, mem_j, intra, cross

    def marginal_gain(self, candidate: int) -> float:
        """``RS(V_s) − RS(V_s ∪ {candidate})`` without mutating state."""
        j, mem_j, intra, cross = self._candidate_terms(candidate)
        gain = float(np.maximum(self.eff[mem_j] - intra, 0.0).sum())
        cross_gains = self._costs.gains(cross)
        gain += float(cross_gains.sum() - cross_gains[j])  # own cluster uses intra
        return gain

    def marginal_gains(self, candidates: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`marginal_gain` over a candidate batch.

        One greedy round of Alg. 2 evaluates ``n_s`` candidates; batching
        them turns per-candidate python overhead into three numpy passes
        (cross-cluster tensor, per-cluster intra distances, row reductions).
        The transient ``(chunk, n_c, width)`` tensor is bounded by
        ``gain_budget_bytes``: candidate batches larger than the budget are
        processed in slices, so selection never allocates gigabytes on
        large graphs regardless of ``n_s``.
        """
        candidates = np.asarray(candidates, dtype=np.int64)
        if candidates.size == 0:
            return np.zeros(0)
        per_candidate = max(self._costs._matrix.size * 8, 1)
        chunk = max(1, self.gain_budget_bytes // per_candidate)
        if candidates.size <= chunk:
            return self._marginal_gains_block(candidates)
        return np.concatenate([
            self._marginal_gains_block(candidates[start:start + chunk])
            for start in range(0, candidates.size, chunk)
        ])

    def _marginal_gains_block(self, candidates: np.ndarray) -> np.ndarray:
        model = self.model
        m = candidates.size

        # Cross-cluster term for every candidate at once: (m, n_c, width).
        thresholds = model.center_distances[candidates] + model.d_max[None, :]
        diff = self._costs._matrix[None, :, :] - thresholds[:, :, None]
        np.maximum(diff, 0.0, out=diff)
        per_cluster = diff.sum(axis=2)                       # (m, n_c)
        own = model.assignments[candidates]
        gains = per_cluster.sum(axis=1) - per_cluster[np.arange(m), own]

        # Intra term, grouped by the candidates' own clusters.
        for j in np.unique(own):
            in_j = np.flatnonzero(own == j)
            mem = model.members[j]
            if mem.size == 0:
                continue
            cand_r = model.r[candidates[in_j]]               # (c_j, d)
            d = (
                (cand_r ** 2).sum(axis=1)[:, None]
                - 2.0 * cand_r @ model.r[mem].T
                + (model.r[mem] ** 2).sum(axis=1)[None, :]
            )
            np.maximum(d, 0.0, out=d)
            np.sqrt(d, out=d)
            gains[in_j] += np.maximum(self.eff[mem][None, :] - d, 0.0).sum(axis=1)
        return gains

    def add(self, candidate: int) -> float:
        """Commit ``candidate`` into ``V_s``; returns the realized gain.

        ``eff`` only ever decreases, so the padded cost matrix is patched in
        place for exactly the nodes whose covering cost improved — ``O(n)``
        total instead of an ``O(n_c · width)`` rebuild per greedy round.
        """
        j, mem_j, intra, cross = self._candidate_terms(candidate)
        before = self.cost()
        thresholds = cross[self.model.assignments].copy()
        thresholds[mem_j] = np.inf  # own cluster uses the exact distances
        new_eff = np.minimum(self.eff, thresholds)
        new_eff[mem_j] = np.minimum(new_eff[mem_j], intra)
        changed = np.flatnonzero(new_eff < self.eff)
        self.eff = new_eff
        self._costs.update(changed, new_eff[changed])
        self.selected.append(int(candidate))
        return before - self.cost()


def representativity_cost(model: ClusterModel, selected) -> float:
    """Direct (non-incremental) evaluation of Eq. 14; used to cross-check the
    incremental implementation in tests.

    Nodes not covered by any term keep the same finite cap as
    :class:`RepresentativityObjective` so both evaluations agree exactly.
    """
    selected = np.asarray(sorted(set(int(v) for v in selected)), dtype=np.int64)
    cap = float(model.center_distances.max(initial=0.0) + model.d_max.max(initial=0.0) + 1.0)
    total = 0.0
    for i, mem in enumerate(model.members):
        if mem.size == 0:
            continue
        in_cluster = selected[model.assignments[selected] == i]
        out_cluster = selected[model.assignments[selected] != i]
        if out_cluster.size:
            relax = float((model.center_distances[out_cluster, i] + model.d_max[i]).min())
        else:
            relax = cap
        if in_cluster.size:
            diff = model.r[mem][:, None, :] - model.r[in_cluster][None, :, :]
            intra = np.sqrt((diff ** 2).sum(axis=2)).min(axis=1)
        else:
            intra = np.full(mem.size, cap)
        total += float(np.minimum(np.minimum(intra, relax), cap).sum())
    return total
