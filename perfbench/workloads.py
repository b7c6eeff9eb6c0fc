"""The four benchmark workloads; run.py starts one per process.

    python3 perfbench/workloads.py --workload W --seed N --seconds S
        --trace 0|1 --workdir DIR --spawn-time T

Each workload is a set-up (repeated ``SETUP_REPEATS`` times, median
reported), a timed phase, and output checks made after the phase.  With
``--trace 1`` the phase runs twice: untraced, then with ``spans.Recorder``
wrappers around each layer's public functions; per-layer metrics come from
the second and ``bench.trace_overhead_pct`` compares the two.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np
import scipy

import checks
import guard
import inputs
import prep
from spans import Recorder

import repro.core.node_selector as node_selector
import repro.core.trainer as core_trainer
import repro.stream.serving as stream_serving
from repro.autograd import Tensor
from repro.autograd.optim import SGD, Adam, AdamW
from repro.baselines import get_method
from repro.contrast import L2LContrast
from repro.core import E2GCL, RepresentativityObjective
from repro.engine import Hook
from repro.eval.node_classification import evaluate_embeddings
from repro.graphs import Graph, split_nodes
from repro.nn import GCN
from repro.nn.decoders import LogisticRegressionDecoder
from repro.nn.gcn import GCNLayer
from repro.scale import FeatureStore, NeighborSampler
from repro.serve import (
    AdmissionController,
    EmbeddingServer,
    EmbeddingStore,
    InductiveEncoder,
    InProcessClient,
    MicroBatcher,
    ModelRegistry,
)
from repro.stream import DriftDetector, MutableGraph, read_delta_log, replay_log

SETUP_REPEATS = 3

#: End-to-end metrics, printed by every untraced run.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
)

#: Per-layer metrics, printed by every traced run (0 where a workload never
#: calls the layer).
PER_LAYER = (
    ("graphs.generate_s", "s"),
    ("core.select_s", "s"),
    ("core.kmeans_s", "s"),
    ("core.greedy_rounds", "count"),
    ("core.gain_evals", "count"),
    ("core.scores_s", "s"),
    ("core.views_s", "s"),
    ("nn.forward_s", "s"),
    ("contrast.loss_s", "s"),
    ("autograd.backward_s", "s"),
    ("autograd.optim_s", "s"),
    ("engine.unattributed_s", "s"),
    ("eval.linear_acc_pct", "%"),
    ("scale.sample_s", "s"),
    ("scale.block_nodes", "count"),
    ("scale.gather_s", "s"),
    ("serve.warmup_s", "s"),
    ("serve.handle_ms", "ms"),
    ("serve.wire_ms", "ms"),
    ("serve.admission_ms", "ms"),
    ("serve.store_ms", "ms"),
    ("serve.store_reads", "count"),
    ("serve.cache_hit_rate", "ratio"),
    ("serve.probe_ms", "ms"),
    ("serve.encode_batch_ms", "ms"),
    ("serve.encode_batches", "count"),
    ("serve.batch_occupancy", "items"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.warm_p50_ms", "ms"),
    ("serve.cold_p99_ms", "ms"),
    ("serve.rebind_s", "s"),
    ("serve.invalidate_s", "s"),
    ("serve.heal_s", "s"),
    ("serve.rows_healed", "count"),
    ("serve.encode_calls", "count"),
    ("serve.heal_read_ratio", "ratio"),
    ("stream.log_read_s", "s"),
    ("stream.apply_s", "s"),
    ("stream.blast_s", "s"),
    ("stream.blast_rows", "count"),
    ("stream.drift_s", "s"),
    ("stream.unattributed_s", "s"),
    ("bench.trace_overhead_pct", "%"),
)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def timed(fn: Callable, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def wrap_training(rec: Recorder) -> None:
    """Spans for the training stack shared by both train workloads."""
    rec.wrap(core_trainer, "select_coreset", "core.select")
    rec.wrap(node_selector, "build_cluster_model", "core.kmeans")
    rec.wrap(RepresentativityObjective, "marginal_gains", "core.gains",
             after=lambda a, k, out, s: rec.add("core.gain_evals", len(a[1])))
    rec.wrap(RepresentativityObjective, "add", "core.add")
    rec.wrap(core_trainer, "compute_edge_scores", "core.scores")
    rec.wrap(core_trainer, "compute_feature_scores", "core.scores")
    rec.wrap(core_trainer, "generate_global_view_pair", "core.views")
    wrap_forward(rec)
    rec.wrap(L2LContrast, "loss", "contrast.loss")
    rec.wrap(Tensor, "backward", "autograd.backward")
    for cls in (Adam, AdamW, SGD):
        rec.wrap(cls, "step", "autograd.optim")


def wrap_forward(rec: Recorder) -> None:
    rec.wrap(GCN, "forward", "nn.forward")
    rec.wrap(GCNLayer, "forward", "nn.forward")
    rec.wrap(GCNLayer, "propagate", "nn.forward")


def training_layers(rec: Recorder, phase_s: float, units: int) -> Dict[str, float]:
    """Seconds per unit of training work (a fit, or an epoch)."""
    per = 1.0 / units
    return {
        "core.select_s": per * rec.seconds["core.select"],
        "core.kmeans_s": per * rec.seconds["core.kmeans"],
        "core.scores_s": per * rec.seconds["core.scores"],
        "core.views_s": per * rec.seconds["core.views"],
        "nn.forward_s": per * rec.seconds["nn.forward"],
        "contrast.loss_s": per * rec.seconds["contrast.loss"],
        "autograd.backward_s": per * rec.seconds["autograd.backward"],
        "autograd.optim_s": per * rec.seconds["autograd.optim"],
        "engine.unattributed_s": per * (phase_s - rec.top_seconds),
    }


class Workload:
    """One benchmark workload: set-up, timed phase, checks, metrics."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def attributed(self, rec: Recorder) -> float:
        """Phase time covered by spans (the rest is unattributed)."""
        return rec.top_seconds

    def teardown(self, state: dict) -> None:
        pass


# ----------------------------------------------------------------------
# train-arxiv: E2GCL.fit with Alg. 2 on seeded 1,000-node arxiv graphs
# ----------------------------------------------------------------------
class TrainArxiv(Workload):
    """Whole ``E2GCL.fit`` calls on successive seeded graphs of the run.

    One fit's cost follows its graph's largest k-means cluster (Alg. 2's
    gain tensor is as wide as it), so a run averages over several graphs.
    """

    EPOCHS = 20
    #: Seconds one fit takes on the reference machine (sets the fit count).
    FIT_S = 4.0

    def setup(self) -> dict:
        graph, gen_s = timed(inputs.train_graph, self.seed, 0)
        return {"graphs": [graph], "generate_s": gen_s}

    def phase(self, state: dict, seconds: float, rec: Optional[Recorder]) -> dict:
        """Fits (selection, score tables, every epoch) on graphs 0, 1, ...;
        ``seconds`` sets how many."""
        graphs = state["graphs"]
        if rec is not None:
            wrap_training(rec)
        fits, models, first_counts = [], [], {}
        for index in range(max(1, round(seconds / self.FIT_S))):
            if len(graphs) == index:
                graphs.append(inputs.train_graph(self.seed, index))
            model = E2GCL(epochs=self.EPOCHS)
            start = time.perf_counter()
            model.fit(graphs[index])
            fits.append(time.perf_counter() - start)
            models.append(model)
            if rec is not None and not first_counts:
                first_counts = {"core.greedy_rounds": rec.calls["core.add"],
                                "core.gain_evals": rec.counts["core.gain_evals"]}
        if rec is not None:
            rec.undo()
        return {"fits": fits, "models": models, "graphs": graphs,
                "phase_s": sum(fits), "units": len(fits), "first_counts": first_counts}

    def cost(self, out: dict) -> float:
        return out["phase_s"] / out["units"]

    def end_to_end(self, out: dict) -> Dict[str, float]:
        anchor_epochs = sum(m.config.budget_for(g.num_nodes) * self.EPOCHS
                            for m, g in zip(out["models"], out["graphs"]))
        return {"throughput_per_s": anchor_epochs / out["phase_s"],
                "latency_p50_ms": 1000.0 * statistics.median(out["fits"])}

    def operations(self, out: dict):
        return len(out["fits"]), 0

    def check(self, state: dict, out: dict):
        problems: List[str] = []
        accuracies = []
        for model, graph, fit_s in zip(out["models"], out["graphs"], out["fits"]):
            coreset = model.coreset
            budget = model.config.budget_for(graph.num_nodes)
            problems += checks.check_coreset(
                graph.adjacency, graph.features, model.config.num_layers, budget,
                coreset.selected, coreset.weights, coreset.assignment)
            embeddings = model.embed()
            problems += checks.check_finite("embeddings", embeddings)
            problems += checks.check_loss_below_uniform(model.result.final_loss, budget)
            accuracy = evaluate_embeddings(graph, embeddings, seed=0, trials=1).test_accuracy.mean
            test = split_nodes(graph.num_nodes, np.random.default_rng(0), train_frac=0.1,
                               val_frac=0.1, labels=graph.labels, stratified=True).test
            majority = np.bincount(graph.labels[test]).max() / test.size
            if not accuracy > majority:
                problems.append(f"linear accuracy {accuracy:.4f} does not beat the "
                                f"majority class share {majority:.4f}")
            accuracies.append(accuracy)
            log(f"train-arxiv: fit {fit_s:.2f}s (selection {model.selection_seconds:.2f}s), "
                f"final loss {model.result.final_loss:.4f}, linear acc {100 * accuracy:.1f}% "
                f"(majority {100 * majority:.1f}%)")
        first = out["models"][0]
        counts = {"greedy_rounds": len(first.coreset.gains),
                  "coreset": digest(first.coreset.selected.tolist()),
                  "final_loss": repr(first.result.final_loss)}
        counts.update(out["first_counts"])
        return problems, counts, {"eval.linear_acc_pct": 100.0 * statistics.mean(accuracies)}

    def layers(self, state: dict, out: dict, rec: Recorder) -> Dict[str, float]:
        values = training_layers(rec, out["phase_s"], out["units"])
        values.update(out["first_counts"])
        return values


# ----------------------------------------------------------------------
# train-sampled: 500k-node chord ring, local views, fanout-sampled batches
# ----------------------------------------------------------------------
class TrainSampled(Workload):
    ANCHORS, BATCH, FANOUTS = 8192, 512, (10, 5)
    CHECKED_BATCHES = 4
    #: Run seconds per timed epoch (an epoch takes about 0.9 s on the
    #: reference machine; the arena leak adds ~80 MB of peak RSS per epoch).
    EPOCH_S = 1.4

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.feature_dir = str(workdir / "ring")

    def setup(self) -> dict:
        graph, gen_s = timed(inputs.ring_graph, self.seed, self.feature_dir)
        return {"graph": graph, "generate_s": gen_s}

    def phase(self, state: dict, seconds: float, rec: Optional[Recorder]) -> dict:
        """One warm-up epoch (set-up), then timed epochs; ``seconds`` sets
        how many.  The warm-up epoch's first blocks are kept for checks."""
        timed_epochs = max(1, round(seconds / self.EPOCH_S))
        stamps: List[float] = []
        sampled: List[tuple] = []
        block_nodes: List[int] = []
        limit = self.CHECKED_BATCHES
        original_sample = NeighborSampler.sample

        def capture(sampler, seeds, rng=None):
            block = original_sample(sampler, seeds, rng=rng)
            if len(sampled) < limit:
                sampled.append((np.array(seeds), block))
            return block

        class Clock(Hook):
            def on_epoch_end(self, loop, epoch, record):
                if epoch == 0:
                    NeighborSampler.sample = original_sample
                    if rec is not None:
                        wrap_training(rec)
                        rec.wrap(NeighborSampler, "sample", "scale.sample",
                                 after=lambda a, k, out, s: block_nodes.append(out.nodes.size))
                        rec.wrap(FeatureStore, "gather", "scale.gather")
                stamps.append(time.perf_counter())

        method = get_method(
            "e2gcl", sampled=True, epochs=timed_epochs + 1, embedding_dim=8, hidden_dim=16,
            seed=self.seed, batch_size=self.BATCH, fanouts=list(self.FANOUTS),
            view_mode="local", anchor_mode="uniform", anchor_budget=self.ANCHORS)
        NeighborSampler.sample = capture
        start = time.perf_counter()
        try:
            method.fit(state["graph"], hooks=[Clock()])
        finally:
            NeighborSampler.sample = original_sample
            if rec is not None:
                rec.undo()
        batches = -(-self.ANCHORS // self.BATCH)
        return {"warmup_s": stamps[0] - start, "epochs": np.diff(stamps).tolist(),
                "losses": list(method.info.losses), "sampled": sampled,
                "phase_s": stamps[-1] - stamps[0], "batches_per_epoch": batches,
                "block_nodes_epoch1": sum(block_nodes[:batches])}

    def cost(self, out: dict) -> float:
        return statistics.median(out["epochs"])

    def end_to_end(self, out: dict) -> Dict[str, float]:
        return {"throughput_per_s": self.ANCHORS * len(out["epochs"]) / out["phase_s"],
                "latency_p50_ms": 1000.0 * statistics.median(out["epochs"])}

    def operations(self, out: dict):
        return len(out["epochs"]) * out["batches_per_epoch"], 0

    def check(self, state: dict, out: dict):
        graph = state["graph"]
        problems = checks.check_finite("losses", np.asarray(out["losses"]))
        problems += checks.check_loss_below_uniform(out["losses"][-1], self.BATCH)
        for seeds, block in out["sampled"]:
            problems += checks.check_block(graph.adjacency, block.nodes, block.a_n,
                                           seeds, self.FANOUTS)
        if len(out["sampled"]) < self.CHECKED_BATCHES:
            problems.append(f"only {len(out['sampled'])} sampled blocks were checked")
        log(f"train-sampled: {len(out['epochs'])} timed epochs, median "
            f"{statistics.median(out['epochs']):.3f}s, warm-up {out['warmup_s']:.2f}s, "
            f"last loss {out['losses'][-1]:.4f}")
        counts = {"warmup_loss": repr(out["losses"][0]),
                  "epoch1_loss": repr(out["losses"][1]),
                  "scale.block_nodes": out["block_nodes_epoch1"]}
        return problems, counts, {}

    def layers(self, state: dict, out: dict, rec: Recorder) -> Dict[str, float]:
        epochs = len(out["epochs"])
        values = training_layers(rec, out["phase_s"], epochs)
        values.update({"scale.sample_s": rec.seconds["scale.sample"] / epochs,
                       "scale.block_nodes": out["block_nodes_epoch1"],
                       "scale.gather_s": rec.seconds["scale.gather"] / epochs})
        return values


# ----------------------------------------------------------------------
# Serving stack helpers shared by serve-mixed and stream-replay
# ----------------------------------------------------------------------
def wrap_serving(rec: Recorder) -> None:
    """Spans for the serve layer; heal time is the store reads during which
    the server's stale-row counter moved."""
    local = threading.local()

    def before_read(args, kwargs):
        local.healed = args[0].metrics.stale_refreshes

    def after_read(args, kwargs, result, seconds):
        healed = args[0].metrics.stale_refreshes - local.healed
        if healed:
            rec.add("serve.heal_s", seconds)
            rec.add("serve.rows_healed", healed)

    rec.wrap(EmbeddingServer, "handle", "serve.handle")
    rec.wrap(EmbeddingServer, "rebind_graph", "serve.rebind")
    rec.wrap(AdmissionController, "admit", "serve.admission")
    rec.wrap(EmbeddingStore, "embedding", "serve.store", before=before_read, after=after_read)
    rec.wrap(EmbeddingStore, "invalidate", "serve.invalidate")
    rec.wrap(LogisticRegressionDecoder, "predict_proba", "serve.probe")
    rec.wrap(InductiveEncoder, "encode_node", "serve.encode_node")
    rec.wrap(InductiveEncoder, "encode_unseen", "serve.encode_unseen")
    wrap_forward(rec)


def serving_layers(rec: Recorder) -> Dict[str, float]:
    reads = rec.calls["serve.store"]
    healed = rec.counts["serve.rows_healed"]
    return {
        "serve.handle_ms": rec.mean_ms("serve.handle"),
        "serve.admission_ms": rec.mean_ms("serve.admission"),
        "serve.store_ms": rec.mean_ms("serve.store"),
        "serve.store_reads": reads,
        "serve.probe_ms": rec.mean_ms("serve.probe"),
        "serve.rebind_s": rec.seconds["serve.rebind"],
        "serve.invalidate_s": rec.seconds["serve.invalidate"],
        "serve.heal_s": rec.counts["serve.heal_s"],
        "serve.rows_healed": healed,
        "serve.encode_calls": (rec.calls["serve.encode_node"] + rec.calls["serve.encode_unseen"]
                               + rec.calls["serve.encode_batch"]),
        "serve.heal_read_ratio": healed / reads if reads else 0.0,
        "nn.forward_s": rec.seconds["nn.forward"],
    }


def load_registry(workload: str) -> ModelRegistry:
    registry = ModelRegistry()
    registry.load(prep.model_path(workload))
    return registry


# ----------------------------------------------------------------------
# serve-mixed: two closed-loop callers, 70/10/20 warm embed/classify/unseen
# ----------------------------------------------------------------------
class ServeMixed(Workload):
    CALLERS = 2
    CHECKED_UNSEEN = 48

    def __init__(self, seed: int, workdir: Path, seconds: float):
        super().__init__(seed, workdir)
        self.count = max(1000, round(inputs.REQUESTS_PER_SECOND * seconds))

    def setup(self) -> dict:
        graph, gen_s = timed(inputs.serve_graph)
        requests = inputs.serve_requests(graph, self.seed, self.count)
        server = EmbeddingServer(load_registry("serve-mixed"), graph)
        _, warmup_s = timed(server.warmup)
        client = InProcessClient(server, pool_size=1)
        # The probe head fits lazily on the first classify; fit it here.
        primed = client.request({"op": "classify", "node": 0})
        if not primed.get("ok"):
            raise RuntimeError(f"priming classify failed: {primed}")
        return {"graph": graph, "generate_s": gen_s, "warmup_s": warmup_s,
                "requests": requests, "server": server, "client": client}

    def phase(self, state: dict, seconds: float, rec: Optional[Recorder]) -> dict:
        requests, client, server = state["requests"], state["client"], state["server"]
        total = len(requests)
        latency = np.full(total, np.nan)
        responses: List[Optional[dict]] = [None] * total
        cursor = iter(range(total))
        lock = threading.Lock()
        hits0, misses0 = server.metrics.cache_hits, server.metrics.cache_misses
        errors: List[BaseException] = []
        if rec is not None:
            wrap_serving(rec)
            submitted: Dict[int, tuple] = {}

            def stamp(args, kwargs):
                payload = args[1][1]
                with rec.lock:
                    submitted[id(payload)] = (payload, time.perf_counter())

            def queue_wait(args, kwargs):
                now = time.perf_counter()
                with rec.lock:
                    for item in args[1]:
                        entry = submitted.pop(id(item), None)
                        if entry is not None:
                            rec.counts["serve.queue_wait_s"] += now - entry[1]
                            rec.counts["serve.queued"] += 1
                    rec.counts["serve.batch_items"] += len(args[1])

            rec.wrap(MicroBatcher, "submit", "serve.submit", before=stamp)
            rec.wrap(InductiveEncoder, "encode_batch", "serve.encode_batch", before=queue_wait)
            rec.wrap(InProcessClient, "request", "serve.request")

        def caller():
            try:
                while True:
                    with lock:
                        i = next(cursor, None)
                    if i is None:
                        return
                    start = time.perf_counter()
                    response = client.request(requests[i])
                    latency[i] = time.perf_counter() - start
                    responses[i] = response
            except BaseException as exc:  # reported after join
                errors.append(exc)

        begin = time.perf_counter()
        threads = [threading.Thread(target=caller) for _ in range(self.CALLERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        elapsed = time.perf_counter() - begin
        if rec is not None:
            rec.undo()
        if errors:
            raise errors[0]
        done = np.flatnonzero(~np.isnan(latency))
        cold = np.array(["features" in requests[i] for i in done])
        hits = server.metrics.cache_hits - hits0
        reads = hits + server.metrics.cache_misses - misses0
        return {"done": done, "latency": latency[done], "cold": cold, "elapsed": elapsed,
                "responses": responses, "phase_s": float(latency[done].sum()),
                "hit_rate": hits / reads if reads else 0.0}

    def cost(self, out: dict) -> float:
        return out["elapsed"] / out["done"].size

    def end_to_end(self, out: dict) -> Dict[str, float]:
        return {"throughput_per_s": out["done"].size / out["elapsed"],
                "latency_p50_ms": 1000.0 * float(np.median(out["latency"][out["cold"]]))}

    def operations(self, out: dict):
        failed = sum(1 for i in out["done"] if not out["responses"][i].get("ok"))
        return int(out["done"].size), failed

    def check(self, state: dict, out: dict):
        graph, server, requests = state["graph"], state["server"], state["requests"]
        artifact = server.registry.get().artifact
        offline = artifact.embed(graph)
        problems: List[str] = []
        bad = {i for i in out["done"] if not out["responses"][i].get("ok")}
        if bad:
            problems.append(f"{len(bad)} response(s) not ok, e.g. {out['responses'][min(bad)]}")
        known = [i for i in out["done"] if requests[i]["op"] == "embed"
                 and "node" in requests[i] and i not in bad]
        if known:
            problems += checks.check_rows_identical(
                np.array([out["responses"][i]["embedding"] for i in known]), offline,
                np.array([requests[i]["node"] for i in known]))
        for i in out["done"]:
            if requests[i]["op"] == "classify" and out["responses"][i].get("ok"):
                found = checks.check_proba(out["responses"][i]["proba"],
                                           out["responses"][i]["label"], graph.num_classes)
                if found:
                    problems += found
                    break
        unseen = [i for i in out["done"] if "features" in requests[i] and i not in bad]
        rng = np.random.default_rng([self.seed, 11])
        for i in rng.permutation(unseen)[:self.CHECKED_UNSEEN]:
            request = requests[int(i)]
            adjacency, features = checks.splice(graph.adjacency, graph.features,
                                                np.asarray(request["features"]),
                                                request["neighbors"])
            expect = artifact.embed(Graph(adjacency, features, labels=None))[graph.num_nodes]
            problems += checks.check_rows_close(
                f"unseen request {int(i)}", np.asarray(out["responses"][int(i)]["embedding"]),
                expect)
        cold = int(out["cold"].sum())
        if cold < 1000:
            problems.append(f"only {cold} unseen-node requests completed (need 1000)")
        log(f"serve-mixed: {out['done'].size} requests in {out['elapsed']:.2f}s, "
            f"{cold} unseen; warm p50 {self.warm_p50(out):.3f} ms, cold p50 "
            f"{1000 * np.median(out['latency'][out['cold']]):.3f} ms, cold p99 "
            f"{self.cold_p99(out):.3f} ms")
        counts = {"requests": digest(requests[:1000])}
        return problems, counts, {}

    @staticmethod
    def warm_p50(out: dict) -> float:
        return 1000.0 * float(np.median(out["latency"][~out["cold"]]))

    @staticmethod
    def cold_p99(out: dict) -> float:
        return 1000.0 * float(np.percentile(out["latency"][out["cold"]], 99))

    def layers(self, state: dict, out: dict, rec: Recorder) -> Dict[str, float]:
        values = serving_layers(rec)
        batches = rec.calls["serve.encode_batch"]
        queued = rec.counts["serve.queued"]
        values.update({
            "serve.wire_ms": (rec.mean_ms("serve.request")
                              - rec.seconds["serve.handle"] * 1000.0 / max(rec.calls["serve.request"], 1)),
            "serve.cache_hit_rate": out["hit_rate"],
            "serve.encode_batch_ms": rec.mean_ms("serve.encode_batch"),
            "serve.encode_batches": batches,
            "serve.batch_occupancy": rec.counts["serve.batch_items"] / batches if batches else 0.0,
            "serve.queue_wait_ms": 1000.0 * rec.counts["serve.queue_wait_s"] / queued if queued else 0.0,
            "serve.warm_p50_ms": self.warm_p50(out),
            "serve.cold_p99_ms": self.cold_p99(out),
        })
        return values

    def attributed(self, rec: Recorder) -> float:
        # Two callers and the batcher overlap in time, so attribution is per
        # caller: each round trip is handle time plus wire time.
        return rec.seconds["serve.request"]

    def teardown(self, state: dict) -> None:
        state["client"].close()
        state["server"].close()


# ----------------------------------------------------------------------
# stream-replay: a seeded delta log replayed in batches with probe reads
# ----------------------------------------------------------------------
class StreamReplay(Workload):
    def __init__(self, seed: int, workdir: Path, seconds: float):
        super().__init__(seed, workdir)
        self.deltas = inputs.log_deltas(seconds)

    def setup(self) -> dict:
        graph, gen_s = timed(inputs.sbm_graph)
        server = EmbeddingServer(load_registry("stream-replay"), graph, use_batching=False)
        _, warmup_s = timed(server.warmup)
        return {"graph": graph, "generate_s": gen_s, "warmup_s": warmup_s, "server": server}

    def phase(self, state: dict, seconds: float, rec: Optional[Recorder]) -> dict:
        """The whole log, read from its JSONL file, replayed with
        ``replay_log`` one fixed-size batch at a time."""
        server = state["server"]
        size, probes = inputs.LOG_BATCH, inputs.PROBES_PER_BATCH
        healed0 = server.metrics.stale_refreshes
        if rec is not None:
            wrap_serving(rec)
            rec.wrap(MutableGraph, "apply", "stream.apply")
            rec.wrap(stream_serving, "blast_radius", "stream.blast",
                     after=lambda a, k, out, s: rec.add("stream.blast_rows", out.size))
            rec.wrap(DriftDetector, "observe", "stream.drift")
        begin = time.perf_counter()
        path = self.workdir / "deltas.jsonl"
        read = rec.span("stream.log_read", read_delta_log, path) if rec else read_delta_log(path)
        deltas = read.deltas
        batches, applied, probe_failures = [], 0, 0
        for k, lo in enumerate(range(0, len(deltas), size)):
            start = time.perf_counter()
            summary = replay_log(server, deltas[lo:lo + size], batch_size=size,
                                 probes_per_batch=probes, seed=self.seed * 100_003 + k)
            batches.append(time.perf_counter() - start)
            applied += summary["deltas_applied"]
            probe_failures += summary["probe_failures"]
        phase_s = time.perf_counter() - begin
        traced_counts = {}
        if rec is not None:
            rec.undo()
            traced_counts = {"serve.encode_calls": rec.calls["serve.encode_node"],
                             "stream.blast_rows": rec.counts["stream.blast_rows"]}
        return {"batches": batches, "applied": applied, "read": len(deltas),
                "skipped": read.skipped, "probes": probes * len(batches),
                "probe_failures": probe_failures, "phase_s": phase_s,
                "rows_healed": server.metrics.stale_refreshes - healed0,
                "traced_counts": traced_counts}

    def cost(self, out: dict) -> float:
        return out["phase_s"]

    def end_to_end(self, out: dict) -> Dict[str, float]:
        return {"throughput_per_s": out["applied"] / out["phase_s"],
                "latency_p50_ms": 1000.0 * statistics.median(out["batches"])}

    def operations(self, out: dict):
        attempted = out["read"] + out["skipped"] + out["probes"]
        return attempted, attempted - out["applied"] - (out["probes"] - out["probe_failures"])

    def check(self, state: dict, out: dict):
        graph, server = state["graph"], state["server"]
        problems: List[str] = []
        if out["applied"] != self.deltas or out["skipped"]:
            problems.append(f"{out['applied']} of {self.deltas} deltas applied, "
                            f"{out['skipped']} skipped")
        if out["probe_failures"]:
            problems.append(f"{out['probe_failures']} probe read(s) failed")
        replay = checks.LogReplay(graph.num_nodes, graph.edge_array(), graph.features)
        with open(self.workdir / "deltas.jsonl", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    replay.apply(json.loads(line))
        expect = replay.adjacency()
        served = server.graph.adjacency
        problems += checks.check_csr_equal(served.indptr, served.indices, expect)
        edges = sorted(replay.edges)
        rebuilt = Graph.from_edge_list(replay.num_nodes, edges, features=replay.feature_matrix())
        snapshot = np.array(server.store.snapshot())
        offline = server.registry.get().artifact.embed(rebuilt)
        problems += checks.check_rows_close("healed snapshot", snapshot, offline)
        log(f"stream-replay: {out['applied']} deltas in {len(out['batches'])} batches, "
            f"{out['phase_s']:.2f}s, median batch {1000 * statistics.median(out['batches']):.1f} ms, "
            f"{out['rows_healed']} rows healed")
        counts = {"deltas_applied": out["applied"], "serve.rows_healed": out["rows_healed"],
                  "final_nodes": replay.num_nodes, "final_edges": len(edges),
                  **out["traced_counts"]}
        return problems, counts, {}

    def layers(self, state: dict, out: dict, rec: Recorder) -> Dict[str, float]:
        values = serving_layers(rec)
        values.update({
            "stream.log_read_s": rec.seconds["stream.log_read"],
            "stream.apply_s": rec.seconds["stream.apply"],
            "stream.blast_s": rec.seconds["stream.blast"],
            "stream.blast_rows": rec.counts["stream.blast_rows"],
            "stream.drift_s": rec.seconds["stream.drift"],
            "stream.unattributed_s": out["phase_s"] - rec.top_seconds,
        })
        return values

    def teardown(self, state: dict) -> None:
        state["server"].close()


# ----------------------------------------------------------------------
def make(name: str, seed: int, workdir: Path, seconds: float):
    if name == "train-arxiv":
        return TrainArxiv(seed, workdir)
    if name == "train-sampled":
        return TrainSampled(seed, workdir)
    if name == "serve-mixed":
        return ServeMixed(seed, workdir, seconds)
    if name == "stream-replay":
        return StreamReplay(seed, workdir, seconds)
    raise SystemExit(f"unknown workload {name!r}")


def environment() -> str:
    threads = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return (f"env: nproc={os.cpu_count()} threads={threads} python={platform.python_version()} "
            f"numpy={np.__version__} scipy={scipy.__version__}")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spawn-time", type=float, required=True)
    args = parser.parse_args()
    import_s = time.monotonic() - args.spawn_time
    log(environment())
    workdir = Path(args.workdir)
    workload = make(args.workload, args.seed, workdir, args.seconds)

    setups, generate = [], []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            workload.teardown(state)
            state = None
            gc.collect()
        state, seconds = timed(workload.setup)
        setups.append(seconds)
        generate.append(state["generate_s"])

    rec = None
    if args.trace:
        untraced = workload.phase(state, args.seconds, None)
        workload.teardown(state)
        state = None
        gc.collect()
        state = workload.setup()
        rec = Recorder()
    out = workload.phase(state, args.seconds, rec)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems, counts, extra = workload.check(state, out)
    attempted, failed = workload.operations(out)
    workload.teardown(state)

    # The amount of work follows --seconds, so the record is per length too.
    mode = f"{'trace' if args.trace else 'plain'}-{args.seconds:g}s"
    mismatches = guard.check(args.workload, args.seed, mode, counts)
    if mismatches:
        log("EXACT-COUNT GUARD FAILED: counts fixed by the seed changed between runs:")
        for line in mismatches:
            log(f"  {line}")
        return 3

    if args.trace:
        values = {name: 0.0 for name, _ in PER_LAYER}
        values.update(extra)
        values["graphs.generate_s"] = statistics.median(generate)
        values["serve.warmup_s"] = state.get("warmup_s", 0.0)
        values.update(workload.layers(state, out, rec))
        values["bench.trace_overhead_pct"] = 100.0 * (workload.cost(out) / workload.cost(untraced) - 1.0)
        units = dict(PER_LAYER)
        attributed = workload.attributed(rec)
        log(f"trace: phase {out['phase_s']:.3f}s = attributed {attributed:.3f}s + "
            f"unattributed {out['phase_s'] - attributed:.3f}s; overhead "
            f"{values['bench.trace_overhead_pct']:.1f}%")
    else:
        values = {"setup_s": import_s + statistics.median(setups) + out.get("warmup_s", 0.0),
                  "peak_rss_mb": peak_rss_mb}
        values.update(workload.end_to_end(out))
        units = dict(END_TO_END)
    for problem in problems:
        log(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
