"""Prepare a serving workload's inputs in their own process.

Trains the checkpoint the server loads (once per source tree: it does not
depend on the seed, and is kept under ``.perfbench_state/``) and, for
stream-replay, writes the run's seeded delta log to ``--out``.  Running this
apart keeps the checkpoint training out of the workload process's set-up
time and peak resident set.

    python3 perfbench/prep.py --workload stream-replay --seed 0 --seconds 10 --out DIR
"""

from __future__ import annotations

import argparse
from pathlib import Path

import guard
import inputs
from repro.baselines import get_method
from repro.engine import PeriodicCheckpoint
from repro.stream import DeltaGenerator, DeltaLog


def model_path(workload: str) -> Path:
    return guard.STATE_DIR / "models" / f"{workload}-{guard.source_digest()}.npz"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("serve-mixed", "stream-replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.workload == "serve-mixed":
        graph = inputs.serve_graph()
    else:
        graph = inputs.sbm_graph()
        with DeltaLog(out / "deltas.jsonl") as log:
            log.extend(DeltaGenerator(graph, seed=args.seed).generate(inputs.log_deltas(args.seconds)))
    path = model_path(args.workload)
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        epochs = inputs.CHECKPOINT_EPOCHS
        method = get_method(inputs.CHECKPOINT_METHOD, epochs=epochs, seed=0)
        # The checkpoint write is atomic, so a concurrent or killed run never
        # leaves a torn file behind.
        method.fit(graph, hooks=[PeriodicCheckpoint(path, every=epochs)])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
