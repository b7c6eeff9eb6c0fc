"""Benchmark launcher: one workload, in fresh processes, from a checkout root.

    python3 perfbench/run.py --workload train-arxiv --seed 0 --seconds 10 --trace 0

Starts the workload's input preparation (serve-mixed, stream-replay) and
then the workload itself, each in its own process with BLAS/OpenMP pinned
to one thread and ``src`` on the import path.  The workload's progress and
environment go to standard error; the last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``.  Scratch
files live under ``.perfbench_work/`` and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("train-arxiv", "train-sampled", "serve-mixed", "stream-replay")
PREPARED = ("serve-mixed", "stream-replay")
#: Everything a run does must end inside this many seconds.
DEADLINE_S = 170.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def call(argv, env, started: float, capture: bool) -> subprocess.CompletedProcess:
    remaining = DEADLINE_S - (time.monotonic() - started)
    if remaining <= 0:
        raise TimeoutError("run deadline passed before the next step")
    return subprocess.run(argv, env=env, timeout=remaining, check=False, text=True,
                          stdout=subprocess.PIPE if capture else sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    if not (Path("src") / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a checkout (no src/repro here)", file=sys.stderr)
        return 2
    env = child_env()
    print(f"perfbench: {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} nproc={os.cpu_count()} "
          + " ".join(f"{v}={env[v]}" for v in THREAD_VARS), file=sys.stderr, flush=True)
    workdir = Path(".perfbench_work") / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload in PREPARED:
            prep = call([sys.executable, str(HERE / "prep.py"), "--workload", args.workload,
                         "--seed", str(args.seed), "--seconds", str(args.seconds),
                         "--out", str(workdir)],
                        env, started, capture=False)
            if prep.returncode != 0:
                print(f"perfbench: input preparation failed ({prep.returncode})", file=sys.stderr)
                return 1
        spawn = time.monotonic()
        run = call([sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace), "--workdir", str(workdir),
                    "--spawn-time", repr(spawn)], env, started, capture=True)
    except (subprocess.TimeoutExpired, TimeoutError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = [line for line in run.stdout.splitlines() if line.strip()]
    if run.returncode not in (0, 1) or not lines:
        print(f"perfbench: workload exited with {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    result = json.loads(lines[-1])
    print(json.dumps(result), flush=True)
    return run.returncode


if __name__ == "__main__":
    raise SystemExit(main())
