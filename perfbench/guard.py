"""Exact-count guard: counts fixed by the seed must repeat between runs.

The first run of a (workload, seed, mode) on a given source tree records
its counts under ``.perfbench_state/`` in the working directory; every
later run compares and fails loudly on any difference.  The key includes a
digest of ``src/`` and ``perfbench/``, so editing the program starts a
fresh record instead of comparing against another version's counts.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List

STATE_DIR = Path(".perfbench_state")


def source_digest(roots=("src", "perfbench")) -> str:
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(Path(root).rglob("*.py")):
            digest.update(str(path).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check(workload: str, seed: int, mode: str, counts: Dict[str, object]) -> List[str]:
    """Compare ``counts`` with the recorded ones (recording them if new)."""
    key = f"{workload}-{seed}-{mode}-{source_digest()}"
    path = STATE_DIR / f"{key}.json"
    current = json.loads(json.dumps(counts))
    if path.is_file():
        recorded = json.loads(path.read_text())
        return [f"{name}: {recorded.get(name)!r} recorded, {current.get(name)!r} now"
                for name in sorted(set(recorded) | set(current))
                if recorded.get(name) != current.get(name)]
    STATE_DIR.mkdir(exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(current, sort_keys=True))
    os.replace(tmp, path)
    return []
