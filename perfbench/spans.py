"""Spans recorded from the benchmark's side, around calls into each layer.

The traced run patches a layer's public functions with a timing wrapper,
runs the same timed phase as the untraced run, and undoes the patches.
Spans are kept in memory as per-name totals:

* ``seconds[name]`` — inclusive wall time of the outermost call of that
  name on each thread (a re-entrant call, e.g. ``AdamW.step`` calling
  ``Adam.step``, is not counted twice);
* ``calls[name]`` — outermost calls;
* ``top_seconds`` — time of spans entered while no other span was open on
  the thread, so ``phase - top_seconds`` is the time no span covers.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


class Recorder:
    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.top_seconds = 0.0
        self._local = threading.local()
        self.lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float) -> None:
        with self.lock:
            self.counts[name] += value

    def wrap(self, owner: object, attr: str, name: str,
             after: Optional[Callable] = None,
             before: Optional[Callable] = None) -> None:
        """Time every outermost call of ``owner.attr`` under ``name``.

        ``before(args, kwargs)`` runs first and ``after(args, kwargs,
        result, seconds)`` after the call, both outside the timed interval
        and only for outermost calls.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if name in stack:
                return original(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            stack.append(name)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                with self.lock:
                    self.seconds[name] += elapsed
                    self.calls[name] += 1
                    if not stack:
                        self.top_seconds += elapsed
            if after is not None:
                after(args, kwargs, result, elapsed)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Time one direct call from the benchmark under ``name``."""
        stack = self._stack()
        stack.append(name)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            with self.lock:
                self.seconds[name] += elapsed
                self.calls[name] += 1
                if not stack:
                    self.top_seconds += elapsed

    def undo(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def mean_ms(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1000.0 * self.seconds.get(name, 0.0) / calls if calls else 0.0
