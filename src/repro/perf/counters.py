"""Scoped wall-clock / allocation counters for the hot paths.

A tiny process-global registry: every instrumented scope accumulates call
count, wall-clock seconds, and (when ``tracemalloc`` tracing is enabled via
:func:`enable_allocation_tracking`) the peak traced allocation observed
while the scope was active.  Overhead without allocation tracking is two
``perf_counter`` calls and a dict update — cheap enough to leave on in the
trainer and selector permanently.

Usage::

    from repro.perf import record, profiled, report, reset

    with record("selector.greedy_round"):
        ...

    @profiled("scores.compute_edge_scores")
    def compute_edge_scores(...): ...

    report()   # {name: {"calls": int, "seconds": float, "peak_bytes": int}}
    summary()  # human-readable, slowest first
"""

from __future__ import annotations

import functools
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional


@dataclass
class Counter:
    """Accumulated statistics for one named scope."""

    name: str
    calls: int = 0
    seconds: float = 0.0
    peak_bytes: int = 0  # max tracemalloc peak observed inside the scope

    @property
    def mean_seconds(self) -> float:
        return self.seconds / self.calls if self.calls else 0.0


_lock = threading.Lock()
_counters: Dict[str, Counter] = {}
_gauges: Dict[str, float] = {}
_allocation_tracking = False
# When a repro.obs tracer is active it registers itself here, and every
# recorded scope is mirrored into the trace as a named span.  The tracer
# side owns (un)registration so this module never imports repro.obs.
_trace_sink = None


def set_trace_sink(sink) -> None:
    """Mirror every recorded scope into ``sink`` (an object with a
    ``span(name)`` context-manager factory), or stop mirroring with None.
    Called by :class:`repro.obs.Tracer` on activation/deactivation."""
    global _trace_sink
    _trace_sink = sink


def trace_sink():
    """The currently registered trace sink (None when tracing is off)."""
    return _trace_sink


def reset() -> None:
    """Drop all accumulated counters and gauges (keeps the tracking mode)."""
    with _lock:
        _counters.clear()
        _gauges.clear()


def set_gauge(name: str, value: float) -> None:
    """Record a point-in-time value (latest write wins, unlike counters).

    Gauges carry state snapshots that don't accumulate — partition edge
    cut and balance, feature-store chunk sizes — published by subsystems
    like :mod:`repro.scale` and picked up by benchmarks and traces
    alongside the wall-clock counters.
    """
    with _lock:
        _gauges[name] = value


def get_gauge(name: str) -> Optional[float]:
    """The latest value written for ``name`` (None if never set)."""
    with _lock:
        return _gauges.get(name)


def gauges() -> Dict[str, float]:
    """Snapshot of every gauge (JSON-serializable)."""
    with _lock:
        return dict(_gauges)


def enable_allocation_tracking() -> None:
    """Start ``tracemalloc`` so scopes also record their allocation peak.

    Tracing slows allocation-heavy code noticeably; benchmarks enable it
    only for dedicated memory runs.
    """
    global _allocation_tracking
    _allocation_tracking = True
    if not tracemalloc.is_tracing():
        tracemalloc.start()


def disable_allocation_tracking() -> None:
    """Stop ``tracemalloc``; subsequent scopes record wall-clock only."""
    global _allocation_tracking
    _allocation_tracking = False
    if tracemalloc.is_tracing():
        tracemalloc.stop()


def allocation_tracking_enabled() -> bool:
    """Whether scopes currently record their ``tracemalloc`` peak."""
    return _allocation_tracking


@contextmanager
def record(name: str) -> Iterator[None]:
    """Accumulate wall-clock (and, if enabled, peak allocation) under ``name``.

    While a :mod:`repro.obs` tracer is active the scope is also emitted
    into the trace as a span of the same name.
    """
    sink = _trace_sink
    span = sink.span(name) if sink is not None else None
    if span is not None:
        span.__enter__()
    track = _allocation_tracking and tracemalloc.is_tracing()
    if track:
        tracemalloc.reset_peak()
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        if span is not None:
            span.__exit__(None, None, None)
        peak = tracemalloc.get_traced_memory()[1] if track else 0
        with _lock:
            counter = _counters.get(name)
            if counter is None:
                counter = _counters[name] = Counter(name)
            counter.calls += 1
            counter.seconds += elapsed
            counter.peak_bytes = max(counter.peak_bytes, peak)


def profiled(name: Optional[str] = None) -> Callable:
    """Decorator form of :func:`record`; defaults to the function's qualname."""

    def decorate(fn: Callable) -> Callable:
        scope = name or f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with record(scope):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


def get_counter(name: str) -> Optional[Counter]:
    """The accumulated :class:`Counter` for ``name`` (None if never hit)."""
    with _lock:
        return _counters.get(name)


def report() -> Dict[str, Dict[str, float]]:
    """Snapshot of every counter as plain dicts (JSON-serializable)."""
    with _lock:
        return {
            name: {
                "calls": c.calls,
                "seconds": c.seconds,
                "mean_seconds": c.mean_seconds,
                "peak_bytes": c.peak_bytes,
            }
            for name, c in _counters.items()
        }


def summary() -> str:
    """Human-readable report, slowest scope first."""
    with _lock:
        rows = sorted(_counters.values(), key=lambda c: -c.seconds)
        return "\n".join(
            f"  {c.name}: {c.seconds:.4f}s / {c.calls}x"
            + (f" (peak {c.peak_bytes / 2**20:.1f} MiB)" if c.peak_bytes else "")
            for c in rows
        )
