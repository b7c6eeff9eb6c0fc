"""The span-based run tracer behind ``repro.obs``.

A :class:`Tracer` records a stream of JSONL events — nested wall-clock
spans, per-epoch metrics, perf-counter summaries, and a run manifest —
either in memory, to a file, or both.  One tracer at a time can be
*active* process-wide; while active it also receives every
:func:`repro.perf.record` scope as a span, so the counters that already
instrument the hot paths (selection, view sampling, engine setup/epochs)
appear in the trace with no extra plumbing.

Event shapes (one JSON object per line)::

    {"type": "manifest", ...}                       # run provenance
    {"type": "span", "name": ..., "id": n, "parent": m|null, "depth": d,
     "t_start": s, "seconds": s, "peak_bytes": b?, ...attrs}
    {"type": "metric", "name": ..., "value": v, "t": s, ...attrs}
    {"type": "counter", "name": ..., "calls": c, "seconds": s,
     "peak_bytes": b}                               # perf summary bridge
    {"type": "event", "name": ..., "t": s, ...attrs}  # free-form marker

Span events are emitted when the span *closes* (that is when the duration
is known), so children precede their parents in the stream; ``parent`` ids
recover the nesting.  Each thread nests its spans on its own stack, so a
span opened on a request or batcher thread names that thread's enclosing
span as its parent, never another thread's.  When no tracer is active, the
module-level :func:`span` / :func:`emit_metric` helpers are no-ops costing
one global read — cheap enough to leave in the training loop permanently.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import tracemalloc
from pathlib import Path
from typing import Dict, List, Optional, Union

from ..perf.counters import set_trace_sink

_lock = threading.Lock()
_active: Optional["Tracer"] = None


def current_tracer() -> Optional["Tracer"]:
    """The process-wide active tracer, or None when tracing is off."""
    return _active


class _NoopSpan:
    """Shared do-nothing span returned when no tracer is active."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NOOP = _NoopSpan()


def span(name: str, **attrs):
    """A span on the active tracer; a shared no-op when tracing is off."""
    tracer = _active
    if tracer is None:
        return _NOOP
    return tracer.span(name, **attrs)


def emit_metric(name: str, value: float, **attrs) -> None:
    """Record a metric on the active tracer; silently dropped when off."""
    tracer = _active
    if tracer is not None:
        tracer.metric(name, value, **attrs)


def emit_event(name: str, **attrs) -> None:
    """Record a free-form marker on the active tracer; dropped when off."""
    tracer = _active
    if tracer is not None:
        tracer.event(name, **attrs)


class _Span:
    """A live span: context manager that emits its event on exit."""

    __slots__ = ("tracer", "name", "attrs", "span_id", "parent", "depth",
                 "_t0", "_track", "_stack")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        stack = self._stack = tracer._stack
        self.parent = stack[-1].span_id if stack else None
        self.depth = len(stack)
        self.span_id = tracer._next_span_id()
        stack.append(self)
        self._track = tracer.trace_malloc and tracemalloc.is_tracing()
        if self._track:
            tracemalloc.reset_peak()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        seconds = time.perf_counter() - self._t0
        tracer = self.tracer
        if self._stack and self._stack[-1] is self:
            self._stack.pop()
        payload = {
            "type": "span",
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent,
            "depth": self.depth,
            "t_start": self._t0 - tracer._origin,
            "seconds": seconds,
        }
        if self._track:
            payload["peak_bytes"] = tracemalloc.get_traced_memory()[1]
        if self.attrs:
            payload.update(self.attrs)
        tracer._emit(payload)


class Tracer:
    """Collects span/metric/manifest events, optionally streaming JSONL.

    Parameters
    ----------
    path:
        Optional JSONL output file; events are appended as they close and
        flushed by :meth:`flush` / :meth:`close`.  Without a path the trace
        lives in :attr:`events` only (handy in tests).
    trace_malloc:
        Record each span's ``tracemalloc`` peak (requires tracing to be
        started, e.g. via :func:`repro.perf.enable_allocation_tracking`).
        Nested spans reset the shared peak, so treat peaks as per-innermost
        span.  Off by default — it slows allocation-heavy code.

    A tracer is also a context manager: ``with tracer:`` activates it
    process-wide (spans from :func:`span` and every ``repro.perf`` scope
    flow in) and deactivates + flushes on exit.
    """

    def __init__(self, path: Optional[Union[str, Path]] = None,
                 trace_malloc: bool = False) -> None:
        self.path = Path(path) if path is not None else None
        self.trace_malloc = trace_malloc
        self.events: List[dict] = []
        self._origin = time.perf_counter()
        self._local = threading.local()
        self._span_ids = itertools.count(1)
        self._file = None
        self._closed = False

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> _Span:
        """A nested wall-clock span (use as a context manager)."""
        return _Span(self, name, attrs)

    def metric(self, name: str, value: float, **attrs) -> None:
        """One point of a named series (e.g. ``loss`` at ``epoch=3``)."""
        payload = {
            "type": "metric",
            "name": name,
            "value": float(value),
            "t": time.perf_counter() - self._origin,
        }
        payload.update(attrs)
        self._emit(payload)

    def event(self, name: str, **attrs) -> None:
        """A free-form marker (checkpoint written, stop requested, ...)."""
        payload = {
            "type": "event",
            "name": name,
            "t": time.perf_counter() - self._origin,
        }
        payload.update(attrs)
        self._emit(payload)

    def counter(self, name: str, calls: int, seconds: float,
                peak_bytes: int = 0) -> None:
        """A bridged :mod:`repro.perf` counter summary."""
        self._emit({
            "type": "counter",
            "name": name,
            "calls": int(calls),
            "seconds": float(seconds),
            "peak_bytes": int(peak_bytes),
        })

    def manifest(self, payload: Dict) -> None:
        """The run manifest (see :func:`repro.obs.build_manifest`)."""
        record = {"type": "manifest"}
        record.update(payload)
        self._emit(record)

    # ------------------------------------------------------------------
    @property
    def _stack(self) -> List[_Span]:
        """The calling thread's open spans, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_span_id(self) -> int:
        # One C-level call on the shared counter: no read-modify-write in
        # Python for two threads to interleave.
        return next(self._span_ids)

    def _emit(self, payload: dict) -> None:
        with _lock:
            self.events.append(payload)
            if self.path is not None and not self._closed:
                if self._file is None:
                    self._file = open(self.path, "w", encoding="utf-8")
                json.dump(payload, self._file, separators=(",", ":"),
                          default=_json_default)
                self._file.write("\n")

    # ------------------------------------------------------------------
    # Activation / lifecycle
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """Whether this tracer is the process-wide active one."""
        return _active is self

    def activate(self) -> "Tracer":
        """Install as the process-wide tracer (also hooks ``repro.perf``)."""
        global _active
        if _active is not None and _active is not self:
            raise RuntimeError("another tracer is already active")
        _active = self
        set_trace_sink(self)
        return self

    def deactivate(self) -> None:
        """Uninstall; a no-op if this tracer is not the active one."""
        global _active
        if _active is self:
            _active = None
            set_trace_sink(None)

    def flush(self) -> None:
        """Push buffered file output to disk (no-op for in-memory traces)."""
        with _lock:
            if self._file is not None:
                self._file.flush()

    def close(self) -> None:
        """Deactivate and close the output file; further events are
        memory-only."""
        self.deactivate()
        with _lock:
            if self._file is not None:
                self._file.flush()
                self._file.close()
                self._file = None
            self._closed = True

    def __enter__(self) -> "Tracer":
        return self.activate()

    def __exit__(self, *exc) -> None:
        self.close()


def _json_default(obj):
    """Last-resort JSON encoding for numpy scalars and friends."""
    for attr in ("item",):
        fn = getattr(obj, attr, None)
        if callable(fn):
            return fn()
    return repr(obj)
