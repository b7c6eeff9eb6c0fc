"""Tracer behaviour: span nesting, event shapes, activation, overhead."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.obs import Tracer, current_tracer, emit_event, emit_metric, span
from repro.obs.summary import read_events
from repro.obs.tracer import _NOOP
from repro.perf import record, report


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """A test that dies mid-span must not leave a global tracer behind."""
    yield
    leaked = current_tracer()
    if leaked is not None:
        leaked.deactivate()


class TestSpans:
    def test_nesting_and_ordering(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
            with tracer.span("sibling"):
                pass
        names = [e["name"] for e in tracer.events]
        # Spans are emitted at close: children precede their parents.
        assert names == ["inner", "middle", "sibling", "outer"]
        by_name = {e["name"]: e for e in tracer.events}
        assert by_name["outer"]["parent"] is None and by_name["outer"]["depth"] == 0
        assert by_name["middle"]["parent"] == by_name["outer"]["id"]
        assert by_name["inner"]["parent"] == by_name["middle"]["id"]
        assert by_name["inner"]["depth"] == 2
        assert by_name["sibling"]["parent"] == by_name["outer"]["id"]
        ids = [e["id"] for e in tracer.events]
        assert len(set(ids)) == len(ids)

    def test_threads_nest_on_their_own_stacks(self):
        """Four threads each hold a parent span open while they open a
        child: every child names its own thread's parent, span ids stay
        unique under rapid thread switching, and no stack entry outlives
        its span on any thread."""
        tracer = Tracer()
        threads, repeats = 4, 200
        barrier = threading.Barrier(threads, timeout=10)
        leftover = {}

        def work(i):
            with tracer.span("parent", thread=i):
                barrier.wait()  # every parent is open before any child
                with tracer.span("child", thread=i):
                    barrier.wait()  # every child is open before any closes
            for _ in range(repeats):
                with tracer.span("outer", thread=i):
                    with tracer.span("inner", thread=i):
                        pass
            leftover[i] = len(tracer._stack)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        by_id = {e["id"]: e for e in tracer.events}
        assert len(by_id) == len(tracer.events) == threads * (2 + 2 * repeats)
        for event in tracer.events:
            if event["name"] in ("parent", "outer"):
                assert event["parent"] is None and event["depth"] == 0
            else:
                parent = by_id[event["parent"]]
                assert parent["thread"] == event["thread"]
                assert parent["name"] == {"child": "parent", "inner": "outer"}[event["name"]]
                assert event["depth"] == 1
        assert leftover == {i: 0 for i in range(threads)}
        assert tracer._stack == []

    def test_span_payload_shape(self):
        tracer = Tracer()
        with tracer.span("work", epoch=3):
            time.sleep(0.001)
        (event,) = tracer.events
        assert event["type"] == "span"
        assert event["epoch"] == 3
        assert event["seconds"] >= 0.001
        assert event["t_start"] >= 0.0

    def test_metric_event_counter_manifest_shapes(self):
        tracer = Tracer()
        tracer.metric("loss", np.float64(1.5), epoch=0)
        tracer.event("checkpoint", path="x.npz")
        tracer.counter("scope.epoch", 3, 0.25)
        tracer.manifest({"seed": 7})
        kinds = [e["type"] for e in tracer.events]
        assert kinds == ["metric", "event", "counter", "manifest"]
        metric = tracer.events[0]
        assert metric["value"] == 1.5 and metric["epoch"] == 0 and metric["t"] >= 0
        assert tracer.events[2]["calls"] == 3
        assert tracer.events[3]["seed"] == 7


class TestJsonlRoundTrip:
    def test_file_matches_memory(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = Tracer(path)
        tracer.manifest({"seed": 1})
        with tracer.span("a", note="hi"):
            tracer.metric("loss", 0.5, epoch=0)
        tracer.close()
        assert read_events(path) == tracer.events

    def test_numpy_attrs_serialize(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = Tracer(path)
        tracer.metric("acc", np.float32(0.75), epoch=np.int64(2))
        tracer.close()
        (event,) = read_events(path)
        assert event["epoch"] == 2 and abs(event["value"] - 0.75) < 1e-6

    def test_events_after_close_stay_in_memory(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = Tracer(path)
        tracer.event("first")
        tracer.close()
        tracer.event("late")
        assert len(read_events(path)) == 1
        assert len(tracer.events) == 2


class TestActivation:
    def test_exclusive_activation(self):
        first, second = Tracer(), Tracer()
        first.activate()
        try:
            assert first.active and current_tracer() is first
            with pytest.raises(RuntimeError):
                second.activate()
        finally:
            first.deactivate()
        assert current_tracer() is None

    def test_deactivate_foreign_tracer_is_noop(self):
        owner, other = Tracer(), Tracer()
        owner.activate()
        try:
            other.deactivate()
            assert current_tracer() is owner
        finally:
            owner.deactivate()

    def test_context_manager_lifecycle(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with Tracer(path) as tracer:
            assert tracer.active
            tracer.event("inside")
        assert not tracer.active
        assert len(read_events(path)) == 1

    def test_module_helpers_route_to_active_tracer(self):
        with Tracer() as tracer:
            with span("step"):
                emit_metric("loss", 1.0, epoch=0)
            emit_event("mark")
        kinds = sorted(e["type"] for e in tracer.events)
        assert kinds == ["event", "metric", "span"]


class TestPerfBridge:
    def test_record_scopes_become_spans(self):
        with Tracer() as tracer:
            with record("bridge.outer"):
                with record("bridge.inner"):
                    pass
        names = [e["name"] for e in tracer.events]
        assert names == ["bridge.inner", "bridge.outer"]
        # The perf counters themselves still accumulated.
        assert report()["bridge.outer"]["calls"] >= 1

    def test_record_without_tracer_emits_nothing(self):
        probe = Tracer()  # never activated
        with record("bridge.untraced"):
            pass
        assert probe.events == []
        assert current_tracer() is None


class TestDisabledTracingOverhead:
    def test_off_means_zero_events(self, tiny_cora):
        from repro.baselines import get_method

        probe = Tracer()  # constructed but never activated
        get_method("grace", epochs=2, embedding_dim=8, hidden_dim=16,
                   seed=0).fit(tiny_cora)
        assert probe.events == []
        assert current_tracer() is None

    def test_noop_span_is_shared_singleton(self):
        assert span("anything") is _NOOP
        assert span("anything", epoch=1) is _NOOP
        emit_metric("dropped", 1.0)  # must not raise or allocate a tracer
        assert current_tracer() is None

    def test_disabled_overhead_under_five_percent(self, tiny_cora):
        """Projected cost of the no-op span sites is <5% of a smoke fit.

        Every ``repro.perf.record`` call is a potential span site; with
        tracing off each costs one global read.  We measure the fit, count
        how many sites it actually hit, measure the per-call no-op cost,
        and assert the product stays under the 5%% budget with room to
        spare.
        """
        from repro.baselines import get_method

        before = report()
        t0 = time.perf_counter()
        get_method("grace", epochs=3, embedding_dim=8, hidden_dim=16,
                   seed=0).fit(tiny_cora)
        fit_seconds = time.perf_counter() - t0
        after = report()
        site_hits = sum(
            stats["calls"] - before.get(name, {}).get("calls", 0)
            for name, stats in after.items()
        )
        assert site_hits > 0

        n = 20_000
        t0 = time.perf_counter()
        for _ in range(n):
            with span("noop"):
                pass
        per_call = (time.perf_counter() - t0) / n
        assert site_hits * per_call < 0.05 * fit_seconds
