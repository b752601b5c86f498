"""Unit tests for the metrics registry, through its ``repro.serving`` re-exports."""

import threading

import pytest

from repro.exceptions import ObservabilityError
from repro.serving import Counter, LatencyHistogram, MetricsRegistry


class TestCounter:
    def test_increments(self):
        counter = Counter("requests")
        counter.increment()
        counter.increment(5)
        assert counter.value == 6

    def test_rejects_negative(self):
        with pytest.raises(ObservabilityError):
            Counter("x").increment(-1)

    def test_thread_safety(self):
        counter = Counter("x")

        def spin():
            for _ in range(1000):
                counter.increment()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestLatencyHistogram:
    def test_empty(self):
        hist = LatencyHistogram("latency")
        assert hist.count == 0
        assert hist.mean is None
        assert hist.quantile(0.5) is None
        snap = hist.snapshot()
        assert snap["count"] == 0
        assert snap["p99"] is None

    def test_quantiles_ordered_and_bounded(self):
        hist = LatencyHistogram("latency")
        values = [i / 1000.0 for i in range(1, 101)]  # 1ms .. 100ms
        for v in values:
            hist.record(v)
        p50, p95, p99 = (hist.quantile(q) for q in (0.5, 0.95, 0.99))
        assert min(values) <= p50 <= p95 <= p99 <= max(values)
        # log-bucketed estimate should land near the true quantile
        assert p50 == pytest.approx(0.050, rel=0.30)
        assert p99 == pytest.approx(0.099, rel=0.30)

    def test_overflow_bucket_reports_max(self):
        hist = LatencyHistogram("latency", bounds=[0.1, 1.0])
        hist.record(50.0)
        assert hist.quantile(0.99) == 50.0

    def test_snapshot_fields(self):
        hist = LatencyHistogram("latency")
        hist.record(0.010)
        hist.record(0.030)
        snap = hist.snapshot()
        assert snap["count"] == 2
        assert snap["sum"] == pytest.approx(0.040)
        assert snap["mean"] == pytest.approx(0.020)
        assert snap["min"] == pytest.approx(0.010)
        assert snap["max"] == pytest.approx(0.030)

    def test_rejects_bad_values(self):
        hist = LatencyHistogram("latency")
        with pytest.raises(ObservabilityError):
            hist.record(-1.0)
        with pytest.raises(ObservabilityError):
            hist.quantile(0.0)


class TestMetricsRegistry:
    def test_create_on_first_use(self):
        registry = MetricsRegistry()
        registry.counter("a").increment()
        assert registry.counter("a").value == 1  # same instance

    def test_snapshot_structure(self):
        registry = MetricsRegistry()
        registry.counter("requests").increment(3)
        registry.histogram("latency").record(0.25)
        registry.register_gauge("depth", lambda: 7)
        snap = registry.snapshot()
        assert snap["counters"]["requests"] == 3
        assert snap["histograms"]["latency"]["count"] == 1
        assert snap["gauges"]["depth"] == 7

    def test_gauge_evaluated_lazily(self):
        registry = MetricsRegistry()
        state = {"value": 1}
        registry.register_gauge("g", lambda: state["value"])
        assert registry.snapshot()["gauges"]["g"] == 1
        state["value"] = 2
        assert registry.snapshot()["gauges"]["g"] == 2
