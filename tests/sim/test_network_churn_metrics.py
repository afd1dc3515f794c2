"""Tests for the churn process, bandwidth accounting, metrics and traces."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.bandwidth import BandwidthAccountant, MessageSizeModel
from repro.sim.churn import ChurnConfig, ChurnProcess
from repro.sim.engine import SimulationEngine
from repro.sim.metrics import Histogram, MetricsRegistry, TimeSeries, percentile
from repro.sim.rng import RandomSource
from repro.sim.trace import TraceLog


class TestChurnProcess:
    def test_disabled_churn_never_fires(self):
        engine = SimulationEngine()
        left = []
        churn = ChurnProcess(engine, ChurnConfig.from_minutes(None), RandomSource(1), left.append, lambda n: None)
        churn.start([1, 2, 3])
        engine.run(until=1000.0)
        assert left == []

    def test_nodes_leave_and_rejoin(self):
        engine = SimulationEngine()
        left, joined = [], []
        config = ChurnConfig(mean_lifetime_seconds=10.0, mean_downtime_seconds=5.0)
        churn = ChurnProcess(engine, config, RandomSource(2), left.append, joined.append)
        churn.start(list(range(20)))
        engine.run(until=200.0)
        assert len(left) > 0
        assert len(joined) > 0
        assert len(left) >= len(joined)

    def test_from_minutes_conversion(self):
        config = ChurnConfig.from_minutes(60)
        assert config.mean_lifetime_seconds == 3600.0
        assert config.enabled

    def test_stop_prevents_further_events(self):
        engine = SimulationEngine()
        left = []
        config = ChurnConfig(mean_lifetime_seconds=5.0)
        churn = ChurnProcess(engine, config, RandomSource(3), left.append, lambda n: None)
        churn.start([1])
        churn.stop()
        engine.run(until=100.0)
        assert left == []


class TestMessageSizeModel:
    def test_routing_table_grows_with_entries(self):
        model = MessageSizeModel()
        assert model.routing_table_bytes(20) > model.routing_table_bytes(5)

    def test_signature_adds_overhead(self):
        model = MessageSizeModel()
        assert model.routing_table_bytes(10, signed=True) > model.routing_table_bytes(10, signed=False)
        diff = model.routing_table_bytes(10, signed=True) - model.routing_table_bytes(10, signed=False)
        assert diff == model.signature_bytes + model.timestamp_bytes + model.certificate_bytes

    def test_onion_layers_pad_to_block(self):
        model = MessageSizeModel()
        wrapped = model.query_bytes(onion_layers=4)
        assert wrapped > model.query_bytes(onion_layers=0)
        assert wrapped % model.aes_block_bytes == 0

    @given(entries=st.integers(min_value=0, max_value=100), layers=st.integers(min_value=0, max_value=8))
    @settings(max_examples=50, deadline=None)
    def test_reply_bytes_monotone_in_layers(self, entries, layers):
        model = MessageSizeModel()
        assert model.reply_bytes(entries, onion_layers=layers) >= model.routing_table_bytes(entries)


class TestBandwidthAccountant:
    def test_record_and_totals(self):
        acc = BandwidthAccountant()
        acc.record(1, 2, 100)
        acc.record(2, 1, 50)
        assert acc.total_bytes() == 150
        assert acc.node_bytes(1) == 150
        assert acc.total_messages == 2

    def test_kbps_calculation(self):
        acc = BandwidthAccountant()
        acc.record(1, 2, 1000)
        # 2 nodes, 2000 bytes total traffic counted at both ends over 10 s
        kbps = acc.mean_node_kbps(duration_seconds=10.0, n_nodes=2)
        assert kbps == pytest.approx(1000 * 8 / 1000 / 10)

    def test_negative_size_rejected(self):
        acc = BandwidthAccountant()
        with pytest.raises(ValueError):
            acc.record(1, 2, -5)


class TestMetrics:
    def test_time_series_ordering_enforced(self):
        series = TimeSeries("x")
        series.record(1.0, 5.0)
        with pytest.raises(ValueError):
            series.record(0.5, 6.0)

    def test_time_series_value_at(self):
        series = TimeSeries("x")
        series.record(0.0, 1.0)
        series.record(10.0, 2.0)
        assert series.value_at(5.0) == 1.0
        assert series.value_at(10.0) == 2.0
        assert series.value_at(-1.0) is None

    def test_histogram_statistics(self):
        hist = Histogram()
        hist.extend([1.0, 2.0, 3.0, 4.0])
        assert hist.mean() == pytest.approx(2.5)
        assert hist.median() == pytest.approx(2.5)
        assert hist.percentile(0) == 1.0
        assert hist.percentile(100) == 4.0

    def test_histogram_cdf_monotone(self):
        hist = Histogram()
        hist.extend(range(100))
        cdf = hist.cdf(n_points=10)
        values = [v for v, _ in cdf]
        fracs = [f for _, f in cdf]
        assert values == sorted(values)
        assert fracs[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_percentile_is_monotone_in_pct(self, seed):
        """Property: percentile is non-decreasing in pct and bounded by the
        sample extremes, on arbitrary (unsorted, duplicated) samples."""
        rng = random.Random(seed)
        samples = [rng.uniform(-50.0, 50.0) for _ in range(rng.randrange(1, 40))]
        samples += rng.choices(samples, k=5)  # force ties
        hist = Histogram()
        hist.extend(samples)
        pcts = [0.0] + sorted(rng.uniform(0.0, 100.0) for _ in range(25)) + [100.0]
        values = [hist.percentile(p) for p in pcts]
        assert values == sorted(values)
        assert values[0] == pytest.approx(min(samples))
        assert values[-1] == pytest.approx(max(samples))

    @pytest.mark.parametrize("seed", [4, 5, 6])
    def test_cdf_is_monotone_on_random_samples(self, seed):
        rng = random.Random(seed)
        hist = Histogram()
        hist.extend(rng.expovariate(2.0) for _ in range(rng.randrange(1, 200)))
        for n_points in (1, 2, 7, 40):
            cdf = hist.cdf(n_points=n_points)
            assert len(cdf) == n_points
            assert [v for v, _ in cdf] == sorted(v for v, _ in cdf)
            fracs = [f for _, f in cdf]
            assert fracs == sorted(fracs)
            assert fracs[-1] == pytest.approx(1.0)

    @pytest.mark.parametrize("n_samples", [1, 2, 3, 50])
    def test_histogram_cdf_agrees_with_canonical_percentile(self, n_samples):
        """cdf() must be the percentile helper evaluated on a fraction grid —
        the old order-statistic indexing skipped/duplicated samples at small n."""
        samples = [float(7 * i % 13) for i in range(n_samples)]
        hist = Histogram()
        hist.extend(samples)
        for value, frac in hist.cdf(n_points=50):
            assert value == pytest.approx(percentile(samples, 100.0 * frac))

    def test_histogram_cdf_small_sample_endpoints(self):
        """With n=2, the first point is (near) the min and the last the max;
        the buggy indexing collapsed both onto one sample."""
        hist = Histogram()
        hist.extend([1.0, 3.0])
        cdf = hist.cdf(n_points=4)
        assert cdf[0][0] == pytest.approx(1.5)  # 25th pct interpolates toward min
        assert cdf[-1] == (3.0, 1.0)
        assert len({v for v, _ in cdf}) > 1

    def test_histogram_cdf_single_sample(self):
        hist = Histogram()
        hist.record(42.0)
        assert hist.cdf(n_points=3) == [(42.0, pytest.approx(1 / 3)), (42.0, pytest.approx(2 / 3)), (42.0, 1.0)]

    def test_counter_rejects_decrement(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.increment(5)
        with pytest.raises(ValueError):
            counter.increment(-1)

    def test_bucketed_metrics(self):
        registry = MetricsRegistry()
        registry.bucket_increment("reports", time=12.0, width=10.0)
        registry.bucket_increment("reports", time=15.0, width=10.0)
        registry.bucket_increment("reports", time=25.0, width=10.0)
        assert registry.buckets("reports", 10.0) == [(10.0, 2.0), (20.0, 1.0)]


class TestTraceLog:
    def test_record_and_filter(self):
        log = TraceLog()
        log.record(1.0, "lookup", node=1)
        log.record(2.0, "attack", node=2)
        log.record(3.0, "lookup", node=3)
        assert log.count("lookup") == 2
        assert [r.get("node") for r in log.filter("lookup")] == [1, 3]
        assert [r.get("node") for r in log.filter(since=2.5)] == [3]

    def test_capacity_limit(self):
        log = TraceLog(capacity=2)
        for i in range(5):
            log.record(float(i), "x")
        assert len(log) == 2
        assert log.dropped == 3
