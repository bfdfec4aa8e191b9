"""The metrics registry: bucket math, escaping, exposition, concurrency."""

from __future__ import annotations

import math
import threading

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    exposition,
    get_registry,
    set_registry,
)
from repro.obs.promcheck import check_prometheus_text, parse_samples


@pytest.fixture()
def registry():
    """A fresh, isolated registry (not the process-global one)."""
    return MetricsRegistry()


class TestCounterAndGauge:
    def test_counter_accumulates_per_label_set(self, registry):
        c = registry.counter("req_total", "requests")
        c.inc()
        c.inc(2, route="/score")
        c.inc(3, route="/score")
        assert c.value() == 1
        assert c.value(route="/score") == 5
        assert c.value(route="/other") == 0

    def test_counter_rejects_decrease(self, registry):
        with pytest.raises(ValueError, match="cannot decrease"):
            registry.counter("c_total").inc(-1)

    def test_gauge_moves_both_ways(self, registry):
        g = registry.gauge("depth")
        g.inc(5)
        g.dec(2)
        assert g.value() == 3
        g.set(7.5)
        assert g.value() == 7.5

    def test_get_or_create_returns_same_object(self, registry):
        assert registry.counter("x_total") is registry.counter("x_total")

    def test_kind_mismatch_raises(self, registry):
        registry.counter("taken")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("taken")

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(ValueError, match="invalid metric name"):
            registry.counter("bad-name")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("ok_total").inc(**{"bad-label": "x"})


class TestHistogramBuckets:
    def test_boundaries_are_inclusive_upper_bounds(self, registry):
        h = registry.histogram("lat", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 2.0, 2.0001, 5.0, 99.0):
            h.observe(value)
        counts, total, count = h.series()
        # 0.5 and 1.0 land in le=1; 2.0 in le=2; 2.0001 and 5.0 in le=5;
        # 99 overflows to +Inf.
        assert counts == [2, 1, 2, 1]
        assert count == 6
        assert total == pytest.approx(0.5 + 1.0 + 2.0 + 2.0001 + 5.0 + 99.0)

    def test_observe_many_matches_one_observe_per_value(self, registry):
        values = (0.5, 1.0, 2.0, 2.0001, 5.0, 99.0, 0.1)
        one = registry.histogram("one", buckets=(1.0, 2.0, 5.0))
        many = registry.histogram("many", buckets=(1.0, 2.0, 5.0))
        for value in values:
            one.observe(value, stage="x")
        many.observe_many(values, stage="x")
        assert many.series(stage="x") == one.series(stage="x")

    def test_bucket_validation(self, registry):
        with pytest.raises(ValueError, match="at least one"):
            registry.histogram("h1", buckets=())
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("h2", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            registry.histogram("h3", buckets=(1.0, math.inf))

    def test_reregistering_with_other_buckets_raises(self, registry):
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="different"):
            registry.histogram("h", buckets=(1.0, 3.0))


class TestPrometheusExposition:
    def test_output_passes_the_format_checker(self, registry):
        registry.counter("req_total", "requests").inc(3, route="/score")
        registry.gauge("up", "uptime").set(1.5)
        h = registry.histogram("lat_seconds", "latency", buckets=(0.1, 1.0))
        h.observe(0.05, route="/score")
        h.observe(2.0, route="/score")
        text = registry.to_prometheus()
        assert check_prometheus_text(text) == []

    def test_histogram_samples_are_cumulative_with_inf(self, registry):
        h = registry.histogram("lat_seconds", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 2.0):
            h.observe(v)
        samples = dict(
            ((name, tuple(sorted(labels.items()))), value)
            for name, labels, value in parse_samples(registry.to_prometheus())
        )
        assert samples[("lat_seconds_bucket", (("le", "0.1"),))] == 1
        assert samples[("lat_seconds_bucket", (("le", "1"),))] == 2
        assert samples[("lat_seconds_bucket", (("le", "+Inf"),))] == 3
        assert samples[("lat_seconds_count", ())] == 3
        assert samples[("lat_seconds_sum", ())] == pytest.approx(2.55)

    def test_label_values_are_escaped_and_round_trip(self, registry):
        nasty = 'quote " slash \\ newline \n end'
        registry.counter("esc_total").inc(1, path=nasty)
        text = registry.to_prometheus()
        assert check_prometheus_text(text) == []
        [(name, labels, value)] = parse_samples(text)
        assert name == "esc_total"
        assert labels == {"path": nasty}
        assert value == 1

    def test_special_float_values_render(self):
        snapshot = {
            "g": {
                "kind": "gauge",
                "help": "h",
                "samples": [
                    {"labels": {}, "value": math.inf},
                ],
            }
        }
        assert "g +Inf" in exposition(snapshot)

    def test_checker_flags_broken_text(self):
        assert check_prometheus_text("no_type_metric 1\n")
        assert check_prometheus_text('# TYPE m counter\nm{l="x} 1\n')
        bad_cumulative = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="+Inf"} 3\n'
            "h_sum 1\nh_count 3\n"
        )
        assert any(
            "decrease" in p for p in check_prometheus_text(bad_cumulative)
        )


class TestRegistryBehavior:
    def test_snapshot_is_isolated_from_later_writes(self, registry):
        c = registry.counter("c_total")
        c.inc(1)
        snap = registry.snapshot()
        c.inc(41)
        assert snap["c_total"]["samples"][0]["value"] == 1

    def test_reset_clears_samples_but_keeps_definitions(self, registry):
        c = registry.counter("c_total", "help text")
        c.inc(9)
        registry.reset()
        assert c.value() == 0
        assert registry.counter("c_total") is c
        assert registry.snapshot()["c_total"]["help"] == "help text"

    def test_concurrent_increments_do_not_lose_updates(self, registry):
        c = registry.counter("c_total")
        h = registry.histogram("h", buckets=(0.5,))

        def work():
            for _ in range(5_000):
                c.inc()
                h.observe(0.1)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == 40_000
        counts, _, count = h.series()
        assert count == 40_000 and counts[0] == 40_000

    def test_global_registry_swap_restores(self, registry):
        previous = set_registry(registry)
        try:
            assert get_registry() is registry
        finally:
            set_registry(previous)
        assert get_registry() is previous
