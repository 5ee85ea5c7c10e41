"""Unit tests for the metrics registry and report sinks."""

import io
import json

import pytest

from repro.obs import (DEFAULT_SAMPLE_INTERVAL, NULL_REGISTRY, Registry,
                       Timer, build_report, publish_detector_stats,
                       render_table, scrub_timings, write_report)
from repro.obs.report import REPORT_KEY, REPORT_VERSION


class TestTimer:
    def test_record_accumulates_weighted(self):
        timer = Timer()
        timer.record(100, weight=4)
        timer.record(300)
        assert timer.count == 5
        assert timer.samples == 2
        assert timer.total_ns == 100 * 4 + 300
        assert timer.min_ns == 100
        assert timer.max_ns == 300

    def test_buckets_are_log2_weighted(self):
        timer = Timer()
        timer.record(100, weight=2)   # bit_length 7
        timer.record(127)             # bit_length 7
        timer.record(128)             # bit_length 8
        assert timer.buckets == {7: 3, 8: 1}

    def test_absorb_sums_and_bounds(self):
        a, b = Timer(), Timer()
        a.record(100)
        b.record(50, weight=3)
        b.record(900)
        a.absorb(b)
        assert a.count == 5
        assert a.samples == 3
        assert a.total_ns == 100 + 150 + 900
        assert a.min_ns == 50
        assert a.max_ns == 900

    def test_absorb_empty_is_identity(self):
        a = Timer()
        a.record(10)
        before = a.snapshot()
        a.absorb(Timer())
        assert a.snapshot() == before

    def test_snapshot_stringifies_bucket_keys(self):
        timer = Timer()
        timer.record(5)
        snap = timer.snapshot()
        assert list(snap["buckets"]) == ["3"]
        json.dumps(snap)  # JSON-able


class TestRegistry:
    def test_counters_sum(self):
        reg = Registry()
        reg.add("events")
        reg.add("events", 4)
        assert reg.snapshot()["counters"] == {"events": 5}

    def test_gauges_keep_maximum(self):
        reg = Registry()
        reg.gauge("shards", 2)
        reg.gauge("shards", 7)
        reg.gauge("shards", 3)
        assert reg.snapshot()["gauges"] == {"shards": 7}

    def test_breakdown_is_the_live_dict(self):
        reg = Registry()
        table = reg.breakdown("by_object")
        table["o"] = 3
        reg.count_in("by_object", "o", 2)
        assert reg.snapshot()["breakdowns"]["by_object"] == {"o": 5}

    def test_tuple_breakdown_keys_join_on_snapshot(self):
        reg = Registry()
        reg.count_in("pairs", ("put", "get"))
        assert reg.snapshot()["breakdowns"]["pairs"] == {"put×get": 1}

    def test_span_records_exact_timer(self):
        reg = Registry()
        with reg.span("stamp"):
            pass
        snap = reg.snapshot()["timers"]["stamp"]
        assert snap["count"] == 1
        assert snap["samples"] == 1
        assert snap["total_ns"] >= 0

    def test_snapshot_is_deterministically_ordered(self):
        reg = Registry()
        reg.add("zebra")
        reg.add("apple")
        reg.count_in("b", "z")
        reg.count_in("a", "y")
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["apple", "zebra"]
        assert list(snap["breakdowns"]) == ["a", "b"]

    def test_sample_interval_validated(self):
        with pytest.raises(ValueError):
            Registry(sample_interval=0)

    def test_default_sample_interval(self):
        assert Registry().sample_interval == DEFAULT_SAMPLE_INTERVAL


class TestAbsorb:
    def test_absorb_sums_everything(self):
        a, b = Registry(), Registry()
        a.add("events", 2)
        b.add("events", 3)
        a.gauge("depth", 1)
        b.gauge("depth", 9)
        a.count_in("by_obj", "o", 1)
        b.count_in("by_obj", "o", 4)
        b.count_in("by_obj", "p", 1)
        b.timer("shard").record(100)
        a.absorb(b)
        snap = a.snapshot()
        assert snap["counters"] == {"events": 5}
        assert snap["gauges"] == {"depth": 9}
        assert snap["breakdowns"]["by_obj"] == {"o": 5, "p": 1}
        assert snap["timers"]["shard"]["count"] == 1

    def test_absorb_into_disabled_is_noop(self):
        disabled, src = Registry(enabled=False), Registry()
        src.add("n")
        disabled.absorb(src)
        assert disabled.snapshot() == {"enabled": False}

    def test_absorb_from_disabled_is_noop(self):
        reg = Registry()
        reg.add("n")
        before = reg.snapshot()
        reg.absorb(Registry(enabled=False))
        assert reg.snapshot() == before


class TestDisabled:
    def test_null_registry_is_disabled(self):
        assert not NULL_REGISTRY.enabled

    def test_every_mutator_is_a_noop(self):
        reg = Registry(enabled=False)
        reg.add("n", 5)
        reg.gauge("g", 1)
        reg.count_in("b", "k")
        reg.breakdown("b2")["k"] = 9      # throwaway dict
        reg.timer("t").record(10)          # throwaway timer
        with reg.span("s"):
            pass
        assert reg.snapshot() == {"enabled": False}

    def test_disabled_span_is_shared_noop(self):
        reg = Registry(enabled=False)
        assert reg.span("a") is reg.span("b")


class TestReport:
    def _report(self):
        reg = Registry(sample_interval=1)
        reg.add("events", 3)
        with reg.span("stamp"):
            pass
        reg.count_in("checks_by_object", "o", 2)
        return build_report(reg, meta={"detector": "rd2", "workers": 1})

    def test_build_report_shape(self):
        report = self._report()
        assert report[REPORT_KEY] == REPORT_VERSION
        assert report["meta"] == {"detector": "rd2", "workers": 1}
        assert report["stats"]["counters"]["events"] == 3

    def test_write_report_round_trips(self):
        report = self._report()
        out = io.StringIO()
        write_report(report, out)
        assert json.loads(out.getvalue()) == report
        assert out.getvalue().endswith("\n")

    def test_scrub_timings_zeroes_but_keeps_schema(self):
        report = self._report()
        scrubbed = scrub_timings(report)
        stamp = scrubbed["stats"]["timers"]["stamp"]
        assert stamp["total_ns"] == 0
        assert stamp["min_ns"] == 0
        assert stamp["max_ns"] == 0
        assert stamp["buckets"] == {}
        assert stamp["count"] == 1          # deterministic fields survive
        assert stamp["samples"] == 1
        # the original is not mutated
        assert report["stats"]["timers"]["stamp"]["total_ns"] >= 0

    def test_publish_detector_stats(self):
        from repro.core.detector import DetectorStats
        reg = Registry()
        stats = DetectorStats(events=7, actions=3, conflict_checks=5)
        publish_detector_stats(reg, stats)
        counters = reg.snapshot()["counters"]
        assert counters["events"] == 7
        assert counters["actions"] == 3
        assert counters["conflict_checks"] == 5

    def test_render_table_lists_phases_and_breakdowns(self):
        text = render_table(self._report())
        assert "stamp" in text
        assert "events" in text
        assert "checks_by_object" in text
        assert "detector=rd2" in text
