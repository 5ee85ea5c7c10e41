"""The design-choice ablations."""

import pytest

from repro.bench.ablation import (atomicity_ablation,
                                  instrumentation_ablation,
                                  pruning_ablation, render_ablations,
                                  strategy_ablation, translation_ablation)


class TestTranslationAblation:
    @pytest.fixture(scope="class")
    def rows(self):
        return translation_ablation(actions=400)

    def value(self, rows, variant, metric):
        return next(r.value for r in rows
                    if r.variant == variant and r.metric == metric)

    def test_optimization_shrinks_schema_table(self, rows):
        assert int(self.value(rows, "optimized", "schemas")) < \
            int(self.value(rows, "raw", "schemas"))

    def test_optimization_reduces_points_per_action(self, rows):
        assert float(self.value(rows, "optimized", "points/action")) < \
            float(self.value(rows, "raw", "points/action"))

    def test_race_counts_agree(self, rows):
        assert (self.value(rows, "raw", "races")
                == self.value(rows, "optimized", "races"))


class TestStrategyAblation:
    def test_enumerate_beats_scan_in_checks(self):
        rows = strategy_ablation(actions=400)
        enum_checks = next(float(r.value) for r in rows
                           if r.variant == "enumerate"
                           and r.metric == "checks/action")
        scan_checks = next(float(r.value) for r in rows
                           if r.variant == "scan"
                           and r.metric == "checks/action")
        assert enum_checks < scan_checks


class TestInstrumentationAblation:
    def test_maps_only_is_not_slower_and_equally_precise(self):
        rows = instrumentation_ablation(scale=0.1)
        races = {r.variant: r.value for r in rows if r.metric == "races"}
        assert races["rd2"] == races["rd2-maps-only"]


class TestPruningAblation:
    def test_pruning_shrinks_active_sets_without_changing_verdicts(self):
        rows = pruning_ablation(phases=10)
        value = lambda variant, metric: next(
            r.value for r in rows
            if r.variant == variant and r.metric == metric)
        assert (int(value("every-16-actions", "active points at end"))
                < int(value("off", "active points at end")))
        assert value("off", "races") == value("every-16-actions", "races")


class TestAtomicityAblation:
    def test_access_points_eliminate_false_alarms(self):
        rows = atomicity_ablation(seeds=range(6))
        value = lambda variant, metric_prefix: next(
            int(r.value) for r in rows
            if r.variant == variant and r.metric.startswith(metric_prefix))
        assert value("access-points", "flagged commuting") == 0
        assert value("read-write", "flagged commuting") > 0
        # Both modes catch the genuinely broken block on racy schedules.
        assert value("access-points", "flagged broken") > 0
        assert (value("access-points", "flagged broken")
                <= value("read-write", "flagged broken"))


def test_render():
    text = render_ablations(translation_ablation(actions=200))
    assert "experiment" in text
    assert "optimized" in text
