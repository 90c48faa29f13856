"""Tests for traffic accounting."""

import pytest

from repro.cluster.metrics import TrafficCategory, TrafficMeter


class TestRecording:
    def test_total_accumulates(self):
        m = TrafficMeter()
        m.record("shuffle", 100, crosses_core=False)
        m.record("shuffle", 50, crosses_core=True)
        assert m.total("shuffle") == 150

    def test_core_bytes_only_cross_rack(self):
        m = TrafficMeter()
        m.record("shuffle", 100, crosses_core=False)
        m.record("shuffle", 50, crosses_core=True)
        assert m.bisection("shuffle") == 50

    def test_off_fabric_excluded_from_fabric(self):
        m = TrafficMeter()
        m.record("input", 100, crosses_core=False, on_fabric=False)
        assert m.total("input") == 100
        assert m.fabric("input") == 0

    def test_unknown_category_is_zero(self):
        m = TrafficMeter()
        assert m.total("nope") == 0
        assert m.bisection("nope") == 0
        assert m.transfers("nope") == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            TrafficMeter().record("x", -1, crosses_core=False)

    def test_transfer_count(self):
        m = TrafficMeter()
        for _ in range(3):
            m.record("x", 1, crosses_core=False)
        assert m.transfers("x") == 3

    def test_grand_total(self):
        m = TrafficMeter()
        m.record("a", 10, crosses_core=False)
        m.record("b", 20, crosses_core=True)
        assert m.grand_total() == 30

    def test_categories_sorted(self):
        m = TrafficMeter()
        m.record("b", 1, crosses_core=False)
        m.record("a", 1, crosses_core=False)
        assert m.categories() == ["a", "b"]


class TestSnapshotDiff:
    def test_diff_isolates_interval(self):
        m = TrafficMeter()
        m.record("x", 100, crosses_core=False)
        snap = m.snapshot()
        m.record("x", 40, crosses_core=True)
        delta = m.diff(snap)
        assert delta["x"]["total_bytes"] == 40
        assert delta["x"]["core_bytes"] == 40

    def test_diff_with_new_category(self):
        m = TrafficMeter()
        snap = m.snapshot()
        m.record("fresh", 7, crosses_core=False)
        assert m.diff(snap)["fresh"]["total_bytes"] == 7

    def test_snapshot_is_copy(self):
        m = TrafficMeter()
        m.record("x", 1, crosses_core=False)
        snap = m.snapshot()
        m.record("x", 1, crosses_core=False)
        assert snap["x"]["total_bytes"] == 1


class TestCategories:
    def test_canonical_names_unique(self):
        assert len(set(TrafficCategory.ALL)) == len(TrafficCategory.ALL)

    def test_shuffle_and_model_update_present(self):
        assert TrafficCategory.SHUFFLE in TrafficCategory.ALL
        assert TrafficCategory.MODEL_UPDATE in TrafficCategory.ALL
