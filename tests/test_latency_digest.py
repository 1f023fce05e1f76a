"""Tests for the mergeable latency digests and the perf recorder."""

import json
import math
import random

import pytest

from repro.observability.digest import (
    PERF_PROFILE_FILE,
    LatencyDigest,
    PerfRecorder,
)
from repro.observability.profile import aggregate_costs
from repro.observability.telemetry import Telemetry, disable, enable, telemetry


@pytest.fixture(autouse=True)
def _clean_perf():
    yield
    disable()


class TestLatencyDigest:
    def test_quantiles_on_uniform(self):
        rng = random.Random(7)
        digest = LatencyDigest()
        for _ in range(20_000):
            digest.add(rng.uniform(0.0, 1.0))
        assert digest.count == 20_000
        assert abs(digest.quantile(0.5) - 0.5) < 0.02
        assert abs(digest.quantile(0.9) - 0.9) < 0.02
        assert abs(digest.quantile(0.99) - 0.99) < 0.01

    def test_compression_bounds_memory(self):
        digest = LatencyDigest(compression=50)
        for i in range(10_000):
            digest.add(float(i))
        small = len(digest.to_dict()["means"])
        for i in range(10_000, 50_000):
            digest.add(float(i))
        big = len(digest.to_dict()["means"])
        # centroid count is O(compression), independent of observations
        assert big <= 10 * 50
        assert big <= small * 1.5 + 10
        assert digest.count == 50_000

    def test_min_max_exact(self):
        digest = LatencyDigest()
        for v in (0.5, 0.1, 0.9, 0.3):
            digest.add(v)
        assert digest.quantile(0.0) == 0.1
        assert digest.quantile(1.0) == 0.9

    def test_non_finite_skipped(self):
        digest = LatencyDigest()
        digest.add(float("nan"))
        digest.add(float("inf"))
        digest.add(1.0)
        assert digest.count == 1

    def test_empty_quantile_is_nan(self):
        assert math.isnan(LatencyDigest().quantile(0.5))

    def test_merge_matches_pooled(self):
        rng = random.Random(11)
        pooled = LatencyDigest()
        left, right = LatencyDigest(), LatencyDigest()
        for i in range(6000):
            v = rng.expovariate(10.0)
            pooled.add(v)
            (left if i % 2 else right).add(v)
        left.merge(right)
        assert left.count == pooled.count
        for q in (0.5, 0.9, 0.99):
            assert left.quantile(q) == pytest.approx(pooled.quantile(q), rel=0.1)

    def test_serialization_roundtrip(self):
        rng = random.Random(3)
        digest = LatencyDigest()
        for _ in range(2000):
            digest.add(rng.uniform(0, 2))
        clone = LatencyDigest.from_dict(json.loads(json.dumps(digest.to_dict())))
        assert clone.count == digest.count
        assert clone.quantile(0.9) == pytest.approx(digest.quantile(0.9))

    def test_samples_reconstruction(self):
        digest = LatencyDigest()
        for i in range(1000):
            digest.add(i / 1000.0)
        samples = digest.samples(cap=500)
        assert samples
        assert min(samples) >= 0.0 and max(samples) <= 1.0

    def test_percentiles_rollup_keys(self):
        digest = LatencyDigest()
        digest.add(1.0)
        stats = digest.percentiles()
        assert set(stats) >= {"count", "mean", "p50", "p90", "p99"}


class TestPerfRecorder:
    def test_record_and_quantiles(self):
        perf = PerfRecorder()
        for i in range(100):
            perf.record("suggest", 0.001 * (i + 1))
        assert "suggest" in perf.ops()
        assert perf.digest("suggest").quantile(0.5) == pytest.approx(0.0505, rel=0.1)

    def test_timed_context(self):
        perf = enable().perf
        with telemetry().measure("deploy"):
            pass
        assert perf.digest("deploy").count == 1

    def test_drain_resets(self):
        perf = PerfRecorder()
        perf.record("tell", 0.01)
        state = perf.drain_state()
        assert state["ops"]["tell"]["count"] == 1
        assert "tell" not in perf.ops()

    def test_merge_state_rebases_windows(self):
        worker = PerfRecorder(window_s=1.0)
        worker.record("evaluate", 0.5)
        state = worker.drain_state()
        parent = PerfRecorder(window_s=1.0)
        merged = parent.merge_state(state)
        assert merged >= 1
        assert parent.digest("evaluate").count == 1

    def test_merge_garbage_is_safe(self):
        parent = PerfRecorder()
        assert parent.merge_state({"ops": {"x": {"digest": "nope"}}}) == 0
        assert parent.merge_state({}) == 0

    def test_export_and_prometheus(self, tmp_path):
        perf = PerfRecorder()
        perf.record("suggest", 0.002)
        path = perf.export_json(tmp_path / PERF_PROFILE_FILE)
        data = json.loads(path.read_text())
        assert data["schema"].startswith("repro.perf_profile/")
        entry = data["ops"]["suggest"]
        for key in ("count", "mean", "p50", "p90", "p99", "digest"):
            assert key in entry
        prom = perf.render_prometheus()
        assert 'repro_latency_seconds{op="suggest",quantile="0.5"}' in prom
        assert "summary" in prom

    def test_null_recorder_is_inert(self):
        null = Telemetry(enabled=False)
        null.record("suggest", 1.0)
        with null.measure("suggest"):
            pass
        assert not null.enabled
        assert null.perf is None

    def test_global_slot(self):
        assert not telemetry().enabled
        live = enable()
        assert telemetry() is live
        assert live.perf.ops() == {}
        disable()
        assert not telemetry().enabled


class TestAggregateCostsHardening:
    def test_nan_and_garbage_values_skipped(self):
        """Regression: one NaN cost must not poison the campaign profile."""
        costs = [
            {"suggest_s": 0.1, "evaluate_s": 1.0, "tell_s": 0.01},
            {"suggest_s": float("nan"), "evaluate_s": float("inf"), "tell_s": "bogus"},
            {"suggest_s": 0.3, "evaluate_s": 2.0, "tell_s": 0.03, "retries": float("nan")},
        ]
        out = aggregate_costs(costs)
        assert out.trials == 3
        assert out.suggest_s == pytest.approx(0.4)
        assert out.evaluate_s == pytest.approx(3.0)
        assert out.tell_s == pytest.approx(0.04)
        assert out.retries == 0
        assert math.isfinite(out.total_s)

    def test_percentiles_present(self):
        costs = [
            {"suggest_s": 0.1, "evaluate_s": 1.0, "tell_s": 0.01, "queue_wait_s": 0.2}
            for _ in range(5)
        ]
        out = aggregate_costs(costs)
        assert out.queue_wait_s == pytest.approx(1.0)
        for key in ("suggest_s", "evaluate_s", "tell_s", "queue_wait_s"):
            assert out.percentiles[key]["p50"] == pytest.approx(costs[0][key])
        assert "percentiles" in out.to_dict()

    def test_absent_component_stays_out_of_percentiles(self):
        out = aggregate_costs([{"suggest_s": 0.1}])
        assert "tell_s" not in out.percentiles
