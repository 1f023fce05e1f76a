"""Tests for the engine discrete-event simulation."""

import pytest

from repro.engine import (
    BASELINE_CONFIG,
    EngineModelParams,
    IdentificationEngine,
    ThreadPoolConfig,
    WorkloadSpec,
    simulate_engine,
)
from repro.engine.tasks import PIPELINE_ORDER, SERVICE_TASKS, TaskType
from repro.simcore.core import Environment


@pytest.fixture(scope="module")
def baseline_run():
    return simulate_engine(BASELINE_CONFIG, 80, duration=250.0, warmup=50.0, seed=7)


class TestPipeline:
    def test_table_i_order(self):
        assert [str(t) for t in PIPELINE_ORDER] == [
            "pre-process",
            "wait-download",
            "download",
            "wait-extract",
            "extract",
            "process",
            "wait-simsearch",
            "simsearch",
            "post-process",
        ]

    def test_all_tasks_observed(self, baseline_run):
        for task in TaskType:
            assert baseline_run.task_times[str(task)].count > 0, task

    def test_simsearch_dominates_service_tasks(self, baseline_run):
        """The paper: extraction and simsearch are the most time-consuming."""
        times = {str(t): baseline_run.task_times[str(t)].mean for t in SERVICE_TASKS}
        assert times["simsearch"] == max(times.values())
        assert times["extract"] > times["pre-process"]


class TestClosedLoop:
    def test_littles_law(self, baseline_run):
        """R = X · T must hold in a closed system with zero think time."""
        R = 80
        X = baseline_run.throughput
        T = baseline_run.user_response_time.mean
        assert X * T == pytest.approx(R, rel=0.05)

    def test_http_pool_saturated_when_R_exceeds_H(self, baseline_run):
        assert baseline_run.pool_busy["http"] == pytest.approx(1.0, abs=0.02)

    def test_underload_no_http_wait(self):
        result = simulate_engine(BASELINE_CONFIG, 10, duration=200.0, warmup=40.0, seed=1)
        # 10 clients against 40 HTTP threads: response == service time, low
        assert result.user_response_time.mean < 1.8
        assert result.pool_busy["http"] < 0.5

    def test_response_time_grows_with_load(self):
        r80 = simulate_engine(BASELINE_CONFIG, 80, duration=200.0, warmup=40.0, seed=2)
        r120 = simulate_engine(BASELINE_CONFIG, 120, duration=200.0, warmup=40.0, seed=2)
        r140 = simulate_engine(BASELINE_CONFIG, 140, duration=200.0, warmup=40.0, seed=2)
        assert r80.user_response_time.mean < r120.user_response_time.mean
        assert r120.user_response_time.mean < r140.user_response_time.mean


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = simulate_engine(BASELINE_CONFIG, 30, duration=150.0, warmup=30.0, seed=5)
        b = simulate_engine(BASELINE_CONFIG, 30, duration=150.0, warmup=30.0, seed=5)
        assert a.user_response_time.mean == b.user_response_time.mean
        assert a.completed_requests == b.completed_requests

    def test_different_seed_different_result(self):
        a = simulate_engine(BASELINE_CONFIG, 30, duration=150.0, warmup=30.0, seed=5)
        b = simulate_engine(BASELINE_CONFIG, 30, duration=150.0, warmup=30.0, seed=6)
        assert a.user_response_time.mean != b.user_response_time.mean


class TestMetricsCollection:
    def test_sample_count(self):
        result = simulate_engine(BASELINE_CONFIG, 40, duration=200.0, warmup=40.0, seed=3)
        # samples every 10 s in (40, 200] → 16 post-warmup windows
        assert len(result.series.cpu_usage) == 16
        assert len(result.series.user_response_time) <= 16

    def test_gpu_memory_constant_during_run(self, baseline_run):
        values = baseline_run.series.gpu_memory_gb.values
        assert values.min() == values.max()

    def test_monitored_metrics_in_physical_ranges(self, baseline_run):
        assert 0.0 <= baseline_run.cpu_usage.mean <= 1.0
        assert 0.0 <= baseline_run.gpu_utilization.mean <= 1.0
        for name, busy in baseline_run.pool_busy.items():
            assert 0.0 <= busy <= 1.0 + 1e-9, name
        power = baseline_run.series.gpu_power_w.values
        assert (power >= 38.0).all() and (power <= 130.0).all()

    def test_to_dict_jsonable(self, baseline_run):
        import json

        payload = baseline_run.to_dict()
        json.dumps(payload)  # must not raise
        assert payload["config"]["extract"] == 7


class TestConfiguration:
    def test_gpu_memory_guard(self):
        params = EngineModelParams(gpu_total_memory_gb=8.0)
        with pytest.raises(ValueError, match="GPU memory"):
            IdentificationEngine(
                ThreadPoolConfig(40, 40, 9, 40),
                WorkloadSpec(simultaneous_requests=10, duration=50.0, warmup=0.0),
                params,
            )

    def test_zero_cv_deterministic_services(self):
        params = EngineModelParams(service_cv=0.0)
        result = simulate_engine(
            BASELINE_CONFIG, 20, duration=150.0, warmup=30.0, seed=9, params=params
        )
        # pre-process is near-deterministic at 20 clients (only the tiny
        # quasi-static inflation wiggle remains without service noise)
        assert result.task_times["pre-process"].std < 1e-4

    def test_client_rtt_added(self):
        from repro.testbed.network import NetworkPath

        slow_path = NetworkPath(hops=("edge", "cloud"), latency_ms=250.0, bandwidth_gbps=1.0, loss=0.0)
        near = simulate_engine(BASELINE_CONFIG, 20, duration=150.0, warmup=30.0, seed=4)
        far = simulate_engine(
            BASELINE_CONFIG, 20, duration=150.0, warmup=30.0, seed=4, client_path=slow_path
        )
        delta = far.user_response_time.mean - near.user_response_time.mean
        assert delta == pytest.approx(0.5, abs=0.05)  # one RTT of 2×250 ms


def _timeout_delays(monkeypatch):
    """Route every raw-number wait through an ordinary ``env.timeout``.

    Engine stages yield raw numbers, which the environment resumes via a
    pooled fast-lane carrier (``Environment._schedule_resume``). Swapping
    that hook for a subscribed :class:`~repro.simcore.events.Timeout`
    turns each wait into a full event, as an engine yielding
    ``env.timeout(d)`` would get.
    """

    def schedule_resume(env, process, delay):
        event = env.timeout(delay)
        event.callbacks.append(process._resume)
        return event

    monkeypatch.setattr(Environment, "_schedule_resume", schedule_resume)


class TestFastLane:
    """The raw-number delay fast lane must be byte-identical to events."""

    def _pair(self, monkeypatch, **workload_kwargs):
        def run():
            engine = IdentificationEngine(
                BASELINE_CONFIG, WorkloadSpec(**workload_kwargs), seed=7
            )
            return engine.run()

        fast = run()
        with monkeypatch.context() as patch:
            _timeout_delays(patch)
            slow = run()
        return fast, slow

    def test_closed_loop_byte_identical(self, monkeypatch):
        fast, slow = self._pair(
            monkeypatch, simultaneous_requests=20, duration=150.0, warmup=30.0
        )
        assert fast.user_response_time == slow.user_response_time
        assert fast.throughput == slow.throughput
        assert fast.completed_requests == slow.completed_requests
        assert fast.task_times == slow.task_times
        assert fast.response_percentiles == slow.response_percentiles

    def test_open_loop_byte_identical(self, monkeypatch):
        fast, slow = self._pair(
            monkeypatch,
            simultaneous_requests=20,
            arrival_rate=8.0,
            duration=120.0,
            warmup=20.0,
        )
        assert fast.user_response_time == slow.user_response_time
        assert fast.completed_requests == slow.completed_requests
        assert fast.task_times == slow.task_times

    def test_simulate_engine_default_is_fast(self, monkeypatch):
        calls = []
        original = Environment._schedule_resume

        def counting(env, process, delay):
            calls.append(delay)
            return original(env, process, delay)

        with monkeypatch.context() as patch:
            patch.setattr(Environment, "_schedule_resume", counting)
            default = simulate_engine(
                BASELINE_CONFIG, 20, duration=120.0, warmup=20.0, seed=3
            )
        assert calls, "simulate_engine never took the raw-number fast lane"
        with monkeypatch.context() as patch:
            _timeout_delays(patch)
            slow = simulate_engine(
                BASELINE_CONFIG, 20, duration=120.0, warmup=20.0, seed=3
            )
        assert default.user_response_time == slow.user_response_time
