"""Metric collection for engine runs.

Mirrors the paper's measurement protocol: every metric is sampled at a fixed
interval (10 s) over the run, and the reported value is ``mean (± std)`` over
all samples. The collector therefore exposes, per run:

- ``user_response_time`` — mean response time of requests completed in each
  sampling window (the paper's headline metric);
- per-task processing times (Table I / Fig. 9b, 10b);
- ``cpu_usage`` (Fig. 9c), ``gpu_memory_gb`` (9d), ``system_memory_gb``
  (9e), ``gpu_utilization`` and ``gpu_power_w`` (discussed in text);
- pool busy time percentages (Figs. 9f, 9g, 10c, 10d);
- achieved throughput (requests/s).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.engine.tasks import PIPELINE_ORDER, TaskType
from repro.utils.reservoir import ReservoirSampler
from repro.utils.stats import RunningStats, Summary
from repro.utils.timeseries import TimeSeries

if TYPE_CHECKING:  # pragma: no cover
    from repro.engine.config import ThreadPoolConfig, WorkloadSpec

__all__ = ["MetricSeries", "EngineRunResult", "RequestTrace"]

#: Pool names in reporting order.
POOL_NAMES = ("http", "download", "extract", "simsearch")

#: position of each task in :data:`PIPELINE_ORDER`, the index
#: :meth:`MetricsCollector.record_task` takes.
TASK_INDEX: dict[TaskType, int] = {task: i for i, task in enumerate(PIPELINE_ORDER)}


@dataclass
class MetricSeries:
    """All sampled time series of one engine run."""

    user_response_time: TimeSeries = field(
        default_factory=lambda: TimeSeries("user_response_time")
    )
    throughput: TimeSeries = field(default_factory=lambda: TimeSeries("throughput"))
    cpu_usage: TimeSeries = field(default_factory=lambda: TimeSeries("cpu_usage"))
    gpu_utilization: TimeSeries = field(default_factory=lambda: TimeSeries("gpu_utilization"))
    gpu_power_w: TimeSeries = field(default_factory=lambda: TimeSeries("gpu_power_w"))
    gpu_memory_gb: TimeSeries = field(default_factory=lambda: TimeSeries("gpu_memory_gb"))
    system_memory_gb: TimeSeries = field(default_factory=lambda: TimeSeries("system_memory_gb"))
    node_power_w: TimeSeries = field(default_factory=lambda: TimeSeries("node_power_w"))
    pool_busy: dict[str, TimeSeries] = field(
        default_factory=lambda: {name: TimeSeries(f"busy_{name}") for name in POOL_NAMES}
    )

    def as_dict(self) -> dict[str, TimeSeries]:
        out: dict[str, TimeSeries] = {
            "user_response_time": self.user_response_time,
            "throughput": self.throughput,
            "cpu_usage": self.cpu_usage,
            "gpu_utilization": self.gpu_utilization,
            "gpu_power_w": self.gpu_power_w,
            "gpu_memory_gb": self.gpu_memory_gb,
            "system_memory_gb": self.system_memory_gb,
            "node_power_w": self.node_power_w,
        }
        for name, series in self.pool_busy.items():
            out[f"busy_{name}"] = series
        return out


@dataclass(frozen=True)
class RequestTrace:
    """Per-request timeline (collected when tracing is enabled)."""

    submitted: float
    response_time: float
    #: Table I task name → duration (seconds) for this request.
    tasks: dict[str, float] = field(default_factory=dict)


@dataclass
class EngineRunResult:
    """Aggregated outcome of one engine simulation run."""

    config: "ThreadPoolConfig"
    workload: "WorkloadSpec"
    seed: int
    #: mean ± std over the per-window response-time samples (paper metric).
    user_response_time: Summary
    #: requests completed per second after warm-up.
    throughput: float
    #: total requests completed after warm-up.
    completed_requests: int
    #: mean ± std per pipeline task (keys are Table I task names).
    task_times: dict[str, Summary]
    #: lifetime pool busy fractions.
    pool_busy: dict[str, float]
    #: resident GPU memory for this configuration (constant during run).
    gpu_memory_gb: float
    #: engine container memory (constant during run).
    system_memory_gb: float
    #: mean CPU usage fraction over sampled windows.
    cpu_usage: Summary
    #: mean GPU utilization fraction over sampled windows.
    gpu_utilization: Summary
    #: response-time percentile estimates (p50/p95/p99) post-warm-up.
    response_percentiles: dict[str, float]
    #: node + GPU energy over the measured window (watt-hours).
    node_energy_wh: float
    gpu_energy_wh: float
    #: all raw sampled series.
    series: MetricSeries
    #: per-request timelines (only when the engine ran with ``trace=True``).
    traces: list[RequestTrace] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able record (used by Phase III archives)."""
        return {
            "config": self.config.to_dict(),
            "simultaneous_requests": self.workload.simultaneous_requests,
            "duration": self.workload.duration,
            "seed": self.seed,
            "user_response_time_mean": self.user_response_time.mean,
            "user_response_time_std": self.user_response_time.std,
            "throughput": self.throughput,
            "completed_requests": self.completed_requests,
            "task_times": {k: {"mean": v.mean, "std": v.std} for k, v in self.task_times.items()},
            "pool_busy": dict(self.pool_busy),
            "gpu_memory_gb": self.gpu_memory_gb,
            "system_memory_gb": self.system_memory_gb,
            "cpu_usage_mean": self.cpu_usage.mean,
            "gpu_utilization_mean": self.gpu_utilization.mean,
            "response_percentiles": dict(self.response_percentiles),
            "node_energy_wh": self.node_energy_wh,
            "gpu_energy_wh": self.gpu_energy_wh,
        }


    def export_csv(self, directory) -> list:
        """Write every sampled series (and traces, if any) as CSV files.

        Returns the written paths. Files are plain two-column
        ``time,value`` CSVs — loadable by any plotting tool, fulfilling the
        E2Clab goal of archiving experiment data in open formats.
        """
        from pathlib import Path

        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        written = []
        for name, series in self.series.as_dict().items():
            path = directory / f"{name}.csv"
            lines = ["time,value"]
            lines += [f"{t},{v}" for t, v in series]
            path.write_text("\n".join(lines) + "\n")
            written.append(path)
        if self.traces:
            task_names = list(self.traces[0].tasks)
            path = directory / "traces.csv"
            header = "submitted,response_time," + ",".join(task_names)
            rows = [header]
            for trace in self.traces:
                cells = [f"{trace.submitted}", f"{trace.response_time}"]
                cells += [f"{trace.tasks.get(name, '')}" for name in task_names]
                rows.append(",".join(cells))
            path.write_text("\n".join(rows) + "\n")
            written.append(path)
        return written


class MetricsCollector:
    """Accumulates raw observations and samples windows; engine-internal."""

    def __init__(self, warmup: float, *, trace: bool = False) -> None:
        self.warmup = warmup
        self.series = MetricSeries()
        self.task_stats: dict[TaskType, RunningStats] = {t: RunningStats() for t in TaskType}
        #: bound ``add`` of each task's accumulator, in pipeline order.
        self._task_adds = tuple(self.task_stats[t].add for t in PIPELINE_ORDER)
        self.response_stats = RunningStats()
        self.response_reservoir = ReservoirSampler(capacity=20000, seed=0)
        self.completed = 0
        self.trace_enabled = trace
        self.traces: list[RequestTrace] = []
        # window accumulators
        self._win_responses = RunningStats()
        self._win_completed = 0

    # -- raw observations -------------------------------------------------------

    def record_task(self, index: int, duration: float, now: float) -> None:
        """Record one task duration; ``index`` is the task's :data:`TASK_INDEX`.

        The engine records nine tasks per request, so this indexes a tuple
        of bound ``add`` methods instead of hashing a :class:`TaskType`.
        """
        if now >= self.warmup:
            self._task_adds[index](duration)

    def record_response(self, response_time: float, now: float) -> None:
        if now >= self.warmup:
            self.response_stats.add(response_time)
            self.response_reservoir.add(response_time)
            self.completed += 1
            self._win_responses.add(response_time)
            self._win_completed += 1

    def record_trace(self, trace: RequestTrace, now: float) -> None:
        if self.trace_enabled and now >= self.warmup:
            self.traces.append(trace)

    # -- window sampling ----------------------------------------------------------

    def sample_window(
        self,
        now: float,
        interval: float,
        *,
        cpu_usage: float,
        gpu_utilization: float,
        gpu_power_w: float,
        node_power_w: float,
        gpu_memory_gb: float,
        system_memory_gb: float,
        pool_busy: dict[str, float],
    ) -> None:
        """Close the current window and append one sample per series."""
        if self._win_responses.count:
            self.series.user_response_time.append(now, self._win_responses.mean)
        self.series.throughput.append(now, self._win_completed / interval)
        self.series.cpu_usage.append(now, cpu_usage)
        self.series.gpu_utilization.append(now, gpu_utilization)
        self.series.gpu_power_w.append(now, gpu_power_w)
        self.series.node_power_w.append(now, node_power_w)
        self.series.gpu_memory_gb.append(now, gpu_memory_gb)
        self.series.system_memory_gb.append(now, system_memory_gb)
        for name, busy in pool_busy.items():
            self.series.pool_busy[name].append(now, busy)
        self._win_responses = RunningStats()
        self._win_completed = 0
