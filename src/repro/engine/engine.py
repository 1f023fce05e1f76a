"""Discrete-event simulation of the Pl@ntNet Identification Engine.

One :class:`IdentificationEngine` instance simulates one engine node serving
a closed-loop population of ``simultaneous_requests`` clients. Each request
executes the Table I pipeline::

    pre-process → [wait-download] → download → [wait-extract] → extract
    → process → [wait-simsearch] → simsearch → post-process

holding an HTTP pool thread end-to-end (the HTTP pool size is "the number of
simultaneous requests being processed", paper Table II) and claiming
Download / Extract / Simsearch threads for the bracketed stages.

Performance couplings modelled (see DESIGN.md §5 for calibration):

- **CPU contention** — CPU-bound stage times inflate when aggregate demand
  (weighted active tasks + background) exceeds the node's cores.
- **GPU concurrency** — per-inference latency grows with the number of
  concurrent extract streams; GPU memory is a function of the pool size.
- **Closed loop** — clients resubmit immediately on response, so response
  time and throughput obey Little's law (``R = X · T``) at steady state.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Callable, Generator, Iterator, Optional

from repro import simcore
from repro.engine.config import EngineModelParams, ThreadPoolConfig, WorkloadSpec
from repro.observability.metrics import get_registry
from repro.observability.trace import get_tracer
from repro.engine.cpumodel import CpuContentionModel
from repro.engine.gpu import GpuModel
from repro.engine.metrics import EngineRunResult, MetricsCollector, POOL_NAMES, TASK_INDEX
from repro.engine.tasks import TaskType
from repro.testbed.network import NetworkPath
from repro.utils.seeding import derive_seed, spawn_rng

__all__ = ["IdentificationEngine", "simulate_engine", "EngineRunResult"]

#: inter-arrival gaps drawn per batch in open-loop mode — large enough to
#: amortize the numpy call, small enough that short runs don't over-draw.
_ARRIVAL_BATCH = 256

#: service-time noise factors drawn per block (about five per request).
_NOISE_BLOCK = 1024

_PRE_PROCESS = TASK_INDEX[TaskType.PRE_PROCESS]
_WAIT_DOWNLOAD = TASK_INDEX[TaskType.WAIT_DOWNLOAD]
_DOWNLOAD = TASK_INDEX[TaskType.DOWNLOAD]
_WAIT_EXTRACT = TASK_INDEX[TaskType.WAIT_EXTRACT]
_EXTRACT = TASK_INDEX[TaskType.EXTRACT]
_PROCESS = TASK_INDEX[TaskType.PROCESS]
_WAIT_SIMSEARCH = TASK_INDEX[TaskType.WAIT_SIMSEARCH]
_SIMSEARCH = TASK_INDEX[TaskType.SIMSEARCH]
_POST_PROCESS = TASK_INDEX[TaskType.POST_PROCESS]


def _lognormal_blocks(rng: Any, mu: float, sigma: float) -> Iterator[float]:
    """Endless lognormal draws from ``rng``, generated ``_NOISE_BLOCK`` at a time.

    A block draw from a numpy Generator returns the same values as that many
    scalar draws, so the stream is exactly the per-call sequence.
    """
    while True:
        yield from rng.lognormal(mu, sigma, size=_NOISE_BLOCK).tolist()


class IdentificationEngine:
    """Simulates one engine node under a closed-loop workload."""

    def __init__(
        self,
        config: ThreadPoolConfig,
        workload: WorkloadSpec | None = None,
        params: EngineModelParams | None = None,
        *,
        seed: int = 0,
        client_path: Optional[NetworkPath] = None,
        trace: bool = False,
    ) -> None:
        self.config = config
        self.workload = workload or WorkloadSpec()
        self.params = params or EngineModelParams()
        self.seed = int(seed)
        self.client_path = client_path

        self.env = simcore.Environment()
        self.cpu = CpuContentionModel(
            self.params.cpu_cores,
            base_load=(
                self.params.background_cores
                + self.params.extract_standby_cores * config.extract
            ),
            scale=self.params.contention_scale,
            sharpness=self.params.contention_sharpness,
            rho_max=self.params.contention_rho_max,
            kappa=self.params.contention_kappa,
        )
        self.gpu = GpuModel(self.params)
        if not self.gpu.fits_in_memory(config.extract):
            raise ValueError(
                f"extract pool of {config.extract} needs "
                f"{self.gpu.memory_gb(config.extract):.1f} GB GPU memory, "
                f"only {self.params.gpu_total_memory_gb} GB available"
            )
        env = self.env
        self.pools = {
            "http": simcore.Resource(env, config.http, name="http"),
            "download": simcore.Resource(env, config.download, name="download"),
            "extract": simcore.Resource(env, config.extract, name="extract"),
            "simsearch": simcore.Resource(env, config.simsearch, name="simsearch"),
        }
        self.metrics = MetricsCollector(self.workload.warmup, trace=trace)
        # Lognormal service-time noise (mean 1, given CV). Its generator
        # serves nothing else, so drawing it in blocks keeps the sequence;
        # the stream lives on the engine, so hybrid windows continue it.
        cv = self.params.service_cv
        self._noise: Callable[[], float]
        if cv > 0:
            sigma = math.sqrt(math.log(1.0 + cv * cv))
            self._noise = _lognormal_blocks(
                spawn_rng(self.seed), -0.5 * sigma * sigma, sigma
            ).__next__
        else:
            self._noise = itertools.repeat(1.0).__next__
        self._client_rtt = client_path.round_trip_time() if client_path else 0.0

    # -- request lifecycle -------------------------------------------------------------

    def _lifecycle(self) -> Generator[simcore.Event, None, None]:
        """One request through the full Table I pipeline.

        CPU-bound stages run ``I`` times longer than uncontended while
        drawing ``weight / I`` cores (``I``: the contention slowdown when
        the stage starts), keeping their CPU work invariant. Extract has a
        GPU-paced phase, which draws ``w_extract_spin`` cores that
        contention does not stretch, then a CPU phase like any other.

        The stage bodies are written out in line (one generator frame per
        request). Wait times and the response go to the collector current
        when the request started; stage times go to the collector current
        when the stage ends (the hybrid engine swaps collectors between
        windows).
        """
        env = self.env
        p = self.params
        pools = self.pools
        http, download, extract, simsearch = (
            pools["http"], pools["download"], pools["extract"], pools["simsearch"]
        )
        cpu = self.cpu
        gpu = self.gpu
        noise = self._noise
        metrics = self.metrics
        trace = metrics.trace_enabled
        submitted = env._now
        stamps: dict[str, float] = {}

        http_req = http.request()
        yield http_req
        try:
            t0 = env._now
            slowdown = cpu.inflation()
            draw = p.w_http_misc / slowdown
            cpu.acquire(draw, t0)
            try:
                duration = p.t_preprocess * slowdown * noise()
                yield duration
            finally:
                cpu.release(draw, env._now)
            self.metrics.record_task(_PRE_PROCESS, duration, env._now)
            if trace:
                stamps["pre-process"] = env._now - t0

            t0 = env._now
            dl_req = download.request()
            yield dl_req
            metrics.record_task(_WAIT_DOWNLOAD, env._now - t0, env._now)
            if trace:
                stamps["wait-download"] = env._now - t0
            try:
                t0 = env._now
                slowdown = cpu.inflation()
                draw = p.w_download / slowdown
                cpu.acquire(draw, t0)
                try:
                    network = p.image_bytes / p.download_bandwidth
                    duration = (network + p.t_download_cpu * slowdown) * noise()
                    yield duration
                finally:
                    cpu.release(draw, env._now)
                self.metrics.record_task(_DOWNLOAD, duration, env._now)
                if trace:
                    stamps["download"] = env._now - t0
            finally:
                download.release(dl_req)

            t0 = env._now
            ex_req = extract.request()
            yield ex_req
            metrics.record_task(_WAIT_EXTRACT, env._now - t0, env._now)
            if trace:
                stamps["wait-extract"] = env._now - t0
            try:
                t0 = env._now
                concurrency = gpu.stream_started()
                cpu.acquire(p.w_extract_spin, t0)
                try:
                    gpu_time = gpu.inference_time(concurrency) * noise()
                    yield gpu_time
                finally:
                    gpu.stream_finished()
                    cpu.release(p.w_extract_spin, env._now)
                slowdown = cpu.inflation()
                draw = p.w_extract / slowdown
                cpu.acquire(draw, env._now)
                try:
                    yield p.t_extract_cpu * slowdown * noise()
                finally:
                    cpu.release(draw, env._now)
                self.metrics.record_task(_EXTRACT, env._now - t0, env._now)
                if trace:
                    stamps["extract"] = env._now - t0
            finally:
                extract.release(ex_req)

            t0 = env._now
            slowdown = cpu.inflation()
            draw = p.w_http_misc / slowdown
            cpu.acquire(draw, t0)
            try:
                duration = p.t_process * slowdown * noise()
                yield duration
            finally:
                cpu.release(draw, env._now)
            self.metrics.record_task(_PROCESS, duration, env._now)
            if trace:
                stamps["process"] = env._now - t0

            t0 = env._now
            ss_req = simsearch.request()
            yield ss_req
            metrics.record_task(_WAIT_SIMSEARCH, env._now - t0, env._now)
            if trace:
                stamps["wait-simsearch"] = env._now - t0
            try:
                t0 = env._now
                slowdown = cpu.inflation()
                draw = p.w_simsearch / slowdown
                cpu.acquire(draw, t0)
                try:
                    duration = p.t_simsearch * slowdown * noise()
                    yield duration
                finally:
                    cpu.release(draw, env._now)
                self.metrics.record_task(_SIMSEARCH, duration, env._now)
                if trace:
                    stamps["simsearch"] = env._now - t0
            finally:
                simsearch.release(ss_req)

            t0 = env._now
            slowdown = cpu.inflation()
            draw = p.w_http_misc / slowdown
            cpu.acquire(draw, t0)
            try:
                duration = p.t_postprocess * slowdown * noise()
                yield duration
            finally:
                cpu.release(draw, env._now)
            self.metrics.record_task(_POST_PROCESS, duration, env._now)
            if trace:
                stamps["post-process"] = env._now - t0
        finally:
            http.release(http_req)

        response_time = env._now - submitted + self._client_rtt
        metrics.record_response(response_time, env._now)
        if trace:
            from repro.engine.metrics import RequestTrace

            metrics.record_trace(
                RequestTrace(submitted=submitted, response_time=response_time, tasks=stamps),
                env._now,
            )

    def _client(self, index: int = 0) -> Generator[simcore.Event, None, None]:
        """A closed-loop client: resubmit immediately upon each response.

        In scheduled mode the client parks itself whenever its index is at
        or above the current target population and resumes when the
        schedule readmits it — shrinking and growing the closed-loop
        population without tearing down state (E2Clab's transparent
        scenario scaling).
        """
        env = self.env
        while env.now < self.workload.duration:
            while index >= self._allowed_population:
                gate = env.event()
                self._parked[index] = gate
                yield gate
                if env.now >= self.workload.duration:
                    return
            yield from self._lifecycle()

    def _population_controller(self) -> Generator[simcore.Event, None, None]:
        """Applies the population schedule (scheduled mode only)."""
        env = self.env
        assert self.workload.population_schedule is not None
        for start, population in self.workload.population_schedule:
            if start > env.now:
                yield start - env.now
            self._allowed_population = population
            for index in sorted(self._parked):
                if index < population:
                    self._parked.pop(index).succeed()

    def _open_loop_source(self) -> Generator[simcore.Event, None, None]:
        """Poisson arrivals; each arrival is an independent request.

        Inter-arrival gaps are drawn in batches from a dedicated arrival
        RNG (derived from the run seed) instead of one scalar draw per
        request from the shared stream. Batch draws from a numpy Generator
        produce the same sequence as repeated scalar draws, so the arrival
        process itself is unchanged — but keeping arrivals off the shared
        RNG means batching cannot perturb the service-noise stream.
        """
        env = self.env
        rate = self.workload.arrival_rate
        assert rate is not None
        scale = 1.0 / rate
        duration = self.workload.duration
        rng = spawn_rng(derive_seed(self.seed, "arrivals"))
        while env.now < duration:
            for gap in rng.exponential(scale, size=_ARRIVAL_BATCH):
                yield float(gap)
                env.process(self._lifecycle(), name="request")
                if env.now >= duration:
                    return

    def _trace_source(self) -> Generator[simcore.Event, None, None]:
        """Replay an arrival trace verbatim (timestamps, no RNG draws)."""
        env = self.env
        duration = self.workload.duration
        assert self.workload.arrival_schedule is not None
        trace = self.workload.arrival_schedule.trace
        assert trace is not None
        for stamp in trace:
            if stamp >= duration:
                return
            if stamp > env.now:
                yield stamp - env.now
            env.process(self._lifecycle(), name="request")

    def _scheduled_source(self) -> Generator[simcore.Event, None, None]:
        """Non-homogeneous Poisson arrivals following an ArrivalSchedule.

        Within a segment, gaps are drawn in batches at the segment's rate
        through the same calls as :meth:`_open_loop_source` — a schedule
        with one constant segment is byte-identical to plain
        ``arrival_rate`` mode. At a segment boundary the residual of the
        gap in flight is rescaled by the old/new rate ratio (memoryless
        rescaling), which makes the piecewise process an exact NHPP;
        undrawn gaps of the batch are discarded so every segment samples
        at its own scale.
        """
        env = self.env
        duration = self.workload.duration
        assert self.workload.arrival_schedule is not None
        segments = self.workload.arrival_schedule.segments(duration)
        rng = spawn_rng(derive_seed(self.seed, "arrivals"))
        index = 0
        carry = 0.0  # unit-exponential work left over from a boundary crossing
        while env.now < duration and index < len(segments):
            _, end, rate = segments[index]
            if rate <= 0.0:
                # idle segment: no arrivals, the pending work is preserved
                if end >= duration:
                    return
                yield end - env.now
                index += 1
                continue
            if carry > 0.0:
                gap = carry / rate
                carry = 0.0
                if env.now + gap >= end and end < duration:
                    carry = (env.now + gap - end) * rate
                    yield end - env.now
                    index += 1
                    continue
                yield gap
                env.process(self._lifecycle(), name="request")
                if env.now >= duration:
                    return
                continue
            scale = 1.0 / rate
            for gap in rng.exponential(scale, size=_ARRIVAL_BATCH):
                gap = float(gap)
                if env.now + gap >= end and end < duration:
                    carry = (env.now + gap - end) * rate
                    yield end - env.now
                    index += 1
                    break
                yield gap
                env.process(self._lifecycle(), name="request")
                if env.now >= duration:
                    return

    # -- monitoring ------------------------------------------------------------------------

    def _monitor(self) -> Generator[simcore.Event, None, None]:
        """Sample every metric each ``sample_interval`` (paper: 10 s)."""
        env = self.env
        wl = self.workload
        interval = wl.sample_interval
        cfg = self.config
        gpu_mem = self.gpu.memory_gb(cfg.extract)
        sys_mem = self._system_memory_gb()
        prev_cpu = self.cpu.usage_integral(env.now)
        prev_busy = {name: self.pools[name].busy_integral() for name in POOL_NAMES}

        while env.now < wl.duration:
            yield interval
            now = env.now
            cpu_int = self.cpu.usage_integral(now)
            cpu_usage = (cpu_int - prev_cpu) / interval
            prev_cpu = cpu_int

            busy: dict[str, float] = {}
            for name in POOL_NAMES:
                integral = self.pools[name].busy_integral()
                busy[name] = (integral - prev_busy[name]) / (interval * self.pools[name].capacity)
                prev_busy[name] = integral

            mean_streams = busy["extract"] * cfg.extract
            gpu_util = self.gpu.utilization(active_streams=mean_streams)  # type: ignore[arg-type]
            gpu_power = self.gpu.power_draw_w(active_streams=mean_streams)  # type: ignore[arg-type]
            node_power = (
                self.params.node_idle_power_w
                + (self.params.node_max_power_w - self.params.node_idle_power_w) * cpu_usage
            )

            if now >= wl.warmup:
                self.metrics.sample_window(
                    now,
                    interval,
                    cpu_usage=cpu_usage,
                    gpu_utilization=gpu_util,
                    gpu_power_w=gpu_power,
                    node_power_w=node_power,
                    gpu_memory_gb=gpu_mem,
                    system_memory_gb=sys_mem,
                    pool_busy=busy,
                )

    def _system_memory_gb(self) -> float:
        p = self.params
        cfg = self.config
        threads = cfg.http + cfg.download + cfg.simsearch
        return p.sys_mem_base_gb + p.sys_mem_per_extract_gb * cfg.extract + p.sys_mem_per_thread_gb * threads

    # -- entry point ------------------------------------------------------------------------

    def run(self) -> EngineRunResult:
        """Run the simulation for the workload's duration and aggregate.

        When the process-global tracer/registry are enabled (they are no-ops
        by default) the run additionally emits an ``engine.run`` span with
        per-pool wait/service children, event-loop statistics, and uniform
        engine metrics — at zero cost for untraced runs.
        """
        env = self.env
        workload = self.workload
        tracer = get_tracer()
        registry = get_registry()
        observing = tracer.enabled or registry.enabled
        if observing:
            env.enable_stats()
        run_span = (
            tracer.start_span(
                "engine.run",
                sim_clock=lambda: env.now,
                config=str(self.config),
                requests=workload.simultaneous_requests,
                seed=self.seed,
            )
            if tracer.enabled
            else None
        )
        self._parked: dict[int, simcore.Event] = {}
        if workload.mode == "open":
            self._allowed_population = 0
            if workload.arrival_schedule is None:
                source = self._open_loop_source()
            elif workload.arrival_schedule.is_trace:
                source = self._trace_source()
            else:
                source = self._scheduled_source()
            env.process(source, name="arrivals")
        else:
            self._allowed_population = workload.population_at(0.0)
            for index in range(workload.simultaneous_requests):
                env.process(self._client(index), name="client")
            if workload.mode == "scheduled":
                env.process(self._population_controller(), name="population")
        env.process(self._monitor(), name="monitor")
        env.run(until=workload.duration)
        if observing:
            self._publish_observability(tracer, registry, run_span)
        return self._result()

    def _publish_observability(self, tracer: Any, registry: Any, run_span: Any) -> None:
        """Emit pool spans + uniform metrics after one engine run."""
        env = self.env
        loop = env.stats.snapshot(env.now) if env.stats is not None else {}
        for name, pool in self.pools.items():
            stats = pool.stats
            waits = stats.wait_times.summary()
            occupancy = pool.occupancy()
            if run_span is not None:
                span = tracer.start_span(
                    f"pool:{name}",
                    parent=run_span,
                    start=run_span.start_s,
                    capacity=pool.capacity,
                    grants=stats.grants,
                    wait_mean_s=waits.mean,
                    service_mean_s=(
                        stats.busy_integral / stats.releases if stats.releases else 0.0
                    ),
                    occupancy=occupancy,
                    mean_queue_length=stats.mean_queue_length(env.now),
                )
                tracer.end_span(span)
            if registry.enabled:
                registry.gauge(
                    "engine_pool_busy", "mean fraction of pool threads occupied", ("pool",)
                ).set(occupancy, pool=name)
                registry.gauge(
                    "engine_pool_wait_mean_s", "mean wait for a pool thread", ("pool",)
                ).set(waits.mean, pool=name)
                registry.histogram(
                    "engine_pool_wait_seconds",
                    "distribution of waits for a pool thread",
                    ("pool",),
                ).observe(waits.mean, pool=name)
                registry.counter(
                    "engine_pool_grants_total", "pool thread grants", ("pool",)
                ).inc(stats.grants, pool=name)
        if registry.enabled:
            registry.counter(
                "engine_requests_completed_total", "requests served past warm-up"
            ).inc(self.metrics.completed)
            if loop:
                registry.counter(
                    "engine_loop_events_total", "DES events processed"
                ).inc(loop["events_processed"])
                registry.gauge(
                    "engine_loop_sim_wall_ratio", "simulated-vs-wall speed of the last run"
                ).set(loop["sim_wall_ratio"])
                registry.gauge(
                    "engine_loop_max_queue_depth", "peak event-heap depth of the last run"
                ).set(loop["max_queue_depth"])
        if run_span is not None:
            for key, value in loop.items():
                run_span.set(key, value)
            run_span.set("completed_requests", self.metrics.completed)
            tracer.end_span(run_span)

    def _result(self) -> EngineRunResult:
        wl = self.workload
        m = self.metrics
        measured = wl.duration - wl.warmup
        throughput = m.completed / measured if measured > 0 else float("nan")
        percentiles = (
            m.response_reservoir.percentiles() if len(m.response_reservoir) else {}
        )
        node_energy_wh = m.series.node_power_w.summary().mean * measured / 3600.0 if len(
            m.series.node_power_w
        ) else 0.0
        gpu_energy_wh = m.series.gpu_power_w.summary().mean * measured / 3600.0 if len(
            m.series.gpu_power_w
        ) else 0.0
        return EngineRunResult(
            config=self.config,
            workload=wl,
            seed=self.seed,
            user_response_time=m.series.user_response_time.summary(),
            throughput=throughput,
            completed_requests=m.completed,
            task_times={str(t): m.task_stats[t].summary() for t in TaskType},
            pool_busy={name: self.pools[name].occupancy() for name in POOL_NAMES},
            gpu_memory_gb=self.gpu.memory_gb(self.config.extract),
            system_memory_gb=self._system_memory_gb(),
            cpu_usage=m.series.cpu_usage.summary(),
            gpu_utilization=m.series.gpu_utilization.summary(),
            response_percentiles=percentiles,
            node_energy_wh=node_energy_wh,
            gpu_energy_wh=gpu_energy_wh,
            series=m.series,
            traces=list(m.traces),
        )


def simulate_engine(
    config: ThreadPoolConfig,
    simultaneous_requests: int = 80,
    *,
    duration: float = 1380.0,
    warmup: float = 60.0,
    sample_interval: float = 10.0,
    params: EngineModelParams | None = None,
    seed: int = 0,
    client_path: Optional[NetworkPath] = None,
) -> EngineRunResult:
    """Convenience one-call engine simulation (one repetition)."""
    workload = WorkloadSpec(
        simultaneous_requests=simultaneous_requests,
        duration=duration,
        sample_interval=sample_interval,
        warmup=warmup,
    )
    engine = IdentificationEngine(config, workload, params, seed=seed, client_path=client_path)
    return engine.run()
