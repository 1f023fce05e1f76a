"""End-to-end observability for the optimization cycle.

Instrumented code publishes into one telemetry context
(:mod:`repro.observability.telemetry`): ``measure(op)`` times an op once
and ``record(op, seconds)`` publishes a duration taken elsewhere. Each
record feeds the context's sinks, all inert until :func:`enable`:

- :mod:`repro.observability.trace` — nested spans with wall *and* simulated
  clocks over every phase of the cycle, every trial, the DES event loop and
  the engine's thread pools;
- :mod:`repro.observability.metrics` — a counters/gauges/histograms registry
  with JSON and Prometheus-text exporters;
- :mod:`repro.observability.digest` — mergeable latency digests on every
  hot-path op, exported as ``perf_profile.json`` plus Prometheus summaries.

Around the context:

- :mod:`repro.observability.fabric` — process-pool and store workers drain
  their context per trial and the parent merges it back as one unit;
- :mod:`repro.observability.watchdog` — a live anomaly watchdog on the span
  stream (stragglers, objective stalls/regressions, pool saturation, fault
  storms);
- :mod:`repro.observability.live` — the embedded HTTP monitor
  (``optimize --serve``): ``/metrics``, ``/status``, SSE ``/events``, the
  live dashboard and token-gated ``POST /telemetry`` ingest;
- :mod:`repro.observability.profile` — per-trial cost attribution folded
  into the Phase III summary;
- :mod:`repro.observability.analysis`, :mod:`~repro.observability.dashboard`
  and :mod:`~repro.observability.report` — campaign analytics, the HTML
  timeline and the run report (``python -m repro report|dashboard``);
- :mod:`repro.observability.perf` — perf baselines and the regression gate
  (``python -m repro perf record|diff``).

Typical use::

    from repro import observability as obs

    context = obs.enable()
    ... run an OptimizationManager campaign ...
    obs.export(run_dir)       # spans.jsonl + metrics + timeline + alerts
    obs.disable()
"""

from __future__ import annotations

from pathlib import Path

from repro.observability.digest import PERF_PROFILE_FILE, LatencyDigest, PerfRecorder
from repro.observability.metrics import MetricsRegistry
from repro.observability.profile import CostBreakdown, aggregate_costs
from repro.observability.telemetry import (
    Telemetry,
    disable,
    enable,
    measure,
    record,
    telemetry,
)
from repro.observability.trace import RecordingTracer, Span, load_spans

__all__ = [
    "Telemetry",
    "telemetry",
    "measure",
    "record",
    "enable",
    "disable",
    "export",
    "Span",
    "RecordingTracer",
    "load_spans",
    "MetricsRegistry",
    "LatencyDigest",
    "PerfRecorder",
    "PERF_PROFILE_FILE",
    "CostBreakdown",
    "aggregate_costs",
]


def export(run_dir: str | Path) -> list[Path]:
    """Write the current context's artifacts into ``run_dir``.

    Nothing is written while telemetry is off; returns the paths written.
    """
    context = telemetry()
    if not context.enabled:
        return []
    run_dir = Path(run_dir)
    tracer, registry, perf, watchdog = (
        context.tracer, context.registry, context.perf, context.watchdog
    )
    written = [tracer.export_jsonl(run_dir / "spans.jsonl")]
    spans = tracer.finished()
    if spans:
        from repro.observability.analysis import (
            TRACE_EVENTS_FILE,
            analyze_spans,
            write_trace_events,
        )
        from repro.observability.dashboard import TIMELINE_FILE, write_dashboard

        written.append(write_trace_events(spans, run_dir / TRACE_EVENTS_FILE))
        written.append(
            write_dashboard(
                analyze_spans(spans),
                run_dir / TIMELINE_FILE,
                title=run_dir.name,
                alerts=[alert.to_dict() for alert in watchdog.alerts()] if watchdog else [],
                perf=perf.to_dict(),
            )
        )
    if watchdog is not None:
        from repro.observability.watchdog import ALERTS_FILE

        written.append(watchdog.export_jsonl(run_dir / ALERTS_FILE))
    # Self-metrics as gauges: export() may run more than once per campaign,
    # and a gauge set is idempotent where a counter increment would
    # double-count.
    registry.gauge(
        "repro_tracer_spans_recorded", "spans finished by the tracer"
    ).set(tracer.spans_recorded)
    registry.gauge(
        "repro_tracer_subscriber_errors", "span-subscriber callbacks that raised"
    ).set(tracer.subscriber_errors)
    written.append(registry.export_json(run_dir / "metrics.json"))
    prom_path = run_dir / "metrics.prom"
    prom_path.write_text(registry.render_prometheus() + perf.render_prometheus())
    written.append(prom_path)
    written.append(perf.export_json(run_dir / PERF_PROFILE_FILE))
    return written
