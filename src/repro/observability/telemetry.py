"""The one telemetry context: every op is timed once and published once.

A :class:`Telemetry` context bundles the sinks of one process — the span
tracer, the metrics registry and the latency-digest recorder — behind one
``enabled`` flag, plus the optional live consumers a campaign arms (the
anomaly watchdog and the ``/status`` board). Exactly one context is
installed per process:

- :func:`enable` installs a fresh live context and returns it;
  :func:`disable` restores the inert default;
- :func:`repro.observability.fabric.activate_worker` installs a worker's
  context, which the fabric drains and merges back as one unit.

Instrumented code reaches the context through :func:`telemetry` and times
an op with :func:`measure` (a context manager) or publishes a duration it
already took with :func:`record`. Either call produces one record, which
:data:`OPS` routes to the sinks: a span (under the op's span name) for the
tracer, a sample for the op's latency digest, or both. An op missing from
the table is traced under its own name and kept out of the digests, so
structural spans (``engine.run``, ``phase:optimize``, ...) go through the
same call. With telemetry off, :func:`measure` returns one shared inert
object without reading a clock, and :func:`record` returns at once.

Typical use::

    from repro.observability.telemetry import measure, record

    with measure("deploy"):
        directory = prepare()
    record("tell", tell_s, trial_id=trial_id)
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.observability.digest import PerfRecorder
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import RecordingTracer, SimClock, Span

__all__ = [
    "OPS",
    "INERT",
    "Telemetry",
    "telemetry",
    "install",
    "measure",
    "record",
    "enable",
    "disable",
]

#: op → (span name, latency-digest op); ``None`` skips that sink. The span
#: and digest names are what ``spans.jsonl``, ``perf_profile.json`` and
#: ``metrics.prom`` carry.
OPS: dict[str, tuple[Optional[str], Optional[str]]] = {
    # the runner, per trial
    "suggest": ("suggest", "suggest"),
    # a trial whose ask blocked on an inline surrogate fit
    "suggest_fit": ("suggest", "suggest_fit"),
    "queue_wait": ("queue-wait", "queue_wait"),
    # an executed trial, folded from its outcome payload; a trial served
    # by the evaluation cache records a bare "execute" instead
    "evaluate": ("execute", "evaluate"),
    "tell": ("tell", "tell"),
    # the span a fabric worker opens around the trainable, so the spans
    # recorded inside it travel home nested under one root
    "worker_evaluate": ("evaluate", None),
    # the optimization cycle (Optimization.run_objective)
    "deploy": ("cycle:deploy", "deploy"),
    "reconfigure": ("cycle:reconfigure", "reconfigure"),
    # the optimizer, the evaluation cache and the engines
    "refit": ("refit", "refit"),
    "evalcache_lookup": (None, "evalcache_lookup"),
    "des_run": (None, "des_run"),
    "hybrid_epoch": ("hybrid.epoch", "hybrid_epoch"),
}


class _Inert:
    """What :func:`measure` yields while telemetry is off: absorbs span calls."""

    __slots__ = ()

    def __enter__(self) -> "_Inert":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, key: str, value: Any) -> "_Inert":
        return self


INERT = _Inert()


class Telemetry:
    """One process's telemetry sinks, enabled or not as a unit."""

    def __init__(self, *, enabled: bool = True) -> None:
        #: instrumentation sites branch on this to skip publishing work.
        self.enabled = enabled
        self.tracer: Optional[RecordingTracer] = RecordingTracer() if enabled else None
        self.registry: Optional[MetricsRegistry] = MetricsRegistry() if enabled else None
        self.perf: Optional[PerfRecorder] = PerfRecorder() if enabled else None
        #: live consumers a campaign arms on its context (see the manager).
        self.watchdog: Any = None
        self.board: Any = None

    def measure(
        self, op: str, *, sim_clock: Optional[SimClock] = None, **attrs: Any
    ) -> Any:
        """Time the block once; yields its span (:data:`INERT` when it has none).

        The span nests under the thread's open span.
        """
        if not self.enabled:
            return INERT
        return self._measure(op, sim_clock, attrs)

    @contextmanager
    def _measure(
        self, op: str, sim_clock: Optional[SimClock], attrs: dict[str, Any]
    ) -> Iterator[Any]:
        span_name, digest = OPS.get(op, (op, None))
        tracer = self.tracer
        if span_name is None:
            start = tracer.clock()
            try:
                yield INERT
            finally:
                self.perf.record(digest, tracer.clock() - start)
            return
        try:
            with tracer.span(span_name, sim_clock=sim_clock, **attrs) as span:
                yield span
        finally:
            if digest is not None:
                self.perf.record(digest, span.duration_s)

    def record(
        self,
        op: str,
        seconds: float,
        *,
        parent: Optional[Span] = None,
        ago: Optional[float] = None,
        error: Optional[str] = None,
        **attrs: Any,
    ) -> None:
        """Publish a duration measured elsewhere.

        The span ends now, or — with ``ago`` — starts ``ago`` seconds
        before now and lasts ``seconds`` (a wait that opened a longer
        interval). ``error`` marks the span failed.
        """
        if not self.enabled:
            return
        span_name, digest = OPS.get(op, (op, None))
        if span_name is not None:
            tracer = self.tracer
            now = tracer.clock()
            start = now - (seconds if ago is None else ago)
            span = tracer.start_span(span_name, parent=parent, start=start, **attrs)
            tracer.end_span(span, error=error, end=now if ago is None else start + seconds)
        if digest is not None:
            self.perf.record(digest, seconds)


_current = Telemetry(enabled=False)
_current_lock = threading.Lock()


def telemetry() -> Telemetry:
    """This process's telemetry context (inert unless enabled)."""
    return _current


def install(context: Optional[Telemetry]) -> Telemetry:
    """Make ``context`` current (``None`` restores the inert default)."""
    global _current
    with _current_lock:
        _current = context if context is not None else Telemetry(enabled=False)
        return _current


def measure(op: str, **kwargs: Any) -> Any:
    """:meth:`Telemetry.measure` on the current context."""
    return _current.measure(op, **kwargs)


def record(op: str, seconds: float, **kwargs: Any) -> None:
    """:meth:`Telemetry.record` on the current context."""
    _current.record(op, seconds, **kwargs)


def enable() -> Telemetry:
    """Install a fresh live context (tracer, registry, digests); returns it."""
    return install(Telemetry())


def disable() -> None:
    """Restore the inert default context."""
    install(None)
