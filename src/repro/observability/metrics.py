"""A metrics registry: counters, gauges and histograms with labels.

Replaces ad-hoc accounting with one uniform, thread-safe surface that every
layer (trial runner, DES engine, monitoring probes) can publish into, and
that exports to two formats:

- **JSON** (:meth:`MetricsRegistry.to_dict` / :meth:`export_json`) — the
  replayable run artifact consumed by ``python -m repro report``;
- **Prometheus text exposition** (:meth:`render_prometheus`) — so a run can
  be scraped or diffed with standard tooling.

Publishers reach the registry of the process's telemetry context
(:mod:`repro.observability.telemetry`), and skip publishing entirely while
that context is inert.
"""

from __future__ import annotations

import json
import math
import threading
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.errors import ValidationError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
]

LabelValues = tuple[str, ...]

#: default histogram buckets (seconds-oriented, log-ish spacing).
DEFAULT_BUCKETS = (0.005, 0.025, 0.1, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, float("inf"))


def _label_key(labelnames: Sequence[str], labels: dict[str, Any]) -> LabelValues:
    if set(labels) != set(labelnames):
        raise ValidationError(
            f"labels {sorted(labels)} do not match declared {sorted(labelnames)}"
        )
    return tuple(str(labels[name]) for name in labelnames)


class _Instrument:
    """Base: one named metric family with a fixed label schema."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._data: dict[LabelValues, Any] = {}

    def _series(self) -> list[tuple[LabelValues, Any]]:
        with self._lock:
            return sorted(self._data.items())

    def series(self) -> list[tuple[dict[str, str], Any]]:
        """Public ``(labels, value)`` pairs; histogram values are snapshots."""
        return [
            (dict(zip(self.labelnames, key)), self._value_repr(value))
            for key, value in self._series()
        ]

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "series": [
                {"labels": dict(zip(self.labelnames, key)), "value": self._value_repr(value)}
                for key, value in self._series()
            ],
        }

    def _value_repr(self, value: Any) -> Any:
        return value

    def _state_value(self, value: Any) -> Any:
        return value

    def _state_extra(self) -> dict[str, Any]:
        return {}

    def state(self, *, drain: bool = False) -> dict[str, Any]:
        """Raw mergeable snapshot (the cross-process fabric format).

        Unlike :meth:`to_dict`, values are exact internal state (histogram
        bucket counts, not cumulative snapshots) so a receiving registry can
        merge without loss. ``drain=True`` also resets the series, which is
        how workers avoid double counting across per-trial drains.
        """
        with self._lock:
            data = [
                [list(key), self._state_value(value)]
                for key, value in sorted(self._data.items())
            ]
            if drain:
                self._data.clear()
        return {
            "kind": self.kind,
            "help": self.help,
            "labelnames": list(self.labelnames),
            "data": data,
            **self._state_extra(),
        }


class Counter(_Instrument):
    """Monotonically increasing count (events processed, trials run, ...)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValidationError(f"counter {self.name!r} cannot decrease (got {amount})")
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._data[key] = self._data.get(key, 0.0) + float(amount)

    def value(self, **labels: Any) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return float(self._data.get(key, 0.0))


class Gauge(_Instrument):
    """A value that goes up and down (queue depth, pool occupancy, ...)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._data[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            self._data[key] = self._data.get(key, 0.0) + float(amount)

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels: Any) -> float:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            return float(self._data.get(key, math.nan))


class _HistogramState:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets
        self.sum = 0.0
        self.count = 0


class Histogram(_Instrument):
    """Distribution of observations in fixed buckets (latencies, waits)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> None:
        super().__init__(name, help, labelnames)
        edges = tuple(sorted(buckets)) if buckets else DEFAULT_BUCKETS
        if edges[-1] != float("inf"):
            edges = edges + (float("inf"),)
        self.buckets = edges

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(self.labelnames, labels)
        with self._lock:
            state = self._data.get(key)
            if state is None:
                state = self._data[key] = _HistogramState(len(self.buckets))
            for i, edge in enumerate(self.buckets):
                if value <= edge:
                    state.counts[i] += 1
                    break
            state.sum += float(value)
            state.count += 1

    def snapshot(self, **labels: Any) -> dict[str, Any]:
        """``{count, sum, mean, buckets}`` for one label combination."""
        key = _label_key(self.labelnames, labels)
        with self._lock:
            state = self._data.get(key)
            if state is None:
                return {"count": 0, "sum": 0.0, "mean": math.nan, "buckets": {}}
            return self._snapshot_locked(state)

    def _series(self) -> list[tuple[LabelValues, Any]]:
        # Copy each state under the lock so exporters never read a bucket
        # list concurrently mutated by observe() on another thread.
        with self._lock:
            out: list[tuple[LabelValues, Any]] = []
            for key, state in sorted(self._data.items()):
                copy = _HistogramState(len(self.buckets))
                copy.counts = list(state.counts)
                copy.sum = state.sum
                copy.count = state.count
                out.append((key, copy))
            return out

    def _snapshot_locked(self, state: _HistogramState) -> dict[str, Any]:
        cumulative = 0
        buckets = {}
        for edge, n in zip(self.buckets, state.counts):
            cumulative += n
            buckets["+Inf" if edge == float("inf") else repr(edge)] = cumulative
        mean = state.sum / state.count if state.count else math.nan
        return {"count": state.count, "sum": state.sum, "mean": mean, "buckets": buckets}

    def _value_repr(self, value: _HistogramState) -> Any:
        return self._snapshot_locked(value)

    def _state_value(self, value: _HistogramState) -> Any:
        return {"counts": list(value.counts), "sum": value.sum, "count": value.count}

    def _state_extra(self) -> dict[str, Any]:
        # +Inf is not JSON-portable; ``None`` marks the overflow bucket.
        return {
            "buckets": [None if edge == float("inf") else edge for edge in self.buckets]
        }


class MetricsRegistry:
    """Named instruments, created once and shared by every publisher."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}

    def _get_or_create(self, cls: type, name: str, *args: Any, **kwargs: Any) -> Any:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValidationError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            instrument = cls(name, *args, **kwargs)
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] | None = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labelnames, buckets)

    def instruments(self) -> list[_Instrument]:
        with self._lock:
            return [self._instruments[name] for name in sorted(self._instruments)]

    # -- the cross-process telemetry fabric -------------------------------------

    def drain_state(self) -> dict[str, Any]:
        """Serialize-and-reset every instrument (the worker-side drain)."""
        state: dict[str, Any] = {}
        for inst in self.instruments():
            snapshot = inst.state(drain=True)
            if snapshot["data"]:
                state[inst.name] = snapshot
        return state

    def merge_state(self, state: Mapping[str, Any]) -> int:
        """Merge a drained payload (typically from a worker process).

        Counters accumulate, gauges take the incoming value (last write
        wins), histograms add bucket counts elementwise. Returns the number
        of series merged; malformed or conflicting entries are skipped, not
        fatal.
        """
        merged = 0
        for name, inst_state in dict(state).items():
            try:
                merged += self._merge_instrument(str(name), inst_state)
            except (ValidationError, TypeError, ValueError, KeyError):
                continue
        return merged

    def _merge_instrument(self, name: str, inst_state: Mapping[str, Any]) -> int:
        kind = inst_state.get("kind")
        help_text = str(inst_state.get("help", ""))
        labelnames = [str(n) for n in inst_state.get("labelnames", ())]
        data = inst_state.get("data", ())
        merged = 0
        if kind == "counter":
            counter = self.counter(name, help_text, labelnames)
            for key, value in data:
                counter.inc(float(value), **dict(zip(labelnames, key)))
                merged += 1
        elif kind == "gauge":
            gauge = self.gauge(name, help_text, labelnames)
            for key, value in data:
                gauge.set(float(value), **dict(zip(labelnames, key)))
                merged += 1
        elif kind == "histogram":
            raw_buckets = inst_state.get("buckets") or None
            buckets = (
                [float("inf") if edge is None else float(edge) for edge in raw_buckets]
                if raw_buckets
                else None
            )
            hist = self.histogram(name, help_text, labelnames, buckets)
            for key, value in data:
                counts = [int(c) for c in value["counts"]]
                if len(counts) != len(hist.buckets):
                    continue  # incompatible bucket layout: refuse silently
                label_key = tuple(str(part) for part in key)
                with hist._lock:
                    hstate = hist._data.get(label_key)
                    if hstate is None:
                        hstate = hist._data[label_key] = _HistogramState(len(hist.buckets))
                    for i, c in enumerate(counts):
                        hstate.counts[i] += c
                    hstate.sum += float(value["sum"])
                    hstate.count += int(value["count"])
                merged += 1
        return merged

    # -- export ----------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"metrics": [inst.to_dict() for inst in self.instruments()]}

    def export_json(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2, default=str) + "\n")
        return path

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (v0.0.4)."""
        lines: list[str] = []
        for inst in self.instruments():
            if inst.help:
                lines.append(f"# HELP {inst.name} {inst.help}")
            lines.append(f"# TYPE {inst.name} {inst.kind}")
            for key, value in inst._series():
                labels = dict(zip(inst.labelnames, key))
                if isinstance(inst, Histogram):
                    snap = inst._snapshot_locked(value)
                    for edge, cumulative in snap["buckets"].items():
                        lines.append(
                            f"{inst.name}_bucket{_fmt_labels({**labels, 'le': edge})}"
                            f" {cumulative}"
                        )
                    lines.append(f"{inst.name}_sum{_fmt_labels(labels)} {snap['sum']}")
                    lines.append(f"{inst.name}_count{_fmt_labels(labels)} {snap['count']}")
                else:
                    lines.append(f"{inst.name}{_fmt_labels(labels)} {value}")
        return "\n".join(lines) + ("\n" if lines else "")


def _fmt_labels(labels: dict[str, Any]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
    return "{" + inner + "}"
