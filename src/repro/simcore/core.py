"""The simulation environment: virtual clock and event heap."""

from __future__ import annotations

import heapq
import math
import time
from typing import Any, Generator, Optional

from repro.errors import SimulationError, WallClockTimeout
from repro.simcore.events import NORMAL, Event, Process, SlimDelay, Timeout

__all__ = ["Environment", "LoopStats", "StopSimulation", "EmptySchedule"]

#: upper bound on recycled SlimDelay instances kept per environment — the
#: pool only needs to cover the peak number of *concurrently pending* plain
#: delays, which the cap keeps from growing without bound on pathological
#: workloads.
_SLIM_POOL_MAX = 4096

_INF = float("inf")


class StopSimulation(Exception):
    """Raised internally to halt :meth:`Environment.run` at ``until``."""


class EmptySchedule(Exception):
    """Raised by :meth:`Environment.step` when no events remain."""


class LoopStats:
    """Event-loop statistics, collected only when explicitly enabled.

    The observability layer uses these to characterize a DES run: how many
    events the loop processed, how deep the heap got, and how much faster
    than real time the simulation ran (``sim/wall`` ratio).
    """

    __slots__ = (
        "events_processed",
        "max_queue_depth",
        "wall_s",
        "sim_start",
        "first_event_time",
        "last_event_time",
        "_wall_start",
    )

    def __init__(self, sim_start: float = 0.0) -> None:
        self.events_processed = 0
        self.max_queue_depth = 0
        #: wall seconds spent inside :meth:`Environment.run` so far.
        self.wall_s = 0.0
        self.sim_start = sim_start
        #: simulated times of the first/last processed event — the busy
        #: stretch of the run, which the timeline layer uses to distinguish
        #: warm-up/drain idle time from actual event processing.
        self.first_event_time: Optional[float] = None
        self.last_event_time: Optional[float] = None
        self._wall_start: Optional[float] = None

    def snapshot(self, now: float) -> dict[str, float]:
        """Current stats plus the simulated-vs-wall speed ratio."""
        sim_advanced = now - self.sim_start
        ratio = sim_advanced / self.wall_s if self.wall_s > 0 else float("inf")
        snapshot = {
            "events_processed": self.events_processed,
            "max_queue_depth": self.max_queue_depth,
            "wall_s": self.wall_s,
            "sim_advanced": sim_advanced,
            "sim_wall_ratio": ratio,
        }
        if self.first_event_time is not None and self.last_event_time is not None:
            snapshot["first_event_time"] = self.first_event_time
            snapshot["last_event_time"] = self.last_event_time
        return snapshot


class Environment:
    """Discrete-event execution environment.

    Maintains the virtual clock (:attr:`now`) and a priority heap of
    scheduled events. Heap entries are ordered by ``(time, priority,
    sequence)`` so same-instant events process in deterministic FIFO order
    within a priority class — determinism is a hard requirement for the
    paper's reproducibility goals.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._eid = 0
        self._active_process: Optional[Process] = None
        self._stats: Optional[LoopStats] = None
        #: recycled SlimDelay instances (the plain-delay fast lane).
        self._slim_pool: list[SlimDelay] = []

    @property
    def stats(self) -> Optional[LoopStats]:
        """Loop statistics, or ``None`` unless :meth:`enable_stats` was called."""
        return self._stats

    def enable_stats(self) -> LoopStats:
        """Start collecting event-loop statistics (one branch per event)."""
        if self._stats is None:
            self._stats = LoopStats(sim_start=self._now)
        return self._stats

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # -- scheduling ---------------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Queue ``event`` for processing after ``delay`` time units."""
        if not math.isfinite(delay) or delay < 0:
            # NaN/inf would wedge the heap ordering or hang run() forever.
            raise ValueError(f"delay must be finite and >= 0, got {delay}")
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, event))

    def _schedule_resume(self, process: Process, delay: float) -> SlimDelay:
        """Fast lane: resume ``process`` after a plain ``delay``.

        Used when a process yields a raw number instead of a
        :class:`~repro.simcore.events.Timeout`. The carrier event comes from
        a recycle pool and holds the process directly — no Event allocation
        and no callback list per wait.
        """
        if not (0 <= delay < _INF):
            raise ValueError(f"delay must be finite and >= 0, got {delay}")
        pool = self._slim_pool
        if pool:
            event = pool.pop()
        else:
            event = SlimDelay.__new__(SlimDelay)
            event.env = self
            # The callbacks list stays empty forever: the run loop resumes
            # the carried process directly. It exists (non-None) so generic
            # "is this still pending" checks keep working.
            event.callbacks = []
            event._value = None
            event._ok = True
            event._defused = False
        event.process = process
        self._eid += 1
        heapq.heappush(self._queue, (self._now + delay, NORMAL, self._eid, event))
        return event

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when none remain."""
        return self._queue[0][0] if self._queue else float("inf")

    def fast_forward(self, delta: float) -> None:
        """Jump the clock forward by ``delta`` without processing events.

        Every pending event is shifted by the same ``delta``, so relative
        timing — and therefore the heap order, which compares ``(time,
        priority, sequence)`` — is preserved exactly; the list is rebuilt
        in place with no re-heapify. This is the epoch checkpoint/restart
        primitive of the hybrid engine: the DES state (processes, pending
        events, resource queues) is frozen as-is while the fluid model
        covers the skipped span, then the loop resumes as if the span had
        been simulated.

        Absolute-time integrals (resource/CPU utilization accounting)
        accumulate their pre-jump rates over the skipped span; callers
        that need windowed statistics should snapshot *after* the jump.
        """
        if not math.isfinite(delta) or delta < 0:
            raise ValueError(f"delta must be finite and >= 0, got {delta}")
        if delta == 0:
            return
        self._now += delta
        if self._queue:
            self._queue[:] = [
                (time + delta, priority, eid, event)
                for time, priority, eid, event in self._queue
            ]

    def step(self) -> None:
        """Process the next event; advance the clock to its time."""
        try:
            self._now, _, _, event = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule() from None
        stats = self._stats
        if stats is not None:
            stats.events_processed += 1
            if stats.first_event_time is None:
                stats.first_event_time = self._now
            stats.last_event_time = self._now
            depth = len(self._queue) + 1
            if depth > stats.max_queue_depth:
                stats.max_queue_depth = depth

        if type(event) is SlimDelay:
            # Fast-lane delay: resume the carried process (``None`` means an
            # interrupt cancelled the wait), then recycle the carrier.
            if event.process is not None:
                event.process._resume(event)
            event.process = None
            if len(self._slim_pool) < _SLIM_POOL_MAX:
                self._slim_pool.append(event)
            return

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # pragma: no cover - defensive
            raise SimulationError(f"event {event!r} processed twice")
        for callback in callbacks:
            callback(event)

        if not event._ok and not event._defused:
            exc = event._value
            raise exc if isinstance(exc, BaseException) else SimulationError(repr(exc))

    def _run_loop(
        self, wall_deadline: float | None, wall_timeout_s: float | None
    ) -> None:
        """Drain the heap until empty or :class:`StopSimulation`.

        Hot attributes (heap, pop, slim pool) are aliased to locals, and the
        loop statistics (events, peak heap depth) are kept in locals and
        flushed to :attr:`stats` once, after the loop — traced and untraced
        runs execute the same code.

        A popped :class:`SlimDelay` pumps its process's generator in place.
        When the process then yields an event that satisfies the *same-
        instant rule* — the event is the heap top, is due now, succeeded,
        and has no callbacks — the loop pops it at once and keeps pumping:
        it is the event the loop would pop next anyway, and its only
        consumer would be this process, so the order cannot change. This
        is the immediately granted resource request of the engine
        pipeline. An event due later (a ``Timeout(5)`` at the heap top)
        fails the rule, so the clock still advances through the heap.
        """
        queue = self._queue
        pop = heapq.heappop
        push = heapq.heappush
        slim_pool = self._slim_pool
        slim = SlimDelay
        perf_counter = time.perf_counter
        events = 0
        max_depth = 0
        first_time = queue[0][0] if queue else None
        try:
            while queue:
                depth = len(queue)
                if depth > max_depth:
                    max_depth = depth
                now, _, _, event = pop(queue)
                self._now = now
                events += 1
                if type(event) is slim:
                    process = event.process
                    if process is None:  # interrupted wait
                        if len(slim_pool) < _SLIM_POOL_MAX:
                            slim_pool.append(event)
                        continue
                    self._active_process = process
                    generator = process._generator
                    value = None
                    rearmed = False
                    while True:
                        try:
                            next_event = generator.send(value)
                        except StopIteration as stop:
                            process._generator = None  # type: ignore[assignment]
                            process.succeed(stop.value)
                            break
                        except BaseException as exc:  # noqa: BLE001 - via event
                            process._generator = None  # type: ignore[assignment]
                            process.fail(exc)
                            break
                        kind = type(next_event)
                        if kind is float or kind is int:
                            # A consecutive plain delay re-arms this very
                            # carrier: zero allocation, zero pool traffic.
                            if not (0 <= next_event < _INF):
                                self._active_process = None
                                raise ValueError(
                                    f"delay must be finite and >= 0, got {next_event}"
                                )
                            self._eid += 1
                            push(queue, (now + next_event, NORMAL, self._eid, event))
                            process._target = event
                            rearmed = True
                            break
                        if queue:
                            top = queue[0]
                            if (
                                top[3] is next_event
                                and top[0] == now
                                and next_event._ok
                                and not next_event.callbacks
                            ):
                                # Same-instant rule: process it inline.
                                depth = len(queue)
                                if depth > max_depth:
                                    max_depth = depth
                                pop(queue)
                                events += 1
                                next_event.callbacks = None
                                process._target = next_event
                                value = next_event._value
                                continue
                        if not process._wait(next_event):
                            # Already-processed event: continue the pump
                            # through the general resume path.
                            process._resume(next_event)
                        break
                    self._active_process = None
                    if not rearmed:
                        event.process = None
                        if len(slim_pool) < _SLIM_POOL_MAX:
                            slim_pool.append(event)
                else:
                    callbacks = event.callbacks
                    if callbacks is None:  # pragma: no cover - defensive
                        raise SimulationError(f"event {event!r} processed twice")
                    event.callbacks = None
                    for callback in callbacks:
                        callback(event)
                    if not event._ok and not event._defused:
                        exc = event._value
                        raise (
                            exc
                            if isinstance(exc, BaseException)
                            else SimulationError(repr(exc))
                        )
                if wall_deadline is not None and perf_counter() > wall_deadline:
                    raise WallClockTimeout(
                        f"simulation exceeded its wall-clock budget of "
                        f"{wall_timeout_s}s (sim time {self._now})"
                    )
        finally:
            stats = self._stats
            if stats is not None and events:
                stats.events_processed += events
                if stats.first_event_time is None:
                    stats.first_event_time = first_time
                stats.last_event_time = self._now
                if max_depth > stats.max_queue_depth:
                    stats.max_queue_depth = max_depth

    # -- factories ----------------------------------------------------------

    def process(self, generator: Generator[Event, Any, Any], name: str | None = None) -> Process:
        """Start a process from a generator; returns its completion event."""
        return Process(self, generator, name=name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Event succeeding after ``delay`` virtual time units."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """A bare, untriggered event (trigger it with succeed/fail)."""
        return Event(self)

    # -- running ------------------------------------------------------------

    def run(
        self, until: float | Event | None = None, *, wall_timeout_s: float | None = None
    ) -> Any:
        """Run the simulation.

        ``until`` may be:

        - ``None``: run until no events remain;
        - a number: run until the clock reaches it (exclusive of events
          scheduled exactly at it only in the sense SimPy uses — the clock is
          set to ``until`` on return);
        - an :class:`Event`: run until that event is processed and return its
          value (re-raising its exception if it failed).

        ``wall_timeout_s`` bounds *real* time: a simulation that keeps
        scheduling events (a runaway or hung model) is cut off with
        :class:`~repro.errors.WallClockTimeout` after that many wall-clock
        seconds. The deadline is checked between events, so a single event
        callback that never returns cannot be interrupted — the fault-
        tolerant trial runner's thread-level timeout covers that case.
        """
        wall_deadline = None
        if wall_timeout_s is not None:
            if wall_timeout_s <= 0:
                raise ValueError(f"wall_timeout_s must be > 0, got {wall_timeout_s}")
            wall_deadline = time.perf_counter() + wall_timeout_s
        stop: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                if until.processed:
                    if not until._ok:
                        raise until._value
                    return until._value
                stop = until
            else:
                at = float(until)
                if at < self._now:
                    raise ValueError(f"until={at} is in the past (now={self._now})")
                stop = Event(self)
                stop._ok = True
                stop._value = None
                # URGENT-0 so the stop fires before same-time normal events.
                self._eid += 1
                heapq.heappush(self._queue, (at, -1, self._eid, stop))
            stop.callbacks.append(_stop_callback)

        from repro.observability.telemetry import telemetry

        context = telemetry()
        track = self._stats is not None or context.enabled
        wall_start = time.perf_counter() if track else 0.0
        try:
            self._run_loop(wall_deadline, wall_timeout_s)
        except StopSimulation as signal:
            return signal.args[0] if signal.args else None
        finally:
            if track:
                elapsed = time.perf_counter() - wall_start
                if self._stats is not None:
                    self._stats.wall_s += elapsed
                context.record("des_run", elapsed)

        if stop is not None and isinstance(until, Event) and not stop.triggered:
            raise SimulationError(
                f"run(until={until!r}) finished but the event never triggered"
            )
        return None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Environment(now={self._now}, pending={len(self._queue)})"


def _stop_callback(event: Event) -> None:
    if event._ok:
        raise StopSimulation(event._value)
    event._defused = True
    exc = event._value
    raise exc
