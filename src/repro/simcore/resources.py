"""Capacity-limited resources with built-in occupancy statistics.

The Pl@ntNet engine's behaviour is driven by four thread pools, and the
paper's Figures 9f/9g/10c/10d report *pool busy time* — the fraction of pool
threads occupied. :class:`Resource` therefore tracks, natively and cheaply:

- the time-integral of the user count (→ pool busy %, i.e. occupancy),
- the time-integral of the queue length (→ mean queue length),
- per-request wait times (→ the paper's ``wait-*`` task times).

Statistics are incremental, so a monitor sampling every 10 simulated seconds
can compute exact windowed occupancy from integral deltas.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any

from repro.simcore.events import PENDING, URGENT, Event
from repro.utils.stats import RunningStats

if TYPE_CHECKING:  # pragma: no cover
    from repro.simcore.core import Environment

__all__ = ["Resource", "PriorityResource", "Request", "ResourceStats", "Store", "Container"]


class ResourceStats:
    """Incremental occupancy/queue statistics for a :class:`Resource`."""

    __slots__ = (
        "start_time",
        "last_change",
        "busy_integral",
        "queue_integral",
        "grants",
        "releases",
        "wait_times",
    )

    def __init__(self, now: float) -> None:
        self.start_time = now
        self.last_change = now
        #: ∫ user_count dt — divide by capacity × elapsed for occupancy.
        self.busy_integral = 0.0
        #: ∫ queue_length dt.
        self.queue_integral = 0.0
        self.grants = 0
        self.releases = 0
        self.wait_times = RunningStats()

    def advance(self, now: float, users: int, queued: int) -> None:
        """Accumulate integrals up to ``now`` given the *previous* state."""
        dt = now - self.last_change
        if dt > 0:
            self.busy_integral += users * dt
            self.queue_integral += queued * dt
            self.last_change = now

    def occupancy(self, now: float, capacity: int) -> float:
        """Average fraction of capacity in use over [start, now]."""
        elapsed = now - self.start_time
        if elapsed <= 0:
            return 0.0
        return self.busy_integral / (capacity * elapsed)

    def mean_queue_length(self, now: float) -> float:
        elapsed = now - self.start_time
        if elapsed <= 0:
            return 0.0
        return self.queue_integral / elapsed


class Request(Event):
    """A pending or granted claim on a :class:`Resource`.

    Usable as a context manager: the claim is released (or cancelled, if
    never granted) on exit.
    """

    __slots__ = ("resource", "priority", "submit_time")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        # Inlined Event.__init__: a request is created for every pool stage.
        env = resource.env
        self.env = env
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self.resource = resource
        self.priority = priority
        self.submit_time = env._now
        resource._admit(self)

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.resource.release(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "granted" if self.triggered else "queued"
        return f"<Request on {self.resource.name!r} {state}>"


class Resource:
    """A FIFO resource with ``capacity`` concurrent users (a thread pool)."""

    def __init__(self, env: "Environment", capacity: int, name: str = "resource") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = int(capacity)
        self.name = name
        self.users: list[Request] = []
        self._queue: Any = deque()
        self.stats = ResourceStats(env.now)

    # -- queue discipline (overridden by PriorityResource) -------------------

    def _enqueue(self, request: Request) -> None:
        self._queue.append(request)

    def _dequeue(self) -> Request:
        return self._queue.popleft()

    def _queue_remove(self, request: Request) -> bool:
        try:
            self._queue.remove(request)
            return True
        except ValueError:
            return False

    @property
    def queue_length(self) -> int:
        return len(self._queue)

    @property
    def user_count(self) -> int:
        return len(self.users)

    # -- core protocol --------------------------------------------------------

    def request(self, priority: int = 0) -> Request:
        """Claim one unit of capacity; the returned event fires when granted."""
        return Request(self, priority)

    def release(self, request: Request) -> None:
        """Return a granted claim, or cancel a still-queued one."""
        now = self.env._now
        self.stats.advance(now, len(self.users), len(self._queue))
        try:
            self.users.remove(request)
        except ValueError:
            # Never granted: cancel from the queue (context-manager exit
            # after an interrupt while waiting).
            self._queue_remove(request)
        else:
            self.stats.releases += 1
            if self._queue:
                self._grant_pending(now)

    def _admit(self, request: Request) -> None:
        """Grant a new request at once if a unit is free, else queue it.

        Grants only ever wait for a release, so a non-empty queue means the
        pool is full: a request finding the queue empty and a unit free is
        granted exactly as an enqueue-then-grant would.
        """
        now = request.submit_time
        users = self.users
        self.stats.advance(now, len(users), len(self._queue))
        if self._queue or len(users) >= self.capacity:
            self._enqueue(request)
        else:
            self._grant(request, now)

    def _grant_pending(self, now: float) -> None:
        """Grant queued requests while capacity allows (stats already at ``now``)."""
        queue = self._queue
        users = self.users
        capacity = self.capacity
        while queue and len(users) < capacity:
            self._grant(self._dequeue(), now)

    def _grant(self, request: Request, now: float) -> None:
        """Hand ``request`` a unit and schedule it URGENT at ``now``.

        The integrals need no further advance: :meth:`_admit` and
        :meth:`release` advanced them to ``now`` before the state change,
        and a second advance at the same instant adds ``dt == 0``.
        """
        self.users.append(request)
        stats = self.stats
        stats.grants += 1
        stats.wait_times.add(now - request.submit_time)
        request._ok = True
        request._value = None
        env = self.env
        env._eid += 1
        heapq.heappush(env._queue, (now, URGENT, env._eid, request))

    # -- statistics -----------------------------------------------------------

    def occupancy(self) -> float:
        """Lifetime average busy fraction of the pool."""
        self.stats.advance(self.env.now, len(self.users), len(self._queue))
        return self.stats.occupancy(self.env.now, self.capacity)

    def busy_integral(self) -> float:
        """Current ∫ user_count dt (for windowed occupancy sampling)."""
        self.stats.advance(self.env.now, len(self.users), len(self._queue))
        return self.stats.busy_integral

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.name!r} users={len(self.users)}/"
            f"{self.capacity} queued={len(self._queue)}>"
        )


class PriorityResource(Resource):
    """A resource granting queued requests in (priority, FIFO) order.

    Lower ``priority`` values are served first.
    """

    def __init__(self, env: "Environment", capacity: int, name: str = "priority-resource") -> None:
        super().__init__(env, capacity, name)
        self._queue = []
        self._seq = 0

    def _enqueue(self, request: Request) -> None:
        self._seq += 1
        heapq.heappush(self._queue, (request.priority, self._seq, request))

    def _dequeue(self) -> Request:
        return heapq.heappop(self._queue)[2]

    def _queue_remove(self, request: Request) -> bool:
        for i, (_, _, req) in enumerate(self._queue):
            if req is request:
                self._queue.pop(i)
                heapq.heapify(self._queue)
                return True
        return False

    @property
    def queue_length(self) -> int:
        return len(self._queue)


class Store:
    """An unbounded (or bounded) FIFO store of arbitrary items."""

    def __init__(self, env: "Environment", capacity: float = float("inf"), name: str = "store") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.env = env
        self.capacity = capacity
        self.name = name
        self.items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def put(self, item: Any) -> Event:
        """Event that fires once ``item`` has been stored."""
        event = Event(self.env)
        self._putters.append((event, item))
        self._dispatch()
        return event

    def get(self) -> Event:
        """Event that fires with the oldest stored item."""
        event = Event(self.env)
        self._getters.append(event)
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters and len(self.items) < self.capacity:
                event, item = self._putters.popleft()
                self.items.append(item)
                event.succeed()
                progress = True
            if self._getters and self.items:
                event = self._getters.popleft()
                event.succeed(self.items.popleft())
                progress = True

    def __len__(self) -> int:
        return len(self.items)


class Container:
    """A continuous level container (e.g. battery charge, buffer bytes)."""

    def __init__(
        self,
        env: "Environment",
        capacity: float = float("inf"),
        init: float = 0.0,
        name: str = "container",
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init level must be within [0, capacity]")
        self.env = env
        self.capacity = capacity
        self.name = name
        self._level = float(init)
        self._getters: deque[tuple[Event, float]] = deque()
        self._putters: deque[tuple[Event, float]] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        if amount <= 0:
            raise ValueError("put amount must be positive")
        event = Event(self.env)
        self._putters.append((event, float(amount)))
        self._dispatch()
        return event

    def get(self, amount: float) -> Event:
        if amount <= 0:
            raise ValueError("get amount must be positive")
        event = Event(self.env)
        self._getters.append((event, float(amount)))
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                event, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    event.succeed()
                    progress = True
            if self._getters:
                event, amount = self._getters[0]
                if amount <= self._level:
                    self._getters.popleft()
                    self._level -= amount
                    event.succeed(amount)
                    progress = True
