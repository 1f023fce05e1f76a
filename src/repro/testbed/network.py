"""Network topology and emulation.

E2Clab's network manager applies ``tc``-style latency/bandwidth constraints
between layers of the continuum. Here the topology is a graph of
*endpoints* — sites, clusters or logical layers (``edge``/``fog``/``cloud``)
— whose edges carry latency and bandwidth. Transfer time for a payload is::

    one_way_latency + payload_bytes / bottleneck_bandwidth

along the shortest-latency path, which is the first-order model used by the
Edge-to-Cloud emulation literature the paper builds on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import ValidationError

__all__ = ["Link", "NetworkPath", "NetworkEmulator"]


@dataclass(frozen=True)
class Link:
    """A bidirectional network link with symmetric characteristics."""

    a: str
    b: str
    latency_ms: float
    bandwidth_gbps: float
    jitter_ms: float = 0.0
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_ms < 0:
            raise ValidationError("latency must be >= 0")
        if self.bandwidth_gbps <= 0:
            raise ValidationError("bandwidth must be > 0")
        if self.jitter_ms < 0:
            raise ValidationError("jitter must be >= 0")
        if not 0 <= self.loss < 1:
            raise ValidationError("loss must be in [0, 1)")

    @property
    def bandwidth_bytes_per_s(self) -> float:
        return self.bandwidth_gbps * 1e9 / 8.0


@dataclass(frozen=True)
class NetworkPath:
    """Resolved end-to-end characteristics between two endpoints."""

    hops: tuple[str, ...]
    latency_ms: float
    bandwidth_gbps: float
    loss: float

    @property
    def bandwidth_bytes_per_s(self) -> float:
        return self.bandwidth_gbps * 1e9 / 8.0

    def transfer_time(self, payload_bytes: float) -> float:
        """Seconds to move ``payload_bytes`` one-way over this path.

        Loss is folded in as goodput reduction (TCP-like first-order model);
        the latency term is one propagation delay.
        """
        goodput = self.bandwidth_bytes_per_s * (1.0 - self.loss)
        return self.latency_ms / 1e3 + payload_bytes / goodput

    def round_trip_time(self) -> float:
        """Seconds for one RTT."""
        return 2.0 * self.latency_ms / 1e3


class NetworkEmulator:
    """Graph of endpoints and constrained links; path resolution with cache."""

    #: Default characteristics when two endpoints share no explicit path —
    #: treated as co-located on the testbed LAN.
    DEFAULT_LATENCY_MS = 0.05
    DEFAULT_BANDWIDTH_GBPS = 10.0

    def __init__(self) -> None:
        #: endpoint -> neighbour -> the link between them (both directions).
        self._links: dict[str, dict[str, Link]] = {}
        self._cache: dict[tuple[str, str], NetworkPath] = {}

    def add_site(self, name: str) -> None:
        self._links.setdefault(name, {})

    def endpoints(self) -> list[str]:
        return sorted(self._links)

    def add_link(self, link: Link) -> None:
        """Install (or replace) the link between ``link.a`` and ``link.b``."""
        self._links.setdefault(link.a, {})[link.b] = link
        self._links.setdefault(link.b, {})[link.a] = link
        self._cache.clear()

    def constrain(
        self,
        a: str,
        b: str,
        *,
        latency_ms: float,
        bandwidth_gbps: float,
        loss: float = 0.0,
    ) -> None:
        """E2Clab-style shorthand for :meth:`add_link`."""
        self.add_link(Link(a, b, latency_ms=latency_ms, bandwidth_gbps=bandwidth_gbps, loss=loss))

    def path(self, a: str, b: str) -> NetworkPath:
        """Resolve the shortest-latency path between two endpoints.

        Unknown or disconnected endpoint pairs fall back to LAN defaults —
        the emulator only *constrains* traffic that the experiment declared,
        exactly like ``tc`` rules on a flat testbed network.
        """
        if a == b:
            return NetworkPath(hops=(a,), latency_ms=0.0, bandwidth_gbps=float("inf"), loss=0.0)
        key = (a, b) if a <= b else (b, a)
        cached = self._cache.get(key)
        if cached is not None:
            return cached

        path = self._resolve(a, b)
        self._cache[key] = path
        return path

    def _shortest_hops(self, a: str, b: str) -> list[str] | None:
        """Dijkstra over link latencies; ``None`` if ``b`` is unreachable."""
        best = {a: 0.0}
        previous: dict[str, str] = {}
        frontier = [(0.0, a)]
        while frontier:
            dist, node = heapq.heappop(frontier)
            if dist > best[node]:
                continue  # a stale entry: a shorter one was pushed later
            if node == b:
                hops = [b]
                while hops[-1] != a:
                    hops.append(previous[hops[-1]])
                return hops[::-1]
            for neighbour, link in self._links[node].items():
                candidate = dist + link.latency_ms
                if neighbour not in best or candidate < best[neighbour]:
                    best[neighbour] = candidate
                    previous[neighbour] = node
                    heapq.heappush(frontier, (candidate, neighbour))
        return None

    def _resolve(self, a: str, b: str) -> NetworkPath:
        hops = self._shortest_hops(a, b) if a in self._links and b in self._links else None
        if hops is None:
            return NetworkPath(
                hops=(a, b),
                latency_ms=self.DEFAULT_LATENCY_MS,
                bandwidth_gbps=self.DEFAULT_BANDWIDTH_GBPS,
                loss=0.0,
            )
        latency = 0.0
        bandwidth = float("inf")
        success = 1.0
        for u, v in zip(hops, hops[1:]):
            link = self._links[u][v]
            latency += link.latency_ms
            bandwidth = min(bandwidth, link.bandwidth_gbps)
            success *= 1.0 - link.loss
        return NetworkPath(
            hops=tuple(hops), latency_ms=latency, bandwidth_gbps=bandwidth, loss=1.0 - success
        )

    def transfer_time(self, a: str, b: str, payload_bytes: float) -> float:
        """Seconds to transfer ``payload_bytes`` from ``a`` to ``b``."""
        return self.path(a, b).transfer_time(payload_bytes)
