"""Path resolution of the network emulator.

The golden file ``data/network_paths_golden.json`` holds every endpoint
pair's resolved :class:`NetworkPath` (hops, latency, bandwidth, loss) on
the catalog Grid'5000 testbed, queried in both directions, plain and after
fault-injector link degradations. Floats are stored by their exact
``repr``, so a match means the same path to the last bit. It was recorded
with the networkx-based resolver the adjacency-dict Dijkstra replaced.
Regenerate it only for a deliberate change of the topology, with::

    PYTHONPATH=src python -m tests.test_network_paths > tests/data/network_paths_golden.json
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path
from typing import Any, Callable

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultSpec
from repro.testbed import Link, NetworkEmulator, NetworkPath, grid5000

GOLDEN_PATH = Path(__file__).parent / "data" / "network_paths_golden.json"

#: (a, b) pairs degraded in order: a direct link, a two-hop pair and the
#: inter-site backbone.
DEGRADED = (("gros", "chifflot"), ("chiclet", "gros"), ("lille", "nancy"))


def _record(path: NetworkPath) -> dict[str, Any]:
    return {
        "hops": list(path.hops),
        "latency_ms": repr(path.latency_ms),
        "bandwidth_gbps": repr(path.bandwidth_gbps),
        "loss": repr(path.loss),
    }


def _plain() -> NetworkEmulator:
    return grid5000().network


def _degraded() -> NetworkEmulator:
    network = grid5000().network
    injector = FaultInjector(FaultSpec(seed=0))
    for a, b in DEGRADED:
        injector.degrade_link(network, a, b)
    return network


def _all_pairs(build: Callable[[], NetworkEmulator], reverse: bool) -> dict[str, Any]:
    """Every pair of a fresh network, each queried first as (a, b) or (b, a)."""
    network = build()
    endpoints = network.endpoints()
    paths = {}
    for a, b in itertools.combinations(endpoints, 2):
        src, dst = (b, a) if reverse else (a, b)
        paths[f"{src}->{dst}"] = _record(network.path(src, dst))
    return {"endpoints": endpoints, "paths": paths}


def cases() -> dict[str, Any]:
    return {
        "catalog": _all_pairs(_plain, reverse=False),
        "catalog-reverse": _all_pairs(_plain, reverse=True),
        "degraded": _all_pairs(_degraded, reverse=False),
        "degraded-reverse": _all_pairs(_degraded, reverse=True),
    }


def test_catalog_paths_match_golden():
    assert cases() == json.loads(GOLDEN_PATH.read_text())


def test_disconnected_and_unknown_endpoints_fall_back_to_lan():
    network = NetworkEmulator()
    network.add_site("island-a")
    network.add_site("island-b")
    network.add_link(Link("x", "y", latency_ms=3.0, bandwidth_gbps=1.0, loss=0.1))
    lan = NetworkPath(
        hops=("island-a", "island-b"),
        latency_ms=NetworkEmulator.DEFAULT_LATENCY_MS,
        bandwidth_gbps=NetworkEmulator.DEFAULT_BANDWIDTH_GBPS,
        loss=0.0,
    )
    assert network.path("island-a", "island-b") == lan
    assert network.path("island-a", "x").hops == ("island-a", "x")
    assert network.path("island-a", "x").latency_ms == NetworkEmulator.DEFAULT_LATENCY_MS
    unknown = network.path("x", "nowhere")
    assert unknown.hops == ("x", "nowhere")
    assert unknown.bandwidth_gbps == NetworkEmulator.DEFAULT_BANDWIDTH_GBPS
    assert network.path("y", "y") == NetworkPath(
        hops=("y",), latency_ms=0.0, bandwidth_gbps=float("inf"), loss=0.0
    )
    assert network.endpoints() == ["island-a", "island-b", "x", "y"]


def test_add_link_clears_the_path_cache():
    network = NetworkEmulator()
    network.add_link(Link("a", "b", latency_ms=1.0, bandwidth_gbps=10.0))
    network.add_link(Link("b", "c", latency_ms=1.0, bandwidth_gbps=10.0))
    assert network.path("a", "c").hops == ("a", "b", "c")
    assert network.path("c", "a") is network.path("a", "c")  # cached, either order
    network.add_link(Link("a", "c", latency_ms=0.5, bandwidth_gbps=1.0))
    assert network.path("a", "c").hops == ("a", "c")
    network.add_link(Link("a", "c", latency_ms=9.0, bandwidth_gbps=1.0))  # replaced
    assert network.path("a", "c").hops == ("a", "b", "c")


def _simple_paths(adjacency: dict[str, dict[str, Link]], a: str, b: str):
    stack = [(a, (a,))]
    while stack:
        node, hops = stack.pop()
        if node == b:
            yield hops
            continue
        for nxt in adjacency[node]:
            if nxt not in hops:
                stack.append((nxt, hops + (nxt,)))


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    nodes = [f"n{i}" for i in range(n)]
    pairs = list(itertools.combinations(nodes, 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    latencies = draw(
        st.lists(
            st.integers(min_value=0, max_value=200),
            min_size=len(chosen),
            max_size=len(chosen),
            unique=True,
        )
    )
    links = [
        Link(
            a,
            b,
            latency_ms=float(latency),
            bandwidth_gbps=draw(st.sampled_from([1.0, 2.5, 10.0, 40.0])),
            loss=draw(st.sampled_from([0.0, 0.01, 0.1])),
        )
        for (a, b), latency in zip(chosen, latencies)
    ]
    return nodes, links


@settings(max_examples=150, deadline=None)
@given(graph=small_graphs(), data=st.data())
def test_resolved_latency_is_brute_force_minimum(graph, data):
    nodes, links = graph
    network = NetworkEmulator()
    adjacency: dict[str, dict[str, Link]] = {node: {} for node in nodes}
    for node in nodes:
        network.add_site(node)
    for link in links:
        network.add_link(link)
        adjacency[link.a][link.b] = adjacency[link.b][link.a] = link
    a, b = data.draw(st.permutations(nodes))[:2]

    path = network.path(a, b)
    candidates = list(_simple_paths(adjacency, a, b))
    if not candidates:
        assert path.hops == (a, b)
        assert path.latency_ms == NetworkEmulator.DEFAULT_LATENCY_MS
        return
    hop_links = [adjacency[u][v] for u, v in zip(path.hops, path.hops[1:])]
    assert path.hops[0] == a and path.hops[-1] == b
    assert len(set(path.hops)) == len(path.hops)
    assert path.latency_ms == sum(link.latency_ms for link in hop_links)
    assert path.latency_ms == min(
        sum(adjacency[u][v].latency_ms for u, v in zip(hops, hops[1:])) for hops in candidates
    )
    assert path.bandwidth_gbps == min(link.bandwidth_gbps for link in hop_links)
    success = 1.0
    for link in hop_links:
        success *= 1.0 - link.loss
    assert path.loss == 1.0 - success


if __name__ == "__main__":
    print(json.dumps(cases(), indent=2, sort_keys=True))
