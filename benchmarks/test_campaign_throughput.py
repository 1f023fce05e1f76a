"""Campaign-throughput benchmark for the ask/tell hot path.

Measures how fast an optimization campaign turns the suggest → evaluate →
tell crank, comparing two arms over the same search space and seed:

- **baseline** — the pre-batching protocol: one ``ask()`` per trial with a
  surrogate refit on every ask (``refit_every=1``), an unbounded fitted-model
  history, and an eager ``result()`` rebuild after every ``tell`` (what the
  optimizer used to do internally).
- **fast** — the batched hot path through :func:`repro.search.run`: asks are
  drawn eight at a time from a single surrogate fit, refits are throttled
  (``refit_every=8``), the model history is off, and results are lazy.

A third run checks that two identical synchronous campaigns tell the same
values byte for byte.

The objective is a cheap analytic quadratic so the measurement isolates the
optimizer-side cost (suggest + tell), not the evaluation. Results land in
``benchmarks/results/BENCH_campaign.json``: trials/sec per arm, the
suggest+tell speedup, p50/p90/p99 suggest and tell latencies, a
sync-determinism marker, and peak RSS.

Scale: 500 trials by default; set ``REPRO_BENCH_SMOKE=1`` for a 120-trial
smoke run (used by CI).

Set ``REPRO_BENCH_SERVE=1`` to run the fast arm with the live telemetry
plane attached (telemetry enabled, a status board, the embedded HTTP
monitor and a background scraper hammering ``/metrics`` and ``/status``):
the measured suggest/tell percentiles then include the monitor's hot-path
cost, and the perf gate downstream verifies serving does not regress the
campaign.
"""

from __future__ import annotations

import contextlib
import math
import os
import resource
import threading
import time

import numpy as np

from benchmarks.conftest import save_results
from repro.bayesopt import Optimizer, Real, Space
from repro.search import run
from repro.search.algos import SurrogateSearch

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
SERVE = os.environ.get("REPRO_BENCH_SERVE", "") == "1"
N_TRIALS = 120 if SMOKE else 500
BATCH_SIZE = 8
REFIT_EVERY = 8
SEED = 2021


def _space() -> Space:
    return Space([
        Real(0.0, 1.0, name="a"),
        Real(0.0, 1.0, name="b"),
        Real(0.0, 1.0, name="c"),
    ])


def _objective(config: dict) -> float:
    return (
        (config["a"] - 0.25) ** 2
        + (config["b"] - 0.5) ** 2
        + (config["c"] - 0.75) ** 2
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentiles(samples: list[float]) -> dict[str, float]:
    arr = np.asarray(samples, dtype=float)
    return {
        "p50_ms": float(np.percentile(arr, 50) * 1e3),
        "p90_ms": float(np.percentile(arr, 90) * 1e3),
        "p99_ms": float(np.percentile(arr, 99) * 1e3),
    }


def _run_baseline(n: int) -> dict:
    """Legacy per-trial protocol: refit-per-ask, model history, eager result."""
    space = _space()
    opt = Optimizer(space, random_state=SEED, refit_every=1, keep_models=n)
    names = space.names
    suggest_s: list[float] = []
    tell_s: list[float] = []
    wall0 = time.perf_counter()
    for _ in range(n):
        t0 = time.perf_counter()
        point = opt.ask()
        t1 = time.perf_counter()
        y = _objective(dict(zip(names, point)))
        t2 = time.perf_counter()
        opt.tell(point, y)
        opt.result()  # the old tell() rebuilt this eagerly every time
        t3 = time.perf_counter()
        suggest_s.append(t1 - t0)
        tell_s.append(t3 - t2)
    wall = time.perf_counter() - wall0
    opt_time = sum(suggest_s) + sum(tell_s)
    return {
        "trials": n,
        "wall_s": wall,
        "opt_time_s": opt_time,
        "trials_per_sec": n / wall,
        "opt_trials_per_sec": n / opt_time,
        "suggest": _percentiles(suggest_s),
        "tell": _percentiles(tell_s),
        "models_kept": len(opt.models),
        "best": opt.result().fun,
    }


@contextlib.contextmanager
def _serving(n: int):
    """With ``REPRO_BENCH_SERVE=1``: live telemetry with a status board, a
    live monitor, and a background scraper polling ``/metrics`` +
    ``/status`` while the timed arm runs — so the measurement includes the
    telemetry plane's cost on the hot path, as in a served campaign. Yields
    the monitor (or ``None`` when serving is off)."""
    if not SERVE:
        yield None
        return
    import urllib.request

    from repro import observability
    from repro.observability.live import LiveMonitor, StatusBoard

    context = observability.enable()
    context.board = StatusBoard(name="bench_campaign", num_samples=n, mode="min")
    monitor = LiveMonitor("127.0.0.1", 0, name="bench_campaign")
    monitor.start()
    stop = threading.Event()

    def scrape() -> None:
        while not stop.wait(0.2):
            for endpoint in ("/metrics", "/status"):
                try:
                    with urllib.request.urlopen(monitor.url + endpoint, timeout=5) as r:
                        r.read()
                except OSError:
                    pass

    scraper = threading.Thread(target=scrape, name="bench-scraper", daemon=True)
    scraper.start()
    try:
        yield monitor
    finally:
        stop.set()
        scraper.join(timeout=5)
        monitor.stop()
        observability.disable()


def _run_fast(n: int) -> dict:
    """Batched hot path through the trial runner, costs from Trial.cost."""
    space = _space()
    search = SurrogateSearch(
        space,
        batch_size=BATCH_SIZE,
        random_state=SEED,
        refit_every=REFIT_EVERY,
    )
    with _serving(n) as monitor:
        wall0 = time.perf_counter()
        analysis = run(
            _objective,
            space=space,
            metric="loss",
            num_samples=n,
            search_alg=search,
            name="bench_campaign",
        )
        wall = time.perf_counter() - wall0
        serve_stats = monitor.self_stats() if monitor is not None else None
    suggest_s = [t.cost.get("suggest_s", 0.0) for t in analysis.trials]
    tell_s = [t.cost.get("tell_s", 0.0) for t in analysis.trials]
    opt_time = sum(suggest_s) + sum(tell_s)
    return {
        "trials": len(analysis.trials),
        "wall_s": wall,
        "opt_time_s": opt_time,
        "trials_per_sec": len(analysis.trials) / wall,
        "opt_trials_per_sec": len(analysis.trials) / opt_time,
        "suggest": _percentiles(suggest_s),
        "tell": _percentiles(tell_s),
        "models_kept": len(search.optimizer.models),
        "best": analysis.best_result,
        "serve": serve_stats,
    }


def _run_sync_determinism(n: int = 60) -> dict:
    """Two identical synchronous runs must agree byte-for-byte."""

    def _once() -> tuple[list[float], float]:
        space = _space()
        opt = Optimizer(space, random_state=SEED, refit_every=REFIT_EVERY)
        names = space.names
        for _ in range(n):
            point = opt.ask()
            opt.tell(point, _objective(dict(zip(names, point))))
        result = opt.result()
        return [float(v) for v in result.func_vals], float(result.fun)

    vals_a, best_a = _once()
    vals_b, best_b = _once()
    return {
        "trials": n,
        "identical": vals_a == vals_b and best_a == best_b,
        "best": best_a,
    }


def bench_ops(payload: dict) -> dict[str, dict]:
    """The payload's per-arm ops in the ``perf_profile.json`` shape.

    Per arm: the suggest and tell percentile blocks (ms in the payload,
    seconds here; the p50 doubles as the mean) and the wall time per trial. ``python -m repro perf`` reads this ``ops`` block.
    """
    ops: dict[str, dict] = {}
    for arm, block in payload.items():
        if not isinstance(block, dict):
            continue
        for phase in ("suggest", "tell"):
            stats = block.get(phase)
            if not isinstance(stats, dict):
                continue
            quantiles = {
                key: stats[f"{key}_ms"] / 1e3
                for key in ("p50", "p90", "p99")
                if isinstance(stats.get(f"{key}_ms"), (int, float))
            }
            if quantiles:
                ops[f"{arm}.{phase}"] = {
                    "count": float(block.get("trials", 0.0)),
                    "mean": quantiles.get("p50", math.nan),
                    **quantiles,
                }
        trials, wall = block.get("trials"), block.get("wall_s")
        if isinstance(trials, (int, float)) and isinstance(wall, (int, float)) and trials:
            ops[f"{arm}.trial"] = {"count": float(trials), "mean": wall / trials}
    return ops


def test_campaign_throughput():
    fast = _run_fast(N_TRIALS)
    rss_after_fast = _peak_rss_mb()
    base = _run_baseline(N_TRIALS)
    determinism = _run_sync_determinism()

    speedup = base["opt_time_s"] / fast["opt_time_s"]
    payload = {
        "scale": "smoke" if SMOKE else "full",
        "serve": SERVE,
        "n_trials": N_TRIALS,
        "batch_size": BATCH_SIZE,
        "refit_every": REFIT_EVERY,
        "seed": SEED,
        "baseline": base,
        "fast": fast,
        "sync_determinism": determinism,
        "suggest_tell_speedup": speedup,
        "peak_rss_mb": _peak_rss_mb(),
        "peak_rss_after_fast_mb": rss_after_fast,
    }
    payload["ops"] = bench_ops(payload)
    save_results("BENCH_campaign", payload)

    print()
    print(f"campaign throughput ({payload['scale']}, {N_TRIALS} trials)")
    print(
        f"  baseline: {base['trials_per_sec']:7.1f} trials/s wall, "
        f"{base['opt_trials_per_sec']:7.1f} trials/s opt-side, "
        f"{base['models_kept']} models kept"
    )
    print(
        f"  fast:     {fast['trials_per_sec']:7.1f} trials/s wall, "
        f"{fast['opt_trials_per_sec']:7.1f} trials/s opt-side, "
        f"{fast['models_kept']} models kept"
    )
    print(f"  suggest+tell speedup: {speedup:.1f}x")
    print(
        f"  fast suggest p50/p90/p99: "
        f"{fast['suggest']['p50_ms']:.2f}/{fast['suggest']['p90_ms']:.2f}/"
        f"{fast['suggest']['p99_ms']:.2f} ms"
    )
    print(
        f"  fast tell p50/p90/p99: "
        f"{fast['tell']['p50_ms']:.2f}/{fast['tell']['p90_ms']:.2f}/"
        f"{fast['tell']['p99_ms']:.2f} ms"
    )
    print(f"  sync determinism: {determinism['identical']}")
    print(f"  peak RSS: {payload['peak_rss_mb']:.1f} MB")
    if SERVE and fast.get("serve"):
        stats = fast["serve"]
        print(
            f"  live monitor: {stats['requests']} requests scraped, "
            f"{stats['sse_events_sent']} SSE events, "
            f"{stats['sse_events_dropped']} dropped"
        )

    # The hot-path rewrite must hold a >=5x suggest+tell advantage and keep
    # the fitted-model history flat (no per-trial model retention).
    assert speedup >= 5.0, f"expected >=5x suggest+tell speedup, got {speedup:.1f}x"
    assert fast["models_kept"] == 0
    assert fast["trials"] == N_TRIALS
    # Both arms optimize: sanity that batching didn't break convergence badly.
    assert fast["best"] < 0.5
    assert base["best"] < 0.5
    # And a seed fixes the campaign byte for byte.
    assert determinism["identical"]
