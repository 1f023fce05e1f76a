#!/usr/bin/env python3
"""The repo benchmark: the paper's Listing-1 campaign, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload listing1_des --seed 1 --seconds 26 --trace 0

Workloads (see ``campaigns.py``): ``listing1_des``, ``listing1_analytic``,
``listing1_process``; ``--workload all`` runs each of them in both modes,
every run in its own interpreter, and prints every metric. The trial budget
is derived from ``--seconds`` alone, so one seed and one ``--seconds``
always run the same campaign.

``--trace 0`` sets up the campaign object in fresh interpreters, then runs
the campaign ``REPEATS`` times untraced and reports the end-to-end metrics
(medians). ``--trace 1`` runs it once untraced and once with the per-layer
wrappers of ``layertrace.py`` installed, and reports the per-layer metrics;
the difference between the two walls is the tracing overhead.

Both modes check the program's outputs: a sync campaign's told history
(config and objective bits per trial) repeats exactly for one seed, a small
FIFO campaign tells the same history as the AsyncHyperBand one
(``listing1_des``), and every process-executor trial whose configuration
the sync campaign also evaluated has a bit-identical objective
(``listing1_process``). Failed trials are counted by error type, never
retried.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
WORKLOAD_NAMES = ("listing1_des", "listing1_analytic", "listing1_process")
#: fresh interpreters per run that time the set-up; the median is reported.
SETUP_PROBES = 3
#: a percentile is reported once at least this many samples lie beyond it.
TAIL_SAMPLES = 10


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# -- statistics ------------------------------------------------------------------------------


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with TAIL_SAMPLES beyond it."""
    n = len(samples)
    if n < 2 * TAIL_SAMPLES:
        return None
    q = 1.0 - TAIL_SAMPLES / n
    ordered = sorted(samples)
    return 100.0 * q, ordered[int(q * n) - 1]


def error_types(trials: list[dict]) -> Counter:
    return Counter((t.get("error") or "unknown").split(":")[0] for t in trials)


# -- measurement ---------------------------------------------------------------------------


def measure_setup(name: str, seed: int, trials: int, workdir: Path) -> list[dict]:
    """Import and construct the campaign in SETUP_PROBES fresh interpreters."""
    probes = []
    for i in range(SETUP_PROBES):
        done = subprocess.run(
            [
                sys.executable,
                str(BENCH_DIR / "setup_probe.py"),
                str(SRC),
                name,
                str(seed),
                str(trials),
                str(workdir / f"setup-{i}"),
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        probes.append(json.loads(done.stdout.splitlines()[-1]))
    return probes


def history_checks(
    workload, seed: int, trials: int, campaigns: list, workdir: Path
) -> dict[str, bool]:
    """Correctness of the campaigns' outputs (see the module docstring)."""
    from campaigns import CHECK_TRIALS, FifoPlantNetOptimization, run_campaign

    checks = {
        "full_budget": all(len(c.trials) == trials for c in campaigns),
        "best_is_min": all(
            c.succeeded
            and c.best_value == min(t["result"]["objective"] for t in c.succeeded)
            for c in campaigns
        ),
    }
    if workload.executor == "sync":  # its told history repeats exactly for one seed
        first = campaigns[0].history()
        checks["history_repeats"] = all(c.history() == first for c in campaigns[1:])
    if workload.name == "listing1_analytic":
        return checks
    # A small sync FIFO campaign: AsyncHyperBand never acts (launch reports
    # no intermediate result), so its history is the prefix of the DES one.
    reference = run_campaign(
        FifoPlantNetOptimization(
            num_samples=CHECK_TRIALS, executor="sync", workdir=workdir / "fifo", seed=seed
        )
    )
    if workload.name == "listing1_des":
        checks["fifo_equals_asha"] = all(
            reference.history() == c.history()[:CHECK_TRIALS] for c in campaigns
        )
    elif workload.name == "listing1_process":
        sync_objective = dict(reference.history())
        common = [
            (config, bits)
            for c in campaigns
            for config, bits in c.history()
            if config in sync_objective
        ]
        checks["process_equals_sync"] = bool(common) and all(
            sync_objective[config] == bits for config, bits in common
        )
    return checks


def end_to_end(
    campaigns: list, setup: list[dict], holdout: list[float]
) -> tuple[dict, list[float]]:
    evals = [
        t["cost"]["evaluate_s"]
        for c in campaigns
        for t in c.succeeded
        if not t["cost"].get("cache_hit")
    ]
    return {
        "setup_s": statistics.median(p["import_s"] + p["construct_s"] for p in setup),
        "evals_per_s": statistics.median(len(c.succeeded) / c.wall_s for c in campaigns),
        "eval_s_p50": statistics.median(evals),
        "best_resp_time_s": statistics.median(holdout),
        "success_share": sum(len(c.succeeded) for c in campaigns)
        / sum(len(c.trials) for c in campaigns),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
        / 1024.0,
    }, evals


def per_layer(trace, plain, traced, setup: list[dict]) -> dict:
    layers = trace.collect()
    executed = sum(
        t["runtime_s"] for t in traced.trials if not t["cost"].get("cache_hit")
    )
    suggests = trace.suggest_samples
    suggest_tail = tail(suggests)
    events = int(layers["engine.des_events"])
    return {
        "bayesopt.suggest_s": layers["bayesopt.suggest_s"],
        "bayesopt.suggest_p50_s": statistics.median(suggests) if suggests else 0.0,
        "bayesopt.suggest_tail_s": suggest_tail[1] if suggest_tail else max(suggests, default=0.0),
        "bayesopt.tell_s": layers["bayesopt.tell_s"],
        "bayesopt.fits": int(layers["bayesopt.fits"]),
        "engine.des_s": layers["engine.des_s"],
        "engine.des_runs": int(layers["engine.des_runs"]),
        "engine.des_events": events,
        "engine.events_per_request": (
            events / layers["engine.completed_requests"] if events else 0.0
        ),
        "engine.us_per_event": 1e6 * layers["engine.des_s"] / events if events else 0.0,
        "engine.analytic_s": layers["engine.analytic_s"],
        "experiments.archive_s": layers["experiments.archive_s"],
        "experiments.checkpoint_s": layers["experiments.checkpoint_s"],
        "experiments.bytes_written": int(layers["experiments.bytes_written"]),
        "search.queue_wait_s": executed - layers["search.trainable_s"],
        "search.failed_trials": len(traced.failed),
        "search.evalcache_lookups": int(layers["search.evalcache_lookups"]),
        "search.evalcache_hits": int(layers["search.evalcache_hits"]),
        "search.evalcache_s": layers["search.evalcache_s"],
        "search.worker_wait_s": layers["search.worker_wait_s"],
        "search.unattributed_s": traced.wall_s - trace.attributed_s(),
        "testbed.deploy_s": layers["testbed.deploy_s"],
        "testbed.reconfigure_s": layers["testbed.reconfigure_s"],
        "testbed.placements": int(layers["testbed.placements"]),
        "monitoring.aggregate_s": layers["monitoring.aggregate_s"],
        "setup.import_s": statistics.median(p["import_s"] for p in setup),
        "setup.construct_s": statistics.median(p["construct_s"] for p in setup),
        "trace.overhead_s": traced.wall_s - plain.wall_s,
    }


UNITS = {
    "setup_s": "s",
    "evals_per_s": "1/s",
    "eval_s_p50": "s",
    "best_resp_time_s": "s",
    "success_share": "ratio",
    "peak_rss_mb": "MB",
    "bayesopt.fits": "count",
    "engine.des_runs": "count",
    "engine.des_events": "count",
    "engine.events_per_request": "events/req",
    "engine.us_per_event": "us",
    "experiments.bytes_written": "B",
    "search.failed_trials": "count",
    "search.evalcache_lookups": "count",
    "search.evalcache_hits": "count",
    "testbed.placements": "count",
}


def unit(name: str) -> str:
    return UNITS.get(name, "s")


# -- driver ---------------------------------------------------------------------------------


def bench(args: argparse.Namespace, workdir: Path) -> dict:
    from campaigns import REPEATS, WORKLOADS, holdout_response_time, run_campaign

    workload = WORKLOADS[args.workload]
    trials = workload.trials(args.seconds)
    lines = [
        f"perfbench {workload.name} seed={args.seed} trials={trials} "
        f"executor={workload.executor} trace={args.trace}"
    ]
    setup = measure_setup(workload.name, args.seed, trials, workdir)
    if args.trace:
        from layertrace import LayerTrace

        plain = run_campaign(workload.build(args.seed, trials, workdir / "plain"))
        with LayerTrace(workdir / "journal") as trace:
            traced = run_campaign(workload.build(args.seed, trials, workdir / "traced"))
        campaigns = [plain, traced]
        metrics = per_layer(trace, plain, traced, setup)
        suggest_tail = tail(trace.suggest_samples)
        lines.append(
            f"  bayesopt.suggest over n={len(trace.suggest_samples)} calls; tail = "
            + (f"p{suggest_tail[0]:.0f}" if suggest_tail else "max")
        )
        for name in ("engine.des_s", "bayesopt.suggest_s", "search.unattributed_s"):
            share = metrics[name] / traced.wall_s
            lines.append(f"  share of traced wall (summed over processes): {name} {share:.1%}")
    else:
        built = [
            workload.build(args.seed, trials, workdir / f"campaign-{i}") for i in range(REPEATS)
        ]
        campaigns = [run_campaign(campaign) for campaign in built]
        # Re-measured outside the timed region, once per distinct best config.
        holdout: dict[tuple, float] = {}
        best = []
        for campaign, c in zip(built, campaigns):
            key = tuple(sorted(c.best_configuration.items()))
            if key not in holdout:
                holdout[key] = holdout_response_time(campaign, c.best_configuration)
            best.append(holdout[key])
        metrics, evals = end_to_end(campaigns, setup, best)
        eval_tail = tail(evals)
        lines.append(f"  eval_s_p50 over n={len(evals)} evaluations")
        if eval_tail:
            lines.append(f"  eval_s_p{eval_tail[0]:.0f} = {eval_tail[1]:.6f} s")
    lines.append("  campaign walls: " + ", ".join(f"{c.wall_s:.3f} s" for c in campaigns))
    checks = history_checks(workload, args.seed, trials, campaigns, workdir)
    attempted = sum(len(c.trials) for c in campaigns)
    failed = sum(len(c.failed) for c in campaigns)
    causes = error_types([t for c in campaigns for t in c.failed])
    lines.append(
        f"  failed_share = {failed / attempted:.4f} ratio ({failed}/{attempted} trials)"
        + "".join(f"; {name} x{count}" for name, count in sorted(causes.items()))
    )
    for name, ok in checks.items():
        lines.append(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for name, value in metrics.items():
        lines.append(f"  {name} = {value} {unit(name)}")
    return {
        "lines": lines,
        "result": {
            "correct": all(checks.values()),
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit(name)} for name, value in metrics.items()
            },
        },
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload in both modes, each run in its own interpreter."""
    merged: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            done = subprocess.run(
                [
                    sys.executable,
                    str(Path(__file__).resolve()),
                    *("--workload", name, "--seed", str(args.seed)),
                    *("--seconds", str(args.seconds), "--trace", str(trace)),
                ],
                capture_output=True,
                text=True,
                timeout=900,
            )
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            result = json.loads(lines[-1])
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    started = time.perf_counter()
    try:
        out = bench(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in out["lines"]:
        print(line)
    print(f"  run took {time.perf_counter() - started:.1f} s")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
