"""The benchmark's three workloads: the paper's Listing-1 campaign, three ways.

Every workload runs the campaign through the program's public API
(``PlantNetOptimization`` and ``Optimization.execute``) with the Table-3
settings ``PlantNetOptimization.run()`` builds: Extra-Trees surrogate, LHS
initial design of 10 points, gp_hedge, a concurrency limit of 2, 80
simultaneous requests in a closed loop, 300 s simulated runs.

- ``listing1_des``: exactly ``run()``, on the ``sync`` executor with the
  AsyncHyperBand scheduler. The DES engine dominates it.
- ``listing1_analytic``: the same search, but each evaluation is solved by
  ``AnalyticEngineModel.evaluate``. The surrogate fit dominates it.
- ``listing1_process``: ``run()`` on the ``process`` executor with two
  workers and the FIFO scheduler (the process backend refuses
  AsyncHyperBand). The only workload where the runner's cross-process
  dispatch does real work.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.engine.analytic import AnalyticEngineModel
from repro.engine.config import ThreadPoolConfig
from repro.plantnet.optimization import PlantNetOptimization
from repro.plantnet.scenario import PlantNetScenario
from repro.search.schedulers import FIFOScheduler

#: timed campaigns per untraced run; their medians are reported.
REPEATS = 2
#: trials of the small sync FIFO campaign the correctness checks compare to.
CHECK_TRIALS = 4
#: offset from the campaign seed to the held-out seed that re-measures the
#: best configuration (the campaign simulates only under its own seed).
HOLDOUT_SEED_OFFSET = 1_000_003


class FifoPlantNetOptimization(PlantNetOptimization):
    """``PlantNetOptimization.run()`` with the FIFO scheduler swapped in."""

    def execute(self, **kwargs: Any):
        kwargs["scheduler"] = FIFOScheduler("min")
        return super().execute(**kwargs)


class AnalyticPlantNetOptimization(PlantNetOptimization):
    """``PlantNetOptimization.run()`` with analytic instead of DES evaluations."""

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.model = AnalyticEngineModel(self.scenario.params)

    def launch(self, config, **kwargs: Any) -> dict[str, float]:
        result = self.model.evaluate(
            ThreadPoolConfig.from_dict(dict(config)), self.simultaneous_requests
        )
        return {
            "user_resp_time": result.user_response_time,
            "throughput": result.throughput,
        }


@dataclass(frozen=True)
class Workload:
    name: str
    factory: type
    executor: str
    #: nominal seconds per attempted trial on a 2-core x86 host; sizes the
    #: trial budget from ``--seconds`` so the budget depends on nothing else.
    nominal_s_per_trial: float
    min_trials: int

    def trials(self, seconds: float) -> int:
        return max(self.min_trials, round(seconds / (REPEATS * self.nominal_s_per_trial)))

    def build(self, seed: int, trials: int, workdir: Path) -> PlantNetOptimization:
        return self.factory(
            num_samples=trials, executor=self.executor, workdir=workdir, seed=seed
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("listing1_des", PlantNetOptimization, "sync", 0.85, 12),
        Workload("listing1_analytic", AnalyticPlantNetOptimization, "sync", 0.24, 40),
        Workload("listing1_process", FifoPlantNetOptimization, "process", 0.22, 16),
    )
}


@dataclass
class CampaignResult:
    wall_s: float
    best_value: float
    best_configuration: dict[str, Any]
    #: every finished trial, as ``checkpoint.json`` recorded it.
    trials: list[dict[str, Any]]

    @property
    def succeeded(self) -> list[dict[str, Any]]:
        return [t for t in self.trials if t["status"] == "terminated"]

    @property
    def failed(self) -> list[dict[str, Any]]:
        return [t for t in self.trials if t["status"] == "error"]

    def history(self) -> list[tuple[tuple, str]]:
        """The told history: (config, objective bits) per successful trial."""
        return [
            (tuple(sorted(t["config"].items())), float(t["result"]["objective"]).hex())
            for t in self.succeeded
        ]


def run_campaign(campaign: PlantNetOptimization) -> CampaignResult:
    """Time one campaign from ``run()`` to its Phase III summary."""
    start = time.perf_counter()
    summary = campaign.run()
    wall = time.perf_counter() - start
    checkpoint = json.loads((campaign.archive.root / "checkpoint.json").read_text())
    return CampaignResult(
        wall_s=wall,
        best_value=summary.best_value,
        best_configuration=dict(summary.best_configuration),
        trials=checkpoint["trials"],
    )


def holdout_response_time(campaign: PlantNetOptimization, config: dict[str, Any]) -> float:
    """DES user response time of ``config`` under a seed the campaign never used."""
    scenario = campaign.scenario
    holdout = PlantNetScenario(
        params=scenario.params,
        duration=scenario.duration,
        warmup=scenario.warmup,
        repetitions=scenario.repetitions,
        base_seed=int(campaign.seed) + HOLDOUT_SEED_OFFSET,
    )
    with holdout:
        metrics = holdout.evaluate(dict(config), campaign.simultaneous_requests)
    return float(metrics["user_resp_time"])
