"""Per-layer tracing from outside the program.

:class:`LayerTrace` wraps the public entry points of each layer for the
length of one traced campaign and restores them afterwards; nothing in the
program changes. Calls made in the campaign's own process are summed in
memory. Calls made in process-pool workers (forked after the wrappers are
installed) are appended to a per-worker journal file and folded in by
:meth:`LayerTrace.collect`.

Layers and their entry points:

- ``bayesopt``: ``SurrogateSearch.suggest`` / ``suggest_batch`` /
  ``on_trial_complete``, and ``fit_count`` read at the end;
- ``engine``: ``IdentificationEngine.run`` (with ``Environment.enable_stats``
  switched on, for the event count) and ``AnalyticEngineModel.evaluate``;
- ``experiments``: ``ExperimentArchive.new_evaluation_dir`` /
  ``store_evaluation`` / ``store_checkpoint`` / ``store_summary``;
- ``search``: ``EvalCache.lookup`` / ``store`` / ``stats``,
  ``ExecutionBackend.wait_any`` (the runner blocked on pool workers), and
  the trainable ``Optimization.run_objective`` (trial wall minus trainable
  wall is dispatch and queue wait);
- ``testbed``: ``Testbed.reserve``, ``Deployment.place`` / ``teardown`` /
  ``reconfigure``;
- ``monitoring``: ``aggregate_runs`` as the scenario calls it.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

import repro.plantnet.scenario as scenario_module
from repro.engine.analytic import AnalyticEngineModel
from repro.engine.engine import IdentificationEngine
from repro.experiments.archive import ExperimentArchive
from repro.optimizer.optimization import Optimization
from repro.search.algos import SurrogateSearch
from repro.search.backends import ExecutionBackend
from repro.search.evalcache import EvalCache
from repro.testbed.deployment import Deployment
from repro.testbed.site import Testbed

#: layer times that never nest inside one another. Spent in the campaign's
#: own process, they and the unattributed remainder add up to the campaign
#: wall time; time spent in pool workers reaches that process as
#: ``search.worker_wait_s``.
ATTRIBUTED = (
    "bayesopt.suggest_s",
    "bayesopt.tell_s",
    "engine.des_s",
    "engine.analytic_s",
    "experiments.archive_s",
    "search.evalcache_s",
    "search.worker_wait_s",
    "testbed.deploy_s",
    "testbed.reconfigure_s",
    "monitoring.aggregate_s",
)


def _path_size(result: Any) -> int:
    return os.path.getsize(result) if isinstance(result, (str, os.PathLike)) else 0


class LayerTrace:
    """Installs timing wrappers; use as a context manager around a campaign."""

    def __init__(self, journal_dir: Path) -> None:
        self.journal_dir = Path(journal_dir)
        self.main_pid = os.getpid()
        self.totals: dict[str, float] = defaultdict(float)
        self.suggest_samples: list[float] = []
        self._searchers: dict[int, SurrogateSearch] = {}
        self._caches: dict[int, EvalCache] = {}
        self._undo: list[tuple[Any, str, Any, bool]] = []

    # -- recording -------------------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        if os.getpid() == self.main_pid:
            self.totals[name] += value
            return
        line = json.dumps([name, value]) + "\n"
        with open(self.journal_dir / f"worker-{os.getpid()}.jsonl", "a") as handle:
            handle.write(line)

    def _wrap(
        self,
        owner: Any,
        attr: str,
        timed_as: tuple[str, ...],
        on_return: Callable[..., None] | None = None,
        before: Callable[..., None] | None = None,
    ) -> None:
        original = getattr(owner, attr)
        trace = self

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(*args)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                for name in timed_as:
                    trace.add(name, elapsed)
            if on_return is not None:
                on_return(elapsed, result, *args)
            return result

        self._undo.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, wrapper)

    # -- per-layer hooks ----------------------------------------------------------------

    def _on_suggest(self, elapsed: float, result: Any, searcher: SurrogateSearch, *_: Any) -> None:
        self.suggest_samples.append(elapsed)
        self._searchers[id(searcher)] = searcher

    def _before_des(self, engine: IdentificationEngine) -> None:
        engine.env.enable_stats()

    def _on_des(self, elapsed: float, result: Any, engine: IdentificationEngine) -> None:
        self.add("engine.des_runs", 1)
        self.add("engine.des_events", engine.env.stats.events_processed)
        self.add("engine.completed_requests", result.completed_requests)

    def _on_store(self, elapsed: float, result: Any, *_: Any) -> None:
        self.add("experiments.bytes_written", _path_size(result))

    def _on_lookup(self, elapsed: float, result: Any, cache: EvalCache, *_: Any) -> None:
        self.add("search.evalcache_lookups", 1)
        self._caches[id(cache)] = cache

    def _on_place(self, elapsed: float, *_: Any) -> None:
        self.add("testbed.placements", 1)

    def __enter__(self) -> "LayerTrace":
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        wrap = self._wrap
        wrap(SurrogateSearch, "suggest", ("bayesopt.suggest_s",), self._on_suggest)
        wrap(SurrogateSearch, "suggest_batch", ("bayesopt.suggest_s",), self._on_suggest)
        wrap(SurrogateSearch, "on_trial_complete", ("bayesopt.tell_s",))
        wrap(IdentificationEngine, "run", ("engine.des_s",), self._on_des, self._before_des)
        wrap(AnalyticEngineModel, "evaluate", ("engine.analytic_s",))
        wrap(ExperimentArchive, "new_evaluation_dir", ("experiments.archive_s",))
        for attr in ("store_evaluation", "store_summary"):
            wrap(ExperimentArchive, attr, ("experiments.archive_s",), self._on_store)
        wrap(
            ExperimentArchive,
            "store_checkpoint",
            ("experiments.archive_s", "experiments.checkpoint_s"),
            self._on_store,
        )
        wrap(EvalCache, "lookup", ("search.evalcache_s",), self._on_lookup)
        wrap(EvalCache, "store", ("search.evalcache_s",))
        wrap(ExecutionBackend, "wait_any", ("search.worker_wait_s",))
        wrap(Optimization, "run_objective", ("search.trainable_s",))
        wrap(Testbed, "reserve", ("testbed.deploy_s",))
        wrap(Deployment, "place", ("testbed.deploy_s",), self._on_place)
        wrap(Deployment, "teardown", ("testbed.deploy_s",))
        wrap(Deployment, "reconfigure", ("testbed.reconfigure_s",))
        wrap(scenario_module, "aggregate_runs", ("monitoring.aggregate_s",))
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original, own in reversed(self._undo):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- results -------------------------------------------------------------------------

    def attributed_s(self) -> float:
        """Seconds the campaign's own process spent inside a traced layer."""
        return sum(self.totals.get(name, 0.0) for name in ATTRIBUTED)

    def collect(self) -> defaultdict[str, float]:
        """Layer totals over every process, with the workers' journals folded in."""
        totals: defaultdict[str, float] = defaultdict(float, self.totals)
        for journal in sorted(self.journal_dir.glob("worker-*.jsonl")):
            for line in journal.read_text().splitlines():
                name, value = json.loads(line)
                totals[name] += value
        totals["bayesopt.fits"] = sum(s.fit_count() for s in self._searchers.values())
        totals["search.evalcache_hits"] = sum(
            c.stats()["hits"] for c in self._caches.values()
        )
        return totals
