"""The trial runner: asynchronous parallel execution of trials.

``run()`` is the facade equivalent to the paper's ``tune.run`` (Listing 1
line 14): it drives a search algorithm, executes trials through a
pluggable :class:`~repro.search.backends.ExecutionBackend`, consults the
trial scheduler on intermediate results, and returns an
:class:`ExperimentAnalysis`.

Executor notes
--------------
Every executor runs a trial through the same
:func:`~repro.search.execution.execute_trial` — one retry/timeout loop,
one taint rule, ``SystemExit`` as one trial's error — and the runner folds
the returned outcome payload through :meth:`TrialRunner._fold_worker_payload`.
The executors differ only in where that function runs:

- ``"sync"`` — in the caller, one trial at a time (tests, debugging); it
  reports no queue wait.
- ``"thread"`` — on a thread pool; supports schedulers and intermediate
  reporting. Best when the trainable releases the GIL or is I/O-bound;
  also what gives the constant-liar asynchronous semantics without
  pickling constraints.
- ``"process"`` — in process-pool children: true CPU parallelism for
  pure-Python trainables (the engine DES). The trainable must be picklable
  (a top-level function); intermediate reporting/schedulers are
  unsupported across the process boundary, so the scheduler must be FIFO.
- ``"store"`` — in elastic workers that claim trials from a shared
  file-backed :class:`~repro.search.store.TrialStore` under
  lease+heartbeat (local children and/or ``python -m repro worker
  <run-dir>`` joiners). Configure with ``backend_options={"store_dir": ...}``.

The main loop is backend-agnostic — suggest, submit, wait, fold — so trial
spans, queue-wait/evaluate costs and the fabric telemetry merge are the
same on every executor.
"""

from __future__ import annotations

import inspect
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.bayesopt.space import Space
from repro.errors import TrialError, ValidationError
from repro.observability import fabric
from repro.observability.profile import CostBreakdown, aggregate_costs
from repro.observability.telemetry import record, telemetry
from repro.search.algos import SearchAlgorithm, SurrogateSearch
from repro.search.backends import backend_class, create_backend
from repro.search.evalcache import EvalCache
from repro.search.execution import Trainable, normalize_result
from repro.search.schedulers import FIFOScheduler, TrialDecision, TrialScheduler
from repro.search.trial import Reporter, Trial, TrialStatus

__all__ = ["TrialRunner", "ExperimentAnalysis", "run"]

#: persistence callback. Single-argument callables receive the finished
#: trial records; two-argument callables additionally receive the
#: searcher's ``state_dict()`` (refit cadence, hedge gains) so ``--resume``
#: restores the optimization cadence, not just the observations.
Checkpointer = Callable[..., Any]


def _takes_reporter(trainable: Trainable) -> bool:
    """Whether the trainable takes a second (:class:`Reporter`) argument."""
    try:
        return len(inspect.signature(trainable).parameters) >= 2
    except (TypeError, ValueError):
        return False


@dataclass
class ExperimentAnalysis:
    """Results of one experiment: all trials plus best-of views."""

    name: str
    metric: str
    mode: str
    trials: list[Trial] = field(default_factory=list)
    wall_clock_s: float = 0.0

    def _completed(self) -> list[Trial]:
        done = [
            t
            for t in self.trials
            if t.status in (TrialStatus.TERMINATED, TrialStatus.STOPPED)
            and self.metric in t.result
        ]
        if not done:
            raise TrialError("no completed trials with the target metric")
        return done

    @property
    def best_trial(self) -> Trial:
        key = lambda t: t.result[self.metric]  # noqa: E731
        done = self._completed()
        return min(done, key=key) if self.mode == "min" else max(done, key=key)

    @property
    def best_config(self) -> dict[str, Any]:
        return dict(self.best_trial.config)

    @property
    def best_result(self) -> float:
        return self.best_trial.result[self.metric]

    def records(self) -> list[dict[str, Any]]:
        """Flat record per trial (a dataframe-ready structure)."""
        return [t.to_dict() for t in self.trials]

    def objective_history(self) -> list[float]:
        """Objective values in completion order (for convergence plots).

        NaN entries are skipped: an early-stopped trial that never produced
        an intermediate report scores NaN, which would otherwise poison the
        running-incumbent computation of a convergence plot.
        """
        return [
            t.result[self.metric]
            for t in self.trials
            if self.metric in t.result and t.result[self.metric] == t.result[self.metric]
        ]

    def cost_profile(self) -> CostBreakdown:
        """Pooled suggest/evaluate/tell cost over all trials."""
        return aggregate_costs(t.cost for t in self.trials)

    def __str__(self) -> str:
        return (
            f"ExperimentAnalysis({self.name!r}: {len(self.trials)} trials, "
            f"best {self.metric}={self.best_result:.4g})"
        )


class TrialRunner:
    """Executes trials against a search algorithm and a scheduler."""

    def __init__(
        self,
        trainable: Trainable,
        search_alg: SearchAlgorithm,
        *,
        metric: str,
        mode: str = "min",
        scheduler: TrialScheduler | None = None,
        num_samples: int = 10,
        executor: str = "sync",
        max_workers: int = 4,
        name: str = "experiment",
        raise_on_failed_trial: bool = False,
        log_dir: str | None = None,
        max_retries: int = 0,
        retry_backoff_s: float = 0.0,
        trial_timeout_s: float | None = None,
        resume_trials: list[Trial] | None = None,
        resume_searcher_state: dict[str, Any] | None = None,
        checkpoint: Checkpointer | None = None,
        checkpoint_every: int = 1,
        eval_cache: "EvalCache | None" = None,
        backend_options: dict[str, Any] | None = None,
    ) -> None:
        if mode not in ("min", "max"):
            raise ValidationError("mode must be 'min' or 'max'")
        if num_samples < 1:
            raise ValidationError("num_samples must be >= 1")
        backend_cls = backend_class(executor)  # raises for unknown executors
        if max_retries < 0:
            raise ValidationError("max_retries must be >= 0")
        if retry_backoff_s < 0:
            raise ValidationError("retry_backoff_s must be >= 0")
        if trial_timeout_s is not None and trial_timeout_s <= 0:
            raise ValidationError("trial_timeout_s must be > 0")
        if checkpoint_every < 1:
            raise ValidationError("checkpoint_every must be >= 1")
        self.trainable = trainable
        self.search_alg = search_alg
        self.metric = metric
        self.mode = mode
        self.scheduler = scheduler or FIFOScheduler(mode)
        if not backend_cls.supports_mid_trial_scheduling and not isinstance(
            self.scheduler, FIFOScheduler
        ):
            raise ValidationError(
                f"{executor} executor cannot consult a scheduler mid-trial; use FIFO"
            )
        self.num_samples = int(num_samples)
        self.executor_kind = executor
        self.max_workers = int(max_workers)
        self.name = name
        self.raise_on_failed_trial = raise_on_failed_trial
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.trial_timeout_s = None if trial_timeout_s is None else float(trial_timeout_s)
        self.backend_options = dict(backend_options or {})
        #: the live status board of the telemetry context (resolved in
        #: run(); ``None`` unless the campaign serves).
        self._board: Any = None
        #: open per-trial spans, for cross-thread parenting (trial_id → Span).
        self._trial_spans: dict[str, Any] = {}
        self._lock = threading.Lock()
        #: serializes all scheduler access: with the thread executor,
        #: ``on_result`` fires from worker threads while ``on_complete``
        #: fires from the drain loop — stateful schedulers need one lock.
        self._scheduler_lock = threading.Lock()
        #: trials replayed from a checkpoint (count against num_samples).
        self._resume_trials: list[Trial] = list(resume_trials or [])
        #: searcher state from the checkpoint, restored after replay.
        self._resume_searcher_state = resume_searcher_state
        self._checkpoint = checkpoint
        self._checkpoint_takes_state = self._accepts_state(checkpoint)
        #: whether the trainable takes a second (reporter) argument.
        self._wants_reporter = _takes_reporter(trainable)
        self.checkpoint_every = int(checkpoint_every)
        #: memoizing trial cache consulted before executor submission.
        self.eval_cache = eval_cache
        self._finished: list[Trial] = list(self._resume_trials)
        self._since_checkpoint = 0
        self._log_path = None
        if log_dir is not None:
            from pathlib import Path

            directory = Path(log_dir)
            directory.mkdir(parents=True, exist_ok=True)
            self._log_path = directory / f"{name}.jsonl"
            self._log_path.write_text("")  # truncate previous runs

    @staticmethod
    def _accepts_state(checkpoint: Checkpointer | None) -> bool:
        """Whether the checkpointer takes a second (searcher state) argument."""
        if checkpoint is None:
            return False
        try:
            params = list(inspect.signature(checkpoint).parameters.values())
        except (TypeError, ValueError):
            return False
        positional = [
            p
            for p in params
            if p.kind
            in (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        ]
        if any(p.kind is inspect.Parameter.VAR_POSITIONAL for p in params):
            return True
        return len(positional) >= 2

    # -- observability hooks ---------------------------------------------------------

    def _suggest(self, trial_ids: list[str]) -> tuple[list[dict[str, Any]], float, bool]:
        """Time one (batched) suggest.

        Returns the configs, the per-config cost and whether the ask
        blocked on an inline surrogate fit: those trials record under
        ``suggest_fit``, so one digest never mixes ~0.5 µs prefetch hits
        with fit-bearing asks.
        """
        fits_before = self.search_alg.fit_count()
        start = time.perf_counter()
        if len(trial_ids) == 1:
            config = self.search_alg.suggest(trial_ids[0])
            configs = [] if config is None else [config]
        else:
            configs = self.search_alg.suggest_batch(trial_ids)
        elapsed = time.perf_counter() - start
        fit = self.search_alg.fit_count() > fits_before
        return configs, elapsed / len(configs) if configs else elapsed, fit

    def _open_trial(self, trial: Trial, suggest_s: float, fit: bool) -> None:
        """Record the suggest cost; open the trial span if tracing."""
        trial.cost["suggest_s"] = suggest_s
        context = telemetry()
        if not context.enabled:
            return
        tracer = context.tracer
        span = tracer.start_span(
            f"trial:{trial.trial_id}",
            start=tracer.clock() - suggest_s,
            trial_id=trial.trial_id,
        )
        with self._lock:
            self._trial_spans[trial.trial_id] = span
        context.record("suggest_fit" if fit else "suggest", suggest_s, parent=span)

    def _trial_span(self, trial: Trial) -> Any:
        with self._lock:
            return self._trial_spans.get(trial.trial_id)

    def _close_trial(self, trial: Trial) -> None:
        context = telemetry()
        if not context.enabled:
            return
        with self._lock:
            span = self._trial_spans.pop(trial.trial_id, None)
        if span is not None:
            span.set("status", trial.status.value)
            if self.metric in trial.result:
                span.set(self.metric, trial.result[self.metric])
            for key in ("retries", "timeouts"):
                if trial.cost.get(key):
                    span.set(key, int(trial.cost[key]))
            context.tracer.end_span(span, error=trial.error)

    # -- single-trial execution -----------------------------------------------------

    def _reporter_factory(self, trial: Trial) -> Optional[Callable[[], Reporter]]:
        """Per-attempt :class:`Reporter` builder, if the trainable takes one.

        Each attempt reports into its own scratch trial, so an abandoned
        timed-out attempt never mutates ``trial``; the final attempt's
        reports come back in the outcome payload.
        """
        if not self._wants_reporter:
            return None
        return lambda: Reporter(
            Trial(trial_id=trial.trial_id, config=dict(trial.config)),
            self._on_report,
            self._lock,
        )

    # -- evaluation cache -------------------------------------------------------------

    def _cache_lookup(self, trial: Trial) -> bool:
        """Serve ``trial`` from the evaluation cache; True on a hit.

        A hit completes the trial without touching the executor: the stored
        (normalized) result is replayed, the evaluate cost is zero, and the
        ``cache_hit`` cost marker feeds the Phase III profile.
        """
        if self.eval_cache is None:
            return False
        cached = self.eval_cache.lookup(trial.config)
        if cached is None:
            return False
        trial.result = cached
        trial.status = TrialStatus.TERMINATED
        trial.runtime_s = 0.0
        trial.cost["evaluate_s"] = 0.0
        trial.cost["cache_hit"] = 1.0
        record(
            "execute",
            0.0,
            parent=self._trial_span(trial),
            trial_id=trial.trial_id,
            status=trial.status.value,
        )
        return True

    def _cache_store(self, trial: Trial) -> None:
        """Admit a finished trial's result, unless tainted.

        Only cleanly terminated results qualify; early-stopped trials and
        trials carrying the ``fault_injected`` taint marker (fault-injected,
        retried, timed-out or reclaimed) are refused, and a trial that was
        itself served from the cache is not re-stored (it would inflate the
        replicate count without a fresh measurement).
        """
        if self.eval_cache is None or trial.status is not TrialStatus.TERMINATED:
            return
        if trial.cost.get("cache_hit"):
            return
        tainted = bool(trial.cost.get("fault_injected"))
        self.eval_cache.store(trial.config, trial.result, tainted=tainted)

    def _on_report(self, trial: Trial, step: int, value: float) -> bool:
        with self._scheduler_lock:
            decision = self.scheduler.on_result(trial, step, value)
        return decision is TrialDecision.CONTINUE

    def _log_trial(self, trial: Trial) -> None:
        """Append the finished trial as one JSON line (Tune-style log)."""
        if self._log_path is None:
            return
        import json

        with self._lock:
            with self._log_path.open("a") as handle:
                handle.write(json.dumps(trial.to_dict()) + "\n")

    def _after_trial(self, trial: Trial) -> None:
        with self._scheduler_lock:
            self.scheduler.on_complete(trial)
        try:
            if trial.status is TrialStatus.ERROR:
                self.search_alg.on_trial_error(trial.trial_id, trial.config)
                if self.raise_on_failed_trial:
                    raise TrialError(trial.error or "trial failed", trial_id=trial.trial_id)
                return
            value = trial.result.get(self.metric)
            if value is not None and value == value:  # not NaN
                start = time.perf_counter()
                self.search_alg.on_trial_complete(trial.trial_id, trial.config, value)
                trial.cost["tell_s"] = time.perf_counter() - start
                record(
                    "tell",
                    trial.cost["tell_s"],
                    parent=self._trial_span(trial),
                    trial_id=trial.trial_id,
                )
        finally:
            self._close_trial(trial)
            self._log_trial(trial)
            self._record_finished(trial)
            if self._board is not None:
                value = trial.result.get(self.metric) if trial.result else None
                self._board.trial_finished(
                    trial.trial_id,
                    value=value if isinstance(value, (int, float)) else None,
                    status=getattr(trial.status, "value", str(trial.status)),
                )

    # -- checkpoint / resume ---------------------------------------------------------

    def _record_finished(self, trial: Trial) -> None:
        """Track a finished trial and periodically persist the campaign state."""
        if self._checkpoint is None:
            return
        self._finished.append(trial)
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_every:
            self._flush_checkpoint()

    def _flush_checkpoint(self) -> None:
        if self._checkpoint is None or self._since_checkpoint == 0:
            return
        self._since_checkpoint = 0
        records = [t.to_dict() for t in self._finished]
        if self._checkpoint_takes_state:
            self._checkpoint(records, self.search_alg.state_dict())
        else:
            self._checkpoint(records)

    def _replay_resumed(self, trials: list[Trial]) -> int:
        """Feed checkpointed trials back into the searcher without re-executing.

        Completed trials are ``tell``-ed into the search algorithm so the
        surrogate resumes with its full observation history; errored trials
        surrender through ``on_trial_error``. Every resumed trial counts
        against the ``num_samples`` budget, and every resumed trial is
        re-logged into the fresh trial log so ``<name>.jsonl`` stays a
        complete ledger across resume generations — the archive falls back
        to it when ``checkpoint.json`` is lost to a crash.
        """
        for trial in self._resume_trials:
            trials.append(trial)
            value = trial.result.get(self.metric)
            if (
                trial.status in (TrialStatus.TERMINATED, TrialStatus.STOPPED)
                and value is not None
                and value == value
            ):
                self.search_alg.on_trial_complete(trial.trial_id, trial.config, value)
            elif trial.status is TrialStatus.ERROR:
                self.search_alg.on_trial_error(trial.trial_id, trial.config)
            self._log_trial(trial)
        if self._resume_searcher_state:
            # After replay, so counters restored here are clamped against
            # the full replayed history rather than an empty searcher.
            self.search_alg.load_state(self._resume_searcher_state)
        return len(self._resume_trials)

    # -- main loop --------------------------------------------------------------------

    def run(self) -> ExperimentAnalysis:
        self._board = telemetry().board
        start = time.perf_counter()
        trials: list[Trial] = []
        created = self._replay_resumed(trials)
        backend = create_backend(self.executor_kind, self)
        backend.start()
        futures: dict[Future, Trial] = {}
        cancel = False
        try:
            exhausted = False
            while True:
                # Fill every free backend slot from one batched suggest
                # (a single surrogate fit for model-based searchers).
                while not exhausted and created < self.num_samples:
                    want = min(self.num_samples - created, backend.capacity - len(futures))
                    if want <= 0:
                        break
                    ids = [f"{self.name}_{created + k:05d}" for k in range(want)]
                    configs, suggest_s, fit = self._suggest(ids)
                    if not configs:
                        if not futures:
                            exhausted = True  # nothing pending → truly done
                        break
                    for config in configs:
                        trial = Trial(trial_id=f"{self.name}_{created:05d}", config=config)
                        self._open_trial(trial, suggest_s, fit)
                        trials.append(trial)
                        created += 1
                        if self._cache_lookup(trial):
                            # Completed without occupying an executor
                            # slot; tell the searcher right away.
                            self._after_trial(trial)
                        else:
                            if self._board is not None:
                                self._board.trial_started(trial.trial_id)
                            trial.status = TrialStatus.RUNNING
                            trial._start = time.perf_counter()
                            futures[backend.submit(trial)] = trial
                    if len(configs) < len(ids):
                        break  # limited/exhausted for now: drain first

                if not futures:
                    if exhausted or created >= self.num_samples:
                        break
                    # Every config of a partial batch was served from
                    # the cache: nothing to drain, go refill.
                    continue
                done = backend.wait_any(set(futures))
                for future in done:
                    trial = futures.pop(future)
                    backend.collect(future, trial)
                    self._cache_store(trial)
                    self._after_trial(trial)
                if created >= self.num_samples and not futures:
                    break
        except TrialError as exc:
            # Abort cleanly mid-drain: cancel everything still queued so
            # shutdown does not execute abandoned work, and hand the
            # partial analysis to the caller on the error.
            cancel = True
            for future in futures:
                future.cancel()
            exc.analysis = self._analysis(trials, start)
            raise
        except BaseException:
            cancel = True
            raise
        finally:
            backend.shutdown(cancel=cancel)
        self._flush_checkpoint()
        return self._analysis(trials, start)

    def _fold_worker_payload(self, trial: Trial, payload: Any) -> None:
        """Fold an outcome payload into ``trial`` — the one path for every backend.

        The payload is the shared wire format documented in
        :mod:`repro.search.execution`, produced by
        :func:`~repro.search.execution.execute_trial` on every executor.
        It sets the status, the retry/timeout/taint markers, the cost
        split (clamped to the parent-observed submit→collect wall, so clock
        skew cannot inflate it), publishes the ``evaluate`` record and,
        when present, the ``queue_wait`` record, and merges fabric
        telemetry.
        """
        if not isinstance(payload, dict):
            payload = {"ok": False, "error": "worker recorded no structured outcome"}
        retries = int(payload.get("retries", 0))
        timeouts = int(payload.get("timeouts", 0))
        if retries:
            trial.cost["retries"] = float(retries)
        if timeouts:
            trial.cost["timeouts"] = float(timeouts)
        if payload.get("tainted"):
            trial.cost["fault_injected"] = 1.0
        if payload.get("reclaimed"):
            # The trial was reclaimed from a dead worker's expired lease;
            # the count is provenance (and the taint marker above keeps
            # the measurement out of the evaluation cache).
            trial.cost["reclaimed"] = float(payload["reclaimed"])
        context = telemetry()
        if context.enabled:
            if retries:
                context.registry.counter(
                    "repro_trial_retries_total", "trial attempts retried after failure or timeout"
                ).inc(retries)
            if timeouts:
                context.registry.counter(
                    "repro_trial_timeouts_total", "trial attempts that hit the per-trial timeout"
                ).inc(timeouts)
        if "intermediate" in payload:
            with self._lock:
                trial.intermediate = list(payload["intermediate"])
        if not payload.get("ok"):
            trial.error = str(payload.get("error") or "trial failed")
            trial.status = TrialStatus.ERROR
        elif payload.get("stopped"):
            # Early-stopped: score with the last intermediate value.
            last = trial.intermediate[-1][1] if trial.intermediate else float("nan")
            trial.result = {self.metric: last}
            trial.status = TrialStatus.STOPPED
        else:
            try:
                trial.result = normalize_result(payload["raw"], self.metric)
                trial.status = TrialStatus.TERMINATED
            except Exception as exc:  # noqa: BLE001 - recorded on the trial
                trial.error = f"{type(exc).__name__}: {exc}"
                trial.status = TrialStatus.ERROR
        wall = time.perf_counter() - (trial._start or time.perf_counter())
        trial.runtime_s = wall
        evaluate_s = min(max(float(payload.get("evaluate_s", wall)), 0.0), wall)
        trial.cost["evaluate_s"] = evaluate_s
        parent = self._trial_span(trial)
        if "queue_wait_s" in payload:
            queue_wait_s = min(
                max(float(payload["queue_wait_s"]), 0.0), max(wall - evaluate_s, 0.0)
            )
            trial.cost["queue_wait_s"] = queue_wait_s
            # The wait opened the submit→collect wall.
            context.record(
                "queue_wait", queue_wait_s, parent=parent, ago=wall, trial_id=trial.trial_id
            )
        # A payload without evaluate_s never ran the trainable: its execute
        # span covers the wall but adds no evaluate sample. Children finish
        # (and stream to watchdog subscribers) before their trial parent,
        # so each carries the trial identity itself.
        context.record(
            "evaluate" if "evaluate_s" in payload else "execute",
            evaluate_s,
            parent=parent,
            error=trial.error,
            trial_id=trial.trial_id,
            status=trial.status.value,
        )
        if payload.get("telemetry") is not None:
            fabric.merge_payload(
                payload["telemetry"], parent=parent, attributes={"trial_id": trial.trial_id}
            )

    def _analysis(self, trials: list[Trial], start: float) -> ExperimentAnalysis:
        return ExperimentAnalysis(
            name=self.name,
            metric=self.metric,
            mode=self.mode,
            trials=trials,
            wall_clock_s=time.perf_counter() - start,
        )


def run(
    trainable: Trainable,
    *,
    space: Space | None = None,
    metric: str,
    mode: str = "min",
    num_samples: int = 10,
    search_alg: SearchAlgorithm | None = None,
    scheduler: TrialScheduler | None = None,
    executor: str = "sync",
    max_workers: int = 4,
    name: str = "experiment",
    seed: int | None = None,
    log_dir: str | None = None,
    batch_size: int = 1,
    refit_every: int = 1,
    backend_options: dict[str, Any] | None = None,
) -> ExperimentAnalysis:
    """``tune.run``-style entry point.

    Either pass a ``search_alg`` or a ``space`` (then a default
    :class:`SurrogateSearch` with Extra-Trees and LHS initialization is
    built, matching the paper's Listing 1 configuration). ``batch_size``
    and ``refit_every`` tune the default searcher's suggest hot path:
    batched asks amortize one surrogate fit over several suggestions, and
    refits are throttled to every ``refit_every`` fresh observations.
    ``backend_options`` parameterizes the execution backend (e.g. the
    ``"store"`` executor's ``store_dir``).
    """
    if search_alg is None:
        if space is None:
            raise ValidationError("pass either search_alg or space")
        search_alg = SurrogateSearch(
            space,
            mode=mode,
            base_estimator="ET",
            initial_point_generator="lhs",
            acq_func="gp_hedge",
            n_initial_points=max(1, min(10, num_samples // 2)),
            random_state=seed,
            batch_size=batch_size,
            refit_every=refit_every,
        )
    runner = TrialRunner(
        trainable,
        search_alg,
        metric=metric,
        mode=mode,
        scheduler=scheduler,
        num_samples=num_samples,
        executor=executor,
        max_workers=max_workers,
        name=name,
        log_dir=log_dir,
        backend_options=backend_options,
    )
    return runner.run()
