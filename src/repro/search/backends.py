"""Pluggable trial-execution backends for the :class:`TrialRunner`.

The runner's main loop is backend-agnostic: it suggests configurations,
hands trials to a backend, and folds completed outcomes back into the
search algorithm. Backends own only *where* a trial executes; every one of
them runs it through :func:`~repro.search.execution.execute_trial` and
hands the resulting outcome payload to the one
:meth:`ExecutionBackend.collect`:

- :class:`SyncBackend` — deterministic sequential execution in the caller
  thread (tests, debugging).
- :class:`ThreadBackend` — a thread pool; supports schedulers and
  intermediate reporting.
- :class:`ProcessBackend` — a process pool; the trainable is registered
  once per worker by the pool initializer, submissions ship compact trial
  specs, and outcomes return as structured payloads.
- :class:`StoreBackend` — **distributed** execution through a shared
  file-backed :class:`~repro.search.store.TrialStore`: trials are
  persisted to the campaign ledger, workers (local child processes and/or
  elastic ``python -m repro worker <run-dir>`` joiners, possibly on other
  hosts) claim them under lease+heartbeat, and the parent folds ledgered
  outcomes back exactly like process-pool payloads — retries, taint
  markers and telemetry included.

Third parties can plug in their own transport with
:func:`register_backend`; the runner resolves backend names through
:func:`available_backends` at validation time.
"""

from __future__ import annotations

import abc
import os
import subprocess
import sys
import time
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.errors import TrialError, ValidationError
from repro.observability.telemetry import telemetry
from repro.search.execution import execute_trial, pool_init
from repro.search.store import DEFAULT_LEASE_S, TrialStore
from repro.search.trial import Trial

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.search.runner import TrialRunner

__all__ = [
    "ExecutionBackend",
    "SyncBackend",
    "ThreadBackend",
    "ProcessBackend",
    "StoreBackend",
    "register_backend",
    "available_backends",
    "backend_class",
    "create_backend",
]


class ExecutionBackend(abc.ABC):
    """One way of executing trials on behalf of a :class:`TrialRunner`.

    A backend is constructed per run with the owning runner, whose
    trainable and retry/timeout knobs it ships to
    :func:`~repro.search.execution.execute_trial`. A submitted future
    resolves to that function's outcome payload; :meth:`collect` folds it
    through :meth:`TrialRunner._fold_worker_payload`, so every backend
    reports results, costs and spans identically. Lifecycle::

        backend.start()
        future = backend.submit(trial)        # any number of times
        done = backend.wait_any(futures)      # blocks for >=1 completion
        backend.collect(future, trial)        # fold the outcome into trial
        backend.shutdown(cancel=...)          # always called (finally)
    """

    #: registry key and ``TrialRunner(executor=...)`` name.
    name: str = ""
    #: whether trials can consult the scheduler mid-flight (thread/sync).
    supports_mid_trial_scheduling: bool = True

    def __init__(self, runner: "TrialRunner") -> None:
        self.runner = runner

    @property
    def capacity(self) -> int:
        """How many trials may be in flight (sizes the suggest batches)."""
        return self.runner.max_workers

    def start(self) -> None:
        """Acquire executor resources (pools, stores, worker processes)."""

    @abc.abstractmethod
    def submit(self, trial: Trial) -> Future:
        """Dispatch one trial; the future resolves when it finishes."""

    def wait_any(self, futures: set[Future]) -> set[Future]:
        """Block until at least one submitted trial completes."""
        done, _ = wait(futures, return_when=FIRST_COMPLETED)
        return done

    def collect(self, future: Future, trial: Trial) -> None:
        """Fold a completed future's outcome payload into ``trial``."""
        try:
            payload = future.result()
        except Exception as exc:  # noqa: BLE001 - harness failure (pickling, pool death)
            payload = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        self.runner._fold_worker_payload(trial, payload)

    def shutdown(self, cancel: bool = False) -> None:
        """Release resources; ``cancel`` abandons queued work."""

    def _execute(self, trial: Trial, submitted_unix: float | None = None) -> dict[str, Any]:
        """Run ``trial`` in this process, with mid-trial reporting if wanted."""
        runner = self.runner
        return execute_trial(
            runner.trainable,
            dict(trial.config),
            runner.max_retries,
            runner.retry_backoff_s,
            runner.trial_timeout_s,
            trial.trial_id,
            submitted_unix,
            runner._reporter_factory(trial),
        )


class SyncBackend(ExecutionBackend):
    """Sequential in-caller execution; ``submit`` returns a done future."""

    name = "sync"

    @property
    def capacity(self) -> int:
        return 1

    def submit(self, trial: Trial) -> Future:
        future: Future = Future()
        future.set_result(self._execute(trial))
        return future


class ThreadBackend(ExecutionBackend):
    """Thread-pool execution with mid-trial scheduler consultation."""

    name = "thread"

    def start(self) -> None:
        self._pool = ThreadPoolExecutor(max_workers=self.runner.max_workers)

    def submit(self, trial: Trial) -> Future:
        return self._pool.submit(self._execute, trial, time.time())

    def shutdown(self, cancel: bool = False) -> None:
        self._pool.shutdown(wait=True, cancel_futures=cancel)


class ProcessBackend(ExecutionBackend):
    """Process-pool execution via the picklable :func:`execute_trial`."""

    name = "process"
    supports_mid_trial_scheduling = False

    def start(self) -> None:
        # The initializer registers the trainable once per worker, so each
        # submission ships only a compact per-trial spec. Workers join the
        # telemetry fabric whenever the parent is observing.
        self._pool = ProcessPoolExecutor(
            max_workers=self.runner.max_workers,
            initializer=pool_init,
            initargs=(self.runner.trainable, telemetry().enabled, self.runner.name),
        )

    def submit(self, trial: Trial) -> Future:
        runner = self.runner
        # trainable=None: the worker uses its pool_init registration.
        return self._pool.submit(
            execute_trial,
            None,
            dict(trial.config),
            runner.max_retries,
            runner.retry_backoff_s,
            runner.trial_timeout_s,
            trial.trial_id,
            time.time(),  # wall clock: the only timeline workers share
        )

    def shutdown(self, cancel: bool = False) -> None:
        self._pool.shutdown(wait=True, cancel_futures=cancel)


class StoreBackend(ExecutionBackend):
    """Distributed execution through a shared file-backed trial store.

    ``TrialRunner(backend_options=...)`` knobs:

    - ``store_dir`` (required) — the store directory, shared with workers.
    - ``spawn`` — ``"mp"`` (default) forks ``local_workers`` child
      processes running :func:`repro.search.worker.run_worker` on this
      runner's trainable; ``"cli"`` launches ``python -m repro worker
      <run_dir>`` subprocesses (workers rebuild the evaluator from
      ``optimizer_conf.json``, so the trainable need not be picklable);
      ``"none"`` spawns nothing and relies on elastic external joiners.
    - ``local_workers`` — children to spawn (default ``max_workers``).
    - ``run_dir`` — campaign directory, required for ``spawn="cli"``.
    - ``lease_s`` / ``poll_s`` — worker lease duration and the parent's
      completion-poll interval.
    """

    name = "store"
    supports_mid_trial_scheduling = False

    def start(self) -> None:
        runner = self.runner
        options = dict(runner.backend_options or {})
        store_dir = options.get("store_dir")
        if store_dir is None:
            raise ValidationError(
                "the store backend needs backend_options={'store_dir': ...}"
            )
        self.lease_s = float(options.get("lease_s", DEFAULT_LEASE_S))
        self.poll_s = float(options.get("poll_s", 0.05))
        self.spawn = str(options.get("spawn", "mp"))
        if self.spawn not in ("mp", "cli", "none"):
            raise ValidationError(f"unknown store spawn mode {self.spawn!r}")
        self.run_dir = options.get("run_dir")
        if self.spawn == "cli" and self.run_dir is None:
            raise ValidationError("spawn='cli' needs backend_options={'run_dir': ...}")
        local_workers = int(options.get("local_workers", runner.max_workers))
        self.store = TrialStore.create(
            store_dir,
            name=runner.name,
            metric=runner.metric,
            max_retries=runner.max_retries,
            retry_backoff_s=runner.retry_backoff_s,
            trial_timeout_s=runner.trial_timeout_s,
            lease_s=self.lease_s,
            telemetry=telemetry().enabled,
            # Each campaign session starts a fresh ledger: resume replays
            # finished trials through the checkpoint layer, and a stale
            # ``close`` event must not poison the new session's workers.
            fresh=True,
        )
        self._trial_ids: dict[Future, str] = {}
        self._procs: list[Any] = []
        self._popen: list[subprocess.Popen] = []
        self._warned_no_workers = False
        self._dead_since: float | None = None
        if self.spawn == "mp":
            import multiprocessing

            from repro.search.worker import _local_worker_main

            ctx = multiprocessing.get_context()
            for index in range(local_workers):
                proc = ctx.Process(
                    target=_local_worker_main,
                    args=(str(self.store.root), runner.trainable, f"{runner.name}/local{index}"),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
        elif self.spawn == "cli":
            pkg_root = str(Path(__file__).resolve().parents[2])
            env = dict(os.environ)
            env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
            for index in range(local_workers):
                log = (self.store.root / f"worker-local{index}.log").open("w")
                self._popen.append(
                    subprocess.Popen(
                        [
                            sys.executable,
                            "-m",
                            "repro",
                            "worker",
                            str(self.run_dir),
                            "--runner-id",
                            f"{runner.name}/local{index}",
                        ],
                        stdout=log,
                        stderr=subprocess.STDOUT,
                        env=env,
                    )
                )

    def submit(self, trial: Trial) -> Future:
        self.store.add_trial(trial.trial_id, trial.config)
        future: Future = Future()
        self._trial_ids[future] = trial.trial_id
        return future

    def wait_any(self, futures: set[Future]) -> set[Future]:
        while True:
            state = self.store.snapshot()
            done: set[Future] = set()
            for future in futures:
                info = state.trials.get(self._trial_ids.get(future, ""))
                if info is not None and info.status == "done" and not future.done():
                    future.set_result(info.outcome)
                    done.add(future)
            if done:
                return done
            self._check_liveness(state)
            time.sleep(self.poll_s)

    def _check_liveness(self, state: Any) -> None:
        """Fail fast when work can no longer make progress.

        With spawned local workers: if every child exited while trials are
        unfinished and no peer holds a live lease, the campaign is stuck —
        raise instead of polling forever (a short grace period tolerates an
        elastic joiner racing in). Without spawned workers, warn once that
        the campaign is waiting for ``python -m repro worker`` joiners.
        """
        spawned = self._procs or self._popen
        liveness = self.store.worker_liveness(state=state)
        any_live = any(info["lease_state"] == "live" for info in liveness)
        if not spawned:
            if not self._warned_no_workers and not any_live:
                self._warned_no_workers = True
                warnings.warn(
                    "store backend has no local workers; waiting for "
                    "'python -m repro worker <run-dir>' processes to join",
                    RuntimeWarning,
                    stacklevel=4,
                )
            return
        alive = any(p.is_alive() for p in self._procs) or any(
            p.poll() is None for p in self._popen
        )
        if alive or any_live:
            self._dead_since = None
            return
        now = time.monotonic()
        if self._dead_since is None:
            self._dead_since = now
            return
        if now - self._dead_since > max(2.0, 2 * self.poll_s):
            unfinished = len(state.unfinished())
            raise TrialError(
                f"all local store workers exited with {unfinished} trial(s) "
                "unfinished and no live leases — see the worker logs in "
                f"{self.store.root}"
            )

    def shutdown(self, cancel: bool = False) -> None:
        self.store.close()
        deadline = time.monotonic() + max(self.lease_s, 5.0)
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        for proc in self._popen:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()


_BACKENDS: dict[str, type[ExecutionBackend]] = {}


def register_backend(cls: type[ExecutionBackend]) -> type[ExecutionBackend]:
    """Register an :class:`ExecutionBackend` under its ``name``."""
    if not cls.name:
        raise ValidationError(f"{cls.__name__} declares no backend name")
    _BACKENDS[cls.name] = cls
    return cls


def available_backends() -> tuple[str, ...]:
    """Registered backend names, for ``executor=`` validation."""
    return tuple(sorted(_BACKENDS))


def backend_class(name: str) -> type[ExecutionBackend]:
    """Resolve a backend class by name; raises for unknown executors."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValidationError(f"unknown executor {name!r}") from None


def create_backend(name: str, runner: "TrialRunner") -> ExecutionBackend:
    return backend_class(name)(runner)


for _cls in (SyncBackend, ThreadBackend, ProcessBackend, StoreBackend):
    register_backend(_cls)
