"""The one trial-execution path every backend runs.

Whichever :class:`~repro.search.backends.ExecutionBackend` dispatched a
trial — the sync caller, a thread-pool slot, a process-pool child, or a
store-backed worker on another host — the trial executes through
:func:`execute_trial`, so retry, timeout, taint and ``SystemExit``
semantics are defined once:

- :func:`normalize_result` — coerce a trainable's return value into the
  float metrics dict the parent folds into the :class:`Trial`;
- :func:`attempt_once` / :func:`process_attempts` — one attempt (with the
  per-attempt timeout isolation thread) and the retry-with-backoff loop,
  both publishing the attempt index through :mod:`repro.faults.context`;
- :func:`execute_trial` — the timed run: queue wait, the attempt loop, the
  evaluate measurement and (in a fabric worker) the telemetry drain,
  returning the structured outcome payload, from which the parent's
  runner publishes the ``queue_wait`` and ``evaluate`` records;
- :func:`pool_init` — the pool initializer that registers the trainable
  once per worker and joins the telemetry fabric.

The **outcome payload** is the shared wire format between any executor and
the parent's :meth:`TrialRunner._fold_worker_payload`::

    {"ok": bool, "raw"/"error": ..., "retries": int, "timeouts": int,
     "tainted": bool, "evaluate_s": float, ["stopped": True,
     "intermediate": [...], "queue_wait_s": float, "telemetry": {...}]}

Store-backed workers (:mod:`repro.search.worker`) persist exactly this
payload into the trial ledger, so distributed outcomes replay through the
same parent-side folding as local ones.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

from repro.errors import TrialError
from repro.faults.context import injection_occurred, reset_injection_flag, set_current_attempt
from repro.observability import fabric
from repro.observability.telemetry import INERT, measure
from repro.search.trial import Reporter, StopTrial

__all__ = [
    "Trainable",
    "normalize_result",
    "attempt_once",
    "process_attempts",
    "execute_trial",
    "pool_init",
]

Trainable = Callable[..., Any]


def normalize_result(raw: Any, metric: str) -> dict[str, float]:
    """Coerce a trainable's return value into a float metrics dict.

    The target metric is strict (a non-numeric value is a trial error);
    auxiliary entries that do not convert to float (e.g. a ``"deployment"``
    tag string) are silently dropped rather than failing the whole trial.
    """
    if isinstance(raw, dict):
        if metric not in raw:
            raise TrialError(f"trainable result lacks metric {metric!r}: {sorted(raw)}")
        out: dict[str, float] = {metric: float(raw[metric])}
        for key, value in raw.items():
            if key == metric:
                continue
            try:
                out[key] = float(value)
            except (TypeError, ValueError):
                continue
        return out
    return {metric: float(raw)}


def attempt_once(
    trainable: Trainable,
    config: dict[str, Any],
    timeout_s: float | None,
    attempt: int = 0,
    reporter: Optional[Reporter] = None,
) -> tuple[str, Any, bool]:
    """One attempt of a trial.

    Returns ``(status, payload, injected)`` where status is ``"ok"`` /
    ``"stopped"`` / ``"error"`` / ``"timeout"`` and ``injected`` records
    whether a fault was injected into the attempt. The attempt index and
    the injection marker are thread-local, so both are set and read on the
    thread that runs the trainable. ``SystemExit`` raised by the trainable
    is one trial's error; only ``KeyboardInterrupt`` propagates.
    """
    if timeout_s is None:
        set_current_attempt(attempt)
        reset_injection_flag()
        try:
            raw = trainable(config) if reporter is None else trainable(config, reporter)
            return ("ok", raw, injection_occurred())
        except StopTrial:
            return ("stopped", None, injection_occurred())
        except KeyboardInterrupt:
            raise
        except BaseException as exc:  # noqa: BLE001 - SystemExit too: one trial's error
            return ("error", f"{type(exc).__name__}: {exc}", injection_occurred())
    box: list[tuple[str, Any, bool]] = []

    def _worker() -> None:
        try:
            box.append(attempt_once(trainable, config, None, attempt, reporter))
        except BaseException as exc:  # noqa: BLE001 - keep the box non-empty
            box.append(("error", f"{type(exc).__name__}: {exc}", True))

    # On timeout the thread is abandoned (Python cannot preempt it); it only
    # ever touches this attempt's own reporter, never the folded trial.
    worker = threading.Thread(target=_worker, name=f"attempt{attempt}", daemon=True)
    worker.start()
    worker.join(timeout_s)
    if worker.is_alive():
        return ("timeout", f"TrialTimeout: exceeded {timeout_s}s", True)
    if not box:
        return ("error", "trial worker exited without reporting a result", True)
    return box[0]


#: per-worker registration installed by :func:`pool_init` — the trainable
#: is pickled once per worker process instead of once per submitted trial.
_WORKER_TRAINABLE: Optional[Trainable] = None


def pool_init(
    trainable: Trainable, telemetry: bool = False, runner_name: str = "experiment"
) -> None:
    """Process-pool initializer: register the trainable once per worker.

    With ``telemetry`` the worker also joins the cross-process fabric —
    a worker-local tracer/registry/perf recorder captures everything the
    trainable's instrumentation records, shipped back per trial.
    """
    global _WORKER_TRAINABLE
    _WORKER_TRAINABLE = trainable
    if telemetry:
        fabric.activate_worker(runner_name)


def process_attempts(
    trainable: Trainable,
    config: dict[str, Any],
    max_retries: int,
    backoff_s: float,
    timeout_s: float | None,
    reporter: Optional[Callable[[], Reporter]] = None,
) -> dict[str, Any]:
    """The retry/timeout loop: attempts until one succeeds or is stopped.

    ``reporter`` builds a fresh :class:`Reporter` per attempt, so an
    abandoned (timed-out) attempt can only touch its own; the final
    attempt's reports travel back as ``intermediate``. The trial is
    ``tainted`` — refused by the evaluation cache — when a fault was
    injected into its final attempt or any attempt was retried or timed
    out.
    """
    retries = 0
    timeouts = 0
    report: Optional[Reporter] = None
    for attempt in range(int(max_retries) + 1):
        report = None if reporter is None else reporter()
        status, payload, injected = attempt_once(trainable, config, timeout_s, attempt, report)
        if status == "timeout":
            timeouts += 1
        if status in ("ok", "stopped") or attempt == max_retries:
            break
        retries += 1
        if backoff_s > 0:
            time.sleep(backoff_s * (2**attempt))
    ok = status in ("ok", "stopped")
    outcome: dict[str, Any] = {
        "ok": ok,
        "raw" if ok else "error": payload,
        "retries": retries,
        "timeouts": timeouts,
        "tainted": bool(injected or retries or timeouts),
    }
    if status == "stopped":
        outcome["stopped"] = True
    if report is not None:
        outcome["intermediate"] = report.reports()
    return outcome


def execute_trial(
    trainable: Optional[Trainable],
    config: dict[str, Any],
    max_retries: int = 0,
    backoff_s: float = 0.0,
    timeout_s: float | None = None,
    trial_id: str | None = None,
    submitted_unix: float | None = None,
    reporter: Optional[Callable[[], Reporter]] = None,
) -> dict[str, Any]:
    """Run one trial and return its outcome payload (picklable entry).

    Every backend executes trials through this function: in the caller
    (sync), on a pool thread, in a process-pool child or in a store
    worker. ``trainable=None`` uses the per-worker registration from
    :func:`pool_init`, so process submissions ship only the compact trial
    spec. Never raises for trainable failures — the payload carries the
    outcome plus retry/timeout counts and the taint marker.

    ``submitted_unix`` (the wall clock at submission, the only timeline
    processes share) adds a ``queue_wait_s`` measurement; the sync
    backend passes none, as it has no queue. Both durations travel in the
    payload and the parent publishes them. In a fabric worker the attempts
    run inside an ``evaluate`` span, so the trainable's spans ship back in
    ``telemetry`` nested under one root.
    """
    if trainable is None:
        trainable = _WORKER_TRAINABLE
        if trainable is None:  # pragma: no cover - defensive
            return {"ok": False, "error": "no trainable registered in worker", "retries": 0, "timeouts": 0, "tainted": True}
    queue_wait = None
    if submitted_unix is not None:
        queue_wait = max(0.0, time.time() - float(submitted_unix))
    in_worker = fabric.worker_active()
    start = time.perf_counter()
    with measure("worker_evaluate", trial_id=trial_id) if in_worker else INERT:
        outcome = process_attempts(trainable, config, max_retries, backoff_s, timeout_s, reporter)
    outcome["evaluate_s"] = time.perf_counter() - start
    if queue_wait is not None:
        outcome["queue_wait_s"] = queue_wait
    if in_worker:
        outcome["telemetry"] = fabric.drain_worker()
    return outcome
