"""Byte-identity of the DES engine against recorded golden digests.

Every case runs one engine simulation and hashes its full output: the
``EngineRunResult.to_dict()`` record, every sampled series point and, when
present, every per-request trace. Floats enter the hash through ``repr``,
which round-trips exactly, so a digest matches only if every metric is the
same to the last bit. A rewrite of the event loop, the resources or the
engine hot path must leave all of them unchanged.

The digests in ``data/des_golden_digests.json`` were recorded with the
event loop as it stood before the same-instant inline rule, the single run
loop and block-drawn noise. Regenerate them only for a deliberate change of
the model, with::

    PYTHONPATH=src python -m tests.test_des_golden > tests/data/des_golden_digests.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.engine import (
    BASELINE_CONFIG,
    ArrivalSchedule,
    HybridKnobs,
    IdentificationEngine,
    ThreadPoolConfig,
    WorkloadSpec,
    simulate_hybrid,
)
from repro.engine.metrics import EngineRunResult

GOLDEN_PATH = Path(__file__).parent / "data" / "des_golden_digests.json"

#: corners of the Eq. 2 box (http/download/simsearch in [20, 60], extract in
#: [3, 9]) plus the paper's baseline.
LISTING1_CONFIGS = {
    "low": ThreadPoolConfig(http=20, download=20, extract=3, simsearch=20),
    "high": ThreadPoolConfig(http=60, download=60, extract=9, simsearch=60),
    "mixed_a": ThreadPoolConfig(http=20, download=60, extract=9, simsearch=20),
    "mixed_b": ThreadPoolConfig(http=60, download=20, extract=3, simsearch=60),
    "baseline": BASELINE_CONFIG,
}
SEEDS = (1, 2)

CLOSED = WorkloadSpec(simultaneous_requests=80, duration=150.0, warmup=30.0)


def _canonical(value: Any) -> Any:
    """JSON-able form with every float spelled by its exact ``repr``."""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest(result: EngineRunResult) -> str:
    """SHA-256 over the result record, every series and every trace."""
    record = result.to_dict()
    record.pop("wall_time_s", None)  # the hybrid run's wall clock, not model output
    payload = {
        "result": record,
        "series": {name: list(series) for name, series in result.series.as_dict().items()},
        "traces": [
            (trace.submitted, trace.response_time, trace.tasks) for trace in result.traces
        ],
    }
    text = json.dumps(_canonical(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _closed(config: ThreadPoolConfig, seed: int) -> Callable[[], EngineRunResult]:
    return lambda: IdentificationEngine(config, CLOSED, seed=seed).run()


def _run(workload: WorkloadSpec, *, seed: int = 1, trace: bool = False) -> EngineRunResult:
    return IdentificationEngine(BASELINE_CONFIG, workload, seed=seed, trace=trace).run()


CASES: dict[str, Callable[[], EngineRunResult]] = {
    f"closed-{name}-seed{seed}": _closed(config, seed)
    for name, config in LISTING1_CONFIGS.items()
    for seed in SEEDS
}
CASES.update(
    {
        "open-poisson": lambda: _run(
            WorkloadSpec(arrival_rate=15.0, duration=150.0, warmup=30.0)
        ),
        "open-piecewise": lambda: _run(
            WorkloadSpec(
                arrival_schedule=ArrivalSchedule.piecewise([(0.0, 8.0), (70.0, 20.0)]),
                duration=150.0,
                warmup=30.0,
            )
        ),
        "open-trace": lambda: _run(
            WorkloadSpec(
                # bursts of three same-instant arrivals, 20 requests/s
                arrival_schedule=ArrivalSchedule.from_trace(
                    [0.15 * (i // 3) for i in range(2400)]
                ),
                duration=150.0,
                warmup=30.0,
            )
        ),
        "scheduled-population": lambda: _run(
            WorkloadSpec(
                simultaneous_requests=80,
                population_schedule=((0.0, 30), (50.0, 80), (100.0, 10)),
                duration=150.0,
                warmup=30.0,
            )
        ),
        "closed-traced": lambda: _run(CLOSED, seed=3, trace=True),
        "hybrid": lambda: simulate_hybrid(
            BASELINE_CONFIG,
            ArrivalSchedule.diurnal(4.0, 12.0, period=1800.0, steps=12),
            duration=1800.0,
            knobs=HybridKnobs(),
            seed=3,
        ),
    }
)


def _golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_file_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_des_output_is_byte_identical(case):
    assert digest(CASES[case]()) == _golden()[case]


def test_digest_sees_the_last_bit():
    result = CASES["closed-baseline-seed1"]()
    before = digest(result)
    result.pool_busy["http"] = result.pool_busy["http"] + 2.0**-40
    assert digest(result) != before


if __name__ == "__main__":
    print(json.dumps({name: digest(CASES[name]()) for name in sorted(CASES)}, indent=2))
