"""The Listing-1 campaign imports only what it runs.

Each check runs in a fresh interpreter, so modules that other tests
already imported cannot hide a regression. ``scipy.stats`` (≈0.9 s),
``scipy.linalg``/``scipy.optimize`` (the GP surrogate's dependencies) and
``networkx`` stay out of the program's import graph, both after importing
``repro.plantnet`` and after a sync campaign whose Extra-Trees fits and
gp_hedge acquisitions really ran, so their cost cannot move into the timed
campaign either.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

UNUSED = ("scipy.stats", "scipy.optimize", "scipy.linalg", "networkx")

_REPORT = """
import json
print(json.dumps({
    "loaded": [name for name in UNUSED if name in sys.modules],
    **report,
}))
"""


def _run(body: str, tmp_path: Path) -> dict:
    script = (
        "import sys\n"
        f"UNUSED = {UNUSED!r}\n"
        "report = {}\n" + textwrap.dedent(body) + _REPORT
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=240,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_importing_the_campaign_loads_no_unused_module(tmp_path):
    report = _run(
        """
        import repro.plantnet
        import repro.surrogate
        repro.surrogate.get_surrogate("ET")
        """,
        tmp_path,
    )
    assert report["loaded"] == []


def test_sync_campaign_with_fits_and_acquisitions_loads_no_unused_module(tmp_path):
    report = _run(
        """
        from collections import Counter

        from repro.bayesopt.optimizer import Optimizer
        from repro.plantnet import PlantNetOptimization
        from repro.surrogate.forest import ExtraTreesRegressor

        calls = Counter()
        acquisition = Optimizer._acquisition
        fit = ExtraTreesRegressor.fit

        def counted_acquisition(self, name, *args, **kwargs):
            calls[name] += 1
            return acquisition(self, name, *args, **kwargs)

        def counted_fit(self, *args, **kwargs):
            calls["fit"] += 1
            return fit(self, *args, **kwargs)

        Optimizer._acquisition = counted_acquisition
        ExtraTreesRegressor.fit = counted_fit
        summary = PlantNetOptimization(
            simultaneous_requests=10,
            duration=40.0,
            warmup=10.0,
            n_initial_points=3,
            num_samples=12,
            workdir="work",
            seed=0,
        ).run()
        report = {"calls": dict(calls), "best": summary.best_value}
        """,
        tmp_path,
    )
    calls = report["calls"]
    assert calls.get("fit", 0) >= 1, calls
    assert calls.get("EI", 0) + calls.get("PI", 0) >= 1, calls
    assert report["best"] > 0
    assert report["loaded"] == []
