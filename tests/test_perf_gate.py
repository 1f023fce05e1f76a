"""Tests for the perf baseline store and the regression gate.

The gate must diff clean on identical runs, fail on an injected 2x
suggest-latency regression, and understand every profile source it
claims to (perf_profile.json, run directories, recorded baselines and the
``ops`` blocks the BENCH benchmarks write).
"""

import json
import math
import random

import pytest

from repro.cli import main
from repro.errors import ValidationError
from repro.observability.digest import PERF_PROFILE_FILE, PerfRecorder
from repro.observability.perf import (
    BASELINE_SCHEMA,
    diff_profiles,
    load_profile,
    record_baseline,
)


def _profile(tmp_path, name, *, scale=1.0, n=200, seed=9):
    """Write a perf_profile.json with deterministic suggest/tell latencies."""
    rng = random.Random(seed)
    perf = PerfRecorder()
    for _ in range(n):
        perf.record("suggest", scale * rng.uniform(0.008, 0.012))
        perf.record("tell", rng.uniform(0.001, 0.002))
    path = tmp_path / name
    path.mkdir()
    perf.export_json(path / PERF_PROFILE_FILE)
    return path


class TestLoadProfile:
    def test_loads_profile_file_and_run_dir(self, tmp_path):
        run_dir = _profile(tmp_path, "run")
        by_dir = load_profile(run_dir)
        by_file = load_profile(run_dir / PERF_PROFILE_FILE)
        assert set(by_dir) == set(by_file) == {"suggest", "tell"}
        assert by_dir["suggest"].digest is not None
        assert math.isfinite(by_dir["suggest"].value("p90"))

    @staticmethod
    def _load_bench(tmp_path, name, payload, bench_ops):
        """Write a BENCH payload the way its benchmark does, then load it."""
        payload["ops"] = bench_ops(payload)
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return load_profile(path)

    def test_loads_bench_campaign_shape(self, tmp_path):
        from benchmarks.test_campaign_throughput import bench_ops

        payload = {
            "baseline": {
                "trials": 500,
                "wall_s": 10.0,
                "suggest": {"p50_ms": 2.0, "p90_ms": 4.0, "p99_ms": 8.0},
                "tell": {"p50_ms": 0.5, "p90_ms": 1.0, "p99_ms": 2.0},
            },
            "n_trials": 500,
        }
        ops = self._load_bench(tmp_path, "BENCH_campaign.json", payload, bench_ops)
        assert ops["baseline.suggest"].value("p50") == pytest.approx(0.002)
        assert ops["baseline.trial"].value("mean") == pytest.approx(0.02)

    def test_loads_bench_eval_shape(self, tmp_path):
        from benchmarks.test_eval_throughput import bench_ops

        payload = {
            "campaign": {"fast": {"trials": 16, "wall_s": 8.0}},
            "des": {"fast": {"events_per_sec": 50_000.0}},
        }
        ops = self._load_bench(tmp_path, "BENCH_eval.json", payload, bench_ops)
        assert ops["campaign.fast.trial"].value("mean") == pytest.approx(0.5)
        assert ops["des.fast.event"].value("mean") == pytest.approx(2e-5)

    def test_loads_bench_hybrid_shape(self, tmp_path):
        from benchmarks.test_workload_scaling_hybrid import bench_ops

        payload = {
            "hybrid": {"wall_s": 0.8, "des_epochs": 32},
            "des": {"wall_s": 80.0, "completed": 1_000_000},
            "speedup": 100.0,
        }
        ops = self._load_bench(tmp_path, "BENCH_hybrid.json", payload, bench_ops)
        assert set(ops) == {"hybrid.window", "des.request"}
        assert ops["hybrid.window"].value("mean") == pytest.approx(0.025)
        assert ops["des.request"].value("mean") == pytest.approx(8e-5)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(ValidationError):
            load_profile(path)
        path.write_text("not json")
        with pytest.raises(ValidationError):
            load_profile(path)
        with pytest.raises(ValidationError):
            load_profile(tmp_path / "missing.json")

    def test_committed_baselines_parse(self):
        from pathlib import Path

        baselines = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
        for name in ("BENCH_campaign.json", "BENCH_eval.json", "BENCH_hybrid.json"):
            ops = load_profile(baselines / name)
            assert ops, name


class TestRecordBaseline:
    def test_roundtrip(self, tmp_path):
        run_dir = _profile(tmp_path, "run")
        out = record_baseline(run_dir, tmp_path / "baseline.json")
        data = json.loads(out.read_text())
        assert data["schema"] == BASELINE_SCHEMA
        ops = load_profile(out)
        assert ops["suggest"].digest is not None
        # recorded baseline diffs clean against its own source
        assert diff_profiles(out, run_dir).ok


class TestDiffProfiles:
    def test_identical_runs_diff_clean(self, tmp_path):
        run = _profile(tmp_path, "run")
        diff = diff_profiles(run, run)
        assert diff.ok
        assert diff.rows
        assert all(row["verdict"] == "ok" for row in diff.rows)

    def test_2x_suggest_regression_fails(self, tmp_path):
        base = _profile(tmp_path, "base", seed=9)
        slow = _profile(tmp_path, "slow", scale=2.0, seed=10)
        diff = diff_profiles(base, slow)
        assert not diff.ok
        ops_with_regression = {row["op"] for row in diff.regressions}
        assert "suggest" in ops_with_regression
        # tell is untouched
        assert all(row["op"] != "tell" for row in diff.regressions)
        assert "REGRESSION" in diff.render()

    def test_improvement_verdict(self, tmp_path):
        base = _profile(tmp_path, "base", scale=2.0, seed=9)
        fast = _profile(tmp_path, "fast", scale=1.0, seed=10)
        diff = diff_profiles(base, fast)
        assert diff.ok
        assert any(row["op"] == "suggest" for row in diff.improvements)

    def test_one_sided_ops_skipped(self, tmp_path):
        base = _profile(tmp_path, "base")
        extra = load_profile(base)
        trimmed = {op: s for op, s in extra.items() if op != "tell"}
        diff = diff_profiles(extra, trimmed)
        assert diff.ok
        assert any(entry.startswith("tell") for entry in diff.skipped)

    def test_ops_filter(self, tmp_path):
        base = _profile(tmp_path, "base")
        slow = _profile(tmp_path, "slow", scale=2.0)
        diff = diff_profiles(base, slow, ops=["tell"])
        assert diff.ok  # the regressed suggest op was filtered out

    def test_bad_threshold(self, tmp_path):
        run = _profile(tmp_path, "run")
        with pytest.raises(ValidationError):
            diff_profiles(run, run, threshold=0.0)

    def test_serializable(self, tmp_path):
        run = _profile(tmp_path, "run")
        report = diff_profiles(run, run).to_dict()
        json.dumps(report)
        assert report["ok"] is True


class TestPerfCli:
    def test_record_then_diff_exit_codes(self, tmp_path, capsys):
        run = _profile(tmp_path, "run")
        baseline = tmp_path / "baseline.json"
        assert main(["perf", "record", str(run), "--out", str(baseline)]) == 0
        # identical candidate: exit 0
        assert main(["perf", "diff", str(baseline), str(run)]) == 0
        out = capsys.readouterr().out
        assert "perf diff" in out
        # regressed candidate: exit 1 + machine-readable report
        slow = _profile(tmp_path, "slow", scale=2.0, seed=10)
        report = tmp_path / "report.json"
        code = main(
            ["perf", "diff", str(baseline), str(slow), "--report", str(report)]
        )
        assert code == 1
        data = json.loads(report.read_text())
        assert data["ok"] is False
        assert data["regressions"]

    def test_record_bad_source_exits_nonzero(self, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("[]")
        with pytest.raises(SystemExit):
            main(["perf", "record", str(bad), "--out", str(tmp_path / "b.json")])

    def test_custom_quantiles_and_threshold(self, tmp_path, capsys):
        base = _profile(tmp_path, "base")
        slow = _profile(tmp_path, "slow", scale=1.4, seed=10)
        # generous threshold: the 1.4x shift passes
        assert (
            main(
                [
                    "perf", "diff", str(base), str(slow),
                    "--threshold", "0.6", "--quantiles", "p50",
                ]
            )
            == 0
        )
        capsys.readouterr()
