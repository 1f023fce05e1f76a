"""Tests for the one telemetry context: measure/record and the fabric unit."""

import threading
import time

import pytest

from repro import observability as obs
from repro.observability import fabric
from repro.observability.telemetry import INERT, OPS, Telemetry, install, telemetry


@pytest.fixture(autouse=True)
def _clean_context():
    yield
    obs.disable()


class TestMeasureOff:
    def test_shared_inert_object_and_no_clock_read(self, monkeypatch):
        reads = []
        this_thread = threading.get_ident()

        def counting(real):
            def clock():
                if threading.get_ident() == this_thread:
                    reads.append(real.__name__)
                return real()

            return clock

        monkeypatch.setattr(time, "perf_counter", counting(time.perf_counter))
        monkeypatch.setattr(time, "time", counting(time.time))
        with obs.measure("tell", trial_id="t0") as first:
            first.set("k", "v")
        second = obs.measure("deploy")
        obs.record("queue_wait", 0.5, ago=1.0, trial_id="t0")
        monkeypatch.undo()
        assert first is INERT
        assert second is INERT
        assert reads == []


class TestMeasureOn:
    def test_one_span_and_one_digest_sample_with_the_same_duration(self):
        context = obs.enable()
        with obs.measure("tell", trial_id="t7") as span:
            time.sleep(0.001)
        (finished,) = context.tracer.finished()
        assert finished is span
        assert finished.name == "tell"
        assert finished.attributes == {"trial_id": "t7"}
        digest = context.perf.digest("tell")
        assert digest.count == 1
        assert digest.sum == finished.duration_s
        assert set(context.perf.ops()) == {"tell"}

    def test_span_and_digest_names_come_from_the_table(self):
        context = obs.enable()
        with obs.measure("deploy"):
            pass
        with obs.measure("des_run"):  # digest only
            pass
        with obs.measure("phase:optimize"):  # not in the table: span only
            pass
        assert [s.name for s in context.tracer.finished()] == ["cycle:deploy", "phase:optimize"]
        assert set(context.perf.ops()) == {"deploy", "des_run"}
        assert OPS["deploy"] == ("cycle:deploy", "deploy")

    def test_error_marks_the_span_and_still_records_the_sample(self):
        context = obs.enable()
        with pytest.raises(RuntimeError):
            with obs.measure("refit", n_obs=3):
                raise RuntimeError("fit failed")
        (span,) = context.tracer.finished()
        assert span.status == "error"
        assert context.perf.digest("refit").count == 1

    def test_record_backdates_the_span(self):
        context = obs.enable()
        obs.record("queue_wait", 0.5, ago=2.0, trial_id="t1")
        obs.record("tell", 0.25)
        wait, tell = context.tracer.finished()
        assert wait.name == "queue-wait"
        assert wait.duration_s == pytest.approx(0.5)
        assert wait.end_s == pytest.approx(tell.end_s - 1.5, abs=0.01)
        assert tell.duration_s == pytest.approx(0.25)
        assert context.perf.digest("queue_wait").sum == 0.5
        assert context.perf.digest("tell").sum == 0.25


class TestFabricRoundTrip:
    def test_worker_context_round_trip_keeps_counts(self, monkeypatch):
        worker = Telemetry()
        monkeypatch.setattr(fabric, "_runner_id", "exp/w1")
        install(worker)
        with obs.measure("worker_evaluate", trial_id="t0"):
            with obs.measure("deploy"):
                pass
            with obs.measure("engine.run"):
                with obs.measure("des_run"):
                    pass
        obs.record("refit", 0.01, n_obs=4)
        worker.registry.counter("repro_evaluations_total", "evals").inc(3)
        sent_spans = [s.name for s in worker.tracer.finished()]
        sent_ops = {op: d.count for op, d in worker.perf.ops().items()}
        payload = fabric.drain_worker()
        # the drain empties the worker context as one unit
        assert worker.tracer.finished() == []
        assert worker.perf.ops() == {}
        assert fabric.drain_worker()["spans"] == []

        parent = Telemetry()
        merged = fabric.merge_payload(payload, into=parent, attributes={"trial_id": "t0"})
        assert merged == len(sent_spans) == 4
        assert sorted(s.name for s in parent.tracer.finished()) == sorted(sent_spans)
        assert {op: d.count for op, d in parent.perf.ops().items()} == sent_ops
        assert parent.registry.counter("repro_evaluations_total").value() == 3.0
        assert telemetry() is worker
