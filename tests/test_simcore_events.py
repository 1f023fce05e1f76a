"""Tests for the DES kernel: events, processes, composition."""

import pytest

from repro import simcore
from repro.errors import SimulationError


class TestTimeouts:
    def test_clock_advances(self):
        env = simcore.Environment()

        def proc(env):
            yield env.timeout(5.0)
            return env.now

        p = env.process(proc(env))
        env.run()
        assert p.value == 5.0
        assert env.now == 5.0

    def test_negative_delay_rejected(self):
        env = simcore.Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)

    def test_timeout_value(self):
        env = simcore.Environment()

        def proc(env):
            got = yield env.timeout(1.0, value="payload")
            return got

        p = env.process(proc(env))
        env.run()
        assert p.value == "payload"

    def test_same_time_fifo_order(self):
        env = simcore.Environment()
        order = []

        def proc(env, tag):
            yield env.timeout(1.0)
            order.append(tag)

        for tag in ("a", "b", "c"):
            env.process(proc(env, tag))
        env.run()
        assert order == ["a", "b", "c"]


class TestEvents:
    def test_manual_succeed(self):
        env = simcore.Environment()
        ev = env.event()

        def waiter(env, ev):
            got = yield ev
            return got

        def trigger(env, ev):
            yield env.timeout(2.0)
            ev.succeed(99)

        p = env.process(waiter(env, ev))
        env.process(trigger(env, ev))
        env.run()
        assert p.value == 99

    def test_double_trigger_rejected(self):
        env = simcore.Environment()
        ev = env.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_failed_event_raises_in_process(self):
        env = simcore.Environment()
        ev = env.event()

        def waiter(env, ev):
            try:
                yield ev
            except RuntimeError as exc:
                return str(exc)

        p = env.process(waiter(env, ev))
        ev.fail(RuntimeError("boom"))
        env.run()
        assert p.value == "boom"

    def test_unhandled_failure_crashes_sim(self):
        env = simcore.Environment()
        ev = env.event()
        ev.fail(RuntimeError("unhandled"))
        with pytest.raises(RuntimeError, match="unhandled"):
            env.run()

    def test_defused_failure_ignored(self):
        env = simcore.Environment()
        ev = env.event()
        ev.fail(RuntimeError("x"))
        ev.defuse()
        env.run()  # no raise

    def test_fail_requires_exception(self):
        env = simcore.Environment()
        with pytest.raises(TypeError):
            env.event().fail("not an exception")

    def test_value_of_untriggered_event(self):
        env = simcore.Environment()
        with pytest.raises(SimulationError):
            _ = env.event().value


class TestProcesses:
    def test_yield_non_event_raises(self):
        env = simcore.Environment()

        def bad(env):
            yield "not an event"

        env.process(bad(env))
        with pytest.raises(SimulationError, match="non-event"):
            env.run()

    def test_yield_raw_number_is_plain_delay(self):
        env = simcore.Environment()
        seen = []

        def proc(env):
            got = yield 1.5
            seen.append((env.now, got))
            got = yield 2  # ints work too
            seen.append((env.now, got))

        env.process(proc(env))
        env.run()
        assert seen == [(1.5, None), (3.5, None)]

        # A raw number orders exactly like env.timeout(d): processes
        # interleaving one delay plan (zero delays and same-instant ties
        # included) resume in the same (now, process) order either way.
        # Odd processes always wait on Timeout events, so raw waits tie
        # with event waits at the same instants.
        def resume_order(raw):
            env = simcore.Environment()
            order = []

            def walker(name, delays, raw):
                for delay in delays:
                    yield delay if raw else env.timeout(delay)
                    order.append((env.now, name))

            for i in range(6):
                plan = [0.5 * ((i + k) % 3) for k in range(10)]
                env.process(walker(f"p{i}", plan, raw and i % 2 == 0))
            env.run()
            return order

        events = resume_order(False)
        assert len(events) == 60
        assert resume_order(True) == events

    def test_yield_negative_number_raises(self):
        env = simcore.Environment()

        def bad(env):
            yield -1.0

        env.process(bad(env))
        with pytest.raises(ValueError, match="finite"):
            env.run()

    def test_process_exception_propagates(self):
        env = simcore.Environment()

        def bad(env):
            yield env.timeout(1.0)
            raise ValueError("inside")

        env.process(bad(env))
        with pytest.raises(ValueError, match="inside"):
            env.run()

    def test_process_is_event(self):
        env = simcore.Environment()

        def inner(env):
            yield env.timeout(3.0)
            return "done"

        def outer(env):
            result = yield env.process(inner(env))
            return (result, env.now)

        p = env.process(outer(env))
        env.run()
        assert p.value == ("done", 3.0)

    def test_needs_generator(self):
        env = simcore.Environment()
        with pytest.raises(TypeError):
            env.process(lambda: None)  # type: ignore[arg-type]


class TestInterrupts:
    def test_interrupt_cause(self):
        env = simcore.Environment()

        def sleeper(env):
            try:
                yield env.timeout(100.0)
            except simcore.Interrupt as interrupt:
                return (interrupt.cause, env.now)

        def killer(env, victim):
            yield env.timeout(4.0)
            victim.interrupt("reason")

        p = env.process(sleeper(env))
        env.process(killer(env, p))
        env.run()
        assert p.value == ("reason", 4.0)

    def test_interrupt_terminated_rejected(self):
        env = simcore.Environment()

        def quick(env):
            yield env.timeout(1.0)

        p = env.process(quick(env))
        env.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_process_survives_interrupt_and_continues(self):
        env = simcore.Environment()

        def resilient(env):
            try:
                yield env.timeout(100.0)
            except simcore.Interrupt:
                pass
            yield env.timeout(5.0)
            return env.now

        def killer(env, victim):
            yield env.timeout(2.0)
            victim.interrupt()

        p = env.process(resilient(env))
        env.process(killer(env, p))
        env.run()
        assert p.value == 7.0


class TestConditions:
    def test_all_of(self):
        env = simcore.Environment()
        e1, e2 = env.timeout(1, "a"), env.timeout(2, "b")
        got = env.run(until=simcore.all_of(env, [e1, e2]))
        assert got == {e1: "a", e2: "b"}
        assert env.now == 2.0

    def test_any_of(self):
        env = simcore.Environment()
        e1, e2 = env.timeout(1, "a"), env.timeout(2, "b")
        got = env.run(until=simcore.any_of(env, [e1, e2]))
        assert got == {e1: "a"}
        assert env.now == 1.0

    def test_empty_all_of_fires_immediately(self):
        env = simcore.Environment()
        cond = simcore.all_of(env, [])
        assert cond.triggered

    def test_failure_propagates_through_condition(self):
        env = simcore.Environment()
        good = env.timeout(1)
        bad = env.event()
        cond = simcore.all_of(env, [good, bad])
        bad.fail(RuntimeError("nope"))
        with pytest.raises(RuntimeError, match="nope"):
            env.run(until=cond)
