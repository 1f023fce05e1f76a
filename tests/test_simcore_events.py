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


class TestSameInstantInline:
    """Pin the event order around the run loop's same-instant inline rule.

    The loop may process a yielded event at once only when it would pop it
    next anyway (heap top, due now, succeeded, no callbacks); each case
    here breaks one of those conditions and fixes the order that results.
    """

    def test_granted_request_does_not_jump_a_queued_urgent_event(self):
        env = simcore.Environment()
        first = simcore.Resource(env, capacity=1)
        second = simcore.Resource(env, capacity=1)
        log = []

        def asker(env):
            held = second.request()
            yield held
            yield 1.0
            second.release(held)  # grants the waiter: URGENT at t=1
            req = first.request()  # free: granted at t=1, behind that grant
            yield req
            log.append(("asker", env.now))

        def waiter(env):
            req = second.request()
            yield req
            log.append(("waiter", env.now))

        env.process(asker(env))
        env.process(waiter(env))
        env.run()
        assert log == [("waiter", 1.0), ("asker", 1.0)]

    def test_run_until_a_granted_request_stops_there(self):
        env = simcore.Environment()
        pool = simcore.Resource(env, capacity=1)
        box = {}
        log = []

        def holder(env):
            req = pool.request()
            yield req
            yield 1.0
            pool.release(req)  # grants the queued request at the heap top
            yield box["queued"]
            log.append("resumed")

        env.process(holder(env))
        env.run(until=0.5)
        box["queued"] = pool.request()
        env.run(until=box["queued"])
        assert env.now == 1.0
        assert box["queued"].processed
        assert log == []

    def test_any_of_two_granted_requests_fires_in_order(self):
        env = simcore.Environment()
        first = simcore.Resource(env, capacity=1)
        second = simcore.Resource(env, capacity=1)
        log = []

        def asker(env):
            yield 1.0
            a, b = first.request(), second.request()
            got = yield simcore.any_of(env, [a, b])
            log.append(("asker", env.now, list(got) == [a]))

        def bystander(env):
            yield 1.0
            log.append(("bystander", env.now))

        env.process(asker(env))
        env.process(bystander(env))
        env.run()
        assert log == [("bystander", 1.0), ("asker", 1.0, True)]

    def test_timeout_at_the_heap_top_advances_the_clock(self):
        env = simcore.Environment()
        seen = []

        def proc(env):
            yield 1.0
            seen.append((yield env.timeout(5.0, value="late")))
            seen.append(env.now)
            seen.append((yield env.timeout(0.0, value="now")))
            seen.append(env.now)

        env.process(proc(env))
        env.run()
        assert seen == ["late", 6.0, "now", 6.0]
        assert env.now == 6.0

    def test_inline_pops_are_counted(self):
        """run() counts every event step() would process one at a time."""

        def build():
            env = simcore.Environment()
            pool = simcore.Resource(env, capacity=2)

            def user(env):
                for _ in range(3):
                    yield 1.0
                    with pool.request() as req:
                        yield req
                        yield 0.5

            for _ in range(3):
                env.process(user(env))
            return env

        stepped = build()
        steps = 0
        while stepped.peek() < float("inf"):
            stepped.step()
            steps += 1

        env = build()
        stats = env.enable_stats()
        env.run()
        assert stats.events_processed == steps
        assert stats.last_event_time == env.now == stepped.now
        assert stats.first_event_time == 0.0
