"""Tests for DES resources: capacity, stats, priority, stores, containers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import simcore


def _worker(env, pool, hold, log=None):
    with pool.request() as req:
        yield req
        if log is not None:
            log.append(("start", env.now))
        yield env.timeout(hold)
    if log is not None:
        log.append(("end", env.now))


class TestResource:
    def test_capacity_serializes(self):
        env = simcore.Environment()
        pool = simcore.Resource(env, capacity=1)
        log = []
        env.process(_worker(env, pool, 2.0, log))
        env.process(_worker(env, pool, 2.0, log))
        env.run()
        assert log == [("start", 0.0), ("end", 2.0), ("start", 2.0), ("end", 4.0)]

    def test_parallel_within_capacity(self):
        env = simcore.Environment()
        pool = simcore.Resource(env, capacity=3)
        done = []
        for _ in range(3):
            env.process(_worker(env, pool, 5.0, done))
        env.run()
        assert env.now == 5.0

    def test_capacity_validated(self):
        env = simcore.Environment()
        with pytest.raises(ValueError):
            simcore.Resource(env, capacity=0)

    def test_occupancy_full(self):
        env = simcore.Environment()
        pool = simcore.Resource(env, capacity=1)
        env.process(_worker(env, pool, 10.0))
        env.run()
        assert pool.occupancy() == pytest.approx(1.0)

    def test_occupancy_half(self):
        env = simcore.Environment()
        pool = simcore.Resource(env, capacity=2)
        env.process(_worker(env, pool, 10.0))
        env.run()
        assert pool.occupancy() == pytest.approx(0.5)

    def test_wait_times_recorded(self):
        env = simcore.Environment()
        pool = simcore.Resource(env, capacity=1)
        env.process(_worker(env, pool, 3.0))
        env.process(_worker(env, pool, 3.0))
        env.run()
        waits = pool.stats.wait_times
        assert waits.count == 2
        assert waits.maximum == pytest.approx(3.0)
        assert waits.minimum == pytest.approx(0.0)

    def test_release_unqueues_cancelled_request(self):
        env = simcore.Environment()
        pool = simcore.Resource(env, capacity=1)

        def holder(env):
            with pool.request() as req:
                yield req
                yield env.timeout(10.0)

        def impatient(env):
            req = pool.request()
            result = yield simcore.any_of(env, [req, env.timeout(1.0)])
            if req not in result:
                pool.release(req)  # cancel
                return "gave-up"
            pool.release(req)
            return "served"

        env.process(holder(env))
        p = env.process(impatient(env))
        env.run()
        assert p.value == "gave-up"
        assert pool.queue_length == 0

    @given(capacity=st.integers(1, 5), jobs=st.integers(1, 15), hold=st.floats(0.5, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_invariants(self, capacity, jobs, hold):
        """Makespan and occupancy follow from capacity for identical jobs."""
        env = simcore.Environment()
        pool = simcore.Resource(env, capacity=capacity)
        for _ in range(jobs):
            env.process(_worker(env, pool, hold))
        env.run()
        import math

        waves = math.ceil(jobs / capacity)
        assert env.now == pytest.approx(waves * hold)
        # total busy time = jobs * hold
        assert pool.busy_integral() == pytest.approx(jobs * hold)


@st.composite
def _pool_jobs(draw):
    """Capacity plus (arrival, hold, priority) jobs for one pool."""
    capacity = draw(st.integers(1, 4))
    jobs = draw(
        st.lists(
            st.tuples(
                st.floats(0.0, 10.0),
                st.floats(0.01, 5.0),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=25,
        )
    )
    return capacity, jobs


class TestPoolConservation:
    """Little's law per pool (L = λW) from the incremental integrals.

    Once the simulation has drained, the queue-length integral equals the
    sum of the waits and the user-count integral the sum of the holds: the
    integrals must be advanced exactly once per state change, with the
    state as it was before the change.
    """

    @pytest.mark.parametrize("kind", [simcore.Resource, simcore.PriorityResource])
    @given(drawn=_pool_jobs())
    @settings(max_examples=40, deadline=None)
    def test_integrals_match_waits_and_holds(self, kind, drawn):
        capacity, jobs = drawn
        env = simcore.Environment()
        pool = kind(env, capacity=capacity)
        waits = []

        def job(env, arrival, hold, priority):
            yield arrival
            req = pool.request(priority=priority)
            yield req
            waits.append(env.now - arrival)
            yield hold
            pool.release(req)

        for arrival, hold, priority in jobs:
            env.process(job(env, arrival, hold, priority))
        env.run()

        stats = pool.stats
        assert stats.grants == stats.releases == len(jobs)
        assert pool.queue_length == 0 and pool.user_count == 0
        assert stats.queue_integral == pytest.approx(sum(waits), rel=1e-9, abs=1e-9)
        assert pool.busy_integral() == pytest.approx(
            sum(hold for _, hold, _ in jobs), rel=1e-9
        )
        assert stats.wait_times.count == len(jobs)


class TestPriorityResource:
    def test_priority_order(self):
        env = simcore.Environment()
        pool = simcore.PriorityResource(env, capacity=1)
        order = []

        def job(env, priority, tag):
            req = pool.request(priority=priority)
            yield req
            order.append(tag)
            yield env.timeout(1.0)
            pool.release(req)

        def submit(env):
            # occupy the server so the queue actually forms
            first = pool.request(priority=0)
            yield first
            env.process(job(env, 5, "low"))
            env.process(job(env, 1, "high"))
            env.process(job(env, 3, "mid"))
            yield env.timeout(1.0)
            pool.release(first)

        env.process(submit(env))
        env.run()
        assert order == ["high", "mid", "low"]

    def test_fifo_within_priority(self):
        env = simcore.Environment()
        pool = simcore.PriorityResource(env, capacity=1)
        order = []

        def job(env, tag):
            req = pool.request(priority=1)
            yield req
            order.append(tag)
            pool.release(req)

        def submit(env):
            blocker = pool.request()
            yield blocker
            for tag in ("first", "second"):
                env.process(job(env, tag))
            yield env.timeout(1.0)
            pool.release(blocker)

        env.process(submit(env))
        env.run()
        assert order == ["first", "second"]


class TestStore:
    def test_fifo_items(self):
        env = simcore.Environment()
        store = simcore.Store(env)

        def producer(env):
            for i in range(3):
                yield env.timeout(1.0)
                yield store.put(i)

        def consumer(env, got):
            for _ in range(3):
                item = yield store.get()
                got.append((env.now, item))

        got = []
        env.process(producer(env))
        env.process(consumer(env, got))
        env.run()
        assert [item for _, item in got] == [0, 1, 2]

    def test_bounded_capacity_blocks_put(self):
        env = simcore.Environment()
        store = simcore.Store(env, capacity=1)
        log = []

        def producer(env):
            yield store.put("a")
            log.append(("put-a", env.now))
            yield store.put("b")
            log.append(("put-b", env.now))

        def consumer(env):
            yield env.timeout(5.0)
            item = yield store.get()
            log.append((f"got-{item}", env.now))

        env.process(producer(env))
        env.process(consumer(env))
        env.run()
        assert ("put-b", 5.0) in log


class TestContainer:
    def test_levels(self):
        env = simcore.Environment()
        tank = simcore.Container(env, capacity=10.0, init=5.0)

        def drain(env):
            yield tank.get(3.0)
            return tank.level

        p = env.process(drain(env))
        env.run()
        assert p.value == 2.0

    def test_get_blocks_until_put(self):
        env = simcore.Environment()
        tank = simcore.Container(env, capacity=10.0)

        def getter(env):
            yield tank.get(4.0)
            return env.now

        def putter(env):
            yield env.timeout(7.0)
            yield tank.put(4.0)

        p = env.process(getter(env))
        env.process(putter(env))
        env.run()
        assert p.value == 7.0

    def test_validation(self):
        env = simcore.Environment()
        with pytest.raises(ValueError):
            simcore.Container(env, capacity=0)
        with pytest.raises(ValueError):
            simcore.Container(env, capacity=1.0, init=2.0)
        tank = simcore.Container(env, capacity=1.0)
        with pytest.raises(ValueError):
            tank.put(0)
        with pytest.raises(ValueError):
            tank.get(-1)
