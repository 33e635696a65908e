"""Tests for the discrete-event kernel and resources."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ExecutionError
from repro.simulate import Simulator, SlotPool, Bandwidth, MemoryAccount
from repro.simulate.events import AllOf, AnyOf, Event
from repro.simulate.leases import LeaseManager, LeaseOwner


class TestEventLoop:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        done = []

        def proc():
            yield sim.timeout(5.0)
            done.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert done == [5.0]

    def test_deterministic_tie_order(self):
        sim = Simulator()
        order = []

        def proc(name):
            yield sim.timeout(1.0)
            order.append(name)

        for name in "abc":
            sim.spawn(proc(name))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_process_join(self):
        sim = Simulator()
        trace = []

        def child():
            yield sim.timeout(2.0)
            trace.append("child")
            return 42

        def parent():
            value = yield sim.spawn(child())
            trace.append(("parent", value, sim.now))

        sim.spawn(parent())
        sim.run()
        assert trace == ["child", ("parent", 42, 2.0)]

    def test_all_of(self):
        sim = Simulator()
        seen = []

        def proc():
            values = yield sim.all_of([sim.timeout(1, "a"), sim.timeout(3, "b")])
            seen.append((sim.now, values))

        sim.spawn(proc())
        sim.run()
        assert seen == [(3.0, ["a", "b"])]

    def test_all_of_empty_triggers_immediately(self):
        sim = Simulator()
        event = AllOf(sim, [])
        assert event.triggered

    def test_any_of(self):
        sim = Simulator()
        seen = []

        def proc():
            index, value = yield sim.any_of([sim.timeout(5, "slow"), sim.timeout(1, "fast")])
            seen.append((sim.now, index, value))

        sim.spawn(proc())
        sim.run()
        assert seen == [(1.0, 1, "fast")]

    def test_run_until(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(100.0)

        sim.spawn(proc())
        assert sim.run(until=10.0) == 10.0
        assert sim.now == 10.0

    def test_event_trigger_twice_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.trigger(1)
        with pytest.raises(ExecutionError):
            event.trigger(2)

    def test_daemon_callbacks_do_not_keep_sim_alive(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.call_at(sim.now + 1.0, tick, daemon=True)

        sim.call_at(1.0, tick, daemon=True)

        def proc():
            yield sim.timeout(3.5)

        sim.spawn(proc())
        sim.run()
        assert sim.now == 3.5
        assert ticks == [1.0, 2.0, 3.0]

    def test_cancelled_call_skipped_without_clock_advance(self):
        sim = Simulator()
        handle = sim.call_at(100.0, lambda: None)

        def proc():
            yield sim.timeout(1.0)

        sim.spawn(proc())
        sim.cancel(handle)
        sim.run()
        assert sim.now == 1.0

    def test_schedule_in_past_rejected(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(5.0)
            sim.call_at(1.0, lambda: None)

        sim.spawn(proc())
        with pytest.raises(ExecutionError):
            sim.run()

    def test_interrupt(self):
        from repro.simulate.events import Interrupt

        sim = Simulator()
        trace = []

        def victim():
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                trace.append((sim.now, interrupt.cause))

        def killer(process):
            yield sim.timeout(2.0)
            process.interrupt("stop")

        process = sim.spawn(victim())
        sim.spawn(killer(process))
        sim.run()
        assert trace == [(2.0, "stop")]

    def test_interrupt_dead_process_is_noop(self):
        sim = Simulator()

        def victim():
            yield sim.timeout(1.0)
            return "done"

        def killer(process):
            yield sim.timeout(5.0)
            process.interrupt("too late")

        process = sim.spawn(victim())
        sim.spawn(killer(process))
        sim.run()
        assert not process.alive
        assert process.value == "done"

    def test_uncaught_interrupt_terminates_with_none(self):
        sim = Simulator()
        joined = []

        def victim():
            yield sim.timeout(100.0)
            joined.append("victim survived")  # never reached

        def parent(process):
            value = yield process
            joined.append((sim.now, value))

        def killer(process):
            yield sim.timeout(3.0)
            process.interrupt("crash")

        process = sim.spawn(victim())
        sim.spawn(parent(process))
        sim.spawn(killer(process))
        sim.run()
        assert joined == [(3.0, None)]

    def test_stale_wakeup_after_interrupt(self):
        """The event a process was parked on when interrupted must not
        re-awaken it when that event later fires."""
        from repro.simulate.events import Interrupt

        sim = Simulator()
        wakeups = []

        def victim():
            try:
                yield sim.timeout(10.0)
                wakeups.append(("timer", sim.now))
            except Interrupt:
                yield sim.timeout(5.0)  # recover on a fresh timer
                wakeups.append(("recovered", sim.now))

        def killer(process):
            yield sim.timeout(2.0)
            process.interrupt("fault")

        process = sim.spawn(victim())
        sim.spawn(killer(process))
        sim.run()
        # the original t=10 timer fires while the process waits on the
        # t=7 recovery timer; only the recovery wakeup may be delivered
        assert wakeups == [("recovered", 7.0)]
        assert sim.now == 10.0  # the stale timer still ran the clock out

    def test_any_of_losing_child_still_completes(self):
        sim = Simulator()
        trace = []

        def slow():
            yield sim.timeout(8.0)
            trace.append(("slow", sim.now))
            return "slow-value"

        def racer():
            winner = yield sim.any_of([sim.spawn(slow()), sim.timeout(2.0, "fast")])
            trace.append(("winner", sim.now, winner))

        sim.spawn(racer())
        sim.run()
        # index 1 (the timeout) wins; the losing process is not cancelled
        # and still runs to completion
        assert trace == [("winner", 2.0, (1, "fast")), ("slow", 8.0)]

    def test_cancel_pending_call_from_process(self):
        sim = Simulator()
        fired = []

        def monitor():
            handle = sim.call_at(50.0, lambda: fired.append("monitor"))
            yield sim.timeout(1.0)
            sim.cancel(handle)

        sim.spawn(monitor())
        sim.run()
        assert fired == []
        assert sim.now == 1.0


class TestSlotPool:
    def test_capacity_enforced(self):
        sim = Simulator()
        pool = SlotPool(sim, 2)
        finish = []

        def task(name):
            yield pool.acquire()
            yield sim.timeout(1.0)
            pool.release()
            finish.append((name, sim.now))

        for index in range(4):
            sim.spawn(task(index))
        sim.run()
        assert [time for _n, time in finish] == [1.0, 1.0, 2.0, 2.0]

    def test_fifo_handoff(self):
        sim = Simulator()
        pool = SlotPool(sim, 1)
        order = []

        def task(name, hold):
            yield pool.acquire()
            order.append(name)
            yield sim.timeout(hold)
            pool.release()

        sim.spawn(task("first", 1))
        sim.spawn(task("second", 1))
        sim.spawn(task("third", 1))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_cancel_acquire_while_queued(self):
        """Withdrawing a queued acquire lets later waiters through."""
        sim = Simulator()
        pool = SlotPool(sim, 1)
        order = []

        def holder():
            yield pool.acquire()
            yield sim.timeout(5.0)
            pool.release()

        def quitter():
            ticket = pool.acquire()
            yield sim.timeout(1.0)  # give up before the slot frees
            pool.cancel_acquire(ticket)

        def patient():
            yield pool.acquire()
            order.append(("patient", sim.now))
            pool.release()

        sim.spawn(holder())
        sim.spawn(quitter())
        sim.spawn(patient())
        sim.run()
        assert order == [("patient", 5.0)]
        assert pool.queued == 0

    def test_cancel_acquire_after_grant_releases_slot(self):
        """If the waiter died after the slot was handed over, cancelling
        the grant releases it instead of leaking."""
        sim = Simulator()
        pool = SlotPool(sim, 1)
        granted = []

        def winner():
            ticket = pool.acquire()
            yield ticket
            pool.cancel_acquire(ticket)  # abandoned post-grant

        def next_in_line():
            yield pool.acquire()
            granted.append(sim.now)
            pool.release()

        sim.spawn(winner())
        sim.spawn(next_in_line())
        sim.run()
        assert granted == [0.0]
        assert pool.in_use == 0

    def test_release_idle_rejected(self):
        sim = Simulator()
        pool = SlotPool(sim, 1)
        with pytest.raises(ExecutionError):
            pool.release()

    def test_bad_capacity(self):
        with pytest.raises(ExecutionError):
            SlotPool(Simulator(), 0)


class TestBandwidth:
    def test_single_transfer_time(self):
        sim = Simulator()
        link = Bandwidth(sim, 100.0)
        done = []

        def proc():
            yield link.transfer(500.0)
            done.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert done == [pytest.approx(5.0)]

    def test_processor_sharing(self):
        sim = Simulator()
        link = Bandwidth(sim, 100.0)
        done = []

        def proc(name):
            yield link.transfer(500.0)
            done.append((name, sim.now))

        sim.spawn(proc("a"))
        sim.spawn(proc("b"))
        sim.run()
        # two equal transfers share the link: both finish at 10s
        assert done[0][1] == pytest.approx(10.0)
        assert done[1][1] == pytest.approx(10.0)

    def test_late_joiner(self):
        sim = Simulator()
        link = Bandwidth(sim, 100.0)
        done = {}

        def first():
            yield link.transfer(1000.0)
            done["first"] = sim.now

        def second():
            yield sim.timeout(5.0)
            yield link.transfer(250.0)
            done["second"] = sim.now

        sim.spawn(first())
        sim.spawn(second())
        sim.run()
        # first runs alone for 5s (500 bytes), then shares; second needs
        # 250 bytes at 50/s -> done at 10s; first finishes its remaining
        # 500-250=250... : at t=10 first has 250 left, alone again -> 12.5
        assert done["second"] == pytest.approx(10.0)
        assert done["first"] == pytest.approx(12.5)

    def test_set_rate_mid_transfer(self):
        """Degrading the link keeps already-moved bytes and finishes the
        remainder at the new rate."""
        sim = Simulator()
        link = Bandwidth(sim, 100.0)
        done = []

        def mover():
            yield link.transfer(1000.0)
            done.append(sim.now)

        def degrade():
            yield sim.timeout(5.0)  # 500 bytes moved so far
            link.set_rate(50.0)  # remaining 500 bytes at 50/s -> +10s

        sim.spawn(mover())
        sim.spawn(degrade())
        sim.run()
        assert done == [pytest.approx(15.0)]

    def test_zero_bytes_immediate(self):
        sim = Simulator()
        link = Bandwidth(sim, 100.0)
        event = link.transfer(0)
        assert event.triggered

    def test_bytes_accounting(self):
        sim = Simulator()
        link = Bandwidth(sim, 100.0)

        def proc():
            yield link.transfer(300.0)

        sim.spawn(proc())
        sim.run()
        assert link.progressed_bytes() == pytest.approx(300.0)

    def test_bad_rate(self):
        with pytest.raises(ExecutionError):
            Bandwidth(Simulator(), 0)


@settings(max_examples=30, deadline=None)
@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=1, max_size=8),
    starts=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=8),
)
def test_property_bandwidth_conservation(sizes, starts):
    """All transfers complete; bytes moved equals bytes requested; the
    clock never ends before total_bytes/rate."""
    sim = Simulator()
    link = Bandwidth(sim, 1000.0)
    completed = []

    def proc(delay, nbytes):
        yield sim.timeout(delay)
        yield link.transfer(nbytes)
        completed.append(nbytes)

    pairs = list(zip(starts, sizes))
    for delay, nbytes in pairs:
        sim.spawn(proc(delay, nbytes))
    sim.run()
    assert len(completed) == len(pairs)
    total = sum(nbytes for _d, nbytes in pairs)
    assert link.progressed_bytes() == pytest.approx(total, rel=1e-6)
    earliest_possible = max(d + s / 1000.0 for d, s in pairs)
    assert sim.now >= earliest_possible - 1e-6


class TestMemoryAccount:
    def test_allocate_free_peak(self):
        memory = MemoryAccount(100.0)
        memory.allocate(60)
        memory.allocate(30)
        memory.free(50)
        assert memory.used == pytest.approx(40)
        assert memory.peak == pytest.approx(90)
        assert memory.available == pytest.approx(60)

    def test_over_free_rejected(self):
        memory = MemoryAccount(10.0)
        memory.allocate(5)
        with pytest.raises(ExecutionError):
            memory.free(6)

    def test_utilization(self):
        memory = MemoryAccount(200.0)
        memory.allocate(50)
        assert memory.utilization == pytest.approx(0.25)


def _reference_select(manager):
    """The original pick: sort every pending request, take the first fit."""
    if manager.policy == "fair":
        candidates = sorted(manager._pending, key=manager._fair_key)
    else:
        candidates = manager._pending
    for request in candidates:
        if manager._request_fits(request):
            return request
    return None


_lease_request = st.tuples(
    st.integers(0, 3),                       # owner query
    st.sampled_from(["bi", "etl", "adhoc"]),  # owner scheduling pool
    st.sampled_from([0.5, 1.0, 2.0, 3.0]),   # owner weight
    st.booleans(),                           # gang?
    st.lists(st.tuples(st.integers(0, 2), st.integers(1, 3)),
             min_size=1, max_size=3),        # (slot pool, count) wants
)


class TestLeasePick:
    @given(
        policy=st.sampled_from(["fair", "fifo"]),
        capacities=st.lists(st.integers(1, 4), min_size=2, max_size=3),
        used=st.lists(st.integers(0, 4), min_size=3, max_size=3),
        requests=st.lists(_lease_request, min_size=0, max_size=12),
        active_groups=st.dictionaries(
            st.sampled_from(["bi", "etl", "adhoc"]), st.integers(0, 6)),
        active_queries=st.dictionaries(
            st.sampled_from([f"q{i}" for i in range(4)]), st.integers(0, 4)),
    )
    @settings(max_examples=300, deadline=None)
    def test_select_matches_sort_then_first_fit(
        self, policy, capacities, used, requests, active_groups, active_queries
    ):
        sim = Simulator()
        manager = LeaseManager(sim, policy=policy)
        pools = [SlotPool(sim, capacity, name=f"p{index}")
                 for index, capacity in enumerate(capacities)]
        for pool, in_use in zip(pools, used):
            pool.in_use = min(in_use, pool.capacity)
        for query, group, weight, gang, wants in requests:
            owner = LeaseOwner(f"q{query}", pool=group, weight=weight)
            if gang:
                resolved = [(pools[index % len(pools)],
                             min(count, pools[index % len(pools)].capacity))
                            for index, count in wants]
            else:
                resolved = [(pools[wants[0][0] % len(pools)], 1)]
            manager._enqueue(resolved, owner, Event(sim), gang=gang)
        manager._active_by_pool_group.update(active_groups)
        manager._active_by_query.update(active_queries)

        assert manager._select() is _reference_select(manager)
