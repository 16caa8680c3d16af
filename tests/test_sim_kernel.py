"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim.kernel import AllOf, AnyOf, Event, Interrupt, Simulator, Timeout
from tests.conftest import drive


class TestEvent:
    def test_new_event_is_pending(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.event().value

    def test_succeed_carries_value(self, sim):
        event = sim.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_fail_carries_exception(self, sim):
        event = sim.event()
        error = ValueError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.value is error

    def test_double_trigger_rejected(self, sim):
        event = sim.event()
        event.succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)
        with pytest.raises(SimulationError):
            event.fail(RuntimeError())

    def test_fail_requires_exception_instance(self, sim):
        with pytest.raises(SimulationError):
            sim.event().fail("not an exception")  # type: ignore[arg-type]

    def test_callbacks_run_on_processing(self, sim):
        event = sim.event()
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        event.succeed("x")
        assert seen == []  # not yet processed
        sim.run()
        assert seen == ["x"]

    def test_callback_after_processed_runs_immediately(self, sim):
        event = sim.event()
        event.succeed(7)
        sim.run()
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        assert seen == [7]


class TestTimeout:
    def test_timeout_fires_at_delay(self, sim):
        fired = []
        sim.timeout(5.0).add_callback(lambda ev: fired.append(sim.now))
        sim.run()
        assert fired == [5.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1)

    def test_timeout_carries_value(self, sim):
        def proc():
            value = yield sim.timeout(1, value="hello")
            return value

        assert drive(sim, proc()) == "hello"

    def test_zero_delay_allowed(self, sim):
        def proc():
            yield sim.timeout(0)
            return sim.now

        assert drive(sim, proc()) == 0.0

    def test_same_time_fifo_order(self, sim):
        order = []
        for index in range(5):
            sim.timeout(1.0).add_callback(lambda ev, i=index: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]


class TestProcess:
    def test_process_returns_value(self, sim):
        def proc():
            yield sim.timeout(2)
            return "done"

        assert drive(sim, proc()) == "done"
        assert sim.now == 2.0

    def test_process_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)  # type: ignore[arg-type]

    def test_failed_event_raises_inside_process(self, sim):
        event = sim.event()

        def proc():
            try:
                yield event
            except ValueError as error:
                return f"caught {error}"

        process = sim.process(proc())
        sim.defer(1, lambda: event.fail(ValueError("bad")))
        assert sim.run(until=process) == "caught bad"

    def test_uncaught_exception_fails_process(self, sim):
        def proc():
            yield sim.timeout(1)
            raise RuntimeError("oops")

        process = sim.process(proc())
        with pytest.raises(RuntimeError, match="oops"):
            sim.run(until=process)

    def test_yield_non_event_fails_process(self, sim):
        def proc():
            yield 42

        process = sim.process(proc())
        with pytest.raises(SimulationError):
            sim.run(until=process)

    def test_process_waits_on_other_process(self, sim):
        def child():
            yield sim.timeout(3)
            return 10

        def parent():
            value = yield sim.process(child())
            return value * 2

        assert drive(sim, parent()) == 20

    def test_is_alive(self, sim):
        def proc():
            yield sim.timeout(5)

        process = sim.process(proc())
        assert process.is_alive
        sim.run()
        assert not process.is_alive

    def test_nested_yield_from(self, sim):
        def inner():
            yield sim.timeout(1)
            return "inner"

        def outer():
            value = yield from inner()
            yield sim.timeout(1)
            return value + "-outer"

        assert drive(sim, outer()) == "inner-outer"
        assert sim.now == 2.0



class TestStart:
    def test_start_finishes_inline_with_the_value(self, sim):
        def proc():
            return 7
            yield  # pragma: no cover - makes this a generator

        process = sim.start(proc(), name="inline")
        assert process.processed and process.ok
        assert process.value == 7
        assert process.name == "inline"
        # Nothing was scheduled: no bootstrap, no completion event.
        assert sim.peek() == float("inf")
        sim.run()
        assert sim.processed_events == 0

    def test_waiting_generator_becomes_an_interruptible_process(self, sim):
        steps = []

        def proc():
            steps.append("first")
            yield sim.timeout(5)
            steps.append("second")  # pragma: no cover - interrupted first

        process = sim.start(proc(), name="waiter")
        assert steps == ["first"]  # ran inline, before start returned
        assert process.is_alive
        assert sim.peek() == 5.0  # only the timeout: no bootstrap event
        sim.defer(2, lambda: process.interrupt("crash"))
        sim.run()
        assert isinstance(process.value, Interrupt)
        assert process.value.cause == "crash"
        assert steps == ["first"]

    def test_resumes_like_a_process(self, sim):
        def proc():
            value = yield sim.timeout(3, "tick")
            return value + "!"

        process = sim.start(proc())
        assert sim.run(until=process) == "tick!"
        assert sim.now == 3.0

    def test_exception_in_first_step_gives_a_failed_event(self, sim):
        def proc():
            raise ValueError("boom")
            yield  # pragma: no cover - makes this a generator

        process = sim.start(proc())
        assert process.processed and not process.ok
        assert isinstance(process.value, ValueError)

    def test_yield_non_event_gives_a_failed_event(self, sim):
        def proc():
            yield 42

        process = sim.start(proc())
        assert not process.ok
        assert isinstance(process.value, SimulationError)

    def test_work_due_now_runs_first(self, sim):
        # With another event due at this instant a bootstrap would run
        # after it, so start() schedules one instead of running inline.
        order = []
        sim.defer(0, lambda: order.append("due"))

        def proc():
            order.append("proc")
            return None
            yield  # pragma: no cover - makes this a generator

        process = sim.start(proc())
        assert order == [] and process.is_alive
        sim.run()
        assert order == ["due", "proc"]
        assert process.processed and process.ok

    def test_requires_generator(self, sim):
        with pytest.raises(SimulationError):
            sim.start(lambda: None)  # type: ignore[arg-type]


    def test_completes_in_place(self, sim):
        finished = []

        def proc():
            yield sim.timeout(2)
            return "done"

        process = sim.start(proc())
        process.add_callback(lambda ev: finished.append((sim.now, ev.value)))
        sim.run()
        assert finished == [(2.0, "done")]
        # Only the timeout was an event: no bootstrap, no completion event.
        assert sim.processed_events == 1

    @pytest.mark.parametrize("other_due_now", [False, True])
    def test_same_order_as_process_in_tail_position(self, other_due_now):
        def scenario(launch):
            sim = Simulator()
            log = []

            def child():
                log.append(("child", sim.now))
                grant = sim.event()
                grant.succeed("granted")
                value = yield grant
                log.append(("child got", value))

            def deliver():
                launch(sim, child())  # the last thing the event does

            sim.defer(1, deliver)
            sim.defer(1 if other_due_now else 1.5, lambda: log.append(("other", sim.now)))
            sim.run()
            return log, sim.processed_events

        started, start_events = scenario(lambda sim, gen: sim.start(gen))
        spawned, process_events = scenario(lambda sim, gen: sim.process(gen))
        assert started == spawned
        # start() saves the completion event, and the bootstrap when
        # nothing else was due at that instant.
        assert process_events - start_events == (1 if other_due_now else 2)


class TestFanOut:
    @pytest.mark.parametrize("other_due_now", [False, True])
    def test_same_order_as_process(self, other_due_now):
        def scenario(launch):
            sim = Simulator()
            log = []

            def child(index):
                log.append(("start", index, sim.now))
                grant = sim.event()
                grant.succeed(index)
                grant.add_callback(lambda _ev: log.append(("grant", index)))
                value = yield grant
                log.append(("end", index))
                return value * 10

            def parent():
                yield sim.timeout(1)
                if other_due_now:
                    sim.defer(0, lambda: log.append(("other", sim.now)))
                children = launch(sim, [(child(i), f"child{i}") for i in range(3)])
                results = yield sim.all_of(children)
                log.append(("all", sorted(results.values())))

            sim.process(parent())
            sim.run()
            return log, sim.processed_events

        fanned, fan_events = scenario(lambda sim, named: sim.fan_out(named))
        spawned, process_events = scenario(
            lambda sim, named: [sim.process(gen, name=name) for gen, name in named]
        )
        assert fanned == spawned
        assert fanned[-1] == ("all", [0, 10, 20])
        # Only the three bootstraps are saved, and only when nothing else
        # was due at that instant; completions still go through the heap.
        assert process_events - fan_events == (0 if other_due_now else 3)

    def test_keeps_names_and_order(self, sim):
        def child():
            yield sim.timeout(1)

        children = sim.fan_out((child(), f"c{i}") for i in range(3))
        assert [child.name for child in children] == ["c0", "c1", "c2"]
        assert all(child.is_alive for child in children)

class TestReservedKeys:
    def test_defer_at_fires_where_the_defer_would_have(self, sim):
        order = []
        sim.defer(4, lambda: order.append("before"))
        when, seq = sim.reserve(4)
        sim.defer(4, lambda: order.append("after"))
        sim.defer_at(when, seq, order.append, "reserved")
        sim.run()
        assert order == ["before", "reserved", "after"]
        assert sim.now == 4.0

    def test_defer_at_rejects_the_past(self, sim):
        when, seq = sim.reserve(1)
        sim.run(until=2)
        with pytest.raises(SimulationError):
            sim.defer_at(when, seq, lambda: None)

    def test_reserve_rejects_negative_delay(self, sim):
        with pytest.raises(SimulationError):
            sim.reserve(-1)

class TestInterrupt:
    def test_interrupt_during_wait(self, sim):
        def proc():
            try:
                yield sim.timeout(100)
                return "not interrupted"
            except Interrupt as interrupt:
                return f"interrupted: {interrupt.cause}"

        process = sim.process(proc())
        sim.defer(5, lambda: process.interrupt("crash"))
        assert sim.run(until=process) == "interrupted: crash"
        assert sim.now == 5.0

    def test_uncaught_interrupt_terminates_quietly(self, sim):
        def proc():
            yield sim.timeout(100)

        process = sim.process(proc())
        sim.defer(5, lambda: process.interrupt())
        value = sim.run(until=process)
        assert isinstance(value, Interrupt)

    def test_interrupt_finished_process_is_noop(self, sim):
        def proc():
            yield sim.timeout(1)
            return "ok"

        process = sim.process(proc())
        sim.run(until=process)
        process.interrupt("late")  # must not raise
        assert process.value == "ok"

    def test_stale_wakeup_after_interrupt_ignored(self, sim):
        """The original awaited event firing later must not resume the process."""
        resumed = []

        def proc():
            try:
                yield sim.timeout(10)
                resumed.append("timeout")
            except Interrupt:
                yield sim.timeout(20)  # keep living past t=10
                resumed.append("post-interrupt")

        process = sim.process(proc())
        sim.defer(5, lambda: process.interrupt())
        sim.run()
        assert resumed == ["post-interrupt"]
        assert sim.now >= 25.0

    def test_interrupt_while_running_delivered_at_next_yield(self, sim):
        log = []

        def proc():
            # Interrupt self while the body is executing (not suspended).
            process.interrupt("self")
            log.append("before yield")
            try:
                yield sim.timeout(100)
                log.append("slept")
            except Interrupt:
                log.append("interrupted")

        process = sim.process(proc())
        sim.run()
        assert log == ["before yield", "interrupted"]


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        def proc():
            t1, t2 = sim.timeout(2, "a"), sim.timeout(5, "b")
            results = yield sim.all_of([t1, t2])
            return sorted(results.values())

        assert drive(sim, proc()) == ["a", "b"]
        assert sim.now == 5.0

    def test_any_of_fires_on_first(self, sim):
        def proc():
            t1, t2 = sim.timeout(2, "fast"), sim.timeout(5, "slow")
            results = yield sim.any_of([t1, t2])
            return list(results.values())

        assert drive(sim, proc()) == ["fast"]
        assert sim.now == 2.0

    def test_all_of_empty_fires_immediately(self, sim):
        def proc():
            yield sim.all_of([])
            return sim.now

        assert drive(sim, proc()) == 0.0

    def test_all_of_fails_fast(self, sim):
        bad = sim.event()

        def proc():
            try:
                yield sim.all_of([sim.timeout(10), bad])
            except ValueError:
                return sim.now

        process = sim.process(proc())
        sim.defer(1, lambda: bad.fail(ValueError()))
        assert sim.run(until=process) == 1.0

    def test_any_of_fails_only_when_all_fail(self, sim):
        e1, e2 = sim.event(), sim.event()

        def proc():
            try:
                yield sim.any_of([e1, e2])
                return "ok"
            except RuntimeError:
                return "all failed"

        process = sim.process(proc())
        sim.defer(1, lambda: e1.fail(RuntimeError()))
        sim.defer(2, lambda: e2.fail(RuntimeError()))
        assert sim.run(until=process) == "all failed"

    def test_any_of_with_one_failure_and_one_success(self, sim):
        e1, e2 = sim.event(), sim.event()

        def proc():
            results = yield sim.any_of([e1, e2])
            return list(results.values())

        process = sim.process(proc())
        sim.defer(1, lambda: e1.fail(RuntimeError()))
        sim.defer(2, lambda: e2.succeed("late win"))
        assert sim.run(until=process) == ["late win"]

    def test_condition_rejects_foreign_events(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            sim.all_of([other.event()])

    def test_all_of_with_already_processed_event(self, sim):
        done = sim.event()
        done.succeed("early")
        sim.run()

        def proc():
            results = yield sim.all_of([done, sim.timeout(3, "late")])
            return sorted(results.values())

        assert drive(sim, proc()) == ["early", "late"]


    def test_all_settled_mixes_success_and_failure(self, sim):
        good, bad = sim.event(), sim.event()
        late = sim.timeout(3, "late")
        sim.defer(1, lambda: bad.fail(ValueError("no")))
        sim.defer(2, lambda: good.succeed("yes"))

        def proc():
            values = yield sim.all_settled([good, bad, late])
            return values, sim.now

        (first, failure, last), finished = drive(sim, proc())
        assert first == "yes" and last == "late"
        assert isinstance(failure, ValueError)
        assert finished == 3.0  # waits for every child, never fails early

    def test_all_settled_empty_fires_immediately(self, sim):
        def proc():
            values = yield sim.all_settled([])
            return values, sim.now

        assert drive(sim, proc()) == ([], 0.0)

class TestRun:
    def test_run_until_time_stops_clock_exactly(self, sim):
        sim.timeout(10)
        sim.run(until=7.5)
        assert sim.now == 7.5

    def test_run_until_past_raises(self, sim):
        sim.run(until=5)
        with pytest.raises(SimulationError):
            sim.run(until=3)

    def test_run_until_event_returns_value(self, sim):
        def proc():
            yield sim.timeout(4)
            return "v"

        assert sim.run(until=sim.process(proc())) == "v"

    def test_run_until_never_firing_event_raises(self, sim):
        event = sim.event()
        with pytest.raises(SimulationError, match="ran dry"):
            sim.run(until=event)

    def test_run_drains_everything(self, sim):
        sim.timeout(3)
        sim.timeout(9)
        sim.run()
        assert sim.now == 9.0
        assert sim.peek() == float("inf")

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_processed_events_counter(self, sim):
        sim.timeout(1)
        sim.timeout(2)
        sim.run()
        assert sim.processed_events == 2

    def test_defer_runs_function(self, sim):
        seen = []
        sim.defer(3, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.0]

    def test_defer_negative_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.defer(-1, lambda: None)

    def test_determinism_two_identical_runs(self):
        def build():
            sim = Simulator()
            log = []

            def worker(name, delay):
                yield sim.timeout(delay)
                log.append((name, sim.now))
                yield sim.timeout(delay)
                log.append((name, sim.now))

            sim.process(worker("a", 2))
            sim.process(worker("b", 2))
            sim.process(worker("c", 3))
            sim.run()
            return log

        assert build() == build()
