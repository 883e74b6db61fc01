"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.sim import Engine, Timeout, any_of
from repro.sim.primitives import defuse


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_timeout_advances_clock():
    eng = Engine()

    def proc(eng):
        yield eng.timeout(2.0)

    eng.process(proc(eng))
    eng.run()
    assert eng.now == 2.0


def test_timeout_value_passthrough():
    eng = Engine()
    got = []

    def proc(eng):
        got.append((yield eng.timeout(1.0, value="payload")))

    eng.process(proc(eng))
    eng.run()
    assert got == ["payload"]


def test_negative_timeout_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        eng.timeout(-1.0)


def test_process_return_value():
    eng = Engine()

    def proc(eng):
        yield eng.timeout(1.0)
        return 42

    p = eng.process(proc(eng))
    eng.run()
    assert p.ok and p.value == 42


def test_process_waits_on_process():
    eng = Engine()

    def child(eng):
        yield eng.timeout(3.0)
        return "child-result"

    def parent(eng, c):
        val = yield c
        return (eng.now, val)

    c = eng.process(child(eng))
    p = eng.process(parent(eng, c))
    eng.run()
    assert p.value == (3.0, "child-result")


def test_wait_on_already_completed_process():
    eng = Engine()

    def quick(eng):
        yield eng.timeout(0.5)
        return "q"

    q = eng.process(quick(eng))

    def late(eng):
        yield eng.timeout(5.0)
        val = yield q  # q finished long ago
        return (eng.now, val)

    p = eng.process(late(eng))
    eng.run()
    assert p.value == (5.0, "q")


def test_simultaneous_events_fifo_order():
    eng = Engine()
    order = []

    def proc(eng, tag):
        yield eng.timeout(1.0)
        order.append(tag)

    for i in range(5):
        eng.process(proc(eng, i))
    eng.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_succeed_wakes_waiter():
    eng = Engine()
    evt = eng.event()
    seen = []

    def waiter(eng):
        seen.append((yield evt))

    def firer(eng):
        yield eng.timeout(1.0)
        evt.succeed("fired")

    eng.process(waiter(eng))
    eng.process(firer(eng))
    eng.run()
    assert seen == ["fired"] and eng.now == 1.0


def test_event_double_trigger_rejected():
    eng = Engine()
    evt = eng.event()
    evt.succeed(1)
    with pytest.raises(SimulationError):
        evt.succeed(2)


def test_event_fail_throws_into_waiter():
    eng = Engine()
    evt = eng.event()
    caught = []

    def waiter(eng):
        try:
            yield evt
        except RuntimeError as e:
            caught.append(str(e))

    eng.process(waiter(eng))

    def firer(eng):
        yield eng.timeout(1.0)
        evt.fail(RuntimeError("boom"))

    eng.process(firer(eng))
    eng.run()
    assert caught == ["boom"]


def test_uncaught_process_exception_propagates_from_run():
    eng = Engine()

    def bad(eng):
        yield eng.timeout(1.0)
        raise ValueError("kaput")

    eng.process(bad(eng))
    with pytest.raises(ValueError, match="kaput"):
        eng.run()


def test_waiting_process_receives_child_failure():
    eng = Engine()

    def bad(eng):
        yield eng.timeout(1.0)
        raise ValueError("inner")

    b = eng.process(bad(eng))
    caught = []

    def parent(eng):
        try:
            yield b
        except ValueError as e:
            caught.append(str(e))

    eng.process(parent(eng))
    eng.run()
    assert caught == ["inner"]


def test_deadlock_detection():
    eng = Engine()

    def stuck(eng):
        yield eng.event()  # never triggered

    eng.process(stuck(eng))
    with pytest.raises(DeadlockError):
        eng.run()


def test_run_until_bound_stops_clock():
    eng = Engine()

    def proc(eng):
        yield eng.timeout(100.0)

    eng.process(proc(eng))
    eng.run(until=10.0)
    assert eng.now == 10.0
    eng.run()  # finish the rest
    assert eng.now == 100.0


def test_yield_non_event_fails_process():
    eng = Engine()

    def bad(eng):
        yield 42  # type: ignore[misc]

    p = eng.process(bad(eng))
    with pytest.raises(SimulationError, match="must yield Events"):
        eng.run()
    assert not p.ok


def test_process_requires_generator():
    eng = Engine()
    with pytest.raises(TypeError):
        eng.process(lambda: None)  # type: ignore[arg-type]


def test_run_until_complete_returns_values_in_order():
    eng = Engine()

    def proc(eng, d):
        yield eng.timeout(d)
        return d

    procs = [eng.process(proc(eng, d)) for d in (3.0, 1.0, 2.0)]
    assert eng.run_until_complete(procs) == [3.0, 1.0, 2.0]


def test_nested_process_spawning():
    eng = Engine()
    results = []

    def leaf(eng, d):
        yield eng.timeout(d)
        return d

    def spawner(eng):
        children = [eng.process(leaf(eng, d)) for d in (1.0, 2.0)]
        for c in children:
            results.append((yield c))

    eng.process(spawner(eng))
    eng.run()
    assert results == [1.0, 2.0]


# ----------------------------------------------------------------------
# Input validation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("delay", [float("nan"), float("inf"), -0.5])
def test_non_finite_or_negative_timeout_rejected(delay):
    eng = Engine()
    with pytest.raises(ValueError, match="delay"):
        eng.timeout(delay)
    with pytest.raises(ValueError, match="delay"):
        Timeout(eng, delay, value="v")
    assert not eng._heap  # nothing was scheduled


@pytest.mark.parametrize("until", [1.0, float("nan")])
def test_run_until_before_now_rejected(until):
    eng = Engine()
    eng.timeout(2.0)
    eng.run()
    with pytest.raises(ValueError, match="until"):
        eng.run(until=until)
    assert eng.now == 2.0  # the clock did not move backwards
    eng.run(until=2.0)  # "until now" is allowed


# ----------------------------------------------------------------------
# Cohort dispatch: same-instant timeouts share one heap entry
# ----------------------------------------------------------------------
def test_back_to_back_timeouts_share_one_heap_entry():
    eng = Engine()
    order = []

    def proc(eng, tag):
        yield eng.timeout(1.0)
        order.append((tag, eng.now))

    for tag in "abc":
        eng.process(proc(eng, tag))
    eng.run()
    assert order == [("a", 1.0), ("b", 1.0), ("c", 1.0)]
    assert eng.timeouts_coalesced == 2
    # 3 bootstrap events + 1 shared timeout + 3 process-exit events.
    assert eng.events_processed == 7


def test_cohort_joined_from_a_later_instant_when_fire_time_is_bit_equal():
    eng = Engine()
    first = eng.timeout(2.0)
    eng.run(until=1.0)
    assert eng.timeout(1.0) is first
    assert eng.timeout(1.0 + 2 ** -40) is not first


def test_no_share_when_either_timeout_carries_a_value():
    eng = Engine()
    plain = eng.timeout(1.0)
    valued = eng.timeout(1.0, value="v")
    assert valued is not plain
    assert eng.timeout(1.0) is not valued  # the value would leak to this waiter
    assert eng.timeouts_coalesced == 0


def test_no_share_when_an_event_was_scheduled_in_between():
    eng = Engine()
    first = eng.timeout(1.0)
    # The event fires earlier, but with it in between the two timeouts are
    # no longer adjacent in (when, seq) order, which is all that is checked.
    eng.event().succeed()
    assert eng.timeout(1.0) is not first
    direct = Timeout(eng, 1.0)  # built without the factory: still takes a seq
    assert eng.timeout(1.0) is not direct
    assert eng.timeouts_coalesced == 0


def test_no_share_with_a_processed_timeout():
    eng = Engine()
    woken = []

    def rearm(evt):
        # Same fire time (now + 0), nothing scheduled since — but ``evt``
        # already ran its callbacks, so a waiter attached now would hang.
        again = eng.timeout(0.0)
        assert again is not evt
        again.callbacks.append(lambda _e: woken.append(eng.now))

    eng.timeout(1.0).callbacks.append(rearm)
    eng.run()
    assert woken == [1.0]


def test_no_share_at_a_different_fire_time():
    eng = Engine()
    first = eng.timeout(1.0)
    assert eng.timeout(1.5) is not first
    assert eng.timeouts_coalesced == 0


def test_interrupting_one_cohort_member_leaves_the_others_in_order():
    eng = Engine()
    order = []

    def proc(eng, tag):
        yield eng.timeout(1.0)
        order.append(tag)

    procs = [eng.process(proc(eng, tag)) for tag in "abcd"]

    def killer(eng):
        yield eng.timeout(0.5)
        procs[1].interrupt(RuntimeError("crash"))

    defuse(procs[1])
    eng.process(killer(eng))
    eng.run()
    assert eng.timeouts_coalesced == 3
    assert order == ["a", "c", "d"]
    assert not procs[1].ok and all(p.ok for p in procs if p is not procs[1])


def test_interrupt_from_inside_the_cohort_skips_the_later_member():
    # "a" and "b" wait on one shared timeout; "a" wakes first and kills
    # "b", whose resume callback is still in the list being walked.
    eng = Engine()
    order = []
    procs = []

    def first(eng):
        yield eng.timeout(1.0)
        order.append("a")
        procs[1].interrupt(RuntimeError("crash"))

    def second(eng):
        yield eng.timeout(1.0)
        order.append("b")

    procs.extend([eng.process(first(eng)), eng.process(second(eng))])
    defuse(procs[1])
    eng.run()
    assert eng.timeouts_coalesced == 1
    assert order == ["a"]


def test_two_any_of_races_share_one_timer():
    eng = Engine()
    results = {}

    def racer(eng, tag, done):
        results[tag] = yield any_of(eng, [done, eng.timeout(1.0)])

    slow, fast = eng.event(), eng.event()
    eng.process(racer(eng, "times_out", slow))
    eng.process(racer(eng, "completes", fast))

    def finisher(eng):
        yield eng.timeout(0.5)
        fast.succeed("data")

    eng.process(finisher(eng))
    eng.run()
    assert eng.timeouts_coalesced == 1
    assert results == {"times_out": (1, None), "completes": (0, "data")}


# ----------------------------------------------------------------------
# run_until_complete(stop_when_done=True)
# ----------------------------------------------------------------------
def test_stop_when_done_leaves_far_future_timers_unfired():
    eng = Engine()
    fired = []
    eng.timeout(100.0).callbacks.append(lambda _e: fired.append(eng.now))

    def proc(eng, d):
        yield eng.timeout(d)
        return d

    procs = [eng.process(proc(eng, d)) for d in (2.0, 1.0)]
    assert eng.run_until_complete(procs, stop_when_done=True) == [2.0, 1.0]
    assert eng.now == 2.0 and not fired and len(eng._heap) == 1
    # Stops right behind the last watched process's own event.
    assert eng.events_processed == 6
    eng.run()
    assert fired == [100.0]


def test_stop_when_done_propagates_a_process_failure():
    eng = Engine()
    eng.timeout(100.0)

    def bad(eng):
        yield eng.timeout(1.0)
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        eng.run_until_complete([eng.process(bad(eng))], stop_when_done=True)
    assert eng.now == 1.0
