"""The ordering law, checked against an independent reference.

The engine's contract is one sentence: *events run in ``(when, seq)``
order*, ``seq`` being the order they were scheduled in.  Cohort
dispatch (waiters that would wake back to back share one heap entry)
must be invisible under that law.  This test runs random process
programs — timeouts with repeated delays (so cohorts form), plain
events, ``all_of``/``any_of`` and interrupts — on the real engine and on
a reference kernel written here that implements the law literally, one
heap entry per wake-up, and compares what every process saw: the order
of resumptions, their times and their values.
"""

import heapq

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError
from repro.sim import Engine, all_of, any_of
from repro.sim.primitives import defuse


# ----------------------------------------------------------------------
# The reference: a (when, seq) scheduler and the least that sits on it
# ----------------------------------------------------------------------
class RefScheduler:
    """Pops ``(when, seq, event)`` in order; every wake-up is one entry."""

    def __init__(self):
        self.now, self.seq, self.heap, self.popped = 0.0, 0, [], 0

    def push(self, delay, event):
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, event))

    def run(self):
        while self.heap:
            self.now, _, event = heapq.heappop(self.heap)
            self.popped += 1
            event.done = True
            waiters, event.waiters = event.waiters, []
            for waiter in waiters:
                waiter(event)


class RefEvent:
    """``triggered`` = outcome decided, ``done`` = waiters have run."""

    def __init__(self, sched):
        self.sched, self.waiters = sched, []
        self.triggered = self.done = False
        self.value = None

    def succeed(self, value=None):
        self.triggered, self.value = True, value
        self.sched.push(0.0, self)


class RefKernel:
    """The engine's documented semantics on top of :class:`RefScheduler`."""

    def __init__(self):
        self.sched = RefScheduler()

    @property
    def now(self):
        return self.sched.now

    def event(self):
        return RefEvent(self.sched)

    def timeout(self, delay):
        event = RefEvent(self.sched)
        self.sched.push(delay, event)
        return event

    def condition(self, children, need_all):
        cond, left = RefEvent(self.sched), [len(children)]

        def on_child(child):
            if cond.triggered:
                return
            left[0] -= 1
            if not need_all:
                cond.succeed((children.index(child), child.value))
            elif not left[0]:
                cond.succeed([c.value for c in children])

        if not children:
            cond.succeed([])
        for child in children:
            if child.done:
                on_child(child)
            else:
                child.waiters.append(on_child)
            if cond.triggered:
                break
        return cond

    def all_of(self, children):
        return self.condition(children, need_all=True)

    def any_of(self, children):
        return self.condition(children, need_all=False)

    def process(self, generator):
        proc = RefEvent(self.sched)
        proc.waiting = None

        def resume(event):
            if proc.triggered:
                return
            try:
                target = generator.send(event.value)
            except StopIteration:
                proc.succeed()
                return
            proc.waiting = target
            if target.done:  # already ran its waiters: resume on a fresh tick
                target = RefEvent(self.sched)
                target.succeed(proc.waiting.value)
            target.waiters.append(resume)

        proc.resume = resume
        start = RefEvent(self.sched)
        start.waiters.append(resume)
        start.succeed()
        return proc

    def interrupt(self, proc):
        if proc.triggered:
            return
        if proc.waiting is not None and proc.resume in proc.waiting.waiters:
            proc.waiting.waiters.remove(proc.resume)
        proc.succeed()

    def run(self):
        self.sched.run()
        return self.sched.popped


class RealKernel:
    """The same vocabulary over the engine under test."""

    def __init__(self):
        self.engine = Engine()
        self.event = self.engine.event
        self.timeout = self.engine.timeout

    @property
    def now(self):
        return self.engine.now

    def all_of(self, children):
        return all_of(self.engine, children)

    def any_of(self, children):
        return any_of(self.engine, children)

    def process(self, generator):
        proc = self.engine.process(generator)
        defuse(proc)  # an interrupted process fails; nobody waits on it
        return proc

    def interrupt(self, proc):
        proc.interrupt(RuntimeError("interrupted"))

    def run(self):
        try:
            self.engine.run()
        except DeadlockError:
            pass  # a program may wait on an event nobody fires
        return self.engine.events_processed + self.engine.timeouts_coalesced


# ----------------------------------------------------------------------
# Random programs
# ----------------------------------------------------------------------
#: Few distinct delays, so same-instant cohorts are the common case; 0.1
#: and 0.3 make fire times that are equal only when they are bit-equal.
DELAYS = st.sampled_from([0.0, 0.1, 0.25, 0.25, 0.3, 0.5, 0.5, 1.0])
N_EVENTS = 3

OPS = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("wait"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("fire"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("all"), st.lists(DELAYS, min_size=0, max_size=3)),
    st.tuples(st.just("any"), st.lists(DELAYS, min_size=1, max_size=3)),
    st.tuples(st.just("race"), st.integers(0, N_EVENTS - 1), DELAYS),
    st.tuples(st.just("interrupt"), st.integers(0, 5)),
)
PROGRAMS = st.lists(st.lists(OPS, max_size=6), min_size=1, max_size=6)


def execute(kernel, programs):
    """Run ``programs`` on ``kernel``; returns (log, final clock, wake-ups)."""
    log, procs = [], []
    events = [kernel.event() for _ in range(N_EVENTS)]

    def body(pid, ops):
        for step, op in enumerate(ops):
            kind = op[0]
            if kind == "sleep":
                got = yield kernel.timeout(op[1])
            elif kind == "wait":
                got = yield events[op[1]]
            elif kind == "fire":
                if not events[op[1]].triggered:
                    events[op[1]].succeed((pid, step))
                continue
            elif kind == "all":
                got = yield kernel.all_of([kernel.timeout(d) for d in op[1]])
            elif kind == "any":
                got = yield kernel.any_of([kernel.timeout(d) for d in op[1]])
            elif kind == "race":
                got = yield kernel.any_of([events[op[1]], kernel.timeout(op[2])])
            else:
                victim = op[1]
                if victim != pid and victim < len(procs):
                    kernel.interrupt(procs[victim])
                continue
            log.append((pid, step, kernel.now, got))

    for pid, ops in enumerate(programs):
        procs.append(kernel.process(body(pid, ops)))
    wakeups = kernel.run()
    return log, kernel.now, wakeups


@settings(max_examples=300, deadline=None)
@given(PROGRAMS)
def test_engine_matches_reference_scheduler(programs):
    real = execute(RealKernel(), programs)
    reference = execute(RefKernel(), programs)
    # Same resumptions, in the same order, at bit-equal times, with the
    # same values; the same final clock; and every heap entry the
    # reference needed is either an engine event or a coalesced timeout.
    assert real == reference


def test_the_programs_do_form_cohorts():
    """The property above is only worth its name if sharing happens."""
    kernel = RealKernel()
    execute(kernel, [[("sleep", 0.5), ("sleep", 0.25)]] * 4)
    assert kernel.engine.timeouts_coalesced == 6
