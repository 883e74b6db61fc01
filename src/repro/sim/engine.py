"""The discrete-event engine: events, processes and the simulation clock.

The model follows the classic event-scheduling world view:

* An :class:`Event` is a one-shot occurrence.  It is *triggered* when its
  outcome (success value or failure exception) is decided, and *processed*
  when the engine pops it off the queue and runs its callbacks.
* A :class:`Process` wraps a generator.  Each ``yield`` hands the engine an
  event to wait for; the generator is resumed with the event's value (or
  the event's exception is thrown into it).  A process is itself an event
  that triggers when the generator terminates, so processes can wait for
  each other.
* The :class:`Engine` owns the clock and the event heap.  Two events
  scheduled for the same instant are processed in the order they were
  scheduled (FIFO), which makes runs bit-for-bit reproducible.
* Waiters that would wake back to back share one heap entry (*cohort
  dispatch*, see :meth:`Engine.timeout`): the order waiters run in is
  the ``(when, seq)`` order either way, only the number of heap
  operations differs.

The kernel knows nothing about MPI, networks or file systems; those layers
are built on top of it.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Generator, Iterable, Sequence

from repro.errors import DeadlockError, SimulationError

__all__ = ["Engine", "Event", "Process", "Timeout"]

# Sentinel for "event outcome not yet decided".
_PENDING = object()

# ``Engine._loop``'s stop count for a run that nothing stops early.
_NO_STOP_COUNT = (1,)


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*.  Calling :meth:`succeed` or :meth:`fail`
    *triggers* it and schedules it for processing at the current simulated
    time; when the engine processes it, every callback in
    :attr:`callbacks` is invoked with the event as its only argument.

    Waiting is expressed by appending a callback (processes do this
    automatically when they ``yield`` an event).
    """

    # ``triggered``/``processed``/``ok`` are plain attributes, not
    # properties: they are read hundreds of thousands of times per run
    # (every composite wait and every process resumption checks them),
    # and descriptor dispatch was a measurable share of the event loop.
    __slots__ = ("engine", "callbacks", "triggered", "processed", "ok",
                 "_outcome", "defused")

    def __init__(self, engine: "Engine") -> None:
        self.engine = engine
        self.callbacks: list[Callable[["Event"], None]] = []
        #: True once the outcome (value or exception) has been decided.
        self.triggered: bool = False
        #: True once callbacks have run.
        self.processed: bool = False
        #: True if the event succeeded.  Only meaningful once triggered.
        self.ok: bool = True
        self._outcome: Any = _PENDING
        #: A failed event whose exception was delivered to a waiter is
        #: "defused"; an un-defused failure surfaces from :meth:`Engine.run`.
        self.defused: bool = False

    @property
    def value(self) -> Any:
        """The success value or failure exception of a triggered event."""
        if self._outcome is _PENDING:
            raise SimulationError("event value read before it was triggered")
        return self._outcome

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event triggered twice")
        self._outcome = value
        self.triggered = True
        self.ok = True
        self.engine._push(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self.triggered:
            raise SimulationError("event triggered twice")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._outcome = exception
        self.triggered = True
        self.ok = False
        self.engine._push(self)
        return self

    def _process(self) -> None:
        """Run callbacks.  Called exactly once by the engine."""
        self.processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)
        if not self.ok and not self.defused:
            # Nobody is handling this failure: abort the simulation run.
            raise self._outcome

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if not self.triggered else ("ok" if self.ok else "failed")
        return f"<{type(self).__name__} {state} at {hex(id(self))}>"


class Timeout(Event):
    """An event that succeeds ``delay`` seconds after creation.

    The outcome is decided up front, but the event only *triggers* when
    its fire time arrives — ``triggered`` is False until then, so waiters
    (including :class:`~repro.sim.primitives.AllOf`) see it as pending.
    """

    __slots__ = ("delay", "_pending_value")

    def __init__(self, engine: "Engine", delay: float, value: Any = None) -> None:
        if not 0 <= delay < math.inf:  # also rejects NaN, which no "<" catches
            raise ValueError(f"timeout delay must be finite and >= 0, got {delay}")
        # Event.__init__ and Engine._push written out: one timeout per
        # message, call overhead and I/O piece makes this the most
        # executed constructor of a run.
        self.engine = engine
        self.callbacks = []
        self.triggered = False
        self.processed = False
        self.ok = True
        self._outcome = _PENDING
        self.defused = False
        self.delay = delay
        self._pending_value = value
        engine._seq += 1
        heap = engine._heap
        heapq.heappush(heap, (engine.now + delay, engine._seq, self))
        if len(heap) > engine.max_heap_len:
            engine.max_heap_len = len(heap)

    def _process(self) -> None:
        self._outcome = self._pending_value
        self.triggered = self.processed = True
        callbacks, self.callbacks = self.callbacks, []
        for callback in callbacks:
            callback(self)

    def succeed(self, value: Any = None) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout events trigger themselves")

    def fail(self, exception: BaseException) -> "Event":  # pragma: no cover
        raise SimulationError("Timeout events trigger themselves")


class Process(Event):
    """A simulated activity driven by a generator.

    The generator may ``yield`` any :class:`Event`; it is resumed with the
    event's value once the event is processed.  If the awaited event
    failed, its exception is thrown into the generator (which may catch
    it).  When the generator returns, the process event succeeds with the
    return value; an uncaught exception fails the process event.
    """

    __slots__ = ("_generator", "name", "_waiting_on")

    def __init__(
        self,
        engine: "Engine",
        generator: Generator[Event, Any, Any],
        name: str = "",
    ) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(
                f"Process needs a generator, got {type(generator).__name__}; "
                "did you call a plain function instead of a generator function?"
            )
        super().__init__(engine)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Event | None = None
        engine._active_processes += 1
        # Bootstrap: first resumption at the current time.
        start = Event(engine)
        start.callbacks.append(self._resume)
        start.succeed(None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return not self.triggered

    def abandon(self) -> None:
        """Unwind a generator the simulation will never resume.

        For the processes of a run that was aborted: their suspended
        frames hold the buffers they were working on.  The event stays
        untriggered — nobody is left to wait for it.
        """
        if not self.triggered:
            self._generator.close()

    def interrupt(self, exception: BaseException) -> bool:
        """Kill the process by throwing ``exception`` into its generator.

        Used by the fault layer to deliver rank crashes: the generator is
        unwound (whatever it was waiting on is abandoned), the process
        event *fails* with ``exception``, and — unless something defuses
        it — the failure aborts the engine run at the current instant.
        Returns False (no-op) if the process already terminated.
        """
        if self.triggered:
            return False
        target = self._waiting_on
        if target is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:
                pass
            self._waiting_on = None
        self.engine._active_processes -= 1
        try:
            self._generator.throw(exception)
        except BaseException:
            pass  # expected: the exception (or StopIteration) unwinding out
        else:
            # The generator caught the exception and yielded again; a
            # crashed process gets no say — close it.
            self._generator.close()
        self.fail(exception)
        return True

    def _resume(self, event: Event) -> None:
        if self.triggered:
            # Interrupted while a bridge/notification was in flight.
            return
        self._waiting_on = None
        engine = self.engine
        engine._current = self
        try:
            # A processed event's outcome is decided: read it without the
            # ``value`` property's pending check.
            if event.ok:
                target = self._generator.send(event._outcome)
            else:
                event.defused = True
                target = self._generator.throw(event._outcome)
        except StopIteration as stop:
            engine._active_processes -= 1
            engine._current = None
            self.succeed(stop.value)
            return
        except BaseException as exc:
            engine._active_processes -= 1
            engine._current = None
            self.fail(exc)
            return
        engine._current = None
        if not isinstance(target, Event):
            error = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Events"
            )
            engine._active_processes -= 1
            self.fail(error)
            return
        self._waiting_on = target
        if target.processed:
            # The event already ran its callbacks; resume on a fresh tick so
            # ordering stays heap-mediated and deterministic.
            bridge = Event(engine)
            bridge.callbacks.append(self._resume)
            if target.ok:
                bridge.succeed(target.value)
            else:
                target.defused = True
                bridge.fail(target.value)
                bridge.defused = True  # re-armed via _resume's throw path
        else:
            target.callbacks.append(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class Engine:
    """The simulation clock and event queue.

    Typical use::

        eng = Engine()

        def worker(eng):
            yield eng.timeout(1.5)
            return "done"

        proc = eng.process(worker(eng))
        eng.run()  # now eng.now == 1.5 and proc.value == "done"
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq: int = 0
        self._active_processes: int = 0
        self._current: Process | None = None
        #: Events processed so far (monotone; cheap enough to keep always on).
        self.events_processed: int = 0
        #: :meth:`timeout` calls answered with an already scheduled
        #: timeout; ``events_processed + timeouts_coalesced`` counts
        #: wake-ups, the number comparable across dispatch strategies.
        self.timeouts_coalesced: int = 0
        #: High-water mark of the event heap — a proxy for how much
        #: concurrent in-flight work the modelled program generates.
        self.max_heap_len: int = 0
        # The most recently scheduled value-less timeout, the ``_seq`` it
        # was pushed with and its fire time (see :meth:`timeout`).
        self._cohort: Timeout | None = None
        self._cohort_seq: int = -1
        self._cohort_when: float = 0.0

    # -- factory helpers --------------------------------------------------
    def event(self) -> Event:
        """Create a new pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that succeeds ``delay`` seconds from now.

        Cohort dispatch: a value-less request is answered with the most
        recently scheduled timeout, instead of a new heap entry, when
        nothing has been scheduled since, the fire times are bit-equal
        and it has not been processed yet.  A new entry would sit
        directly behind that one in ``(when, seq)`` order, so running
        both waiters from one callback list, in the order they attached,
        is the same schedule.  Callers attach their waiter where they
        create the timeout (``yield`` it, append the callback on the next
        line, or hand it to ``any_of``); a waiter attached later would
        run behind the cohort members that asked after it.
        """
        if value is not None:
            return Timeout(self, delay, value)
        if (
            self._seq == self._cohort_seq
            and self.now + delay == self._cohort_when
            and not self._cohort.processed
        ):
            self.timeouts_coalesced += 1
            return self._cohort
        timer = self._cohort = Timeout(self, delay)
        self._cohort_seq = self._seq
        self._cohort_when = self.now + delay
        return timer

    def process(self, generator: Generator[Event, Any, Any], name: str = "") -> Process:
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    def close(self) -> None:
        """Drop the pending events (an aborted run's in-flight work; the
        clock and the statistics stay readable)."""
        self._heap.clear()

    # -- scheduling --------------------------------------------------------
    def _push(self, event: Event, delay: float = 0.0) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self.now + delay, self._seq, event))
        if len(self._heap) > self.max_heap_len:
            self.max_heap_len = len(self._heap)

    # -- execution ---------------------------------------------------------
    def _loop(self, until: float | None, pending: Sequence[int]) -> bool:
        """The event loop: pop and process events in ``(when, seq)`` order.

        Stops when the heap is empty, when the next event lies beyond
        ``until``, or when ``pending[0]`` (a count the caller's callbacks
        decrement) reaches zero.  Returns True if the heap drained.
        """
        # This loop IS the simulator's hot path, so the heap, the pop and
        # the event counter live in locals and the count is folded back in
        # one write (exception-safe via the finally: an event is counted
        # before it is processed).
        heap = self._heap
        heappop = heapq.heappop
        count = 0
        try:
            while heap and pending[0]:
                if until is not None and heap[0][0] > until:
                    return False
                when, _, event = heappop(heap)
                if when < self.now:
                    raise SimulationError("time went backwards")
                self.now = when
                count += 1
                event._process()
        finally:
            self.events_processed += count
        return not heap

    def run(self, until: float | None = None) -> None:
        """Drain the event queue, optionally stopping at time ``until``.

        Raises :class:`~repro.errors.DeadlockError` if the queue empties
        while processes are still alive (and no ``until`` bound was hit),
        because in a closed simulation that means the modelled program can
        never make progress again.
        """
        if until is not None and not until >= self.now:  # NaN fails too
            raise ValueError(f"run(until={until}) lies before now={self.now}")
        drained = self._loop(until, _NO_STOP_COUNT)
        if until is not None:
            self.now = until
        if drained and self._active_processes > 0:
            raise DeadlockError(
                f"event queue drained with {self._active_processes} process(es) "
                "still waiting — the simulated program is deadlocked"
            )

    def run_until_complete(
        self, processes: Iterable[Process], stop_when_done: bool = False
    ) -> list[Any]:
        """Run until every process in ``processes`` has terminated.

        Returns their values in order.  Any process failure propagates.

        ``stop_when_done=True`` stops as soon as all of ``processes``
        have been processed instead of draining the heap — needed when
        far-future fault timers are armed (a crash scheduled past the
        program's natural end must not advance the clock).
        """
        processes = list(processes)
        if stop_when_done:
            pending = [0]

            def _done(_evt: Event) -> None:
                pending[0] -= 1

            for proc in processes:
                if not proc.processed:
                    pending[0] += 1
                    proc.callbacks.append(_done)
            self._loop(None, pending)
        else:
            self.run()
        results = []
        for proc in processes:
            if not proc.triggered:
                raise DeadlockError(f"process {proc.name!r} never terminated")
            if not proc.ok:
                raise proc.value
            results.append(proc.value)
        return results
