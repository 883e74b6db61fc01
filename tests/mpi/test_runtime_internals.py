"""White-box tests of the MPI runtime: queues and counters."""

import pytest

from repro.errors import MPIError
from repro.payload import Sized

from tests.mpi.conftest import make_world


class TestQueues:
    def test_pending_counts_reflect_state(self):
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, tag=1, data=Sized(64))   # eager
                yield from mpi.barrier()
                return None
            rt = mpi.world.runtime(1)
            req = yield from mpi.irecv(0, tag=2, buffer=Sized(64))  # never matched... yet
            yield from mpi.compute(0.01)
            counts = dict(rt.pending_counts())
            # one posted (tag 2), one unexpected (tag 1)
            yield from mpi.recv(0, tag=1, buffer=Sized(64))
            after = dict(rt.pending_counts())
            yield from mpi.barrier()
            # satisfy the dangling tag-2 receive to finish cleanly
            return counts, after, req

        # Send the tag-2 message at the end so the world terminates.
        def program2(mpi):
            out = yield from program(mpi)
            if mpi.rank == 0:
                yield from mpi.send(1, tag=2, data=Sized(64))
                return None
            counts, after, req = out
            yield from mpi.wait(req)
            return counts, after

        world = make_world(nprocs=2)
        res = world.run(program2)
        counts, after = res[1]
        assert counts == {"posted": 1, "unexpected": 1, "deferred_progress_work": 0}
        assert after["unexpected"] == 0

    def test_exit_progress_unbalanced_raises(self):
        world = make_world(nprocs=1)
        with pytest.raises(MPIError):
            world.runtime(0).exit_progress()


class TestCounters:
    def test_protocol_counters(self):
        def program(mpi):
            if mpi.rank == 0:
                for _ in range(3):
                    yield from mpi.send(1, tag=1, data=Sized(100))       # eager
                yield from mpi.send(1, tag=2, data=Sized(100_000))       # rendezvous
            else:
                for _ in range(3):
                    yield from mpi.recv(0, tag=1, buffer=Sized(100))
                yield from mpi.recv(0, tag=2, buffer=Sized(100_000))

        world = make_world(nprocs=2)
        world.run(program)
        assert world.cluster.recorder.count("send.eager") == 3
        assert world.cluster.recorder.count("send.rendezvous") == 1

    def test_progress_deferral_counted(self):
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, tag=1, data=Sized(100_000))
                return None
            req = yield from mpi.irecv(0, tag=1, buffer=Sized(100_000))
            yield from mpi.compute(0.05)  # RTS arrives while not progressing
            yield from mpi.wait(req)

        world = make_world(nprocs=2)
        world.run(program)
        assert world.cluster.recorder.count("progress.deferred") >= 1


class TestTracing:
    def test_counters_always_collected(self):
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, tag=1, data=Sized(100))
                yield from mpi.send(1, tag=2, data=Sized(100_000))
            else:
                yield from mpi.compute(0.01)
                yield from mpi.recv(0, tag=1, buffer=Sized(100))
                yield from mpi.recv(0, tag=2, buffer=Sized(100_000))

        world = make_world(nprocs=2)
        world.run(program)
        recorder = world.cluster.recorder
        assert recorder.count("send.eager") == 1
        assert recorder.count("send.rendezvous") == 1
        assert recorder.count("recv.unexpected") == 1  # the eager landed early
        assert not recorder.spans  # spans need an active recorder

    def test_tracer_clear(self):
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, tag=1, data=Sized(100))
            else:
                yield from mpi.recv(0, tag=1, buffer=Sized(100))

        world = make_world(nprocs=2)
        world.cluster.recorder.active = True
        world.run(program)
        recorder = world.cluster.recorder
        assert recorder.count("send.eager") == 1
        recorder.clear()
        assert recorder.count("send.eager") == 0
        assert not recorder.counters and not recorder.spans
