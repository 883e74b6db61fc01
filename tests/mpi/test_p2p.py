"""Point-to-point tests: eager/rendezvous protocols, matching, progress."""

import numpy as np
import pytest

from repro.errors import MPIError
from repro.payload import Sized

from tests.mpi.conftest import make_world

EAGER = 1024  # conftest eager threshold


def run2(program, *args, **kw):
    world = make_world(nprocs=2, **kw)
    return world, world.run(program, *args)


class TestBasicTransfer:
    def test_eager_payload_delivered(self):
        data = np.arange(100, dtype=np.uint8)

        def program(mpi):
            if mpi.rank == 0:
                req = yield from mpi.isend(1, tag=3, data=data)
                yield from mpi.wait(req)
                return None
            buf = np.zeros(100, dtype=np.uint8)
            req = yield from mpi.irecv(0, tag=3, buffer=buf)
            yield from mpi.wait(req)
            return buf

        _, res = run2(program)
        assert np.array_equal(res[1], data)

    def test_rendezvous_payload_delivered(self):
        data = np.random.default_rng(0).integers(0, 256, 100_000).astype(np.uint8)

        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, tag=3, data=data)
                return None
            buf = np.zeros(data.size, dtype=np.uint8)
            yield from mpi.recv(0, tag=3, buffer=buf)
            return buf

        _, res = run2(program)
        assert np.array_equal(res[1], data)

    def test_protocol_selection_by_threshold(self):
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, tag=1, data=Sized(EAGER - 1))
                yield from mpi.send(1, tag=2, data=Sized(EAGER))
            else:
                yield from mpi.recv(0, tag=1, buffer=Sized(EAGER - 1))
                yield from mpi.recv(0, tag=2, buffer=Sized(EAGER))

        world, _ = run2(program)
        assert world.cluster.recorder.count("send.eager") == 1
        assert world.cluster.recorder.count("send.rendezvous") == 1

    def test_size_only_messages(self):
        """Messages can be size-only (no payload) for pure timing studies."""

        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, tag=1, data=Sized(10_000))
            else:
                yield from mpi.recv(0, tag=1, buffer=Sized(10_000))
            return mpi.now

        _, res = run2(program)
        assert res[0] > 0

    def test_bytes_payload(self):
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, tag=1, data=b"hello")
                return None
            buf = np.zeros(5, dtype=np.uint8)
            yield from mpi.recv(0, tag=1, buffer=buf)
            return bytes(buf)

        _, res = run2(program)
        assert res[1] == b"hello"


class TestMatching:
    def test_matching_by_tag(self):
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, tag=7, data=np.full(10, 7, np.uint8))
                yield from mpi.send(1, tag=8, data=np.full(10, 8, np.uint8))
                return None
            b8 = np.zeros(10, dtype=np.uint8)
            b7 = np.zeros(10, dtype=np.uint8)
            # Receive in the opposite order: matching is by tag, not arrival.
            r8 = yield from mpi.irecv(0, tag=8, buffer=b8)
            r7 = yield from mpi.irecv(0, tag=7, buffer=b7)
            yield from mpi.waitall([r7, r8])
            return (b7[0], b8[0])

        _, res = run2(program)
        assert res[1] == (7, 8)

    def test_fifo_order_same_key(self):
        """Two same-tag messages arrive in posting order."""

        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, tag=1, data=np.full(10, 1, np.uint8))
                yield from mpi.send(1, tag=1, data=np.full(10, 2, np.uint8))
                return None
            a = np.zeros(10, dtype=np.uint8)
            b = np.zeros(10, dtype=np.uint8)
            yield from mpi.recv(0, tag=1, buffer=a)
            yield from mpi.recv(0, tag=1, buffer=b)
            return (a[0], b[0])

        _, res = run2(program)
        assert res[1] == (1, 2)

    def test_contexts_do_not_crosstalk(self):
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, tag=1, data=np.full(4, 5, np.uint8), context="a")
                yield from mpi.send(1, tag=1, data=np.full(4, 6, np.uint8), context="b")
                return None
            b_ctx = np.zeros(4, dtype=np.uint8)
            a_ctx = np.zeros(4, dtype=np.uint8)
            rb = yield from mpi.irecv(0, tag=1, buffer=b_ctx, context="b")
            ra = yield from mpi.irecv(0, tag=1, buffer=a_ctx, context="a")
            yield from mpi.waitall([ra, rb])
            return (a_ctx[0], b_ctx[0])

        _, res = run2(program)
        assert res[1] == (5, 6)

    def test_unmatched_recv_deadlocks(self):
        from repro.errors import DeadlockError

        def program(mpi):
            if mpi.rank == 1:
                yield from mpi.recv(0, tag=99, buffer=Sized(10))
            else:
                yield from mpi.compute(0.001)

        with pytest.raises(DeadlockError):
            run2(program)

    def test_peer_range_checked(self):
        def program(mpi):
            yield from mpi.send(5, tag=0, data=Sized(10))

        with pytest.raises(MPIError):
            run2(program)


class TestTruncation:
    """A message longer than its posted receive fails that receive, naming
    both sizes (MPI_ERR_TRUNCATE), on all three delivery paths."""

    @pytest.mark.parametrize(
        "nbytes,recv_late",
        [(EAGER // 2, False), (EAGER // 2, True), (4 * EAGER, False)],
        ids=["eager", "unexpected", "rendezvous"],
    )
    def test_longer_message_fails_the_receive(self, nbytes, recv_late):
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, tag=1, data=np.ones(nbytes, np.uint8))
                return None
            if recv_late:
                yield from mpi.compute(0.01)  # the message lands unexpected
            req = yield from mpi.irecv(0, tag=1, buffer=np.zeros(nbytes - 1, np.uint8))
            try:
                yield from mpi.wait(req)
            except MPIError as exc:
                return str(exc)
            return "received"

        _, res = run2(program)
        assert f"{nbytes} bytes" in res[1] and f"{nbytes - 1} bytes" in res[1]


class TestUnexpectedQueue:
    def test_eager_buffered_when_no_recv_posted(self):
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, tag=1, data=np.full(10, 3, np.uint8))
                return None
            yield from mpi.compute(0.01)  # let the message arrive first
            assert mpi.world.runtime(1).unexpected_total == 1
            buf = np.zeros(10, dtype=np.uint8)
            yield from mpi.recv(0, tag=1, buffer=buf)
            assert mpi.world.runtime(1).unexpected_total == 0
            return buf[0]

        _, res = run2(program)
        assert res[1] == 3

    def test_match_cost_scales_with_queue_length(self):
        """Posting a receive gets costlier as the unexpected queue grows."""

        def program(mpi, nmsgs):
            if mpi.rank == 0:
                for i in range(nmsgs):
                    yield from mpi.send(1, tag=i, data=Sized(16))
                return None
            yield from mpi.compute(0.01)  # everything lands unexpected
            t0 = mpi.now
            yield from mpi.recv(0, tag=nmsgs - 1, buffer=Sized(16))
            return mpi.now - t0

        _, few = run2(program, 2)
        _, many = run2(program, 50)
        assert many[1] > few[1]

    def test_eager_sender_not_blocked_by_missing_recv(self):
        """Eager sends complete locally even if the receiver never... posts yet."""

        def program(mpi):
            if mpi.rank == 0:
                req = yield from mpi.isend(1, tag=1, data=Sized(64))
                yield from mpi.wait(req)
                done_at = mpi.now
                yield from mpi.barrier()
                return done_at
            yield from mpi.compute(0.5)
            yield from mpi.recv(0, tag=1, buffer=Sized(64))
            yield from mpi.barrier()
            return None

        _, res = run2(program)
        assert res[0] < 0.01  # sender done long before receiver posted


class TestRendezvousProgress:
    SIZE = 500_000  # >> eager threshold

    def test_sender_coupled_to_busy_receiver(self):
        """Rendezvous cannot complete while the receiver computes (no progress)."""

        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, tag=1, data=Sized(self.SIZE))
                return mpi.now
            req = yield from mpi.irecv(0, tag=1, buffer=Sized(self.SIZE))
            yield from mpi.compute(0.25)
            yield from mpi.wait(req)
            return mpi.now

        _, res = run2(program)
        assert res[0] > 0.25

    def test_progress_thread_decouples(self):
        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.send(1, tag=1, data=Sized(self.SIZE))
                return mpi.now
            req = yield from mpi.irecv(0, tag=1, buffer=Sized(self.SIZE))
            yield from mpi.compute(0.25)
            yield from mpi.wait(req)
            return mpi.now

        world = make_world(nprocs=2, progress_thread=True)
        res = world.run(program)
        assert res[0] < 0.01

    def test_receiver_in_wait_is_progressing(self):
        """A receiver blocked in wait() serves the handshake immediately."""

        def program(mpi):
            if mpi.rank == 0:
                yield from mpi.compute(0.1)  # stagger the send
                yield from mpi.send(1, tag=1, data=Sized(self.SIZE))
                return mpi.now
            yield from mpi.recv(0, tag=1, buffer=Sized(self.SIZE))
            return mpi.now

        _, res = run2(program)
        assert res[0] < 0.15  # only the stagger + transfer, no extra stall

    def test_rendezvous_payload_sampled_at_completion(self):
        """Reusing the send buffer before completion corrupts the data."""

        def program(mpi):
            if mpi.rank == 0:
                buf = np.full(self.SIZE, 1, dtype=np.uint8)
                req = yield from mpi.isend(1, tag=1, data=buf)
                buf[:] = 2  # illegal early reuse
                yield from mpi.wait(req)
                return None
            out = np.zeros(self.SIZE, dtype=np.uint8)
            yield from mpi.recv(0, tag=1, buffer=out)
            return out[0]

        _, res = run2(program)
        assert res[1] == 2

    def test_eager_payload_snapshotted_at_send(self):
        """Eager sends are buffered: immediate reuse is safe."""

        def program(mpi):
            if mpi.rank == 0:
                buf = np.full(100, 1, dtype=np.uint8)
                req = yield from mpi.isend(1, tag=1, data=buf)
                buf[:] = 2  # fine for eager
                yield from mpi.wait(req)
                return None
            out = np.zeros(100, dtype=np.uint8)
            yield from mpi.recv(0, tag=1, buffer=out)
            return out[0]

        _, res = run2(program)
        assert res[1] == 1


class TestValidation:
    def test_recv_buffer_must_be_uint8(self):
        def program(mpi):
            yield from mpi.irecv(0, tag=1, buffer=np.zeros(4, np.float32))

        with pytest.raises(MPIError):
            make_world(nprocs=1).run(program)
