"""The parallel file system: striping + storage targets + file store."""

from __future__ import annotations

import numpy as np

from repro.errors import CorruptDataError, FileSystemError
from repro.integrity.layer import Verdict
from repro.payload import as_payload, flip, zeros
from repro.sim.engine import Engine, Event
from repro.sim.primitives import all_of, defuse
from repro.sim.rng import RngStreams
from repro.sim.trace import Recorder
from repro.fs.file import SimFile
from repro.fs.presets import FsSpec
from repro.fs.striping import StripeLayout
from repro.fs.target import StorageTarget

__all__ = ["ParallelFileSystem"]


class ParallelFileSystem:
    """A striped parallel file system bound to a simulation engine.

    Writes are split at stripe boundaries and queued on the owning
    targets; a write completes when its slowest piece completes.  The
    written bytes are copied into the file **at completion time**, which
    deliberately mirrors the ``aio_write`` contract: if an algorithm reuses
    a buffer before waiting for the write, the file receives the corrupted
    contents — exactly the bug the double-buffering algorithms must avoid,
    and one our correctness tests would catch.
    """

    def __init__(
        self,
        engine: Engine,
        spec: FsSpec,
        rng: RngStreams | None = None,
        injector=None,
        recorder: Recorder | None = None,
        down_targets: frozenset[int] = frozenset(),
    ) -> None:
        self.engine = engine
        self.spec = spec
        self.injector = injector
        self.recorder = recorder if recorder is not None else Recorder()
        self.layout = StripeLayout(stripe_size=spec.stripe_size, num_targets=spec.num_targets)
        rng = rng or RngStreams(0)
        self.targets = [
            StorageTarget(
                engine,
                target_id=i,
                bandwidth=spec.target_bandwidth,
                latency=spec.target_latency,
                noise=rng.lognormal_noise(f"fs.{spec.name}.t{i}", spec.noise_sigma),
                injector=injector,
            )
            for i in range(spec.num_targets)
        ]
        #: Outages this client has *detected* (learned from a rejected
        #: request, or carried in from a previous recovery attempt via
        #: ``down_targets``).  Writes remap these targets' stripes onto
        #: survivors; a target that is down but not yet known here still
        #: rejects the first request that touches it.
        self.known_down: set[int] = set(down_targets)
        for t in down_targets:
            self.targets[t].go_down()
        #: The world's integrity layer, attached by
        #: :meth:`repro.integrity.layer.IntegrityLayer.ensure`; None keeps
        #: the write path byte-identical to a world without the subsystem.
        self.integrity = None
        self._files: dict[str, SimFile] = {}
        #: Total bytes written through this file system (all files).
        self.bytes_written = 0

    # -- namespace --------------------------------------------------------
    def open(self, path: str) -> SimFile:
        """Open (creating if needed) the file at ``path``."""
        f = self._files.get(path)
        if f is None:
            f = SimFile(path)
            self._files[path] = f
        return f

    def exists(self, path: str) -> bool:
        return path in self._files

    def delete(self, path: str) -> None:
        if path not in self._files:
            raise FileSystemError(f"no such file: {path}")
        del self._files[path]

    def files(self) -> list[str]:
        return sorted(self._files)

    def adopt_files(self, files: dict[str, SimFile]) -> None:
        """Install a carried-over file store (durable state across worlds).

        The recovery manager hands each attempt's world the previous
        attempt's files: bytes that reached the storage targets survive a
        client crash, exactly like a real PFS.
        """
        self._files = files

    def file_store(self) -> dict[str, SimFile]:
        """The durable file store itself, for :meth:`adopt_files` elsewhere."""
        return self._files

    def close(self, keep_files: bool = False) -> None:
        """Let go of the file store; its bytes too unless ``keep_files``.

        A store handed on to the next recovery attempt's world keeps its
        bytes.  Releasing is explicit because file handles (and through
        them the files) sit in the finished world's reference cycles.
        """
        if not keep_files:
            for f in self._files.values():
                f.release()
        self._files = {}

    # -- I/O ---------------------------------------------------------------
    def write(
        self,
        file: SimFile,
        offset: int,
        data,
        checksum: int | None = None,
    ) -> Event:
        """Submit a write of payload ``data``; returns the completion event.

        Real bytes are sampled at *completion* (see class docs), so
        callers must keep the buffer stable until the event fires.  A
        :class:`~repro.payload.Sized` descriptor is *size-only* mode: the
        timing (striping, queueing, contention) is identical but no bytes
        are stored — used by large benchmark sweeps where moving real
        payloads would only exercise the host's memory bus.

        ``checksum`` is the extent's producer-side CRC-32.  When the world
        runs an integrity layer, a carried checksum is recorded as the
        extent's stored-CRC metadata at commit time — the commit already
        knows whether it landed the bytes clean (record the carried CRC,
        no byte pass) or mangled them (torn write, storage bit-flip:
        recompute from what actually landed).  With read-back enabled the
        write also *verifies*: the stored CRC is compared against the
        carried one before the completion event fires; a mismatch fails
        the event with :class:`CorruptDataError` — or, in repair mode,
        rewrites the extent from the still-stable caller buffer with
        bounded attempts.  Without a layer (or checksum) the path below is
        byte-identical to the pre-integrity write.
        """
        if data.dtype != np.uint8:
            raise FileSystemError(f"write data must be uint8, got {data.dtype}")
        data = as_payload(data)
        integrity = self.integrity
        if integrity is None or checksum is None or not len(data):
            return self._write_plain(file, offset, data)
        if not integrity.spec.readback:
            # Record stored-CRC metadata but defer verification to the
            # scrub pass (corruption then surfaces only at scrub time).
            return self._write_plain(file, offset, data, carried_crc=int(checksum))
        done = self.engine.event()
        self.engine.process(
            self._commit_verify_driver(file, int(offset), data, int(checksum), done),
            name="pfs.readback",
        )
        return done

    def _commit_verify_driver(self, file: SimFile, offset: int, data,
                              checksum: int, done: Event):
        """write → compare stored-CRC metadata → (repair-mode) rewrite.

        Replaces the old write → simulated-read-back → compare loop: the
        commit hook records the CRC of what actually landed, so verifying
        a write means comparing two 32-bit values instead of streaming
        the extent back off the storage targets.  Detection coverage is
        unchanged (every torn write and commit-time bit-flip yields a
        mismatching stored CRC); the per-write read traffic is gone.
        """
        integrity = self.integrity
        span = None
        if self.recorder.active:
            span = self.recorder.begin(
                self.engine.now, "readback", "integrity", flow="async",
                bytes=int(data.size),
            )
        attempt = 0
        try:
            while True:
                yield self._write_plain(file, offset, data, carried_crc=checksum)
                verdict = integrity.verdict(
                    file.stored_crc(offset, int(data.size)) == checksum, attempt, "rewrite"
                )
                if verdict is Verdict.OK:
                    done.succeed(self.engine.now)
                    return
                if verdict is Verdict.FAIL:
                    # Defused: the failure belongs to the waiter (retry
                    # layer / drain process), which may attach next tick.
                    defuse(done.fail(CorruptDataError(
                        f"stored extent at offset {offset} ({data.size} "
                        "bytes) failed read-back verification"
                    )))
                    return
                attempt += 1
        except FileSystemError as exc:
            # Transient storage fault mid-verify: surface it unchanged so
            # the caller's existing retry machinery handles it.
            defuse(done.fail(exc))
        finally:
            self.recorder.end(span, self.engine.now)

    def _write_plain(
        self,
        file: SimFile,
        offset: int,
        data,
        carried_crc: int | None = None,
    ) -> Event:
        """The raw striped write (commit-time corruption draws included)."""
        size = len(data)
        self.bytes_written += size
        if size == 0:
            done = self.engine.event()
            done.succeed(self.engine.now)
            return done
        # One coalesced request per storage target: PFS clients stream all
        # stripes of a write to a target in a single RPC, so the per-request
        # latency is paid once per (write, target) pair, not per stripe.
        # Known-down targets' stripes are remapped onto survivors
        # (degraded striping); an *undetected* outage rejects the request.
        per_target = self.layout.bytes_per_target(
            offset, size, down=frozenset(self.known_down)
        )
        span = None
        if self.recorder.active:
            span = self.recorder.begin(
                self.engine.now, "pfs.write", "io.fs", flow="async",
                bytes=size, targets=len(per_target),
            )
        undetected = sorted(
            t for t in per_target if self.targets[t].down and t not in self.known_down
        )
        if undetected:
            victim = undetected[0]
            rejected = self.targets[victim].reject_write()

            def learn(_evt, _t=victim):
                if _t not in self.known_down:
                    self.known_down.add(_t)
                    self.recorder.inc("recovery.target_down")

            rejected.callbacks.insert(0, learn)
            if span is not None:
                rejected.callbacks.append(
                    lambda evt, _s=span: self.recorder.end(_s, evt.engine.now)
                )
            return rejected
        if self.injector is not None:
            victim = self.injector.storage_write_victim(sorted(per_target))
            if victim is not None:
                failed = self.targets[victim].fail_write()
                if span is not None:
                    failed.callbacks.append(
                        lambda evt, _s=span: self.recorder.end(_s, evt.engine.now)
                    )
                return failed
        piece_events = [self.targets[t].submit(n) for t, n in sorted(per_target.items())]
        done = all_of(self.engine, piece_events)
        if span is not None:
            done.callbacks.append(lambda evt, _s=span: self.recorder.end(_s, evt.engine.now))
        # Commit only on success: a write that failed (injected target
        # fault) must not land bytes — the caller retries the whole
        # request, which is idempotent.  Silent storage faults strike at
        # commit: a torn-write draw keeps only a prefix of the request,
        # and a storage draw flips one bit of the committed bytes.  Both
        # draws fire in size-only mode too (schedule parity); the flip
        # needs stored bytes.
        injector = self.injector
        integrity = self.integrity

        def commit(evt: Event, size=size) -> None:
            if not evt.ok:
                return
            keep = size
            if injector is not None:
                torn = injector.torn_write(size)
                if torn is not None:
                    keep = torn
            file.write(offset, data if keep == size else data[:keep])
            flipped = False
            if injector is not None:
                pos = injector.storage_corruption(size)
                if pos is not None and pos < keep:
                    stored = zeros(1, like=data)
                    file.read_into(offset + pos, stored)
                    flip(stored, 0, bit=pos & 7)
                    file.write(offset + pos, stored)
                    flipped = True
            if carried_crc is not None:
                # Stored-CRC metadata (a carried CRC implies a layer): the
                # clean case reuses the carried checksum (no byte pass);
                # only a mangling commit (torn prefix, bit-flip) checksums
                # what actually landed.
                if keep == size and not flipped:
                    file.note_stored_crc(offset, size, carried_crc)
                    integrity.checksum_reused += 1
                else:
                    file.note_stored_crc(
                        offset, size, integrity.checksum(file.read(offset, size))
                    )

        done.callbacks.insert(0, commit)
        return done

    def read(self, file: SimFile, offset: int, dest) -> Event:
        """Submit a read of ``len(dest)`` bytes into ``dest``; returns the
        completion event.

        ``dest`` is filled in place when the read completes (see
        :meth:`SimFile.read_into`; a size-only descriptor receives
        nothing).
        """
        size = len(dest)
        per_target = self.layout.bytes_per_target(
            offset, size, down=frozenset(self.known_down)
        )
        span = None
        if self.recorder.active:
            span = self.recorder.begin(
                self.engine.now, "pfs.read", "io.fs", flow="async",
                bytes=size, targets=len(per_target),
            )
        piece_events = [
            self.targets[t].submit(n, kind="read") for t, n in sorted(per_target.items())
        ]
        done = all_of(self.engine, piece_events)
        if span is not None:
            done.callbacks.append(lambda evt, _s=span: self.recorder.end(_s, evt.engine.now))
        done.callbacks.append(lambda _evt: file.read_into(offset, dest))
        return done
