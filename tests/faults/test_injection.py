"""The fault injector: spec validation, determinism, and the acceptance
criterion — every overlap algorithm survives a 10% transient-failure rate
byte-exactly, with the recovery visible in trace counters."""

import numpy as np
import pytest

from repro.collio import CollectiveConfig, RunSpec, run_collective_write
from repro.collio.view import FileView
from repro.errors import ConfigurationError
from repro.faults import FAULT_PRESETS, FaultSpec, RetryPolicy, fault_preset
from repro.mpi import World
from repro.sim.trace import Recorder

from tests.faults.conftest import small_cluster, small_fs

ALL_ALGORITHMS = ["no_overlap", "comm_overlap", "write_overlap", "write_comm", "write_comm2"]


def contiguous_views(nprocs, per_rank):
    return {r: FileView.contiguous(r * per_rank, per_rank) for r in range(nprocs)}


class TestFaultSpec:
    def test_disabled_by_default(self):
        assert not FaultSpec().enabled

    def test_enabled_when_any_rate_set(self):
        assert FaultSpec(write_fail_rate=0.1).enabled
        assert FaultSpec(straggler_rate=0.1).enabled
        assert FaultSpec(aio_submit_fail_rate=0.1).enabled

    def test_delay_without_rate_is_disabled(self):
        # A rate with zero mean delay (or vice versa) can never fire.
        assert not FaultSpec(message_delay_rate=0.5).enabled
        assert not FaultSpec(message_delay=1e-5).enabled
        assert FaultSpec(message_delay_rate=0.5, message_delay=1e-5).enabled

    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_rates_validated(self, bad):
        with pytest.raises(ConfigurationError):
            FaultSpec(write_fail_rate=bad)

    def test_straggler_factor_validated(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(straggler_factor=0.5)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(message_delay=-1e-6)

    def test_with_override(self):
        spec = FaultSpec().with_(write_fail_rate=0.2)
        assert spec.write_fail_rate == 0.2
        assert not FaultSpec().enabled


class TestPresets:
    def test_registry_names(self):
        assert {"flaky-targets", "degraded-aio", "jittery-network", "stormy"} <= set(
            FAULT_PRESETS
        )

    def test_lookup(self):
        for name in FAULT_PRESETS:
            assert fault_preset(name).enabled

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="nope"):
            fault_preset("nope")

    def test_reexported_from_fs_presets(self):
        from repro.fs.presets import fault_preset as via_fs

        assert via_fs("stormy") == fault_preset("stormy")


class TestDisabledWorld:
    def test_disabled_spec_builds_no_injector(self):
        w = World(small_cluster(), 2, fs_spec=small_fs(), faults=FaultSpec())
        assert w.faults is None
        assert World(small_cluster(), 2, fs_spec=small_fs()).faults is None

    def test_enabled_spec_builds_injector(self):
        w = World(
            small_cluster(), 2, fs_spec=small_fs(),
            faults=FaultSpec(write_fail_rate=0.1),
        )
        assert w.faults is not None
        assert w.pfs.injector is w.faults

    def test_disabled_spec_is_bit_identical_to_no_spec(self):
        """Acceptance: with FaultSpec disabled, numbers are unchanged."""
        kwargs = dict(
            nprocs=6, views=contiguous_views(6, 30_000),
            algorithm="write_overlap",
            config=CollectiveConfig(cb_buffer_size=16 * 1024), verify=True,
        )
        clean = run_collective_write(RunSpec(cluster=small_cluster(), fs=small_fs(), **kwargs))
        disabled = run_collective_write(RunSpec(
            cluster=small_cluster(), fs=small_fs(), faults=FaultSpec(), **kwargs
        ))
        assert disabled.elapsed == clean.elapsed
        assert disabled.trace_counters == clean.trace_counters


class TestInjectorDraws:
    def _injector(self, spec):
        world = World(small_cluster(), 2, fs_spec=small_fs(), faults=spec)
        return world

    def test_write_victim_respects_rate(self):
        world = self._injector(FaultSpec(write_fail_rate=1.0))
        victim = world.faults.storage_write_victim([1, 3])
        assert victim in (1, 3)
        assert world.cluster.recorder.count("fault.write_fail") == 1
        world2 = self._injector(FaultSpec(straggler_rate=1.0))
        assert world2.faults.storage_write_victim([0]) is None

    def test_straggler_factor(self):
        world = self._injector(FaultSpec(straggler_rate=1.0, straggler_factor=7.0))
        assert world.faults.storage_service_factor(0) == 7.0
        assert world.cluster.recorder.count("fault.straggler") == 1
        world2 = self._injector(FaultSpec(write_fail_rate=1.0))
        assert world2.faults.storage_service_factor(0) == 1.0

    def test_aio_refusal(self):
        world = self._injector(FaultSpec(aio_submit_fail_rate=1.0))
        assert world.faults.aio_submit_fails(0)

    def test_delivery_delay_bounds(self):
        spec = FaultSpec(message_delay_rate=1.0, message_delay=1e-4)
        world = self._injector(spec)
        for _ in range(50):
            d = world.faults.message_delay(0)
            assert 0.5e-4 <= d <= 1.5e-4

    def test_rendezvous_delay_independent_stream(self):
        spec = FaultSpec(rendezvous_delay_rate=1.0, rendezvous_delay=1e-4)
        world = self._injector(spec)
        assert world.faults.rendezvous_delay(1) > 0
        assert world.faults.message_delay(1) == 0.0  # rate not set


FAULTY = FaultSpec(write_fail_rate=0.10, straggler_rate=0.05, straggler_factor=4.0)


@pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
def test_ten_percent_failure_rate_byte_exact(algorithm):
    """Acceptance: at a 10% transient-failure rate, every algorithm
    completes byte-exactly, with retries visible in the counters."""
    res = run_collective_write(RunSpec(
        cluster=small_cluster(), fs=small_fs(), nprocs=8,
        views=contiguous_views(8, 40_000),
        algorithm=algorithm,
        config=CollectiveConfig(cb_buffer_size=16 * 1024),
        verify=True,
        faults=FAULTY,
        retry=RetryPolicy(max_retries=10),
    ))
    assert res.verified
    assert res.trace_counters["fault.write_fail"] > 0
    assert res.trace_counters["retry.attempt"] > 0
    # Every injected failure was retried, none exhausted the policy.
    assert "retry.exhausted" not in res.trace_counters


def test_faults_slow_the_run_down():
    kwargs = dict(
        nprocs=8, views=contiguous_views(8, 40_000), algorithm="no_overlap",
        config=CollectiveConfig(cb_buffer_size=16 * 1024),
    )
    clean = run_collective_write(RunSpec(cluster=small_cluster(), fs=small_fs(), **kwargs))
    faulty = run_collective_write(RunSpec(
        cluster=small_cluster(), fs=small_fs(),
        faults=FAULTY, retry=RetryPolicy(max_retries=10), **kwargs
    ))
    assert faulty.elapsed > clean.elapsed


class TestSeedDeterminism:
    SPEC = FaultSpec(
        write_fail_rate=0.3, straggler_rate=0.2,
        aio_submit_fail_rate=0.3,
        message_delay_rate=0.3, message_delay=2e-5,
        rendezvous_delay_rate=0.3, rendezvous_delay=2e-5,
    )

    def _run(self, seed):
        world = World(small_cluster(), 4, fs_spec=small_fs(), seed=seed, faults=self.SPEC,
                      recorder=Recorder(active=True))
        cfg = CollectiveConfig(
            cb_buffer_size=16 * 1024, retry=RetryPolicy(max_retries=12)
        )

        def program(mpi):
            fh = yield from mpi.file_open("/det")
            fh.set_view(view=FileView.contiguous(mpi.rank * 30_000, 30_000))
            data = np.full(30_000, mpi.rank + 1, dtype=np.uint8)
            yield from fh.write_all(data, algorithm="write_overlap", config=cfg)

        world.run(program)
        recorder = world.cluster.recorder
        retries = [s for s in recorder.spans if s.category == "retry" and s.closed]
        contents = world.pfs.open("/det").contents().copy()
        return retries, dict(recorder.counters), world.now, contents

    def test_same_seed_same_schedule(self):
        """Same FaultSpec + seed -> identical retry spans, counters, clock and bytes."""
        r1, c1, t1, f1 = self._run(seed=7)
        r2, c2, t2, f2 = self._run(seed=7)
        # The spec is hot enough to actually fire and be retried.
        assert any(k.startswith("fault.") for k in c1) and c1["retry.attempt"] > 0
        assert len(r1) > 0
        assert r1 == r2
        assert c1 == c2
        assert t1 == t2
        assert np.array_equal(f1, f2)

    def test_different_seed_different_schedule(self):
        r1, c1, t1, f1 = self._run(seed=7)
        r2, c2, t2, f2 = self._run(seed=8)
        assert (r1, c1, t1) != (r2, c2, t2)
        # Both runs still converge to the same bytes.
        assert np.array_equal(f1, f2)
