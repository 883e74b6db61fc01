"""Collective reads on the shared stack: what they inherit from the write
pipeline (telemetry, early typed errors) and what must stay inert there
(every write-only feature a shared config may carry)."""

import numpy as np
import pytest

from repro.collio import CollectiveConfig, RunSpec, run_collective_write
from repro.collio.api import RunPipeline
from repro.collio.read import READ, run_collective_read
from repro.collio.view import FileView
from repro.errors import ConfigurationError
from repro.faults.retry import RetryPolicy
from repro.integrity import IntegritySpec
from repro.mpi.world import World
from repro.obs import chrome_trace, validate_chrome_trace
from repro.staging import StagingSpec

from tests.collio.test_algorithms import small_cluster, small_fs

VIEWS = {r: FileView.contiguous(r * 50_000, 50_000) for r in range(4)}
PLAIN = CollectiveConfig(cb_buffer_size=32 * 1024)
#: Everything a write can switch on; a read must ignore all of it.
LADEN = PLAIN.with_(
    staging=StagingSpec.for_scale(policy="immediate"),
    integrity=IntegritySpec(mode="repair", scrub=True),
    retry=RetryPolicy(max_retries=3),
    two_layer=True,
)


def read(config=PLAIN, **kwargs):
    return run_collective_read(
        small_cluster(), small_fs(), 4, VIEWS, config=config, **kwargs
    )


def roundtrip(write_config, read_config):
    """write_all then read_all in one world; the world, and per rank the
    read's duration and phase statistics."""
    world = World(small_cluster(), 4, fs_spec=small_fs(), seed=3)

    def program(mpi):
        view = VIEWS[mpi.rank]
        data = np.full(view.total_bytes, mpi.rank + 1, dtype=np.uint8)
        fh = yield from mpi.file_open("/inert")
        fh.set_view(view=view)
        yield from fh.write_all(data, config=write_config)
        t0 = mpi.now
        out = np.zeros(view.total_bytes, dtype=np.uint8)
        stats = yield from fh.read_all(out, config=read_config)
        assert np.array_equal(out, data)
        return mpi.now - t0, stats

    return world, world.run(program)


class TestWriteOnlyFeaturesAreInert:
    @pytest.mark.parametrize("scatter", ["two_sided", "one_sided_get"])
    def test_run_collective_read_ignores_them(self, scatter):
        plain = read(scatter=scatter, verify=True)
        laden = read(LADEN, scatter=scatter, verify=True)
        assert laden.elapsed == plain.elapsed
        assert laden.integrity is None
        assert laden.metrics == plain.metrics
        assert not any(key.startswith("staging.") for key in laden.metrics["counters"])
        assert laden.num_aggregators == plain.num_aggregators  # single-layer plan

    def test_read_all_ignores_them(self):
        _, plain = roundtrip(PLAIN, PLAIN)
        world, laden = roundtrip(PLAIN, LADEN)
        assert [t for t, _ in laden] == [t for t, _ in plain]
        assert world.staging is None and world.integrity is None

    def test_read_all_leaves_an_earlier_writes_tier_and_layer_alone(self):
        world, ranks = roundtrip(LADEN, LADEN)
        assert world.staging is not None and world.integrity is not None
        scrubbed = [report.rank for report in world.integrity.scrub_reports]
        assert scrubbed and len(scrubbed) == len(set(scrubbed))  # by the write only
        for _, stats in ranks:
            assert not {"staging_flush", "scrub", "write"} & set(stats.times)

    def test_size_only_rules(self):
        # Integrity needs payload bytes on a write; on a read it is off.
        assert read(LADEN, carry_data=False).elapsed == read(carry_data=False).elapsed
        with pytest.raises(ConfigurationError, match="verify=True requires carry_data"):
            read(LADEN, verify=True, carry_data=False)


class TestTelemetry:
    def test_result_carries_engine_counters_and_run_gauges(self):
        result = read(verify=True)
        counters, gauges = result.metrics["counters"], result.metrics["gauges"]
        assert counters["sim.events_processed"] > 0
        assert "sim.timeouts_coalesced" in counters
        assert gauges["run.elapsed"] == result.elapsed
        assert result.read_bandwidth == result.total_bytes / result.elapsed
        assert gauges["run.read_bandwidth"] == result.read_bandwidth
        assert result.write_bandwidth == 0.0 and result.file_sha256 is None
        assert result.trace_counters["send.rendezvous"] == counters["send.rendezvous"]

    def test_same_metric_keys_as_a_write_of_the_scenario(self):
        result = read()
        write = run_collective_write(RunSpec(
            cluster=small_cluster(), fs=small_fs(), nprocs=4, views=VIEWS, config=PLAIN,
        ))
        assert set(result.metrics["counters"]) <= set(write.metrics["counters"])
        assert set(result.metrics["gauges"]) ^ set(write.metrics["gauges"]) == {
            "run.read_bandwidth", "run.write_bandwidth",
        }

    def test_traced_read_exports_a_valid_chrome_trace(self):
        spec = RunSpec(
            cluster=small_cluster(), fs=small_fs(), nprocs=4, views=VIEWS,
            algorithm="read_ahead", shuffle="one_sided_get", config=PLAIN, trace=True,
        ).validate(READ)
        result = RunPipeline(
            spec, spec.algorithm, spec.resolved_config(), direction=READ
        ).run()
        assert validate_chrome_trace(chrome_trace(result.spans)) > 0
        names = {(span.category, span.name) for span in result.spans}
        assert {("io.aio", "aio.read"), ("io.fs", "pfs.read"), ("algo", "read_ahead")} <= names
        assert "span.io.fs.dur" in result.metrics["histograms"]


class TestEarlyTypedErrors:
    @pytest.mark.parametrize("kwargs", [{"algorithm": "bogus"}, {"scatter": "bogus"},
                                        {"algorithm": "auto"}])
    def test_unknown_names_fail_before_any_world_exists(self, kwargs, monkeypatch):
        def no_world(*args, **kw):
            raise AssertionError("a World was built for an invalid spec")

        monkeypatch.setattr("repro.collio.api.World", no_world)
        with pytest.raises(ConfigurationError, match="for a collective read; known:"):
            read(**kwargs)

    def test_specs_validate_per_direction(self):
        spec = RunSpec(cluster=small_cluster(), fs=small_fs(), nprocs=4, views=VIEWS,
                       algorithm="read_ahead", shuffle="one_sided_get")
        assert spec.validate(READ) is spec
        with pytest.raises(ConfigurationError, match="unknown algorithm 'read_ahead'"):
            spec.validate()

    def test_read_all_rejects_unknown_names_with_the_same_error(self):
        world = World(small_cluster(), 2, fs_spec=small_fs())

        def program(mpi):
            fh = yield from mpi.file_open("/f")
            fh.set_view(view=FileView.contiguous(mpi.rank * 100, 100))
            yield from fh.read_all(np.zeros(100, np.uint8), scatter="bogus")

        with pytest.raises(ConfigurationError, match="unknown shuffle 'bogus'"):
            world.run(program)
