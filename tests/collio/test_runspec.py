"""RunSpec consolidation: validation, replace, and the one calling convention."""

import warnings

import pytest

from repro.collio import CollectiveConfig, FileView, RunSpec, run_collective_write
from repro.errors import ConfigurationError
from repro.fs import FsSpec
from repro.hardware import ClusterSpec
from repro.units import MB


def small_cluster():
    return ClusterSpec(
        name="t", num_nodes=4, cores_per_node=4,
        network_bandwidth=1000 * MB, network_latency=1e-6,
        eager_threshold=1024,
    )


def small_fs():
    return FsSpec(
        name="tfs", num_targets=4, target_bandwidth=300 * MB,
        target_latency=5e-5, stripe_size=4096,
    )


def views_for(nprocs, per_rank=10_000):
    return {r: FileView.contiguous(r * per_rank, per_rank) for r in range(nprocs)}


CFG = CollectiveConfig(cb_buffer_size=32 * 1024)


def spec(**overrides):
    kwargs = dict(
        cluster=small_cluster(), fs=small_fs(), nprocs=4,
        views=views_for(4), config=CFG, carry_data=False,
    )
    kwargs.update(overrides)
    return RunSpec(**kwargs)


class TestValidate:
    def test_valid_spec_returns_self(self):
        s = spec()
        assert s.validate() is s

    def test_rejects_bad_nprocs(self):
        with pytest.raises(ConfigurationError, match="nprocs"):
            spec(nprocs=0, views={}).validate()

    def test_rejects_view_gap(self):
        with pytest.raises(ConfigurationError, match="views must cover"):
            spec(views=views_for(3)).validate()

    def test_rejects_unknown_algorithm_and_shuffle(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            spec(algorithm="bogus").validate()
        with pytest.raises(ConfigurationError, match="unknown shuffle"):
            spec(shuffle="bogus").validate()

    def test_auto_is_a_valid_algorithm(self):
        spec(algorithm="auto").validate()

    def test_rejects_verify_without_payloads(self):
        with pytest.raises(ConfigurationError, match="carry_data"):
            spec(verify=True, carry_data=False).validate()

    def test_rejects_bad_trace_bound(self):
        with pytest.raises(ConfigurationError, match="max_trace_records"):
            spec(max_trace_records=0).validate()


class TestReplace:
    def test_replace_creates_varied_copy(self):
        base = spec()
        varied = base.replace(algorithm="write_comm2", seed=99)
        assert varied is not base
        assert varied.algorithm == "write_comm2"
        assert varied.seed == 99
        assert base.algorithm == "write_overlap"  # original untouched

    def test_spec_is_frozen(self):
        with pytest.raises(AttributeError):
            spec().algorithm = "no_overlap"

    def test_resolved_config_folds_retry_in(self):
        from repro.faults import RetryPolicy

        s = spec(retry=RetryPolicy(max_retries=7))
        assert s.resolved_config().retry.max_retries == 7
        assert s.config.retry is None  # the shared config is untouched


class TestRunWithSpec:
    def test_runspec_call_works_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            result = run_collective_write(spec())
        assert result.elapsed > 0

    def test_spec_plus_extra_args_is_a_type_error(self):
        with pytest.raises(TypeError, match="algorithm"):
            run_collective_write(spec(), algorithm="no_overlap")

    def test_trace_and_metrics_surfaces(self):
        result = run_collective_write(spec(trace=True))
        assert result.spans
        assert result.metrics["counters"]["sim.events_processed"] > 0
        assert result.metrics["gauges"]["run.elapsed"] == result.elapsed
        untraced = run_collective_write(spec())
        assert untraced.spans == []
        assert "span.io.dur" not in untraced.metrics["histograms"]


def test_loose_arguments_are_a_type_error():
    # RunSpec is the only calling convention.  Python's own arity check
    # rejects several loose arguments; a lone non-spec argument gets a
    # message that names RunSpec.
    with pytest.raises(TypeError):
        run_collective_write(small_cluster(), small_fs(), 4, views_for(4))
    with pytest.raises(TypeError):
        run_collective_write(cluster=small_cluster(), fs=small_fs(),
                             nprocs=4, views=views_for(4))
    with pytest.raises(TypeError, match="RunSpec"):
        run_collective_write(small_cluster())
