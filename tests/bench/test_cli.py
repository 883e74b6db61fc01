"""CLI argument validation, the ``tune`` subcommand and output snapshots."""

import pathlib

import pytest

from repro.bench.__main__ import main

SNAPSHOTS = pathlib.Path(__file__).parent / "snapshots"


class TestArgumentValidation:
    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--reps", "0"],
            ["table1", "--reps", "-3"],
            ["table1", "--scale", "0"],
            ["fig1", "--scale", "-1"],
            ["tune", "--nprocs", "0"],
            ["tune", "--n-workers", "0"],
            ["tune", "--screen-reps", "0"],
            ["tune", "--screen-reps", "5", "--reps", "3"],
            ["tune", "--benchmark", "nope", "--nprocs", "2", "--scale", "512"],
            ["table1", "--jobs", "0"],
            ["integrity", "--jobs", "-2"],
            ["table1", "--max-integrity-overhead", "0.25"],  # perf-only flag
            # Rejected before any campaign of `all` simulates.
            ["all", "--faults", "nope"],
            ["chaos", "--faults", "nope"],
            ["table1", "--faults", "ost_outage"],  # chaos-only flag
            ["table1", "--check"],  # no gate to check
        ],
    )
    def test_bad_arguments_exit_with_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2  # argparse usage-error convention
        captured = capsys.readouterr()
        assert "usage:" in captured.err
        assert captured.out == ""  # no table was printed

    def test_reps_error_message_names_the_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--reps", "0"])
        assert "--reps must be >= 1" in capsys.readouterr().err

    def test_scale_error_message_names_the_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--scale", "0"])
        assert "--scale must be >= 1" in capsys.readouterr().err

    def test_jobs_error_message_names_the_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--jobs", "0"])
        assert "--jobs must be >= 1" in capsys.readouterr().err


class TestTuneSubcommand:
    def test_tune_prints_ranked_table_and_writes_csv(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        csv_dir = tmp_path / "csv"
        rc = main([
            "tune", "--nprocs", "2", "--scale", "1024", "--reps", "2",
            "--n-workers", "1", "--cache-dir", cache_dir,
            "--csv-dir", str(csv_dir), "--quiet",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "TUNE — ior@crill:beegfs-crill P=2" in out
        assert "recommendation:" in out
        assert "cache:" in out
        csv = (csv_dir / "tune.csv").read_text()
        assert csv.splitlines()[0] == (
            "rank,algorithm,shuffle,cb_buffer_bytes,num_aggregators,"
            "seconds,write_bandwidth,reps,stage"
        )

        # warm rerun: everything comes from the cache, nothing simulates
        main([
            "tune", "--nprocs", "2", "--scale", "1024", "--reps", "2",
            "--n-workers", "1", "--cache-dir", cache_dir, "--quiet",
        ])
        out2 = capsys.readouterr().out
        assert "0 simulations run (100% cache hits)" in out2


class TestOutputSnapshots:
    """The rendered text and CSV of three fast campaigns, byte for byte
    (captured before the campaigns moved onto the shared ``Table``)."""

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("chaos", ["--nprocs", "4", "--reps", "1", "--scale", "64"]),
            ("integrity", ["--nprocs", "4", "--reps", "1", "--scale", "64"]),
            ("tune", ["--nprocs", "2", "--scale", "1024", "--reps", "2",
                      "--n-workers", "1"]),
        ],
    )
    def test_stdout_and_csv_match_snapshot(self, name, argv, tmp_path, capsys):
        assert main([name, *argv, "--quiet", "--csv-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out == (SNAPSHOTS / f"{name}.txt").read_text()
        assert (tmp_path / f"{name}.csv").read_text() == (
            SNAPSHOTS / f"{name}.csv").read_text()


class TestCheckGate:
    def test_failed_gate_exits_one_and_names_the_campaign(self, monkeypatch, capsys):
        from repro.bench import chaos

        monkeypatch.setattr(chaos.ChaosCampaignResult, "completion_rate", 0.5)
        argv = ["chaos", "--nprocs", "4", "--reps", "1", "--scale", "64", "--quiet"]
        assert main(argv) == 0  # without --check the gate is not evaluated
        assert main([*argv, "--check"]) == 1
        assert "chaos check FAILED: completion rate 50% < 100%" in capsys.readouterr().err
