"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_kmeans_defaults(self):
        args = build_parser().parse_args(["kmeans"])
        assert args.points == 100_000
        assert args.cluster == "small"
        assert args.partitions == 24

    def test_pagerank_partition_modes(self):
        args = build_parser().parse_args(
            ["pagerank", "--partition-mode", "mincut"]
        )
        assert args.partition_mode == "mincut"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pagerank", "--partition-mode", "magic"])

    def test_bad_cluster_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["kmeans", "--cluster", "gigantic"])

    def test_pipeline_defaults_off_and_takes_only_on_or_off(self):
        assert build_parser().parse_args(["kmeans"]).pipeline == "off"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["kmeans", "--pipeline", "junk"])


class TestExecution:
    def test_linsolve_end_to_end(self, capsys):
        assert main(["linsolve", "--variables", "60"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "|x - x*|" in out

    def test_kmeans_small_run(self, capsys):
        assert main([
            "kmeans", "--points", "5000", "--clusters", "4",
            "--partitions", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "Jagota index" in out
        assert "PIC best-effort" in out

    def test_pagerank_small_run(self, capsys):
        assert main([
            "pagerank", "--vertices", "2000", "--partitions", "6",
        ]) == 0
        out = capsys.readouterr().out
        assert "rank error" in out

    def test_smoothing_small_run(self, capsys):
        assert main(["smoothing", "--side", "48", "--partitions", "4"]) == 0
        assert "speedup" in capsys.readouterr().out

    def test_neuralnet_small_run(self, capsys):
        assert main([
            "neuralnet", "--samples", "2100", "--partitions", "6",
        ]) == 0
        assert "validation error" in capsys.readouterr().out

    def test_pipeline_flag_does_not_outlive_its_run(self, capsys):
        # ``--pipeline on`` is an argument to that run alone: a later
        # run in the same process without the flag is a barrier run
        # again, and the process environment is left as found.
        environ = dict(os.environ)
        argv = ["smoothing", "--side", "48", "--partitions", "4"]

        def report(*flags):
            assert main(argv + list(flags)) == 0
            return capsys.readouterr().out

        barrier = report("--pipeline", "off")
        pipelined = report("--pipeline", "on")
        assert pipelined != barrier
        assert report() == barrier
        assert dict(os.environ) == environ
