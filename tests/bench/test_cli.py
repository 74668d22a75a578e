"""Tests for the ``python -m repro.bench`` figure runner."""

import pytest

from repro.bench.__main__ import main


class TestCli:
    def test_single_experiment(self, capsys):
        code = main(["fig10", "--tuples", "1500", "--queries", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fig10" in out
        assert "ranking_cube" in out

    def test_metric_flag(self, capsys):
        main(["fig10", "--tuples", "1500", "--queries", "1", "--metric", "wall_ms"])
        out = capsys.readouterr().out
        assert "[wall_ms]" in out

    def test_multiple_experiments(self, capsys):
        code = main(
            ["ablation_partitioner", "ablation_pseudo_blocking",
             "--tuples", "1500", "--queries", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "ablation_partitioner" in out
        assert "ablation_pseudo_blocking" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_fig11_uses_space_metric(self, capsys):
        code = main(["fig11", "--tuples", "1500"])
        assert code == 0
        assert "[space_bytes]" in capsys.readouterr().out

