"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.command == "simulate"
        assert args.lines == 5000
        assert args.weeks == 22

    def test_predict_flags(self):
        args = build_parser().parse_args(
            ["predict", "--lines", "800", "--capacity", "30", "--rounds", "10"]
        )
        assert args.capacity == 30
        assert args.rounds == 10

    def test_locate_flags(self):
        args = build_parser().parse_args(["locate", "--rounds", "15"])
        assert args.rounds == 15

    def test_snapshot_flags(self):
        args = build_parser().parse_args(
            ["snapshot", "--store", "s", "--registry", "r", "--capacity", "40"]
        )
        assert args.command == "snapshot"
        assert args.store == "s"
        assert args.registry == "r"
        assert args.capacity == 40

    def test_serve_flags(self):
        args = build_parser().parse_args(
            ["serve", "--port", "9999", "--shard-size", "512"]
        )
        assert args.command == "serve"
        assert args.port == 9999
        assert args.shard_size == 512

    @pytest.mark.parametrize(
        "command",
        [["serve"], ["lifecycle", "run"], ["triage"], ["explain"], ["scale"]],
        ids=["serve", "lifecycle", "triage", "explain", "scale"],
    )
    def test_smoke_flag_is_gone(self, command):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([*command, "--smoke"])
        assert exit_info.value.code == 2

    def test_obs_flags(self):
        args = build_parser().parse_args(
            ["obs", "dashboard", "--history", "h.jsonl"]
        )
        assert args.command == "obs"
        assert args.action == "dashboard"
        assert args.history == "h.jsonl"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["deploy"])


class TestCommands:
    def test_simulate_runs(self, capsys):
        code = main(["simulate", "--lines", "600", "--weeks", "6",
                     "--fault-scale", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "customer-edge tickets" in out
        assert "DSLAM outages" in out

    def test_predict_runs(self, capsys):
        code = main([
            "predict", "--lines", "1200", "--weeks", "18",
            "--fault-scale", "5", "--capacity", "25", "--rounds", "20",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "lift" in out

    def test_locate_runs(self, capsys):
        code = main([
            "locate", "--lines", "1500", "--weeks", "16",
            "--fault-scale", "6", "--rounds", "15",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "median tests" in out

    def test_export_runs(self, capsys, tmp_path):
        out_dir = tmp_path / "extracts"
        code = main([
            "export", "--lines", "300", "--weeks", "4",
            "--out", str(out_dir),
        ])
        assert code == 0
        assert (out_dir / "measurements.csv").exists()
        assert (out_dir / "tickets.csv").exists()

    def test_scenario_flag(self, capsys):
        code = main([
            "simulate", "--lines", "400", "--weeks", "4",
            "--scenario", "urban",
        ])
        assert code == 0

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            main(["simulate", "--lines", "100", "--weeks", "2",
                  "--scenario", "lunar"])

    def test_snapshot_writes_store_and_registry(self, capsys, tmp_path):
        store = tmp_path / "store"
        registry = tmp_path / "registry"
        code = main([
            "snapshot", "--lines", "800", "--weeks", "14",
            "--fault-scale", "4", "--rounds", "15",
            "--store", str(store), "--registry", str(registry),
        ])
        assert code == 0
        assert (store / "manifest.json").exists()
        assert (registry / "MANIFEST.json").exists()
        out = capsys.readouterr().out
        assert "stored 14 weeks" in out
        assert "published v0001" in out

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["triage", "--lines", "600", "--weeks", "14", "--rounds", "8"],
             "precision@N="),
            (["explain", "--lines", "600", "--weeks", "14", "--fault-scale",
              "4", "--rounds", "8", "--locator-rounds", "3"],
             "=== technician next steps ==="),
            (["scale", "--lines", "3000", "--weeks", "3"],
             "streamed 3000 lines x 3 weeks"),
        ],
        ids=["triage", "explain", "scale"],
    )
    def test_operator_command_runs(self, capsys, argv, expected):
        assert main(argv) == 0
        assert expected in capsys.readouterr().out

    def test_obs_dashboard_reads_a_seeded_history(self, capsys, tmp_path):
        from repro.obs.history import HistoryStore

        history = tmp_path / "flight.jsonl"
        store = HistoryStore(history)
        for week in range(12):
            store.append(
                "pipeline_week",
                {"precision": 0.45, "wall_seconds.score": 0.01},
                week=week,
            )
        code = main(["obs", "dashboard", "--history", str(history)])
        assert code == 0
        out = capsys.readouterr().out
        assert "flight recorder dashboard" in out
        assert "pipeline_week=12" in out
        assert "no degradation detected" in out

    def test_obs_dashboard_alerts_on_degraded_history(self, capsys, tmp_path):
        from repro.obs.history import HistoryStore

        history = tmp_path / "flight.jsonl"
        store = HistoryStore(history)
        walls = [0.010] * 12 + [0.035, 0.036, 0.034]
        for week, wall in enumerate(walls):
            store.append(
                "pipeline_week", {"wall_seconds.score": wall}, week=week
            )
        code = main(["obs", "dashboard", "--history", str(history)])
        assert code == 1  # degradation -> non-zero exit for CI
        assert "DEGRADATION" in capsys.readouterr().out

    def test_obs_dashboard_missing_history_fails_cleanly(
        self, capsys, tmp_path
    ):
        code = main([
            "obs", "dashboard", "--history", str(tmp_path / "none.jsonl"),
        ])
        assert code == 1
        assert "no flight-recorder records" in capsys.readouterr().out
