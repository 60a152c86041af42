"""Tests for the command-line interface."""


import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment", "fig19"])
        assert args.id == "fig19"
        assert args.scale == 0.25
        assert args.frames == 2

    def test_render_scenario_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["render", "wolf-640x480",
                                       "--scenario", "bogus"])


class TestCommands:
    def test_list_runs(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "HL2-1600x1200" in out
        assert "fig19" in out

    def test_unknown_experiment_fails_cleanly(self, capsys):
        assert main(["experiment", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_experiment_static_table(self, capsys, tmp_path):
        out_file = tmp_path / "t1.txt"
        assert main(["experiment", "table1", "--out", str(out_file)]) == 0
        assert "Frequency" in out_file.read_text()

    def test_compare_runs_small(self, capsys):
        assert main(["compare", "wolf-640x480", "--scale", "0.07"]) == 0
        out = capsys.readouterr().out
        assert "PATU" in out and "Baseline" in out

    def test_render_writes_images(self, tmp_path, capsys):
        out_dir = tmp_path / "render"
        assert main([
            "render", "wolf-640x480", "--scale", "0.07",
            "--out", str(out_dir),
        ]) == 0
        assert (out_dir / "frame.ppm").exists()
        assert (out_dir / "baseline_luminance.pgm").exists()
        assert (out_dir / "ssim_map.pgm").exists()

    def test_repro_error_maps_to_exit_1(self, capsys):
        assert main(["compare", "nonexistent-0x0"]) == 1
        assert "error:" in capsys.readouterr().err


class TestServeWorkerParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 7070
        assert args.backend is None
        assert args.store_prefix == 1
        assert args.max_batch == 64

    def test_serve_backend_choices(self):
        args = build_parser().parse_args(["serve", "--backend", "serial"])
        assert args.backend == "serial"
        for value in ("remote", "bogus"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["serve", "--backend", value])

    def test_worker_subcommand_is_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker", "--connect", "h:1"])


class TestStoreCommand:
    def _populated_store(self, tmp_path):
        from repro.engine.capture_store import ShardedCaptureStore
        root = tmp_path / "captures"
        store = ShardedCaptureStore(root, prefix=2)
        shard = root / "ab"
        shard.mkdir(parents=True)
        (shard / "w-f0-ab00000000000000.npz").write_bytes(b"x" * 2048)
        (shard / "w-f1-ab11111111111111.npz").write_bytes(b"y" * 2048)
        corrupt = root / ".corrupt"
        corrupt.mkdir()
        (corrupt / "bad.npz").write_bytes(b"z" * 512)
        return root, store

    def test_stats_reports_shards_and_quarantine(self, tmp_path, capsys):
        root, _store = self._populated_store(tmp_path)
        assert main(["store", "stats", str(root)]) == 0
        out = capsys.readouterr().out
        assert "shard prefix 2" in out  # width auto-detected
        assert "ab" in out
        assert "2 entry(ies)" in out
        assert ".corrupt/ quarantine: 1 file(s)" in out

    def test_missing_directory_fails_cleanly(self, tmp_path, capsys):
        assert main(["store", "stats", str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_prune_dry_run_touches_nothing(self, tmp_path, capsys):
        root, store = self._populated_store(tmp_path)
        assert main([
            "store", "prune", str(root),
            "--max-bytes", "2048", "--dry-run",
        ]) == 0
        assert "would evict 1 entry(ies)" in capsys.readouterr().out
        assert len(store.entries()) == 2  # nothing actually evicted

    def test_prune_evicts_oldest(self, tmp_path, capsys):
        import os
        root, store = self._populated_store(tmp_path)
        entries = store.entries()
        os.utime(entries[0][0], (1_000, 1_000))  # definite oldest
        assert main([
            "store", "prune", str(root), "--max-bytes", "2048",
        ]) == 0
        out = capsys.readouterr().out
        assert "evicted 1 entry(ies)" in out
        assert len(store.entries()) == 1
