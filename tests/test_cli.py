"""Tests for the command-line interface."""

import os

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.insertion import load_shapes
from repro.layout import load_layout


@pytest.fixture()
def design_file(tmp_path):
    path = tmp_path / "a.json"
    rc = main(["gen-design", "A", "--rows", "8", "--cols", "8",
               "--seed", "3", "-o", str(path)])
    assert rc == 0
    return path


class TestGenDesign:
    def test_writes_layout(self, design_file):
        layout = load_layout(design_file)
        assert layout.grid.shape == (8, 8)
        assert layout.num_layers == 3

    def test_all_designs(self, tmp_path):
        for key in ("A", "B", "C"):
            out = tmp_path / f"{key}.json"
            assert main(["gen-design", key, "--rows", "8", "--cols", "8",
                         "-o", str(out)]) == 0
            assert out.exists()

    def test_default_size(self, tmp_path):
        out = tmp_path / "a.json"
        assert main(["gen-design", "A", "-o", str(out)]) == 0
        assert load_layout(out).grid.rows >= 8


class TestSimulate:
    def test_prints_metrics(self, design_file, capsys):
        assert main(["simulate", str(design_file)]) == 0
        out = capsys.readouterr().out
        assert "post-CMP dH" in out
        assert "height variance" in out

    def test_polish_time_override(self, design_file, capsys):
        assert main(["simulate", str(design_file),
                     "--polish-time", "10"]) == 0
        assert "post-CMP dH" in capsys.readouterr().out


class TestFill:
    def test_lin_with_outputs(self, design_file, tmp_path, capsys):
        fill_out = tmp_path / "fill.npz"
        shapes_out = tmp_path / "shapes.json"
        rc = main(["fill", str(design_file), "--method", "lin",
                   "--fill-out", str(fill_out),
                   "--shapes-out", str(shapes_out)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulator verdict" in out
        fill = np.load(fill_out)["fill"]
        assert fill.shape == (3, 8, 8)
        shapes = load_shapes(shapes_out)
        assert len(shapes) > 0

    def test_tao(self, design_file, capsys):
        assert main(["fill", str(design_file), "--method", "tao"]) == 0
        assert "quality" in capsys.readouterr().out

    def test_neurfill_pkb_small_budget(self, design_file, capsys):
        rc = main(["fill", str(design_file), "--method", "neurfill-pkb",
                   "--train-samples", "8", "--train-epochs", "4"])
        assert rc == 0
        assert "neurfill-pkb" in capsys.readouterr().out


class TestParser:
    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_method_errors(self, design_file):
        with pytest.raises(SystemExit):
            main(["fill", str(design_file), "--method", "magic"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestErrorHandling:
    """Bad inputs exit non-zero with a one-line message, no traceback."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "no-such-layout.json"],
        ["fill", "no-such-layout.json", "--method", "lin"],
        ["compare", "no-such-layout.json", "--skip-cai"],
        ["train-surrogate", "no-such-layout.json", "-o", "ckpt"],
    ])
    def test_missing_layout_is_one_line_error(self, argv, capsys, tmp_path,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ")
        assert "no-such-layout.json" in err
        assert len(err.strip().splitlines()) == 1

    def test_invalid_json_layout(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.fixture()
    def corrupt_checkpoint(self, tmp_path):
        """A checkpoint factory: ``truncated`` weights or ``bad-meta``."""
        from repro.nn import UNet
        from repro.surrogate import (
            NUM_FEATURE_CHANNELS,
            HeightNormalizer,
            save_surrogate,
        )

        def make(kind):
            unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=4, depth=2,
                        rng=0)
            ckpt = save_surrogate(tmp_path / kind, unet,
                                  HeightNormalizer(2500.0, 300.0),
                                  base_channels=4, depth=2)
            if kind == "truncated":
                weights = ckpt / "unet.npz"
                weights.write_bytes(weights.read_bytes()[:200])
            else:
                (ckpt / "surrogate.json").write_text("{broken")
            return str(ckpt)
        return make

    @pytest.mark.parametrize("kind,command", [
        ("truncated", "fill"), ("bad-meta", "fill"), ("truncated", "serve"),
    ])
    def test_corrupt_checkpoint_is_one_line_error(self, design_file, kind,
                                                  command, corrupt_checkpoint,
                                                  capsys):
        ckpt = corrupt_checkpoint(kind)
        if command == "fill":
            argv = ["fill", str(design_file), "--method", "neurfill-pkb",
                    "--model", ckpt]
        else:
            argv = ["serve", "--pipe", "--model", f"m={ckpt}"]
        assert main(argv) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith("repro: error: ")
        assert ckpt in lines[0]

    def test_missing_model_checkpoint(self, design_file, tmp_path, capsys):
        missing = tmp_path / "no-ckpt"
        rc = main(["fill", str(design_file), "--method", "neurfill-pkb",
                   "--model", str(missing)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines()[-1].startswith("repro: error: ")
        assert str(missing) in err


class TestEco:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        from repro.nn import UNet
        from repro.surrogate import (
            NUM_FEATURE_CHANNELS,
            HeightNormalizer,
            save_surrogate,
        )

        unet = UNet(NUM_FEATURE_CHANNELS, 1, base_channels=4, depth=2, rng=0)
        return str(save_surrogate(tmp_path / "ckpt", unet,
                                  HeightNormalizer(2500.0, 300.0),
                                  base_channels=4, depth=2))

    @pytest.fixture()
    def edited_file(self, design_file, tmp_path):
        from repro.layout import edit_layout, save_layout

        edited = edit_layout(load_layout(design_file), 1,
                             slice(2, 4), slice(2, 4))
        path = tmp_path / "a_eco.json"
        save_layout(edited, str(path))
        return path

    def test_incremental_refill(self, design_file, edited_file, checkpoint,
                                tmp_path, capsys):
        parent_npz = tmp_path / "fill.npz"
        assert main(["fill", str(design_file), "--model", checkpoint,
                     "--fill-out", str(parent_npz)]) == 0
        eco_npz = tmp_path / "fill_eco.npz"
        rc = main(["eco", str(design_file), str(edited_file),
                   "--parent-fill", str(parent_npz),
                   "--model", checkpoint, "--fill-out", str(eco_npz)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "neurfill-eco" in out
        assert "eco: dirty=4/" in out
        with np.load(eco_npz) as data:
            assert data["fill"].shape == load_layout(edited_file).shape

    def test_empty_edit_reuses_parent(self, design_file, checkpoint,
                                      tmp_path, capsys):
        parent_npz = tmp_path / "fill.npz"
        assert main(["fill", str(design_file), "--model", checkpoint,
                     "--fill-out", str(parent_npz)]) == 0
        rc = main(["eco", str(design_file), str(design_file),
                   "--parent-fill", str(parent_npz), "--model", checkpoint])
        assert rc == 0
        assert "parent solution reused as-is" in capsys.readouterr().out

    def test_missing_parent_fill_is_one_line_error(self, design_file,
                                                   edited_file, checkpoint,
                                                   tmp_path, capsys):
        rc = main(["eco", str(design_file), str(edited_file),
                   "--parent-fill", str(tmp_path / "nope.npz"),
                   "--model", checkpoint])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines()[-1].startswith("repro: error: ")
        assert "parent fill file not found" in err


    def test_non_finite_parent_fill_is_one_line_error(
            self, design_file, edited_file, checkpoint, tmp_path, capsys,
            monkeypatch):
        from repro.optimize import SqpOptimizer

        fill = np.zeros(load_layout(design_file).shape)
        fill[1, 5, 5] = np.nan
        parent_npz = tmp_path / "nan_fill.npz"
        np.savez(parent_npz, fill=fill)
        runs = []
        maximize = SqpOptimizer.maximize

        def counted(self, *args, **kwargs):
            runs.append(1)
            return maximize(self, *args, **kwargs)

        monkeypatch.setattr(SqpOptimizer, "maximize", counted)
        rc = main(["eco", str(design_file), str(edited_file),
                   "--parent-fill", str(parent_npz), "--model", checkpoint])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines()[-1].startswith(
            "repro: error: fill must be finite")
        assert not runs  # rejected before any SQP


class TestTrainSurrogate:
    def test_train_and_reuse(self, design_file, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        rc = main(["train-surrogate", str(design_file), "-o", str(ckpt),
                   "--train-samples", "6", "--train-epochs", "2"])
        assert rc == 0
        assert (ckpt / "surrogate.json").is_file()
        assert (ckpt / "unet.npz").is_file()
        rc = main(["fill", str(design_file), "--method", "neurfill-pkb",
                   "--model", str(ckpt)])
        assert rc == 0
        assert "neurfill-pkb" in capsys.readouterr().out


class TestServePipe:
    """End-to-end: `repro serve --pipe` driven by ServeClient."""

    def test_pipe_serve_round_trip(self, design_file, tmp_path):
        from repro.serve import ServeClient

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")

        fill_npz = tmp_path / "oneshot.npz"
        assert main(["fill", str(design_file), "--method", "lin",
                     "--fill-out", str(fill_npz)]) == 0
        oneshot = np.load(fill_npz)["fill"]

        with ServeClient.pipe(env=env) as client:
            assert client.ping(timeout=30)
            done = client.fill(layout_path=str(design_file), method="lin",
                               return_fill=True, timeout=120)
            served = np.array(done["result"]["fill"])
            # served results are bitwise what the one-shot CLI computes
            assert np.array_equal(served, oneshot)
            stats = client.stats(timeout=30)
            assert stats["counters"]["completed"] >= 1
            assert stats["queue_depth"] == 0
            client.shutdown(timeout=30)
            assert client.close() == 0

    @pytest.mark.parametrize("argv", [
        ["--worker-mode", "process", "--workers", "2"],
    ], ids=["process-pool"])
    def test_pipe_serve_parity_process_and_sharded(self, design_file,
                                                   tmp_path, argv):
        """The forked process pool returns bitwise what the one-shot CLI
        computes (same contract as thread mode)."""
        import multiprocessing
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        from repro.serve import ServeClient

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")

        fill_npz = tmp_path / "oneshot.npz"
        assert main(["fill", str(design_file), "--method", "lin",
                     "--fill-out", str(fill_npz)]) == 0
        oneshot = np.load(fill_npz)["fill"]

        with ServeClient.pipe(argv=argv, env=env) as client:
            assert client.ping(timeout=60)
            done = client.fill(layout_path=str(design_file), method="lin",
                               return_fill=True, timeout=180)
            served = np.array(done["result"]["fill"])
            assert np.array_equal(served, oneshot)
            stats = client.stats(timeout=30)
            assert stats["counters"]["completed"] >= 1
            client.shutdown(timeout=60)
            assert client.close() == 0

    def test_pipe_serve_rejects_bad_method(self, design_file):
        from repro.serve import ServeClient, ServeError

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        with ServeClient.pipe(env=env) as client:
            with pytest.raises(ServeError, match="unknown method"):
                client.fill(layout_path=str(design_file), method="magic",
                            timeout=30)
            client.shutdown(timeout=30)
            assert client.close() == 0
