import argparse
import csv
import json
import shutil
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest

from dgmlp import load_checkpoint, load_dataset
from dgmlp.cli import build_parser, config_from_args, main
from dgmlp.errors import DgmlpError
from dgmlp.graph import MAX_NODES
from dgmlp.runner import RunConfig, run_train


def run_cli(*argv):
    return main([str(a) for a in argv])


def make_edgeless_dataset(tmp_path):
    d = tmp_path / "edgeless"
    d.mkdir()
    rng = np.random.default_rng(0)
    feats = rng.random((8, 3))
    (d / "edges.tsv").write_text("")
    (d / "features.csv").write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in feats) + "\n")
    (d / "labels.csv").write_text("\n".join(str(i % 2) for i in range(8)) + "\n")
    (d / "splits.json").write_text('{"train": [0, 1], "val": [2, 3], "test": [4, 5]}')
    return d


class TestTrainCommand:
    def test_smoke_and_round_trip(self, tiny_dir, tmp_path):
        out = tmp_path / "result.json"
        code = run_cli("train", "--dataset", tiny_dir, "--dp", 2, "--dt", 1,
                       "--epochs", 30, "--lr", 0.05, "--dropout", 0, "--seed", 1,
                       "--out", out)
        assert code == 0
        result = json.loads(out.read_text())
        for key in ("config", "preprocess_seconds", "train_seconds",
                    "metrics", "test_accuracy", "best_epoch"):
            assert key in result
        assert 0.0 <= result["test_accuracy"] <= 1.0
        assert result["config"]["seed"] == 1
        assert len(result["metrics"]["train_loss"]) == 30
        # re-parse equals what a second parse yields (stable serialization)
        assert json.loads(out.read_text()) == result

    def test_config_echo_reproduces_run(self, tiny_dir, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["train", "--dataset", tiny_dir, "--dp", 2, "--epochs", 25,
                "--lr", 0.05, "--seed", 3]
        assert run_cli(*args, "--out", out1) == 0
        cfg = json.loads(out1.read_text())["config"]
        assert run_cli("train", "--dataset", cfg["dataset"], "--dp", cfg["dp"],
                       "--dt", cfg["dt"], "--epochs", cfg["epochs"],
                       "--lr", cfg["lr"], "--dropout", cfg["dropout"],
                       "--seed", cfg["seed"], "--out", out2) == 0
        a = json.loads(out1.read_text())
        b = json.loads(out2.read_text())
        assert a["metrics"] == b["metrics"]
        assert a["test_accuracy"] == b["test_accuracy"]

    def test_sgc_dispatch(self, tiny_dir, tmp_path):
        out = tmp_path / "sgc.json"
        code = run_cli("train", "--dataset", tiny_dir, "--dp", 2, "--baseline", "sgc",
                       "--epochs", 20, "--lr", 0.05, "--dropout", 0, "--out", out)
        assert code == 0
        result = json.loads(out.read_text())
        assert result["config"]["baseline"] == "sgc"
        assert 0.0 <= result["test_accuracy"] <= 1.0

    def test_checkpoint_flag(self, tiny_dir, tmp_path):
        out = tmp_path / "r.json"
        ckpt = tmp_path / "model.npz"
        code = run_cli("train", "--dataset", tiny_dir, "--dp", 1, "--dt", 3,
                       "--hidden", 8, "--epochs", 5, "--lr", 0.05, "--dropout", 0,
                       "--out", out, "--checkpoint", ckpt)
        assert code == 0
        model = load_checkpoint(ckpt)
        assert model.num_layers == 3

    def test_sgc_checkpoint(self, tiny_dir, tmp_path):
        out, ckpt = tmp_path / "r.json", tmp_path / "sgc.npz"
        argv = ["train", "--dataset", tiny_dir, "--dp", 2, "--baseline", "sgc",
                "--bias", "--epochs", 5, "--lr", 0.05]
        assert run_cli(*argv, "--out", out, "--checkpoint", ckpt) == 0
        result = json.loads(out.read_text())
        assert result["checkpoint"] == str(ckpt)
        cfg = config_from_args(build_parser().parse_args([str(a) for a in argv]))
        _, model, _ = run_train(load_dataset(tiny_dir), cfg)
        loaded = load_checkpoint(ckpt)
        assert loaded.num_layers == 1 and loaded.use_bias
        assert all(np.array_equal(a, b)
                   for a, b in zip(loaded.parameters(), model.parameters()))

    def test_checkpoint_written_at_exact_path(self, tiny_dir, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli("train", "--dataset", tiny_dir, "--dp", 1, "--epochs", 2,
                       "--out", out, "--checkpoint", tmp_path / "model")
        assert code == 0
        recorded = json.loads(out.read_text())["checkpoint"]
        assert recorded == str(tmp_path / "model")
        assert load_checkpoint(recorded).num_layers == 1
        assert not (tmp_path / "model.npz").exists()

    @pytest.mark.parametrize("name", ["features.csv", "splits.json"])
    def test_non_utf8_input_is_one_line(self, tiny_dir, tmp_path, capsys, name):
        data = tmp_path / "ds"
        shutil.copytree(tiny_dir, data)
        path = data / name
        path.write_bytes(b"\xff\xfe" + path.read_bytes())
        code = run_cli("train", "--dataset", data, "--out", tmp_path / "r.json")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert name in err and "UTF-8" in err

    def test_overflowing_undivided_rows_are_one_line(self, tiny_dir, tmp_path, capsys):
        data = tmp_path / "ds"
        shutil.copytree(tiny_dir, data)
        lines = (data / "features.csv").read_text().splitlines()
        lines[0] = ",".join(["1e200"] * len(lines[0].split(",")))
        (data / "features.csv").write_text("\n".join(lines) + "\n")
        out = tmp_path / "r.json"
        code = run_cli("train", "--dataset", data, "--feature-norm", "none", "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "overflow" in err and "--feature-norm l1|l2" in err
        assert not out.exists()
        assert run_cli("train", "--dataset", data, "--feature-norm", "l2", "--epochs", 2,
                       "--out", out) == 0

    @pytest.mark.parametrize("entries", [["a"], [0.7]])
    def test_non_integer_split_entry_is_one_line(self, tiny_dir, tmp_path, capsys, entries):
        data = tmp_path / "ds"
        shutil.copytree(tiny_dir, data)
        splits = json.loads((data / "splits.json").read_text())
        (data / "splits.json").write_text(json.dumps(dict(splits, train=entries)))
        code = run_cli("train", "--dataset", data, "--out", tmp_path / "r.json")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "splits.json" in err and "'train'" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("extra", [
        ["--r", "0"], ["--r", "1"], ["--feature-norm", "none"],
        ["--feature-norm", "l2"], ["--bias"], ["--temperature", "0.2"],
    ])
    def test_flag_variants_run(self, tiny_dir, tmp_path, extra):
        out = tmp_path / "variant.json"
        code = run_cli("train", "--dataset", tiny_dir, "--dp", 2, "--epochs", 5,
                       "--lr", 0.05, "--dropout", 0, "--out", out, *extra)
        assert code == 0
        assert 0.0 <= json.loads(out.read_text())["test_accuracy"] <= 1.0

    def test_missing_dataset_is_failure(self, tmp_path, capsys):
        code = run_cli("train", "--dataset", tmp_path / "nope", "--out", tmp_path / "x.json")
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("flag,value,name", [
        ("--lr", 0, "learning_rate"), ("--epochs", 0, "epochs"),
        ("--weight-decay", -1, "weight_decay"),
        ("--lr", "nan", "learning_rate"), ("--lr", "inf", "learning_rate"),
        ("--weight-decay", "nan", "weight_decay"), ("--weight-decay", "inf", "weight_decay"),
        ("--seed", -1, "seed"),
    ])
    def test_training_knob_fails_before_data(self, tmp_path, capsys, flag, value, name):
        # no --dataset either: the knob is reported, so it was checked first
        code = run_cli("train", flag, value, "--out", tmp_path / "x.json")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert name in err and "dataset" not in err

    @pytest.mark.parametrize("argv,name", [
        (["train", "--dt", 2, "--hidden", -3], "hidden"),
        (["train", "--dt", 2, "--hidden", 0], "hidden"),
        (["train", "--dropout", 1.0], "dropout"), (["train", "--dropout", -0.1], "dropout"),
        (["sweep", "--dp-grid", 1, "--num-seeds", 0], "num_seeds"),
        (["train", "--dataset", "no-such-dataset", "--r", 1.5], "exponent r"),
        (["profile", "--dataset", "no-such-dataset", "--r", -0.1], "exponent r"),
        (["profile", "--dataset", "no-such-dataset", "--dp", 3, "--caps", "0,7"],
         "cap 7 outside [0, 3]"),
        (["sweep", "--dataset", "no-such-dataset", "--dp-grid=-1"], "dp_grid"),
        (["sweep", "--dataset", "no-such-dataset", "--dt-grid", 0], "dt_grid"),
        (["sweep", "--dataset", "no-such-dataset", "--keep-edges-grid", 1.5],
         "keep_edges_grid"),
        (["sweep", "--dataset", "no-such-dataset", "--mask-features-grid=-0.5"],
         "mask_features_grid"),
        (["sweep", "--dataset", "no-such-dataset", "--labels-per-class-grid", 0],
         "labels_per_class_grid"),
        (["sweep", "--dp-grid", 1, "--seed", -1], "seed must be >= 0"),
        (["scale", "--seed", -1], "seed must be >= 0"),
    ])
    def test_run_config_knob_fails_before_data(self, tmp_path, capsys, argv, name):
        code = run_cli(*argv, "--out", tmp_path / "x.out")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert name in err and "dataset" not in err

    def test_sgc_with_dt_is_configuration_error(self, tiny_dir, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = run_cli("train", "--dataset", tiny_dir, "--baseline", "sgc",
                       "--dt", 3, "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "dt does not apply" in err and "sgc" in err
        assert not out.exists()


class TestProfileCommand:
    def test_edgeless_gsl_constant(self, tmp_path):
        data = make_edgeless_dataset(tmp_path)
        out = tmp_path / "profile"
        assert run_cli("profile", "--dataset", data, "--dp", 4, "--out", out) == 0
        with open(out / "gsl_raw.csv", newline="") as fh:
            gsl = [float(r["gsl"]) for r in csv.DictReader(fh)]
        assert len(gsl) == 5
        assert max(gsl) - min(gsl) < 1e-12  # nothing propagates

    def test_large_depth_defaults_to_thinned_caps(self, tiny_dir, tmp_path):
        out = tmp_path / "deep"
        assert run_cli("profile", "--dataset", tiny_dir, "--dp", 30, "--out", out) == 0
        payload = json.loads((out / "profile.json").read_text())
        assert len(payload["gsl_raw"]) == 31          # every step still reported
        assert payload["caps"][0] == 0 and payload["caps"][-1] == 30
        assert len(payload["caps"]) <= 25             # combined curve is thinned

    def test_cap_outside_depth_rejected(self, tiny_dir, tmp_path, capsys):
        code = run_cli("profile", "--dataset", tiny_dir, "--dp", 3,
                       "--caps", "0,7", "--out", tmp_path / "p")
        assert code == 2
        assert "cap 7" in capsys.readouterr().err

    def test_fixture_outputs(self, tiny_dir, tmp_path):
        out = tmp_path / "profile"
        assert run_cli("profile", "--dataset", tiny_dir, "--dp", 3,
                       "--caps", "0,1,3", "--out", out) == 0
        for name in ("gsl_raw.csv", "gsl_combined.csv", "nsl_by_degree.csv",
                     "node_profile.csv", "profile.json"):
            assert (out / name).is_file()
        with open(out / "gsl_combined.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["cap"]) for r in rows] == [0, 1, 3]
        payload = json.loads((out / "profile.json").read_text())
        assert payload["gsl_combined"] == [float(r["gsl"]) for r in rows]
        with open(out / "nsl_by_degree.csv", newline="") as fh:
            deg_rows = list(csv.DictReader(fh))
        assert len(deg_rows) == 4
        # cap 0 means combined = raw features, whose nsl equals step 0
        assert payload["gsl_combined"][0] == pytest.approx(payload["gsl_raw"][0], abs=1e-12)


class TestSweepCommand:
    def test_dp_grid_two_seeds(self, tiny_dir, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--dataset", tiny_dir, "--dp-grid", "1,2",
                       "--num-seeds", 2, "--epochs", 10, "--lr", 0.05,
                       "--dropout", 0, "--out", out)
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert row["num_seeds"] == "2"
            assert "test_acc_std" in row
            assert 0.0 <= float(row["test_acc_mean"]) <= 1.0

    def test_empty_grid_is_configuration_error(self, tiny_dir, tmp_path, capsys):
        code = run_cli("sweep", "--dataset", tiny_dir, "--out", tmp_path / "s.csv")
        assert code == 2
        assert "empty sweep grid" in capsys.readouterr().err

    def test_sgc_with_dt_grid_is_configuration_error(self, tiny_dir, tmp_path, capsys):
        # the baseline trains one layer whatever dt says: rows labelled by
        # dt would repeat one model
        out = tmp_path / "s.csv"
        code = run_cli("sweep", "--dataset", tiny_dir, "--baseline", "sgc",
                       "--dt-grid", "1,3", "--epochs", 3, "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "dt_grid" in err and "sgc" in err
        assert not out.exists()

    def test_depth_by_edge_grid_shape(self, tiny_dir, tmp_path):
        # edge-sparsity sweeps cross a 7-value depth axis with the keep
        # fractions: one row per cell
        out = tmp_path / "grid.csv"
        code = run_cli("sweep", "--dataset", tiny_dir,
                       "--dp-grid", "1,2,3,4,5,6,7",
                       "--keep-edges-grid", "0.5,1.0",
                       "--num-seeds", 1, "--epochs", 3, "--lr", 0.05,
                       "--dropout", 0, "--out", out)
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 14
        assert sorted({r["dp"] for r in rows}) == sorted(str(k) for k in range(1, 8))

    def test_label_grid_uses_subsampling(self, tiny_dir, tmp_path):
        out = tmp_path / "labels.csv"
        code = run_cli("sweep", "--dataset", tiny_dir, "--labels-per-class-grid", "1",
                       "--num-seeds", 1, "--epochs", 5, "--lr", 0.05,
                       "--dropout", 0, "--baseline", "sgc", "--out", out)
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["labels_per_class"] == "1"


class TestScaleCommand:
    def test_smoke_and_deterministic_accuracy(self, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ["scale", "--sizes", "300,600", "--p", 0.01, "--dim", 8,
                "--classes", 3, "--dp", 3, "--dt", 2, "--hidden", 16,
                "--epochs", 5, "--lr", 0.05, "--dropout", 0, "--seed", 4,
                "--train-nodes", 50, "--val-nodes", 25, "--test-nodes", 50]
        assert run_cli(*args, "--out", out1) == 0
        assert run_cli(*args, "--out", out2) == 0
        with open(out1, newline="") as fh:
            rows1 = list(csv.DictReader(fh))
        with open(out2, newline="") as fh:
            rows2 = list(csv.DictReader(fh))
        assert len(rows1) == 2
        assert [r["num_nodes"] for r in rows1] == ["300", "600"]
        for r1, r2 in zip(rows1, rows2):
            assert r1["test_accuracy"] == r2["test_accuracy"]
            assert r1["final_train_accuracy"] == r2["final_train_accuracy"]
            assert r1["num_edges"] == r2["num_edges"]
            assert float(r1["peak_traced_mb"]) > 0.0

    @pytest.mark.parametrize("flag,value,name", [
        ("--dim", 0, "dim"), ("--classes", 0, "classes"),
        ("--train-nodes", 0, "train_nodes"), ("--val-nodes", -1, "val_nodes"),
        ("--test-nodes", -1, "test_nodes"),
        # an accuracy over an empty split is undefined
        ("--val-nodes", 0, "val_nodes"), ("--test-nodes", 0, "test_nodes"),
    ])
    def test_knob_fails_before_any_graph(self, tmp_path, capsys, monkeypatch,
                                         flag, value, name):
        def no_graph(*args):
            raise AssertionError("a graph was generated")

        monkeypatch.setattr("dgmlp.runner.erdos_renyi", no_graph)
        out = tmp_path / "s.csv"
        code = run_cli("scale", "--sizes", 100, flag, value, "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{name} must be >= " in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["--sizes", "50,0", "--p", 0.05], "sizes: n must be >= 3, got 0"),
        (["--sizes", "50", "--p", 1.5], "edge_prob must lie in [0, 1], got 1.5"),
        (["--sizes", "50", "--p", -0.1], "edge_prob must lie in [0, 1], got -0.1"),
        (["--sizes", "2", "--p", 0.5], "sizes: n must be >= 3, got 2"),
        (["--sizes", "1"], "sizes: n must be >= 3, got 1"),
        (["--sizes", "300000,4000000000", "--p", 1e-5],
         f"sizes: n must be <= {MAX_NODES}, got 4000000000"),
    ])
    def test_graph_knob_fails_before_any_graph(self, tmp_path, capsys, monkeypatch,
                                               argv, message):
        # every size is checked up front, not when its turn comes
        calls = []
        monkeypatch.setattr("dgmlp.runner.erdos_renyi",
                            lambda *args: calls.append(args))
        out = tmp_path / "s.csv"
        code = run_cli("scale", *argv, "--epochs", 2, "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err
        assert calls == []
        assert not out.exists()


    def test_tiny_p_runs_on_an_edgeless_graph(self, tmp_path):
        # the geometric gaps pass int64 at this p; the graph has no edges
        out = tmp_path / "s.csv"
        code = run_cli("scale", "--sizes", 60, "--p", 1e-18, "--dim", 4, "--classes", 2,
                       "--epochs", 2, "--train-nodes", 10, "--val-nodes", 10,
                       "--test-nodes", 10, "--out", out)
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["num_nodes"], r["num_edges"]) for r in rows] == [("60", "0")]


class TestTemperatureFloor:
    @pytest.mark.parametrize("value", ["1e-320", "5e-324", "2.2250738585072014e-308"])
    def test_below_floor_is_one_line(self, tiny_dir, tmp_path, capsys, value):
        out = tmp_path / "r.json"
        code = run_cli("train", "--dataset", tiny_dir, "--temperature", value, "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "temperature must be >= 2**-1021" in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "Infinity"])
    def test_infinite_is_one_line(self, tiny_dir, tmp_path, capsys, value):
        out = tmp_path / "r.json"
        code = run_cli("train", "--dataset", tiny_dir, "--temperature", value, "--out", out)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert "temperature must be >= 2**-1021" in err and "and finite" in err
        assert not out.exists()

    def test_at_floor_trains_with_finite_loss(self, tiny_dir, tmp_path):
        out = tmp_path / "r.json"
        code = run_cli("train", "--dataset", tiny_dir, "--temperature", repr(2.0 ** -1021),
                       "--epochs", 3, "--out", out)
        assert code == 0
        losses = json.loads(out.read_text())["metrics"]["train_loss"]
        assert len(losses) == 3 and np.isfinite(losses).all()


class TestParseErrors:
    @pytest.mark.parametrize("argv", [
        ["profile", "--epochs", "5"], ["scale", "--feature-norm", "l2"],
        ["train", "--dp", "abc"],
    ])
    def test_one_line_and_exit_2(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "x.out")])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "x.out").exists()


class TestOutputPaths:
    """Unwritable outputs fail with one error line before any data is read."""

    def _fails_on_output(self, capsys, *argv):
        code = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("flag", ["--out", "--checkpoint"])
    def test_train(self, tmp_path, capsys, flag):
        blocker = tmp_path / "file"
        blocker.write_text("")
        args = {"--out": tmp_path / "r.json", "--checkpoint": tmp_path / "m.npz"}
        args[flag] = blocker / "x"
        err = self._fails_on_output(
            capsys, "train", "--dataset", tmp_path / "missing",
            *[tok for kv in args.items() for tok in kv])
        assert "not a directory" in err and "dataset" not in err

    def test_profile(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        err = self._fails_on_output(capsys, "profile", "--dataset", tmp_path / "missing",
                                    "--out", blocker / "sub" / "dir")
        assert "not a directory" in err and "dataset" not in err
        err = self._fails_on_output(capsys, "profile", "--dataset", tmp_path / "missing",
                                    "--out", blocker)
        assert "not a directory" in err

    def test_sweep(self, tmp_path, capsys):
        err = self._fails_on_output(capsys, "sweep", "--dataset", tmp_path / "missing",
                                    "--dp-grid", "1", "--out", tmp_path / "no" / "s.csv")
        assert "does not exist" in err and "dataset" not in err

    def test_scale(self, tmp_path, capsys):
        err = self._fails_on_output(capsys, "scale", "--sizes", "50", "--out", tmp_path)
        assert "is a directory" in err

    @pytest.mark.parametrize("spelling", ["same", "dot-dot", "symlink"])
    def test_checkpoint_and_out_same_file(self, tmp_path, capsys, spelling):
        out = tmp_path / "r.json"
        checkpoint = {"same": out, "dot-dot": tmp_path / "sub" / ".." / "r.json",
                      "symlink": tmp_path / "link.json"}[spelling]
        (tmp_path / "sub").mkdir()
        (tmp_path / "link.json").symlink_to(out)
        err = self._fails_on_output(capsys, "train", "--dataset", tmp_path / "missing",
                                    "--out", out, "--checkpoint", checkpoint)
        assert "--checkpoint and --out name the same file" in err and "dataset" not in err
        assert not out.exists()

    def test_write_failure_is_one_line(self, tiny_dir, tmp_path, capsys, monkeypatch):
        def refuse(payload, path):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr("dgmlp.cli.write_json", refuse)
        err = self._fails_on_output(capsys, "train", "--dataset", tiny_dir, "--dp", 1,
                                    "--epochs", 2, "--out", tmp_path / "r.json")
        assert "Permission denied" in err


class TestOneFailurePath:
    """main turns every failure, wherever it is raised, into one 'error:'
    line: exit 2 for DgmlpError and OSError, 1 for anything else."""

    FAULTS = {
        "DgmlpError": (lambda: DgmlpError("injected fault"), 2),
        "OSError": (lambda: OSError(5, "Input/output error", "injected.file"), 2),
        # raised, never provoked: the test allocates nothing large
        "MemoryError": (lambda: MemoryError("injected fault"), 1),
        "ValueError": (lambda: ValueError("injected fault"), 1),
    }
    # (command, stage, the name the fault replaces)
    STAGES = [
        ("train", "load", "dgmlp.cli.load_run_dataset"),
        ("train", "run", "dgmlp.cli.run_train"),
        ("train", "write", "dgmlp.cli.save_checkpoint"),
        ("train", "write", "dgmlp.cli.write_json"),
        ("profile", "load", "dgmlp.cli.load_run_dataset"),
        ("profile", "run", "dgmlp.cli.run_profile"),
        ("profile", "write", "dgmlp.cli.write_node_profile_csv"),
        ("profile", "write", "dgmlp.cli.write_json"),
        ("sweep", "load", "dgmlp.cli.load_run_dataset"),
        ("sweep", "run", "dgmlp.cli.run_sweep"),
        ("sweep", "write", "dgmlp.cli.write_csv"),
        ("scale", "load", "dgmlp.runner.erdos_renyi"),
        ("scale", "run", "dgmlp.cli.run_scale"),
        ("scale", "write", "dgmlp.cli.write_csv"),
    ]

    @staticmethod
    def _argv(command, tiny_dir, tmp_path):
        if command == "train":
            return ["train", "--dataset", tiny_dir, "--dp", 1, "--epochs", 2,
                    "--out", tmp_path / "r.json", "--checkpoint", tmp_path / "m.npz"]
        if command == "profile":
            return ["profile", "--dataset", tiny_dir, "--dp", 2, "--out", tmp_path / "p"]
        if command == "sweep":
            return ["sweep", "--dataset", tiny_dir, "--dp-grid", 1, "--epochs", 2,
                    "--out", tmp_path / "s.csv"]
        return ["scale", "--sizes", 60, "--p", 0.05, "--dim", 4, "--classes", 2,
                "--epochs", 2, "--train-nodes", 10, "--val-nodes", 10,
                "--test-nodes", 10, "--out", tmp_path / "s.csv"]

    @pytest.mark.parametrize("fault", list(FAULTS))
    @pytest.mark.parametrize("command,stage,target", STAGES,
                             ids=[f"{c}-{s}-{t.rsplit('.', 1)[1]}" for c, s, t in STAGES])
    def test_one_line_and_exit_code(self, tiny_dir, tmp_path, capsys, monkeypatch,
                                    command, stage, target, fault):
        make, expected = self.FAULTS[fault]

        def fail(*args, **kwargs):
            raise make()

        monkeypatch.setattr(target, fail)
        code = run_cli(*self._argv(command, tiny_dir, tmp_path))
        err = capsys.readouterr().err
        assert code == expected
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert "injected" in err
        if expected == 1:
            assert err.startswith(f"error: {fault}: injected fault")

    def test_multi_line_message_stays_one_line(self, tiny_dir, tmp_path, capsys,
                                               monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("first\nsecond")

        monkeypatch.setattr("dgmlp.cli.run_train", fail)
        code = run_cli("train", "--dataset", tiny_dir, "--out", tmp_path / "r.json")
        assert code == 1
        assert capsys.readouterr().err == "error: RuntimeError: first second\n"

    def test_shape_numpy_rejects_is_one_line(self, tiny_dir, tmp_path):
        # numpy refuses the weight shape before it allocates anything
        out = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-m", "dgmlp.cli", "train", "--dataset", str(tiny_dir),
             "--dt", "2", "--hidden", "10000000000000000000", "--epochs", "1",
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ValueError: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert not out.exists()


class TestParserMatchesRunConfig:
    """RunConfig is the one source of option defaults."""

    @staticmethod
    def _subparsers():
        (action,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    def test_every_dest_is_a_run_config_field(self):
        names = {f.name for f in fields(RunConfig)}
        subparsers = self._subparsers()
        assert set(subparsers) == {"train", "profile", "sweep", "scale"}
        for command, sub in subparsers.items():
            dests = {a.dest for a in sub._actions} - {"help", "checkpoint"}
            assert dests <= names, (command, dests - names)

    def test_each_command_takes_only_the_options_it_reads(self):
        inputs = {"dataset", "feature_norm"}
        propagation = {"dp", "temperature", "r"}
        training = {"dt", "hidden", "seed", "epochs", "lr", "dropout",
                    "weight_decay", "use_bias"}
        grids = {"dp_grid", "dt_grid", "keep_edges_grid", "labels_per_class_grid",
                 "mask_features_grid", "num_seeds"}
        expected = {
            "train": inputs | propagation | training | {"out", "baseline", "checkpoint"},
            "profile": inputs | propagation | {"out", "caps"},
            "sweep": inputs | propagation | training | grids | {"out", "baseline"},
            "scale": propagation | training | {"out", "sizes", "edge_prob", "dim",
                                               "classes", "train_nodes", "val_nodes",
                                               "test_nodes"},
        }
        dests = {command: {a.dest for a in sub._actions} - {"help"}
                 for command, sub in self._subparsers().items()}
        assert dests == expected
        assert sum(map(len, dests.values())) == 63

    @pytest.mark.parametrize("command", ["train", "profile", "sweep", "scale"])
    def test_bare_command_gives_defaults(self, command):
        cfg = config_from_args(build_parser().parse_args([command]))
        expected = RunConfig(sizes=[10_000]) if command == "scale" else RunConfig()
        assert cfg == expected
        assert RunConfig().sizes is None


class TestEntryPoint:
    def test_module_invocation(self, tiny_dir, tmp_path):
        out = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-m", "dgmlp.cli", "train", "--dataset", str(tiny_dir),
             "--dp", "1", "--epochs", "3", "--lr", "0.05", "--dropout", "0",
             "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert out.is_file()

    def test_error_exit_code(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "dgmlp.cli", "train", "--dataset",
             str(tmp_path / "missing"), "--out", str(tmp_path / "x.json")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.strip().startswith("error:")
