"""Command-line behavior: flags, exit codes, and artifact layout."""

import json
import os

import numpy as np
import pytest

from catunet import cli
from catunet import data_io as dio
from catunet import diagnosis as dx
from catunet import gradcheck as gc
from catunet import tensor as T
from catunet.model import load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny corpus and a one-epoch model shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data")
    model = str(root / "model.catu")
    assert cli.main(["synth", "--out", data, "--n-pos", "6", "--n-neg", "3",
                     "--size", "24", "--seed", "5"]) == 0
    assert cli.main(["train", "--data", data, "--out", model, "--epochs", "1",
                     "--size", "24", "--depth", "1", "--base", "2",
                     "--seed", "1"]) == 0
    return {"root": root, "data": data, "model": model}


@pytest.fixture(scope="module")
def overflow_model(workspace):
    """The workspace model with every weight at 1e38: loadable (all values
    are finite) but its float32 forward overflows."""
    path = str(workspace["root"] / "overflow.catu")
    net = load_checkpoint(workspace["model"])
    for p in net.parameters.values():
        p.data[...] = 1e38
    save_checkpoint(net, path)
    return path


class TestSynth:
    def test_writes_dataset_and_manifest(self, tmp_path, capsys):
        out = str(tmp_path / "d")
        assert cli.main(["synth", "--out", out, "--n-pos", "4", "--n-neg", "2",
                         "--size", "24", "--seed", "3"]) == 0
        assert len(os.listdir(tmp_path / "d" / "positive")) == 4
        assert len(os.listdir(tmp_path / "d" / "negative")) == 2
        assert len(os.listdir(tmp_path / "d" / "masks")) == 4
        manifest = json.loads((tmp_path / "d" / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert "4 positive" in capsys.readouterr().out

    def test_rerun_identical_manifest(self, tmp_path):
        flags = ["--n-pos", "3", "--n-neg", "1", "--size", "24", "--seed", "8"]
        cli.main(["synth", "--out", str(tmp_path / "a")] + flags)
        cli.main(["synth", "--out", str(tmp_path / "b")] + flags)
        assert ((tmp_path / "a" / "manifest.json").read_bytes()
                == (tmp_path / "b" / "manifest.json").read_bytes())

    def test_missing_out_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["synth", "--n-pos", "3"])
        assert err.value.code == 2

    def test_size_too_small_for_lesion_is_usage_error(self, tmp_path, capsys):
        code = cli.main(["synth", "--out", str(tmp_path / "d"), "--n-pos", "20",
                         "--size", "16", "--seed", "1"])
        assert code == 2
        assert "lesion radius 7" in capsys.readouterr().err

    def test_invalid_count_is_usage_error(self, tmp_path, capsys):
        code = cli.main(["synth", "--out", str(tmp_path / "d"), "--n-pos", "-1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        code = cli.main(["synth", "--out", str(tmp_path / "d"), "--n-pos", "3",
                         "--size", "24", "--seed", "-1"])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()


class TestTrain:
    def test_writes_checkpoint_report_and_config(self, workspace):
        root = workspace["root"]
        assert os.path.exists(workspace["model"])
        csv = (root / "model.train.csv").read_text()
        assert csv.startswith("epoch,train_loss,val_loss,lr,max_feature_norm")
        assert len(csv.strip().splitlines()) == 2  # header + 1 epoch
        resolved = json.loads((root / "model.config.json").read_text())
        assert resolved["model"]["input_size"] == 24
        assert resolved["training"]["epochs"] == 1
        assert resolved["paths"]["checkpoint"] == workspace["model"]

    def test_zero_epochs_checkpoints_initial_model(self, workspace, tmp_path):
        out = str(tmp_path / "init.catu")
        assert cli.main(["train", "--data", workspace["data"], "--out", out,
                         "--epochs", "0", "--size", "24", "--depth", "1",
                         "--base", "2"]) == 0
        assert os.path.exists(out)
        csv = (tmp_path / "init.train.csv").read_text()
        assert len(csv.strip().splitlines()) == 1  # header only

    def test_same_seed_identical_reports(self, workspace, tmp_path):
        args = ["train", "--data", workspace["data"], "--epochs", "2",
                "--size", "24", "--depth", "1", "--base", "2", "--seed", "7"]
        cli.main(args + ["--out", str(tmp_path / "a.catu")])
        cli.main(args + ["--out", str(tmp_path / "b.catu")])
        assert ((tmp_path / "a.train.csv").read_bytes()
                == (tmp_path / "b.train.csv").read_bytes())
        assert ((tmp_path / "a.catu").read_bytes()
                == (tmp_path / "b.catu").read_bytes())

    def test_flag_overrides_config_file(self, workspace, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "model": {"input_size": 24, "depth": 1, "base_channels": 2,
                      "dropout_rate": 0},  # an integer is a valid float value
            "training": {"epochs": 5, "seed": 2},
        }))
        out = str(tmp_path / "m.catu")
        assert cli.main(["train", "--data", workspace["data"], "--config",
                         str(config), "--out", out, "--epochs", "1"]) == 0
        resolved = json.loads((tmp_path / "m.config.json").read_text())
        assert resolved["training"]["epochs"] == 1   # flag wins
        assert resolved["training"]["seed"] == 2     # file wins over default
        assert resolved["model"]["base_channels"] == 2
        assert resolved["model"]["dropout_rate"] == 0

    def test_unknown_config_key_is_usage_error(self, workspace, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"training": {"epochz": 3}}))
        code = cli.main(["train", "--data", workspace["data"],
                         "--config", str(config),
                         "--out", str(tmp_path / "m.catu")])
        assert code == 2
        assert "epochz" in capsys.readouterr().err
        config.write_text(json.dumps({"threshold": {"intensity_scale": 255.0}}))
        assert cli.main(["evaluate", "--model", workspace["model"], "--data",
                         workspace["data"], "--config", str(config),
                         "--report", str(tmp_path / "m.json")]) == 2
        assert "intensity_scale" in capsys.readouterr().err
        # settings that were deleted are unknown keys now
        for section, key in [("training", "reg_weight"), ("training", "schedule_mode"),
                             ("training", "feature_bound"),
                             ("training", "max_train_samples"),
                             ("model", "kernel_size"), ("model", "channel_growth")]:
            config.write_text(json.dumps({section: {key: 1}}))
            assert cli.main(["train", "--data", workspace["data"], "--config",
                             str(config), "--out", str(tmp_path / "m.catu")]) == 2
            assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("epochs", "2"), ("epochs", 1.5),
                                            ("learning_rate", True)])
    def test_wrong_type_config_value_is_usage_error(self, workspace, tmp_path, capsys,
                                                     key, value):
        config = tmp_path / "typed.json"
        config.write_text(json.dumps({"training": {key: value}}))
        run_dir = tmp_path / "run"
        code = cli.main(["train", "--data", workspace["data"], "--config", str(config),
                         "--out", str(run_dir / "m.catu"), "--size", "24",
                         "--depth", "1", "--base", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"'training.{key}'" in err and repr(value) in err
        assert not run_dir.exists()

    def test_non_finite_lr_is_usage_error(self, workspace, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = cli.main(["train", "--data", workspace["data"], "--lr", "nan",
                         "--out", str(run_dir / "m.catu"), "--epochs", "1",
                         "--size", "24", "--depth", "1", "--base", "2"])
        assert code == 2
        assert "learning_rate" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_negative_seed_flag_is_usage_error(self, workspace, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = cli.main(["train", "--data", workspace["data"], "--seed", "-1",
                         "--out", str(run_dir / "m.catu"), "--epochs", "1",
                         "--size", "24", "--depth", "1", "--base", "2"])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_negative_seed_in_config_is_usage_error(self, workspace, tmp_path, capsys):
        config = tmp_path / "seed.json"
        config.write_text(json.dumps({"training": {"seed": -1}}))
        run_dir = tmp_path / "run"
        code = cli.main(["train", "--data", workspace["data"], "--config", str(config),
                         "--out", str(run_dir / "m.catu"), "--epochs", "1",
                         "--size", "24", "--depth", "1", "--base", "2"])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_output_channels_other_than_input_is_usage_error(self, workspace, tmp_path,
                                                              capsys):
        # not a key at all: the output always has the input's channels
        config = tmp_path / "out2.json"
        config.write_text(json.dumps({"model": {"output_channels": 2}}))
        run_dir = tmp_path / "run"
        code = cli.main(["train", "--data", workspace["data"], "--config", str(config),
                         "--out", str(run_dir / "m.catu"), "--epochs", "1",
                         "--size", "24", "--depth", "1", "--base", "2"])
        assert code == 2
        assert "output_channels" in capsys.readouterr().err
        assert not run_dir.exists()

    def test_malformed_config_file_is_usage_error(self, workspace, tmp_path):
        config = tmp_path / "bad.json"
        for text in ("{not json", '{"training": 5}',
                     # an integer no float can hold
                     '{"training": {"learning_rate": 1' + "0" * 400 + "}}"):
            config.write_text(text)
            assert cli.main(["train", "--data", workspace["data"],
                             "--config", str(config),
                             "--out", str(tmp_path / "m.catu")]) == 2

    def test_missing_dataset_is_runtime_error(self, tmp_path, capsys):
        code = cli.main(["train", "--data", str(tmp_path / "absent"),
                         "--out", str(tmp_path / "m.catu")])
        assert code == 1


class TestEvaluate:
    def test_writes_reports_and_prints_summary(self, workspace, tmp_path, capsys):
        report = str(tmp_path / "metrics.json")
        assert cli.main(["evaluate", "--model", workspace["model"], "--data",
                         workspace["data"], "--report", report, "--masks"]) == 0
        payload = json.loads((tmp_path / "metrics.json").read_text())
        assert set(payload) >= {"reconstruction_accuracy", "dice", "tp", "fp",
                                "tn", "fn", "accuracy"}
        assert payload["tp"] + payload["fp"] + payload["tn"] + payload["fn"] == 9
        assert payload["dice"] is not None
        lines = (tmp_path / "metrics.samples.jsonl").read_text().strip().splitlines()
        assert len(lines) == 9
        assert (tmp_path / "metrics.confusion.csv").exists()
        out = capsys.readouterr().out
        assert "reconstruction_accuracy" in out and "accuracy" in out

    def test_without_masks_dice_is_null(self, workspace, tmp_path):
        report = str(tmp_path / "m.json")
        assert cli.main(["evaluate", "--model", workspace["model"], "--data",
                         workspace["data"], "--report", report]) == 0
        assert json.loads((tmp_path / "m.json").read_text())["dice"] is None

    def test_evaluate_leaves_autodiff_on(self, workspace, tmp_path):
        # scoring runs under no_grad; none of that may outlive the command
        for i in range(6):
            assert cli.main(["evaluate", "--model", workspace["model"],
                             "--data", workspace["data"],
                             "--report", str(tmp_path / f"m{i}.json")]) == 0
        x0 = np.array([[0.5, 1.0], [1.5, 2.0]], dtype=np.float32)
        t0 = np.zeros((2, 2), dtype=np.float32)
        x = T.Tensor(x0.copy(), requires_grad=True)
        T.backward(T.mse(T.relu(x), T.Tensor(t0)))
        assert x.grad is not None, "graph recording left off after evaluate"
        np.testing.assert_allclose(x.grad, 2.0 * (x0 - t0) / x0.size, rtol=1e-6)

    def test_samples_agree_with_diagnose(self, workspace, tmp_path, capsys):
        # evaluate and diagnose share one scoring path: same score, same label
        report = str(tmp_path / "m.json")
        assert cli.main(["evaluate", "--model", workspace["model"], "--data",
                         workspace["data"], "--report", report,
                         "--threshold", "1000"]) == 0
        lines = (tmp_path / "m.samples.jsonl").read_text().splitlines()
        by_id = {json.loads(line)["id"]: line for line in lines}
        capsys.readouterr()
        for name in ("positive/pos_000.pgm", "positive/pos_003.pgm",
                     "negative/neg_001.pgm"):
            assert cli.main(["diagnose", "--model", workspace["model"],
                             "--image", os.path.join(workspace["data"], name),
                             "--threshold", "1000"]) == 0
            printed = capsys.readouterr().out.rstrip("\n")
            assert printed == by_id[json.loads(printed)["id"]]

    def test_overflowing_model_is_runtime_error(self, overflow_model, workspace,
                                                tmp_path, capsys):
        code = cli.main(["evaluate", "--model", overflow_model, "--data",
                         workspace["data"], "--report", str(tmp_path / "m.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err and "pos_000" in captured.err
        assert len(captured.err.splitlines()) == 1  # no numpy overflow warnings
        assert captured.out == ""  # no Infinity/NaN score, no nan summary
        assert not (tmp_path / "m.json").exists()

    def test_nan_weight_model_cannot_load(self, workspace, tmp_path, capsys):
        path = str(tmp_path / "nan.catu")
        net = load_checkpoint(workspace["model"])
        net.parameters["out_b"].data[...] = np.nan
        save_checkpoint(net, path)
        code = cli.main(["evaluate", "--model", path, "--data", workspace["data"],
                         "--report", str(tmp_path / "m.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "cannot load model" in err and "out_b" in err

    def test_unreadable_model_is_runtime_error(self, workspace, tmp_path, capsys):
        code = cli.main(["evaluate", "--model", str(tmp_path / "no.catu"),
                         "--data", workspace["data"],
                         "--report", str(tmp_path / "m.json")])
        assert code == 1
        assert "cannot load model" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [("--threshold", "nan"),
                                             ("--threshold", "inf"),
                                             ("--pixel-threshold", "nan")])
    def test_non_finite_threshold_is_usage_error(self, workspace, tmp_path, capsys,
                                                 flag, value):
        # a NaN threshold would label every image Negative
        report = tmp_path / "m.json"
        assert cli.main(["evaluate", "--model", workspace["model"], "--data",
                         workspace["data"], "--report", str(report), "--masks",
                         flag, value]) == 2
        assert "threshold" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestDiagnose:
    def test_prints_score_and_label_json(self, workspace, capsys):
        image = os.path.join(workspace["data"], "positive", "pos_000.pgm")
        assert cli.main(["diagnose", "--model", workspace["model"],
                         "--image", image]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["id"] == "pos_000"
        assert payload["score"] >= 0
        # no --threshold: ThresholdConfig's default applies
        assert payload["label"] == dx.classify(payload["score"], dx.ThresholdConfig())

    def test_unreadable_model_is_runtime_error(self, workspace, tmp_path, capsys):
        image = os.path.join(workspace["data"], "positive", "pos_000.pgm")
        assert cli.main(["diagnose", "--model", str(tmp_path / "no.catu"),
                         "--image", image]) == 1
        assert "cannot load model" in capsys.readouterr().err

    def test_repeat_runs_identical(self, workspace, capsys):
        image = os.path.join(workspace["data"], "negative", "neg_000.pgm")
        cli.main(["diagnose", "--model", workspace["model"], "--image", image])
        first = capsys.readouterr().out
        cli.main(["diagnose", "--model", workspace["model"], "--image", image])
        assert capsys.readouterr().out == first

    def test_mask_out_writes_binary_pgm(self, workspace, tmp_path, capsys):
        image = os.path.join(workspace["data"], "positive", "pos_001.pgm")
        mask_path = str(tmp_path / "mask.pgm")
        assert cli.main(["diagnose", "--model", workspace["model"], "--image",
                         image, "--mask-out", mask_path]) == 0
        mask = dio.read_pgm(mask_path)
        assert mask.shape == (24, 24)
        assert set(np.unique(mask).tolist()) <= {0, 255}
        assert json.loads(capsys.readouterr().out)["mask_path"] == mask_path

    def test_unreadable_image_is_runtime_error(self, workspace, tmp_path):
        assert cli.main(["diagnose", "--model", workspace["model"],
                         "--image", str(tmp_path / "no.pgm")]) == 1

    def test_negative_threshold_is_usage_error(self, workspace, capsys):
        image = os.path.join(workspace["data"], "positive", "pos_000.pgm")
        assert cli.main(["diagnose", "--model", workspace["model"], "--image",
                         image, "--threshold", "-1"]) == 2
        err = capsys.readouterr().err
        assert "sample_threshold" in err and "--help" in err

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_threshold_is_usage_error(self, workspace, tmp_path, capsys,
                                                 value):
        image = os.path.join(workspace["data"], "positive", "pos_000.pgm")
        mask_path = tmp_path / "mask.pgm"
        assert cli.main(["diagnose", "--model", workspace["model"], "--image", image,
                         "--threshold", value, "--mask-out", str(mask_path)]) == 2
        captured = capsys.readouterr()
        assert "sample_threshold" in captured.err and captured.out == ""
        assert not mask_path.exists()

    def test_overflowing_model_is_runtime_error(self, overflow_model, workspace,
                                                tmp_path, capsys):
        image = os.path.join(workspace["data"], "negative", "neg_002.pgm")
        mask_path = tmp_path / "mask.pgm"
        code = cli.main(["diagnose", "--model", overflow_model, "--image", image,
                         "--mask-out", str(mask_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err and "neg_002" in captured.err
        assert len(captured.err.splitlines()) == 1  # no numpy overflow warnings
        assert captured.out == ""
        assert not mask_path.exists()


class TestGradcheck:
    def test_passes_and_prints_table(self, capsys):
        assert cli.main(["gradcheck", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "conv2d" in out and "model" in out
        assert "FAIL" not in out

    def test_fault_injection_fails_naming_op(self, monkeypatch, capsys):
        # conv2d over its 1e-4 bound fails; the model's 5e-4 is under 1e-3
        monkeypatch.setattr(gc, "run_suite",
                            lambda seed: {"conv2d": 2e-4, "relu": 1e-6, "model": 5e-4})
        assert cli.main(["gradcheck", "--seed", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "gradient check FAILED for: conv2d\n"
        assert [line.split()[-1] for line in captured.out.splitlines()] == [
            "FAIL", "ok", "ok"]

    def test_inject_fault_flag_is_gone(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["gradcheck", "--inject-fault", "conv2d"])
        assert err.value.code == 2


class TestLogging:
    def test_bogus_log_level_is_usage_error(self, workspace, monkeypatch, capsys):
        monkeypatch.setenv("CATU_LOG", "chatty")
        code = cli.main(["diagnose", "--model", workspace["model"],
                         "--image", os.path.join(workspace["data"], "positive",
                                                 "pos_000.pgm")])
        assert code == 2
        assert "CATU_LOG" in capsys.readouterr().err

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2
