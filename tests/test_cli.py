"""End-to-end command-line pipeline: artifacts, determinism, exit codes."""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import osev
from osev import data as data_mod
from osev import runner
from osev.cli import main
from osev.metrics import ece, open_predictions, read_score_dump, roc_auc

SPEC_TEXT = """\
known_classes = 3
unknown_classes = 2
samples_per_class = 6
timesteps = 16
dynamic_channels = 3
background_channels = 2
bias_strength = 0.95
noise_sigma = 0.1
seed = 0
"""


def _truncate_json(path: Path) -> None:
    """Cut a JSON file off after its first line, so it no longer parses."""
    path.write_text(path.read_text(encoding="utf-8").split("\n")[0] + "\n", encoding="utf-8")


def _not_utf8(path: Path) -> None:
    """Replace a file with bytes that are not UTF-8."""
    path.write_bytes(b"\xff\xfe\x00\x01")


CONFIG_TEMPLATE = """\
dataset = {dataset}
seed = 0
epochs = 2
batch_size = 8
feature_width = 8
kernel_width = 3
use_euc = true
use_ced = true
"""


def child_env(**extra: str) -> dict:
    """Environment for a child Python process, with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(osev.__file__).resolve().parents[1])
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.cfg"
    spec_path.write_text(SPEC_TEXT)
    out = root / "data"
    assert main(["generate-data", "--spec", str(spec_path), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, dataset_dir):
    root = tmp_path_factory.mktemp("run")
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG_TEMPLATE.format(dataset=dataset_dir))
    out = root / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def eval_dir(tmp_path_factory, dataset_dir, run_dir):
    out = tmp_path_factory.mktemp("eval")
    code = main(
        [
            "eval",
            "--checkpoint",
            str(run_dir / "model.ckpt"),
            "--data",
            str(dataset_dir),
            "--out",
            str(out / "report.json"),
        ]
    )
    assert code == 0
    return out


def _copy_checkpoint(run_dir, tmp_path):
    """Copy ``model.ckpt`` and its sidecar into tmp_path; return the copy and its parsed sidecar."""
    for name in ("model.ckpt", "model.ckpt.json"):
        shutil.copy(run_dir / name, tmp_path / name)
    return tmp_path / "model.ckpt", json.loads((tmp_path / "model.ckpt.json").read_text())


def _assert_eval_rejects(ckpt, dataset_dir, out, capsys, code, message):
    """osev eval of ``ckpt`` exits ``code`` with exactly ``message``, prints nothing else and makes no ``out``."""
    argv = ["eval", "--checkpoint", str(ckpt), "--data", str(dataset_dir), "--out", str(out / "report.json")]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


class TestArtifacts:
    def test_dataset_files(self, dataset_dir):
        names = {p.name for p in dataset_dir.iterdir()}
        assert names == {
            "manifest.json",
            "train.csv",
            "train.npz",
            "test_biased.csv",
            "test_biased.npz",
            "test_unbiased.csv",
            "test_unbiased.npz",
            "test_unknown.csv",
            "test_unknown.npz",
        }

    def test_training_files(self, run_dir):
        names = {p.name for p in run_dir.iterdir()}
        assert names == {"model.ckpt", "model.ckpt.json", "model_full.ckpt", "model_full.ckpt.json", "losses.csv", "run.log"}

    def test_loss_csv_columns_and_annealing_endpoints(self, run_dir):
        lines = (run_dir / "losses.csv").read_text().splitlines()
        assert lines[0] == "epoch,lambda_t,edl,euc,ced,hsic_shuffled,hsic_static,total"
        assert len(lines) == 3  # header + 2 epochs
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[1]) == 0.01  # lambda starts at lambda0
        assert float(last[1]) == 1.0  # and ends exactly at 1
        for row in lines[1:]:
            assert all(math.isfinite(float(v)) for v in row.split(","))

    def test_eval_files(self, eval_dir):
        names = {p.name for p in eval_dir.iterdir()}
        assert names == {"report.json", "curve.csv", "scores.jsonl", "scores_unbiased.jsonl", "timings.json"}

    def test_eval_out_of_another_name_leaves_report_json_beside_it(self, tmp_path, dataset_dir, run_dir, eval_dir):
        (tmp_path / "report.json").write_text("earlier report\n")
        argv = ["eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(dataset_dir)]
        assert main(argv + ["--out", str(tmp_path / "a.json")]) == 0
        assert (tmp_path / "report.json").read_text() == "earlier report\n"
        assert (tmp_path / "a.json").read_bytes() == (eval_dir / "report.json").read_bytes()
        assert {p.name for p in tmp_path.iterdir()} == {
            "a.json",
            "report.json",
            "curve.csv",
            "scores.jsonl",
            "scores_unbiased.jsonl",
            "timings.json",
        }

    def test_report_structure(self, eval_dir):
        report = json.loads((eval_dir / "report.json").read_text())
        assert report["format"] == "osev-report-v1"
        assert report["num_known_classes"] == 3
        assert report["num_unknown_classes"] == 2
        for rate in (
            report["closed_accuracy"]["biased"],
            report["closed_accuracy"]["unbiased"],
            report["open_auc"],
            report["open_maf1"]["scalar"],
            report["ece"]["closed"],
            report["ece"]["open_two_way"],
            report["ece"]["open_k_plus_one"],
            report["avu"]["value"],
        ):
            assert 0.0 <= rate <= 1.0
        assert report["train_known_fraction"] >= report["coverage"]
        assert len(report["open_maf1"]["points"]) == 2
        matrix = np.asarray(report["confusion"]["matrix"])
        assert matrix.shape == (4, 4)
        np.testing.assert_allclose(matrix.sum(axis=1), 1.0, atol=1e-12)

    def test_curve_csv_matches_report_points(self, eval_dir):
        report = json.loads((eval_dir / "report.json").read_text())
        lines = (eval_dir / "curve.csv").read_text().splitlines()
        assert lines[0] == "i,omega,f1_mean,f1_std"
        assert len(lines) == 1 + len(report["open_maf1"]["points"])
        for line, pt in zip(lines[1:], report["open_maf1"]["points"]):
            i, omega, mean, std = line.split(",")
            assert int(i) == pt["num_unknown"]
            assert float(omega) == pt["omega"]
            assert float(mean) == pt["f1_mean"]
            assert float(std) == pt["f1_std"]


class TestReportSelfConsistency:
    """The numbers in report.json must be recomputable from the score dumps."""

    def test_open_auc(self, eval_dir):
        report = json.loads((eval_dir / "report.json").read_text())
        _, scores, labels = read_score_dump(eval_dir / "scores.jsonl")
        k = report["num_known_classes"]
        assert roc_auc(scores[labels < k], scores[labels == k]) == pytest.approx(report["open_auc"], abs=1e-12)

    def test_closed_biased_accuracy(self, eval_dir):
        report = json.loads((eval_dir / "report.json").read_text())
        probs, _, labels = read_score_dump(eval_dir / "scores.jsonl")
        known = labels < report["num_known_classes"]
        acc = float(np.mean(np.argmax(probs[known], axis=1) == labels[known]))
        assert acc == pytest.approx(report["closed_accuracy"]["biased"], abs=1e-12)

    def test_open_ece_from_scores(self, eval_dir):
        report = json.loads((eval_dir / "report.json").read_text())
        probs, scores, labels = read_score_dump(eval_dir / "scores.jsonl")
        tau = report["threshold"]
        k = report["num_known_classes"]
        preds = open_predictions(probs, scores, tau)
        conf = np.asarray(
            [s if p == k else float(row[p]) * (1.0 - s) for row, s, p in zip(probs, scores, preds)]
        )
        recomputed = ece(conf, (preds == labels).astype(float), num_bins=15)
        assert recomputed == pytest.approx(report["ece"]["open_k_plus_one"], abs=1e-12)


class TestDeterminism:
    def test_training_is_byte_identical(self, tmp_path, dataset_dir, run_dir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=dataset_dir))
        out = tmp_path / "again"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("losses.csv", "model.ckpt", "model.ckpt.json", "model_full.ckpt"):
            assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name

    def test_checkpoint_with_legacy_hsic_center_key_evaluates(self, tmp_path, dataset_dir, run_dir, eval_dir):
        # checkpoints written before hsic_center was removed store it in their config
        for name in ("model.ckpt", "model.ckpt.json"):
            shutil.copy(run_dir / name, tmp_path / name)
        sidecar = json.loads((tmp_path / "model.ckpt.json").read_text())
        sidecar["meta"]["config"]["hsic_center"] = False
        (tmp_path / "model.ckpt.json").write_text(json.dumps(sidecar))
        out = tmp_path / "eval"
        argv = ["eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(dataset_dir)]
        assert main(argv + ["--out", str(out / "report.json")]) == 0
        for name in ("report.json", "curve.csv", "scores.jsonl", "scores_unbiased.jsonl"):
            assert (out / name).read_bytes() == (eval_dir / name).read_bytes(), name

    def test_checkpoint_with_non_object_config_is_4(self, tmp_path, dataset_dir, run_dir, capsys):
        for name in ("model.ckpt", "model.ckpt.json"):
            shutil.copy(run_dir / name, tmp_path / name)
        sidecar = json.loads((tmp_path / "model.ckpt.json").read_text())
        sidecar["meta"]["config"] = ["not", "a", "dict"]
        (tmp_path / "model.ckpt.json").write_text(json.dumps(sidecar))
        argv = ["eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(dataset_dir)]
        assert main(argv + ["--out", str(tmp_path / "eval" / "report.json")]) == 4
        assert "checkpoint metadata unusable: config must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("feature_width", 3.5), ("kernel_width", 2.0), ("feature_width", True), ("seed", 1.5), ("num_selections", 2.5)],
    )
    def test_checkpoint_with_mistyped_config_is_4(self, tmp_path, dataset_dir, run_dir, key, value, capsys):
        for name in ("model.ckpt", "model.ckpt.json"):
            shutil.copy(run_dir / name, tmp_path / name)
        sidecar = json.loads((tmp_path / "model.ckpt.json").read_text())
        sidecar["meta"]["config"][key] = value
        (tmp_path / "model.ckpt.json").write_text(json.dumps(sidecar))
        argv = ["eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(dataset_dir)]
        assert main(argv + ["--out", str(tmp_path / "eval" / "report.json")]) == 4
        err = capsys.readouterr().err
        assert f"checkpoint metadata unusable: config field {key!r} must be an integer, got {value!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key", ["channels", "num_classes"])
    @pytest.mark.parametrize("value", [5.9, "5", True, 0, -1])
    def test_checkpoint_with_mistyped_shape_is_4(self, tmp_path, dataset_dir, run_dir, key, value, capsys):
        for name in ("model.ckpt", "model.ckpt.json"):
            shutil.copy(run_dir / name, tmp_path / name)
        sidecar = json.loads((tmp_path / "model.ckpt.json").read_text())
        sidecar["meta"][key] = value
        (tmp_path / "model.ckpt.json").write_text(json.dumps(sidecar))
        argv = ["eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(dataset_dir)]
        assert main(argv + ["--out", str(tmp_path / "eval" / "report.json")]) == 4
        err = capsys.readouterr().err
        assert f"checkpoint metadata unusable: {key} must be an integer >= 1, got {value!r}" in err
        assert "Traceback" not in err

    def test_eval_is_byte_identical(self, tmp_path, dataset_dir, run_dir, eval_dir):
        out = tmp_path / "eval_again"
        code = main(
            [
                "eval",
                "--checkpoint",
                str(run_dir / "model.ckpt"),
                "--data",
                str(dataset_dir),
                "--out",
                str(out / "report.json"),
            ]
        )
        assert code == 0
        # timings.json holds wall seconds: the one eval output that is not byte-identical
        timings = json.loads((out / "timings.json").read_text())
        assert sorted(timings) == ["load_s", "metrics_s", "score_s", "write_s"]
        assert all(isinstance(v, float) and v >= 0.0 for v in timings.values())
        names = {p.name for p in out.iterdir()} - {"timings.json"}
        assert names == {p.name for p in eval_dir.iterdir()} - {"timings.json"}
        for name in names:
            assert (out / name).read_bytes() == (eval_dir / name).read_bytes(), name
            assert "load_s" not in (out / name).read_text(), name


class TestSweep:
    def test_single_config_single_seed_matches_direct_run(self, tmp_path, dataset_dir, eval_dir):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        (cfg_dir / "base.cfg").write_text(CONFIG_TEMPLATE.format(dataset=dataset_dir))
        out = tmp_path / "sweep"
        assert main(["sweep", "--configs", str(cfg_dir), "--seeds", "1", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["format"] == "osev-sweep-v1"
        assert summary["failures"] == []
        report = json.loads((eval_dir / "report.json").read_text())
        stats = summary["configs"]["base"]
        assert stats["open_auc"]["values"] == [report["open_auc"]]
        assert stats["open_maf1"]["values"] == [report["open_maf1"]["scalar"]]
        assert stats["open_auc"]["std"] == 0.0
        run_report = json.loads((out / "base" / "seed0" / "report.json").read_text())
        assert run_report == report

    def test_failed_run_is_recorded_not_fatal(self, tmp_path, dataset_dir):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        (cfg_dir / "good.cfg").write_text(CONFIG_TEMPLATE.format(dataset=dataset_dir))
        (cfg_dir / "bad.cfg").write_text(
            CONFIG_TEMPLATE.format(dataset=tmp_path / "nonexistent")
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--configs", str(cfg_dir), "--seeds", "1", "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert [f["config"] for f in summary["failures"]] == ["bad"]
        assert list(summary["configs"]) == ["good"]

    def test_a_forked_sweep_writes_the_bytes_of_a_serial_one(self, tmp_path, dataset_dir, monkeypatch, capsys):
        """2 configs x 2 seeds, and a config whose runs fail: the runs spread over two processes give the
        run directories (but timings.json and run.log), summaries and stdout of runs one after another."""
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        template = CONFIG_TEMPLATE.format(dataset=dataset_dir)
        (cfg_dir / "ced.cfg").write_text(template)
        (cfg_dir / "plain.cfg").write_text(template.replace("use_ced = true\n", ""))
        (cfg_dir / "missing.cfg").write_text(CONFIG_TEMPLATE.format(dataset=tmp_path / "nonexistent"))
        results = []
        for cpus in (1, 2):
            monkeypatch.setattr(runner, "_usable_cpus", lambda: cpus)
            out = tmp_path / f"cpus{cpus}"
            assert main(["sweep", "--configs", str(cfg_dir), "--seeds", "2", "--out", str(out)]) == 0
            files = {
                path.relative_to(out): None if path.name in ("timings.json", "run.log") else path.read_bytes()
                for path in sorted(out.rglob("*"))
                if path.is_file()
            }
            results.append((capsys.readouterr().out.replace(str(out), "<out>"), files))
        assert results[0] == results[1]
        summary = json.loads(results[1][1][Path("summary.json")])
        assert sorted(summary["configs"]) == ["ced", "plain"]
        assert [(f["config"], f["seed"]) for f in summary["failures"]] == [("missing", 0), ("missing", 1)]
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_empty_config_dir_is_a_config_error(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["sweep", "--configs", str(empty), "--seeds", "1", "--out", str(tmp_path / "o")]) == 2


class TestExitCodes:
    def test_unknown_config_key_is_2(self, tmp_path, capsys):
        # hsic_center is not a key: centring changes nothing for RBF kernels
        for key in ("bogus_key", "hsic_center"):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = 1\n")
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
            assert f"unknown config key '{key}'" in capsys.readouterr().err

    def test_missing_spec_file_is_2(self, tmp_path):
        assert (
            main(["generate-data", "--spec", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "d")])
            == 2
        )

    def test_invalid_spec_value_is_2(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("known_classes = 1\n")
        assert main(["generate-data", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("bogus = 1", "unknown spec key 'bogus'"),
            ("samples_per_class = 4.0", "spec field 'samples_per_class' must be an integer, got '4.0'"),
            ("known_classes = 1", "invalid dataset spec: known_classes must be >= 2, got 1"),
        ],
    )
    def test_spec_file_rejections_name_the_file_and_key(self, tmp_path, text, message, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text(text + "\n")
        assert main(["generate-data", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 2
        assert f"error: {spec}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("epochs = three", "config field 'epochs' must be an integer, got 'three'"),
            ("use_euc = maybe", "config field 'use_euc' must be a boolean, got 'maybe'"),
            ("exp_bound = nan", "exp_bound: must be positive, got nan"),
            ("use_ced = true\nbatch_size = 1", "batch_size: must be >= 2 with use_ced, got 1"),
        ],
    )
    @pytest.mark.parametrize("command", ["train", "gradcheck", "sweep"])
    def test_config_file_rejections_name_the_file_and_key(
        self, tmp_path, dataset_dir, line, message, command, capsys
    ):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        cfg = cfg_dir / "run.cfg"
        cfg.write_text(f"dataset = {dataset_dir}\n{line}\n")
        out = str(tmp_path / "out")
        if command == "sweep":
            assert main(["sweep", "--configs", str(cfg_dir), "--seeds", "1", "--out", out]) == 0
            summary = json.loads((tmp_path / "out" / "summary.json").read_text())
            assert summary["failures"] == [{"config": "run", "seed": None, "error": f"{cfg}: {message}"}]
            assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["summary.csv", "summary.json"]
            return
        argv = ["--out", out] if command == "train" else ["--instances", "1"]
        assert main([command, "--config", str(cfg), *argv]) == 2
        assert f"error: {cfg}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["train", "gradcheck", "sweep"])
    def test_a_kernel_wider_than_the_dataset_is_2_before_anything_is_written(
        self, tmp_path, dataset_dir, command, capsys
    ):
        cfg_dir = tmp_path / "cfgs"
        cfg_dir.mkdir()
        cfg = cfg_dir / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=dataset_dir).replace("kernel_width = 3", "kernel_width = 17"))
        message = f"{cfg}: kernel_width: must be <= the dataset's 16 timesteps, got 17"
        out = tmp_path / "out"
        if command == "sweep":
            assert main(["sweep", "--configs", str(cfg_dir), "--seeds", "2", "--out", str(out)]) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["configs"] == {}
            assert summary["failures"] == [
                {"config": "run", "seed": seed, "error": f"ConfigError: {message}"} for seed in (0, 1)
            ]
            assert sorted(p.name for p in out.iterdir()) == ["summary.csv", "summary.json"]
            return
        argv = ["--out", str(out)] if command == "train" else ["--instances", "1"]
        assert main([command, "--config", str(cfg), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not out.exists()

    def test_a_kernel_as_wide_as_the_dataset_trains(self, tmp_path, dataset_dir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            CONFIG_TEMPLATE.format(dataset=dataset_dir).replace("kernel_width = 3", "kernel_width = 16")
            .replace("epochs = 2", "epochs = 1")
        )
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_divergent_training_is_3(self, tmp_path, dataset_dir):
        cfg = tmp_path / "diverge.cfg"
        cfg.write_text(
            f"dataset = {dataset_dir}\nseed = 0\nepochs = 10\nbatch_size = 8\n"
            "feature_width = 8\nkernel_width = 3\nlr = 1e12\n"
        )
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
        assert "non-finite" in (out / "run.log").read_text()

    def test_a_nan_gradient_is_3_and_logged(self, tmp_path, dataset_dir, monkeypatch, capsys):
        """A step whose gradient is NaN reaches run_training's divergence handler through sgd_step."""

        def nan_gradient_step(*args, **kwargs):
            record, params = train_step(*args, **kwargs)
            params[0].grad[0, 0, 0] = np.nan
            return record, params

        train_step = runner.train_step
        monkeypatch.setattr(runner, "train_step", nan_gradient_step)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=dataset_dir))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "error: non-finite gradient in f.conv.weight\n"
        log = (out / "run.log").read_text().splitlines()
        assert log[-1].endswith(" non-finite loss at epoch 0 step 0: non-finite gradient in f.conv.weight")
        assert not (out / "losses.csv").exists()

    def test_non_finite_csv_value_is_2(self, tmp_path, dataset_dir, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        lines = (data / "train.csv").read_text().splitlines()
        fields = lines[2].split(",")
        fields[5] = "nan"
        lines[2] = ",".join(fields)
        (data / "train.csv").write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=data))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "train.csv:3:" in capsys.readouterr().err

    def test_csv_value_not_a_number_is_2(self, tmp_path, dataset_dir, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        lines = (data / "train.csv").read_text().splitlines()
        fields = lines[2].split(",")
        fields[5] = "abc"
        lines[2] = ",".join(fields)
        (data / "train.csv").write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=data))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "train.csv:3: value c0_t2='abc' is not a number" in capsys.readouterr().err

    def test_csv_id_outside_int64_is_2(self, tmp_path, dataset_dir, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        lines = (data / "train.csv").read_text().splitlines()
        lines[2] = "99999999999999999999" + lines[2][lines[2].index(",") :]
        (data / "train.csv").write_text("\n".join(lines) + "\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=data))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "train.csv:3: value id='99999999999999999999' is outside the int64 range" in capsys.readouterr().err

    def test_manifest_missing_a_split_is_2(self, tmp_path, dataset_dir, run_dir, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        del manifest["splits"]["test_unknown"]
        (data / "manifest.json").write_text(json.dumps(manifest))
        argv = ["eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(data)]
        assert main(argv + ["--out", str(tmp_path / "report.json")]) == 2
        assert "test_unknown" in capsys.readouterr().err

    def test_manifest_missing_spec_is_2(self, tmp_path, dataset_dir, run_dir, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        del manifest["spec"]
        (data / "manifest.json").write_text(json.dumps(manifest))
        argv = ["eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(data)]
        assert main(argv + ["--out", str(tmp_path / "report.json")]) == 2
        assert "manifest.json: manifest has no 'spec'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("timesteps", 20), ("dynamic_channels", 4)])
    def test_csv_shape_disagreeing_with_manifest_spec_is_2(self, tmp_path, dataset_dir, field, value, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["spec"][field] = value
        (data / "manifest.json").write_text(json.dumps(manifest))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=data))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert ".csv: 5 channels x 16 timesteps, manifest spec says" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, bad",
        [
            (lambda names: names[:-1] + ["value"], "column 83 is 'value', expected 'c{channel}_t{timestep}'"),
            (lambda names: names[:3] + [names[4], names[3]] + names[5:], "column 4 is 'c0_t1', expected 'c0_t0'"),
        ],
        ids=["last_column_value", "swapped_columns"],
    )
    def test_csv_header_other_than_save_splits_is_2(self, tmp_path, dataset_dir, edit, bad, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        train = data / "train.csv"
        header, rows = train.read_text().split("\n", 1)
        train.write_text(",".join(edit(header.split(","))) + "\n" + rows)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=data))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"train.csv:1: CSV header {bad}" in capsys.readouterr().err

    def test_eval_out_naming_a_directory_is_2_and_writes_nothing(self, tmp_path, dataset_dir, run_dir, capsys):
        (tmp_path / "report.json").write_text("earlier report\n")
        out = tmp_path / "reports"
        out.mkdir()
        before = sorted(p.name for p in tmp_path.iterdir())
        argv = ["eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(dataset_dir), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --out {out} is a directory; it must name the report JSON file\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert not any(out.iterdir())
        assert (tmp_path / "report.json").read_text() == "earlier report\n"

    @pytest.mark.parametrize("name", ["curve.csv", "scores.jsonl", "scores_unbiased.jsonl", "timings.json"])
    def test_eval_out_naming_a_sibling_is_2_and_writes_nothing(self, tmp_path, dataset_dir, run_dir, name, capsys):
        (tmp_path / "report.json").write_text("earlier report\n")
        (tmp_path / name).write_text("earlier sibling\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        out = tmp_path / name
        argv = ["eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(dataset_dir), "--out", str(out)]
        assert main(argv) == 2
        assert f"report path {out} would be overwritten" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_checkpoint_dataset_mismatch_is_4(self, tmp_path, run_dir):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SPEC_TEXT.replace("known_classes = 3", "known_classes = 4"))
        other = tmp_path / "other_data"
        assert main(["generate-data", "--spec", str(spec), "--out", str(other)]) == 0
        code = main(
            [
                "eval",
                "--checkpoint",
                str(run_dir / "model.ckpt"),
                "--data",
                str(other),
                "--out",
                str(tmp_path / "report.json"),
            ]
        )
        assert code == 4

    def test_sidecar_without_total_bytes_is_2(self, tmp_path, dataset_dir, run_dir, capsys):
        for name in ("model.ckpt", "model.ckpt.json"):
            shutil.copy(run_dir / name, tmp_path / name)
        sidecar = json.loads((tmp_path / "model.ckpt.json").read_text())
        del sidecar["total_bytes"]
        (tmp_path / "model.ckpt.json").write_text(json.dumps(sidecar))
        argv = ["eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(dataset_dir)]
        assert main(argv + ["--out", str(tmp_path / "eval" / "report.json")]) == 2
        assert "model.ckpt: sidecar 'total_bytes' is None" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", ["not a string", "repeated"])
    def test_sidecar_with_a_bad_array_name_is_2(self, tmp_path, dataset_dir, run_dir, problem, capsys):
        for name in ("model.ckpt", "model.ckpt.json"):
            shutil.copy(run_dir / name, tmp_path / name)
        sidecar = json.loads((tmp_path / "model.ckpt.json").read_text())
        first = sidecar["arrays"][0]["name"]
        sidecar["arrays"][1]["name"] = ["x"] if problem == "not a string" else first
        (tmp_path / "model.ckpt.json").write_text(json.dumps(sidecar))
        argv = ["eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(dataset_dir)]
        assert main(argv + ["--out", str(tmp_path / "eval" / "report.json")]) == 2
        entry = "has name ['x'], not a string" if problem == "not a string" else f"repeats the name {first!r}"
        captured = capsys.readouterr()
        assert captured.err == f"error: checkpoint {tmp_path / 'model.ckpt'}: array entry 1 {entry}\n"
        assert captured.out == ""
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [("format", "v0", "unrecognized checkpoint format: 'v0'"),
         ("dtype", "<f4", "sidecar 'dtype' is '<f4', not '<f8'"),
         ("total_bytes", 8, "size mismatch: sidecar says {} bytes, file has {}")],
    )
    def test_a_sidecar_of_another_format_dtype_or_size_is_2(
        self, tmp_path, dataset_dir, run_dir, key, value, message, capsys
    ):
        ckpt, sidecar = _copy_checkpoint(run_dir, tmp_path)
        size = ckpt.stat().st_size
        sidecar[key] = size + value if key == "total_bytes" else value
        (tmp_path / "model.ckpt.json").write_text(json.dumps(sidecar))
        _assert_eval_rejects(ckpt, dataset_dir, tmp_path / "eval", capsys, 2,
                             f"checkpoint {ckpt}: {message.format(size + 8, size)}")

    @pytest.mark.parametrize(
        "name, value",
        [("f.conv.weight", math.nan), ("f.conv.bias", math.nan), ("f.head.weight", math.nan),
         ("f.conv.weight", math.inf), ("f.head.bias", -math.inf)],
    )
    def test_a_non_finite_checkpoint_value_is_2_naming_the_array(
        self, tmp_path, dataset_dir, run_dir, name, value, capsys
    ):
        ckpt, sidecar = _copy_checkpoint(run_dir, tmp_path)
        (offset,) = [entry["offset"] for entry in sidecar["arrays"] if entry["name"] == name]
        blob = bytearray(ckpt.read_bytes())
        blob[offset + 8 : offset + 16] = np.array([value], dtype="<f8").tobytes()  # its second element
        ckpt.write_bytes(bytes(blob))
        _assert_eval_rejects(ckpt, dataset_dir, tmp_path / "eval", capsys, 2,
                             f"checkpoint {ckpt}: array {name!r} holds a non-finite value")

    def test_a_checkpoint_missing_a_parameter_is_4(self, tmp_path, dataset_dir, run_dir, capsys):
        ckpt, sidecar = _copy_checkpoint(run_dir, tmp_path)
        (entry,) = [entry for entry in sidecar["arrays"] if entry["name"] == "f.conv.weight"]
        entry["name"] = "f.conv.renamed"
        (tmp_path / "model.ckpt.json").write_text(json.dumps(sidecar))
        _assert_eval_rejects(ckpt, dataset_dir, tmp_path / "eval", capsys, 4,
                             "checkpoint is missing parameter f.conv.weight")

    def test_a_checkpoint_config_disagreeing_with_its_arrays_is_4(self, tmp_path, dataset_dir, run_dir, capsys):
        ckpt, sidecar = _copy_checkpoint(run_dir, tmp_path)
        sidecar["meta"]["config"]["feature_width"] = 9  # the arrays hold width 8
        (tmp_path / "model.ckpt.json").write_text(json.dumps(sidecar))
        _assert_eval_rejects(ckpt, dataset_dir, tmp_path / "eval", capsys, 4,
                             "parameter f.conv.weight has shape (8, 5, 3), model expects (9, 5, 3)")

    def test_a_checkpoint_kernel_wider_than_the_eval_dataset_is_4(self, tmp_path, dataset_dir, capsys):
        spec = tmp_path / "spec.cfg"
        spec.write_text(SPEC_TEXT.replace("timesteps = 16", "timesteps = 24"))
        longer = tmp_path / "longer_data"
        assert main(["generate-data", "--spec", str(spec), "--out", str(longer)]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            CONFIG_TEMPLATE.format(dataset=longer).replace("kernel_width = 3", "kernel_width = 20")
            .replace("epochs = 2", "epochs = 1")
        )
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
        capsys.readouterr()
        ckpt = tmp_path / "run" / "model.ckpt"
        out = tmp_path / "eval"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(dataset_dir), "--out", str(out / "r.json")]) == 4
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: checkpoint {ckpt} has kernel_width 20, wider than the dataset's 16 timesteps\n"
        )
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("damage", [_truncate_json, _not_utf8], ids=["truncated", "binary"])
    def test_manifest_that_is_not_json_is_2(self, tmp_path, dataset_dir, damage, capsys):
        data = tmp_path / "data"
        shutil.copytree(dataset_dir, data)
        damage(data / "manifest.json")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=data))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert f"error: {data / 'manifest.json'}: manifest is not valid JSON: " in capsys.readouterr().err

    @pytest.mark.parametrize("damage", [_truncate_json, _not_utf8], ids=["truncated", "binary"])
    def test_sidecar_that_is_not_json_is_2(self, tmp_path, dataset_dir, run_dir, damage, capsys):
        for name in ("model.ckpt", "model.ckpt.json"):
            shutil.copy(run_dir / name, tmp_path / name)
        damage(tmp_path / "model.ckpt.json")
        argv = ["eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(dataset_dir)]
        assert main(argv + ["--out", str(tmp_path / "eval" / "report.json")]) == 2
        assert f"error: checkpoint {tmp_path / 'model.ckpt'}: sidecar is not valid JSON: " in capsys.readouterr().err

    def test_gradcheck_passes_at_default_tolerance(self, tmp_path, dataset_dir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=dataset_dir))
        assert main(["gradcheck", "--config", str(cfg), "--instances", "2"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out

    def test_gradcheck_unattainable_tolerance_is_5(self, tmp_path, dataset_dir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=dataset_dir))
        assert main(["gradcheck", "--config", str(cfg), "--instances", "1", "--tol", "1e-16"]) == 5
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value",
        [("--instances", "0"), ("--instances", "-3"), ("--tol", "inf"), ("--tol", "nan"), ("--tol", "0"),
         ("--tol", "-1e-4")],
    )
    def test_gradcheck_that_checks_nothing_is_2(self, tmp_path, dataset_dir, flag, value, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=dataset_dir))
        assert main(["gradcheck", "--config", str(cfg), f"{flag}={value}"]) == 2
        captured = capsys.readouterr()
        assert f"{flag} must be" in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "flag, value, key",
        [("--avu-threshold", "nan", "avu_threshold"), ("--avu-threshold", "-1", "avu_threshold"),
         ("--seed", "-1", "seed")],
    )
    def test_eval_override_breaking_its_key_rule_is_2(self, tmp_path, dataset_dir, run_dir, flag, value, key, capsys):
        out = tmp_path / "eval" / "report.json"
        argv = ["eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(dataset_dir), "--out", str(out)]
        assert main(argv + [f"{flag}={value}"]) == 2
        assert f"error: {key}: must be" in capsys.readouterr().err
        assert not out.parent.exists()

    @pytest.mark.parametrize("key", ["epochs", "use_ced", "selections"])
    def test_an_eval_override_outside_the_five_keys_is_a_type_error(self, tmp_path, dataset_dir, run_dir, key):
        out = tmp_path / "eval" / "report.json"
        with pytest.raises(TypeError, match=rf"^run_evaluation\(\) got unexpected overrides \['{key}'\]$"):
            runner.run_evaluation(run_dir / "model.ckpt", dataset_dir, out, coverage=0.9, **{key: 1})
        assert not out.parent.exists()

    def test_negative_config_seed_is_2(self, tmp_path, dataset_dir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=dataset_dir).replace("seed = 0", "seed = -1"))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "seed: must be >= 0, got -1" in capsys.readouterr().err


def _copy_with_manifest(dataset_dir, dest, edit):
    """Copy the dataset to ``dest`` and apply ``edit`` to its parsed manifest."""
    shutil.copytree(dataset_dir, dest)
    manifest = json.loads((dest / "manifest.json").read_text())
    edit(manifest)
    (dest / "manifest.json").write_text(json.dumps(manifest))
    return dest


class TestSplitsParsed:
    """Each command loads only the splits it reads; every one checks the whole manifest."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        """A function giving the names of the split files loaded so far."""
        loaded = []
        inner = data_mod.load_split

        def spy(path):
            loaded.append(Path(path).name)
            return inner(path)

        monkeypatch.setattr(data_mod, "load_split", spy)
        return lambda: loaded

    def test_train_parses_the_train_split_only(self, tmp_path, dataset_dir, parsed):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=dataset_dir))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert parsed() == ["train.csv"]

    def test_gradcheck_parses_the_train_split_only(self, tmp_path, dataset_dir, parsed):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=dataset_dir))
        assert main(["gradcheck", "--config", str(cfg), "--instances", "1"]) == 0
        assert parsed() == ["train.csv"]

    def test_eval_parses_all_four_splits(self, tmp_path, dataset_dir, run_dir, parsed):
        argv = ["eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(dataset_dir)]
        assert main(argv + ["--out", str(tmp_path / "report.json")]) == 0
        assert parsed() == ["test_biased.csv", "test_unbiased.csv", "test_unknown.csv", "train.csv"]  # manifest order

    @pytest.fixture(scope="class")
    def unknown_nan_dir(self, tmp_path_factory, dataset_dir):
        data = tmp_path_factory.mktemp("unknown_nan") / "data"
        shutil.copytree(dataset_dir, data)
        lines = (data / "test_unknown.csv").read_text().splitlines()
        fields = lines[2].split(",")
        fields[5] = "nan"
        lines[2] = ",".join(fields)
        (data / "test_unknown.csv").write_text("\n".join(lines) + "\n")
        return data

    def test_eval_names_a_bad_value_in_a_test_split(self, tmp_path, run_dir, unknown_nan_dir, capsys):
        argv = ["eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(unknown_nan_dir)]
        assert main(argv + ["--out", str(tmp_path / "report.json")]) == 2
        assert "test_unknown.csv:3: value c0_t2=nan is not finite" in capsys.readouterr().err

    def test_train_ignores_a_bad_value_in_a_test_split(self, tmp_path, dataset_dir, run_dir, unknown_nan_dir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=unknown_nan_dir))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("losses.csv", "model.ckpt", "model_full.ckpt"):
            assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name
        sidecar = (out / "model.ckpt.json").read_text().replace(str(unknown_nan_dir), str(dataset_dir))
        assert sidecar == (run_dir / "model.ckpt.json").read_text()

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("splits", "train", 5, "split 'train' must name a file, got 5"),
            ("splits", "test_unknown", None, "split 'test_unknown' must name a file, got None"),
            ("spec", "timesteps", "x", "spec field 'timesteps' must be an integer, got 'x'"),
            ("spec", "seed", True, "spec field 'seed' must be an integer, got True"),
            ("spec", "known_classes", 3.0, "spec field 'known_classes' must be an integer, got 3.0"),
            ("spec", "noise_sigma", "0.1", "spec field 'noise_sigma' must be a number, got '0.1'"),
            ("spec", "timesteps", 2, "invalid dataset spec: timesteps must be >= 4, got 2"),
        ],
    )
    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_mistyped_manifest_entry_is_2(self, tmp_path, dataset_dir, section, key, value, message, command, capsys):
        data = _copy_with_manifest(dataset_dir, tmp_path / "data", lambda m: m[section].__setitem__(key, value))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=data))
        argv = ["--out", str(tmp_path / "out")] if command == "train" else ["--instances", "1"]
        assert main([command, "--config", str(cfg), *argv]) == 2
        assert f"manifest.json: {message}" in capsys.readouterr().err

    def test_split_names_outside_the_four_are_ignored(self, tmp_path, dataset_dir, run_dir, parsed):
        data = _copy_with_manifest(
            dataset_dir, tmp_path / "data", lambda m: m["splits"].__setitem__("extra", "nope.csv")
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=data))
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        argv = ["eval", "--checkpoint", str(run_dir / "model.ckpt"), "--data", str(data)]
        assert main(argv + ["--out", str(tmp_path / "eval" / "report.json")]) == 0
        assert "nope.csv" not in parsed()


def test_osev_loads_nothing_outside_numpy_and_the_stdlib():
    """Importing the CLI and running a softplus training step, whose evidence
    gradient is the logistic function, loads no third-party package but numpy.
    What the interpreter's site hooks and numpy's own import load comes first."""
    code = (
        "import sys, numpy as np\n"
        "rng = np.random.default_rng(0)\n"
        "before = set(sys.modules)\n"
        "import osev.cli\n"
        "from osev.debias import build_branch, vanilla_train_step\n"
        "from osev.losses import LossWeights\n"
        "from osev.nn import sgd_step\n"
        "net = build_branch('f', 3, 4, 2, 3, rng, evidence='softplus')\n"
        "_, params = vanilla_train_step(net, rng.standard_normal((5, 3, 6)), np.array([0, 1, 2, 0, 1]),\n"
        "                               lambda_t=0.5, use_euc=True, weights=LossWeights())\n"
        "sgd_step(params, lr=0.1)\n"
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before} - set(sys.stdlib_module_names)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() in ("['osev']", "['numpy', 'osev']")


def test_module_entry_point(tmp_path):
    spec = tmp_path / "spec.cfg"
    spec.write_text(SPEC_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "osev", "generate-data", "--spec", str(spec), "--out", str(tmp_path / "d")],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "manifest" in proc.stdout


def test_blas_thread_count_does_not_change_training_bytes(tmp_path):
    """The conv runs through BLAS; one or two BLAS threads must give the same bytes.

    The shape is chosen so the conv's weight-gradient GEMM is large enough for
    OpenBLAS to split it across threads (batch 32, 16 output steps, 6x9 taps).
    """
    spec = tmp_path / "spec.cfg"
    spec.write_text(
        SPEC_TEXT.replace("samples_per_class = 6", "samples_per_class = 12")
        .replace("timesteps = 16", "timesteps = 24")
        .replace("dynamic_channels = 3", "dynamic_channels = 4")
    )
    data = tmp_path / "data"
    assert main(["generate-data", "--spec", str(spec), "--out", str(data)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"dataset = {data}\nseed = 0\nepochs = 3\nbatch_size = 32\n"
        "feature_width = 12\nkernel_width = 9\nuse_euc = true\nuse_ced = true\n"
    )
    outputs = {}
    for threads in ("1", "2"):
        env = child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "osev", "train", "--config", str(cfg), "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs[threads] = [(out / name).read_bytes() for name in ("losses.csv", "model.ckpt")]
    assert outputs["1"] == outputs["2"]
