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


class TestArtifacts:
    def test_dataset_files(self, dataset_dir):
        names = {p.name for p in dataset_dir.iterdir()}
        assert names == {
            "manifest.json",
            "train.csv",
            "test_biased.csv",
            "test_unbiased.csv",
            "test_unknown.csv",
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
        assert names == {"report.json", "curve.csv", "scores.jsonl", "scores_unbiased.jsonl"}

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
        records = read_score_dump(eval_dir / "scores.jsonl")
        k = report["num_known_classes"]
        known = [r.score for r in records if r.label < k]
        unknown = [r.score for r in records if r.label == k]
        assert roc_auc(known, unknown) == pytest.approx(report["open_auc"], abs=1e-12)

    def test_closed_biased_accuracy(self, eval_dir):
        report = json.loads((eval_dir / "report.json").read_text())
        records = read_score_dump(eval_dir / "scores.jsonl")
        k = report["num_known_classes"]
        known = [r for r in records if r.label < k]
        acc = float(np.mean([int(np.argmax(r.probs)) == r.label for r in known]))
        assert acc == pytest.approx(report["closed_accuracy"]["biased"], abs=1e-12)

    def test_open_ece_from_scores(self, eval_dir):
        report = json.loads((eval_dir / "report.json").read_text())
        records = read_score_dump(eval_dir / "scores.jsonl")
        tau = report["threshold"]
        k = report["num_known_classes"]
        preds = open_predictions(records, tau)
        labels = np.asarray([r.label for r in records])
        conf = np.asarray(
            [
                r.score if p == k else float(r.probs[p]) * (1.0 - r.score)
                for r, p in zip(records, preds)
            ]
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
        for name in ("report.json", "curve.csv", "scores.jsonl", "scores_unbiased.jsonl"):
            assert (out / name).read_bytes() == (eval_dir / name).read_bytes(), name


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


def test_module_entry_point(tmp_path):
    spec = tmp_path / "spec.cfg"
    spec.write_text(SPEC_TEXT)
    proc = subprocess.run(
        [sys.executable, "-m", "osev", "generate-data", "--spec", str(spec), "--out", str(tmp_path / "d")],
        capture_output=True,
        text=True,
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
    src = str(Path(osev.__file__).resolve().parents[1])
    outputs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
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
