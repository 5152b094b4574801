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


class TestExitCodes:
    def test_a_kernel_as_wide_as_the_dataset_trains(self, tmp_path, dataset_dir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            CONFIG_TEMPLATE.format(dataset=dataset_dir).replace("kernel_width = 3", "kernel_width = 16")
            .replace("epochs = 2", "epochs = 1")
        )
        assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

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

    def test_gradcheck_passes_at_default_tolerance(self, tmp_path, dataset_dir, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=dataset_dir))
        assert main(["gradcheck", "--config", str(cfg), "--instances", "2"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out

    @pytest.mark.parametrize("key", ["epochs", "use_ced", "selections"])
    def test_an_eval_override_outside_the_five_keys_is_a_type_error(self, tmp_path, dataset_dir, run_dir, key):
        out = tmp_path / "eval" / "report.json"
        with pytest.raises(TypeError, match=rf"^run_evaluation\(\) got unexpected overrides \['{key}'\]$"):
            runner.run_evaluation(run_dir / "model.ckpt", dataset_dir, out, coverage=0.9, **{key: 1})
        assert not out.parent.exists()

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

    def test_train_ignores_a_bad_value_in_a_test_split(self, tmp_path, dataset_dir, run_dir, unknown_nan_dir):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(CONFIG_TEMPLATE.format(dataset=unknown_nan_dir))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("losses.csv", "model.ckpt", "model_full.ckpt"):
            assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name
        sidecar = (out / "model.ckpt.json").read_text().replace(str(unknown_nan_dir), str(dataset_dir))
        assert sidecar == (run_dir / "model.ckpt.json").read_text()

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
