"""The exit-code contract: every row of README.md's exit-code table, run through ``osev.cli.main``.

Each row ``(id, mutate, argvs, code, stderr)`` runs on a fresh copy of one
session fixture (the dataset ``data``, its spec ``spec.cfg``, the config
``run.cfg`` and the trained run ``run``), from inside that copy, so every
path in a message is the relative one the table shows.  ``mutate`` breaks
one input; each command line in ``argvs`` must then exit ``code`` with
exactly ``stderr`` (``…`` stands for any text), print nothing on stdout but
exit 5's check lines, and write nothing (exit 3 writes only ``out/run.log``).
Each runs with warnings turned into errors, so a numpy warning on stderr fails it.
"""

import json
import re
import shutil
import warnings
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from osev.checkpoint import load_checkpoint, save_checkpoint
from osev.cli import main
from osev.config import RunConfig
from osev.data import SyntheticSpec, generate, save_dataset
from osev.runner import run_training

SPEC = SyntheticSpec(
    known_classes=3, unknown_classes=2, samples_per_class=6, timesteps=16, dynamic_channels=3, background_channels=2
)
CONFIG = (
    "dataset = data\nseed = 0\nepochs = 2\nbatch_size = 8\nfeature_width = 8\nkernel_width = 3\n"
    "use_euc = true\nuse_ced = true\n"
)

TRAIN = ("train", "--config", "run.cfg", "--out", "out")
GRADCHECK = ("gradcheck", "--config", "run.cfg", "--instances", "1")
GENERATE = ("generate-data", "--spec", "spec.cfg", "--out", "new")


def _eval(*flags, data="data", out="eval/report.json"):
    return ("eval", "--checkpoint", "run/model.ckpt", "--data", data, "--out", out, *flags)


EVAL = _eval()
LOADERS = (TRAIN, GRADCHECK, EVAL)  # every command that reads the dataset
SIDECAR = "run/model.ckpt.json"
MANIFEST = "data/manifest.json"
SIBLINGS = ("curve.csv", "scores.jsonl", "scores_unbiased.jsonl", "timings.json")
DELETE = object()
NOT_UTF8, UTF8_ERROR = b"\xff\xfe\x00\x01", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"


def _append(path, line):
    return lambda: Path(path).write_text(Path(path).read_text() + line + "\n")


def _replace(path, old, new):
    def mutate():
        text = Path(path).read_text()
        assert old in text
        Path(path).write_text(text.replace(old, new, 1))

    return mutate


def _set(path, *keys, value):
    """Set (or, with ``DELETE``, remove) ``keys`` in the JSON file at ``path``."""

    def mutate():
        obj = json.loads(Path(path).read_text())
        node = obj
        for key in keys[:-1]:
            node = node[key]
        if value is DELETE:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
        Path(path).write_text(json.dumps(obj))

    return mutate


def _write(path, content: bytes):
    return lambda: Path(path).write_bytes(content)


def _directory(path):
    """Put a directory where the file ``path`` was."""

    def mutate():
        Path(path).unlink()
        Path(path).mkdir()

    return mutate


def _truncate(path):
    """Keep a JSON file's first line, so it no longer parses."""
    return lambda: Path(path).write_text(Path(path).read_text().split("\n")[0] + "\n")


def _csv_line(number, edit, path="data/train.csv"):
    """Replace line ``number`` (from 1) of a CSV by ``edit`` of its fields; None deletes every later line too.

    A lone surrogate ``"\\udcXX"`` in a field is written as the byte 0xXX, which is not UTF-8.
    """

    def mutate():
        lines = Path(path).read_text().splitlines()
        fields = edit(lines[number - 1].split(","))
        lines[number - 1 :] = [] if fields is None else [",".join(fields), *lines[number:]]
        Path(path).write_bytes("".join(line + "\n" for line in lines).encode("utf-8", "surrogateescape"))

    return mutate


def _csv_field(column, text, path="data/train.csv"):
    """Put ``text`` in field ``column`` of the CSV's line 3."""
    return _csv_line(3, lambda fields: fields[:column] + [text] + fields[column + 1 :], path)


def _poke(name, value):
    """Write ``value`` over the second element of the checkpoint array ``name``."""

    def mutate():
        (offset,) = [e["offset"] for e in json.loads(Path(SIDECAR).read_text())["arrays"] if e["name"] == name]
        blob = bytearray(Path("run/model.ckpt").read_bytes())
        blob[offset + 8 : offset + 16] = np.array([value], dtype="<f8").tobytes()
        Path("run/model.ckpt").write_bytes(bytes(blob))

    return mutate


def _widen_kernel():
    """A checkpoint whose kernel (17 taps) is wider than the dataset's 16 timesteps."""
    arrays, meta = load_checkpoint("run/model.ckpt")
    arrays["f.conv.weight"] = np.zeros((8, 5, 17))
    meta["config"]["kernel_width"] = 17
    save_checkpoint("run/model.ckpt", arrays, meta)


def _dataset(out, **changes):
    spec = replace(SPEC, **changes)
    return lambda: save_dataset(spec, generate(spec), out)


def _earlier_reports():
    Path("eval").mkdir()
    for name in ("report.json", *SIBLINGS):
        Path("eval", name).write_text("earlier\n")


@dataclass(frozen=True)
class Row:
    id: str
    mutate: Callable[[], object] | None
    argvs: tuple
    code: int
    stderr: str

    @property
    def commands(self) -> tuple:
        return tuple(dict.fromkeys(argv[0] for argv in self.argvs))


def _rows(code, argvs, *rows):
    """Rows of one exit code over the same command lines, each given as (id, mutate, stderr)."""
    return [Row(id, mutate, argvs, code, stderr) for id, mutate, stderr in rows]


ROWS = [
    *_rows(
        2, (TRAIN, GRADCHECK),
        ("config-missing", Path("run.cfg").unlink, "error: [Errno 2] No such file or directory: 'run.cfg'"),
        ("config-unreadable", _directory("run.cfg"), "error: [Errno 21] Is a directory: 'run.cfg'"),
        ("config-not-utf8", _write("run.cfg", NOT_UTF8), "error: run.cfg: " + UTF8_ERROR),
        ("config-not-key-value", _append("run.cfg", "epochs 3"),
         "error: run.cfg:9: expected 'key = value', got 'epochs 3'"),
        ("config-empty-key", _append("run.cfg", "= 3"), "error: run.cfg:9: empty key"),
        ("config-repeated-key", _append("run.cfg", "seed = 1"), "error: run.cfg:9: duplicate key 'seed'"),
        ("config-unknown-key", _append("run.cfg", "bogus_key = 1"), "error: run.cfg: unknown config key 'bogus_key'"),
        ("config-unconvertible", _replace("run.cfg", "epochs = 2", "epochs = three"),
         "error: run.cfg: config field 'epochs' must be an integer, got 'three'"),
        ("config-out-of-range", _append("run.cfg", "exp_bound = nan"),
         "error: run.cfg: exp_bound: must be positive, got nan"),
        ("config-ced-batch", _replace("run.cfg", "batch_size = 8", "batch_size = 1"),
         "error: run.cfg: batch_size: must be >= 2 with use_ced, got 1"),
        ("config-kernel-wider", _replace("run.cfg", "kernel_width = 3", "kernel_width = 17"),
         "error: run.cfg: kernel_width: must be <= the dataset's 16 timesteps, got 17"),
        ("data-missing", _replace("run.cfg", "dataset = data", "dataset = nowhere"),
         "error: no dataset manifest at nowhere/manifest.json"),
    ),
    *_rows(
        2, (GENERATE,),
        ("spec-missing", Path("spec.cfg").unlink, "error: [Errno 2] No such file or directory: 'spec.cfg'"),
        ("spec-not-utf8", _write("spec.cfg", NOT_UTF8), "error: spec.cfg: " + UTF8_ERROR),
        ("spec-unknown-key", _append("spec.cfg", "bogus = 1"), "error: spec.cfg: unknown spec key 'bogus'"),
        ("spec-not-an-integer", _replace("spec.cfg", "samples_per_class = 6", "samples_per_class = 4.0"),
         "error: spec.cfg: spec field 'samples_per_class' must be an integer, got '4.0'"),
        ("spec-invalid", _replace("spec.cfg", "known_classes = 3", "known_classes = 1"),
         "error: spec.cfg: invalid dataset spec: known_classes must be >= 2, got 1"),
    ),
    Row("gradcheck-instances", None, tuple(GRADCHECK + (f"--instances={n}",) for n in ("0", "-3")), 2,
        "error: --instances must be >= 1, got …"),
    Row("gradcheck-tol", None, tuple(GRADCHECK + (f"--tol={t}",) for t in ("inf", "nan", "0", "-1e-4")), 2,
        "error: --tol must be positive and finite, got …"),
    Row("gradcheck-fails", None, (GRADCHECK + ("--tol", "1e-16"),), 5, "gradient check failed: …"),
    Row("train-diverges",
        _write("run.cfg", CONFIG.replace("epochs = 2", "epochs = 10")
               .replace("use_euc = true\nuse_ced = true", "lr = 1e12").encode()),
        (TRAIN,), 3, "error: …"),
    *_rows(
        2, LOADERS,
        ("manifest-not-json", _truncate(MANIFEST), "error: data/manifest.json: manifest is not valid JSON: …"),
        ("manifest-format", _set(MANIFEST, "format", value="v0"),
         "error: data/manifest.json: unrecognized dataset format: 'v0'"),
        ("manifest-no-spec", _set(MANIFEST, "spec", value=DELETE), "error: data/manifest.json: manifest has no 'spec'"),
        ("manifest-spec-not-object", _set(MANIFEST, "spec", value=[]),
         "error: data/manifest.json: spec must be a JSON object, got []"),
        ("manifest-spec-unknown-key", _set(MANIFEST, "spec", "bogus", value=1),
         "error: data/manifest.json: unknown spec key 'bogus'"),
        ("manifest-spec-type", _set(MANIFEST, "spec", "timesteps", value="x"),
         "error: data/manifest.json: spec field 'timesteps' must be an integer, got 'x'"),
        ("manifest-spec-invalid", _set(MANIFEST, "spec", "timesteps", value=2),
         "error: data/manifest.json: invalid dataset spec: timesteps must be >= 4, got 2"),
        ("manifest-split-missing", _set(MANIFEST, "splits", "test_unknown", value=DELETE),
         "error: data/manifest.json: manifest lists no file for split(s) test_unknown"),
        ("manifest-split-name", _set(MANIFEST, "splits", "train", value=5),
         "error: data/manifest.json: split 'train' must name a file, got 5"),
        ("csv-missing", Path("data/train.csv").unlink, "error: [Errno 2] No such file or directory: 'data/train.csv'"),
        ("csv-not-utf8", _csv_field(5, "\udcff"), "error: data/train.csv:3: value c0_t2='\\udcff' is not a number"),
        ("csv-header", _csv_line(1, lambda names: names[:-1] + ["value"]),
         "error: data/train.csv:1: CSV header column 83 is 'value', expected 'c{channel}_t{timestep}'"),
        ("csv-short-row", _csv_line(3, lambda fields: fields[:6]),
         "error: data/train.csv:3: expected 83 fields, found 6"),
        ("csv-not-a-number", _csv_field(5, "abc"), "error: data/train.csv:3: value c0_t2='abc' is not a number"),
        ("csv-non-finite", _csv_field(5, "nan"), "error: data/train.csv:3: value c0_t2=nan is not finite"),
        ("csv-integer", _csv_field(1, "1.0"),
         "error: data/train.csv:3: value class='1.0' is not an integer"),
        ("csv-underscore", _csv_field(3, "1_5"),
         "error: data/train.csv:3: value c0_t0='1_5' has an underscore or whitespace"),
        ("split-no-rows", _csv_line(2, lambda fields: None),
         "error: data/train.csv: split has no rows"),
        ("split-class-range", _csv_field(1, "3"),
         "error: data/train.csv: row id=… has class 3, outside the known classes [0, 3)"),
    ),
    Row("split-shape", _set(MANIFEST, "spec", "timesteps", value=20), (TRAIN, GRADCHECK), 2,
        "error: data/train.csv: 5 channels x 16 timesteps, manifest spec says 5 x 20"),
    Row("test-split-bad-value", _csv_field(5, "nan", "data/test_unknown.csv"), (EVAL,), 2,
        "error: data/test_unknown.csv:3: value c0_t2=nan is not finite"),
    Row("eval-out-directory", None, (_eval(out="run"),), 2,
        "error: --out run is a directory; it must name the report JSON file"),
    Row("eval-out-sibling", _earlier_reports,
        tuple(_eval(out=f"eval/{name}") for name in SIBLINGS), 2,
        "error: report path eval/… would be overwritten by the eval file of that name; "
        "the report may not be named curve.csv, scores.jsonl, scores_unbiased.jsonl, timings.json"),
    Row("eval-avu-threshold", None, (_eval("--avu-threshold=nan"), _eval("--avu-threshold=-1")), 2,
        "error: avu_threshold: must be finite and >= 0, got …"),
    Row("eval-seed", None, (_eval("--seed=-1"),), 2, "error: seed: must be >= 0, got -1"),
    Row("eval-class-count", _dataset("data4", known_classes=4), (_eval(data="data4"),), 4,
        "error: checkpoint has 3 classes, dataset has 4 known classes"),
    Row("eval-channel-count", _dataset("data6", dynamic_channels=4), (_eval(data="data6"),), 4,
        "error: checkpoint expects 5 channels, dataset has 6"),
    Row("eval-kernel-wider", _widen_kernel, (EVAL,), 4,
        "error: checkpoint run/model.ckpt has kernel_width 17, wider than the dataset's 16 timesteps"),
    *_rows(
        2, (EVAL,),
        ("ckpt-missing", Path("run/model.ckpt").unlink, "error: [Errno 2] No such file or directory: 'run/model.ckpt'"),
        ("ckpt-sidecar-not-json", _truncate(SIDECAR),
         "error: checkpoint run/model.ckpt: sidecar is not valid JSON: …"),
        ("ckpt-sidecar-not-object", _write(SIDECAR, b"[]"),
         "error: checkpoint run/model.ckpt: sidecar is not a JSON object"),
        ("ckpt-format", _set(SIDECAR, "format", value="v0"),
         "error: checkpoint run/model.ckpt: unrecognized checkpoint format: 'v0'"),
        ("ckpt-dtype", _set(SIDECAR, "dtype", value="<f4"),
         "error: checkpoint run/model.ckpt: sidecar 'dtype' is '<f4', not '<f8'"),
        ("ckpt-byte-count", _set(SIDECAR, "total_bytes", value=DELETE),
         "error: checkpoint run/model.ckpt: sidecar 'total_bytes' is None, not a byte count"),
        ("ckpt-arrays-not-objects", _set(SIDECAR, "arrays", 0, value="f.conv.weight"),
         "error: checkpoint run/model.ckpt: sidecar 'arrays' is not a list of JSON objects"),
        ("ckpt-name", _set(SIDECAR, "arrays", 1, "name", value=["x"]),
         "error: checkpoint run/model.ckpt: array entry 1 has name ['x'], not a string"),
        ("ckpt-entry", _set(SIDECAR, "arrays", 1, "shape", value=[-8]),
         "error: checkpoint run/model.ckpt: array 'f.conv.bias' has invalid shape [-8] or offset 960"),
        ("ckpt-non-finite", _poke("f.conv.weight", np.nan),
         "error: checkpoint run/model.ckpt: array 'f.conv.weight' holds a non-finite value"),
    ),
    *_rows(
        4, (EVAL,),
        ("ckpt-config-not-object", _set(SIDECAR, "meta", "config", value=["not", "a", "dict"]),
         "error: checkpoint metadata unusable: config must be a JSON object, got ['not', 'a', 'dict']"),
        ("ckpt-config-unknown-key", _set(SIDECAR, "meta", "config", "bogus", value=1),
         "error: checkpoint metadata unusable: unknown config key 'bogus'"),
        ("ckpt-config-type", _set(SIDECAR, "meta", "config", "feature_width", value=3.5),
         "error: checkpoint metadata unusable: config field 'feature_width' must be an integer, got 3.5"),
        ("ckpt-config-invalid", _set(SIDECAR, "meta", "config", "feature_width", value=0),
         "error: checkpoint metadata unusable: feature_width: must be >= 1, got 0"),
        ("ckpt-count", _set(SIDECAR, "meta", "channels", value=5.9),
         "error: checkpoint metadata unusable: channels must be an integer >= 1, got 5.9"),
        ("ckpt-missing-parameter", _set(SIDECAR, "arrays", 0, "name", value="f.conv.renamed"),
         "error: checkpoint is missing parameter f.conv.weight"),
        ("ckpt-parameter-shape", _set(SIDECAR, "meta", "config", "feature_width", value=9),
         "error: parameter f.conv.weight has shape (8, 5, 3), model expects (9, 5, 3)"),
    ),
    Row("sweep-no-configs", None, (("sweep", "--configs", "data", "--seeds", "1", "--out", "sweep"),), 2,
        "error: no *.cfg files found in data"),
    Row("sweep-seeds", None, (("sweep", "--configs", ".", "--seeds", "0", "--out", "sweep"),), 2,
        "error: --seeds must be >= 1, got 0"),
]

#: Further inputs of some rows' class, each with the row's command lines and exit code and its own stderr.
VARIANTS = [
    ("config-unknown-key", _append("run.cfg", "hsic_center = 1"), "error: run.cfg: unknown config key 'hsic_center'"),
    ("config-unconvertible", _replace("run.cfg", "use_euc = true", "use_euc = maybe"),
     "error: run.cfg: config field 'use_euc' must be a boolean, got 'maybe'"),
    ("config-out-of-range", _replace("run.cfg", "seed = 0", "seed = -1"), "error: run.cfg: seed: must be >= 0, got -1"),
    *[("spec-invalid", _replace("spec.cfg", f"{key} = {value}", f"{key} = {bad}"),
       f"error: spec.cfg: invalid dataset spec: {key} must be {rule}, got {bad}")
      for key, value, bad, rule in [
          ("samples_per_class", 6, 0, ">= 1"), ("dynamic_channels", 3, 0, ">= 1"),
          ("background_channels", 2, 0, ">= 1"), *[("noise_sigma", 0.1, v, "finite and >= 0") for v in ("nan", -0.5)],
      ]],
    ("split-shape", _set(MANIFEST, "spec", "dynamic_channels", value=4),
     "error: data/train.csv: 5 channels x 16 timesteps, manifest spec says 6 x 16"),
    ("manifest-not-json", _write(MANIFEST, NOT_UTF8),
     "error: data/manifest.json: manifest is not valid JSON: " + UTF8_ERROR),
    *[("manifest-spec-type", _set(MANIFEST, "spec", key, value=value),
       f"error: data/manifest.json: spec field {key!r} must be {kind}, got {value!r}")
      for key, value, kind in [("seed", True, "an integer"), ("known_classes", 3.0, "an integer"),
                               ("noise_sigma", "0.1", "a number")]],
    ("manifest-split-missing", _set(MANIFEST, "splits", value=["train.csv"]),
     "error: data/manifest.json: manifest lists no file for split(s) train, test_biased, test_unbiased, test_unknown"),
    ("manifest-split-name", _set(MANIFEST, "splits", "test_unknown", value=None),
     "error: data/manifest.json: split 'test_unknown' must name a file, got None"),
    ("csv-header", _csv_line(1, lambda names: names[:3] + [names[4], names[3]] + names[5:]),
     "error: data/train.csv:1: CSV header column 4 is 'c0_t1', expected 'c0_t0'"),
    ("csv-not-utf8", _csv_line(1, lambda names: names[:3] + ["c0_t0\udcff"] + names[4:]),
     "error: data/train.csv:1: CSV header column 4 is 'c0_t0\\udcff', expected 'c0_t0'"),
    ("ckpt-sidecar-not-json", _write(SIDECAR, NOT_UTF8),
     "error: checkpoint run/model.ckpt: sidecar is not valid JSON: " + UTF8_ERROR),
    ("ckpt-byte-count", _set(SIDECAR, "total_bytes", value=8),
     "error: checkpoint run/model.ckpt: size mismatch: sidecar says 8 bytes, file has 1240"),
    ("ckpt-name", _set(SIDECAR, "arrays", 1, "name", value="f.conv.weight"),
     "error: checkpoint run/model.ckpt: array entry 1 repeats the name 'f.conv.weight'"),
    ("ckpt-entry", _set(SIDECAR, "arrays", 1, "offset", value=10**6),
     "error: checkpoint run/model.ckpt: array 'f.conv.bias' needs bytes 1000000 to 1000064, file has 1240"),
    ("csv-integer", _csv_field(0, "99999999999999999999"),
     "error: data/train.csv:3: value id='99999999999999999999' is outside the int64 range"),
    *[("ckpt-non-finite", _poke(name, value),
       f"error: checkpoint run/model.ckpt: array {name!r} holds a non-finite value")
      for name, value in [("f.conv.bias", np.nan), ("f.head.weight", np.nan), ("f.conv.weight", np.inf),
                          ("f.head.bias", -np.inf)]],
    *[("ckpt-config-type", _set(SIDECAR, "meta", "config", key, value=value),
       f"error: checkpoint metadata unusable: config field {key!r} must be an integer, got {value!r}")
      for key, value in [("kernel_width", 2.0), ("feature_width", True), ("seed", 1.5), ("num_selections", 2.5)]],
    *[("ckpt-count", _set(SIDECAR, "meta", key, value=value),
       f"error: checkpoint metadata unusable: {key} must be an integer >= 1, got {value!r}")
      for key in ("channels", "num_classes") for value in (5.9, "5", True, 0, -1) if (key, value) != ("channels", 5.9)],
]


@pytest.fixture(scope="session")
def fixture_root(tmp_path_factory):
    """The dataset, spec, config and 2-epoch CED+EUC run that every row copies."""
    root = tmp_path_factory.mktemp("exit_codes")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        Path("spec.cfg").write_text("".join(f"{key} = {value}\n" for key, value in asdict(SPEC).items()))
        save_dataset(SPEC, generate(SPEC), "data")
        Path("run.cfg").write_text(CONFIG)
        run_training(RunConfig.from_file("run.cfg"), "run")
    return root


@pytest.fixture
def case(fixture_root, tmp_path, monkeypatch):
    """A fresh copy of the fixture, made the working directory."""
    shutil.copytree(fixture_root, tmp_path / "case")
    monkeypatch.chdir(tmp_path / "case")


def _files() -> dict:
    return {str(p): p.read_bytes() if p.is_file() else None for p in sorted(Path(".").rglob("*"))}


def _check(mutate, argv, code, stderr, capsys):
    if mutate is not None:
        mutate()
    before = _files()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(list(argv)) == code
    out, err = capsys.readouterr()
    pattern = "".join(".+" if part == "…" else re.escape(part) for part in re.split("(…)", stderr))
    assert re.fullmatch(pattern + "\n", err), err
    if code == 5:
        lines = out.splitlines()
        assert all(line.startswith(("ok   ", "FAIL ")) for line in lines) and any("FAIL" in line for line in lines)
    else:
        assert out == ""
    written = _files()
    if code == 3:
        assert written.pop("out") is None
        log = written.pop("out/run.log").decode().splitlines()
        assert log[-1].endswith(": " + err[len("error: ") : -1])
    assert written == before


def _cases():
    """(mutate, argv, code, stderr), with the row's id, for each command line of each row and of each variant."""
    rows = {row.id: row for row in ROWS}
    for row_id, mutate, stderr in [(row.id, row.mutate, row.stderr) for row in ROWS] + VARIANTS:
        for argv in rows[row_id].argvs:
            yield pytest.param(mutate, argv, rows[row_id].code, stderr, id=row_id)


@pytest.mark.parametrize("mutate, argv, code, stderr", _cases())
def test_exit_code(case, mutate, argv, code, stderr, capsys):
    _check(mutate, argv, code, stderr, capsys)


def _readme_rows() -> dict:
    """README.md's exit-code table as {id: (commands, code, stderr)}."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {}
    for line in text.split("\n## Exit codes\n", 1)[1].split("\n## ", 1)[0].splitlines():
        if line.startswith("| `"):
            id_, commands, _, code, stderr = (cell.strip() for cell in line.strip("|").split(" | "))
            assert id_.strip("`") not in rows, id_
            rows[id_.strip("`")] = (tuple(c.strip(" `") for c in commands.split(",")), int(code), stderr.strip("`"))
    return rows


def test_the_readme_table_and_the_rows_match_one_to_one():
    assert len({row.id for row in ROWS}) == len(ROWS)
    assert _readme_rows() == {row.id: (row.commands, row.code, row.stderr) for row in ROWS}


def test_a_sweep_records_each_config_rejection_as_type_and_message(case, capsys):
    """Each config row's run.cfg, put in one sweep beside the valid run.cfg: a config that cannot be
    read or does not parse (seed None) and a run that fails read alike, ``"<ExceptionType>: <message>"``
    (``IsADirectoryError`` for the directory, ``ConfigError`` for the others), and the valid config's
    runs and the summaries are all that is written."""
    config_rows = [row for row in ROWS if row.id.startswith("config-") and row.id != "config-missing"]
    Path("cfgs").mkdir()
    pristine = Path("run.cfg").read_text()
    for row in config_rows:
        row.mutate()
        Path("run.cfg").rename(f"cfgs/{row.id}.cfg")
        Path("run.cfg").write_text(pristine)
    Path("cfgs/valid.cfg").write_text(pristine)
    assert main(["sweep", "--configs", "cfgs", "--seeds", "2", "--out", "sweep"]) == 0
    assert capsys.readouterr().out == f"swept 4 runs ({len(config_rows) + 1} failed), summary in sweep/summary.json\n"
    summary = json.loads(Path("sweep/summary.json").read_text())
    assert list(summary["configs"]) == ["valid"]
    assert len(summary["configs"]["valid"]["open_auc"]["values"]) == 2
    assert summary["failures"] == [
        {
            "config": row.id,
            "seed": seed,
            "error": ("IsADirectoryError: " if row.id == "config-unreadable" else "ConfigError: ")
            + row.stderr.removeprefix("error: ").replace("run.cfg", f"cfgs/{row.id}.cfg"),
        }
        # configs that do not parse come first, in file order
        for row in sorted(config_rows, key=lambda row: (row.id == "config-kernel-wider", row.id))
        for seed in ((0, 1) if row.id == "config-kernel-wider" else (None,))
    ]
    assert sorted(p.name for p in Path("sweep").iterdir()) == ["summary.csv", "summary.json", "valid"]
