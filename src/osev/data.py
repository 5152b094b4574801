"""Synthetic biased sequence dataset.

Each sample is a (channels, timesteps) array.  Dynamic channels carry a
class-specific sinusoid, an integer number of cycles per window so the
frequency is only recoverable from temporal order, with a fresh uniform phase
per sample and channel plus Gaussian noise.  Background channels carry a
constant-in-time scene offset plus the same noise.  Scenes are the shortcut:
the train and biased test splits draw scene = class with probability
``bias_strength``, the unbiased test split draws scenes uniformly, and the
unknown split uses held-out frequencies over the same scene pool so unknown
detection cannot succeed through scene novelty alone.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import re
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from numpy.lib.npyio import NpzFile

from .config import _from_json

__all__ = [
    "DatasetSplit",
    "SPLIT_NAMES",
    "SyntheticSpec",
    "generate",
    "load_dataset",
    "load_split",
    "save_dataset",
    "save_split",
]

SPLIT_NAMES = ("train", "test_biased", "test_unbiased", "test_unknown")

# Derived-stream tags so each split consumes an independent RNG stream.
_SPLIT_STREAM = {"train": 11, "test_biased": 12, "test_unbiased": 13, "test_unknown": 14}


@dataclass(frozen=True)
class SyntheticSpec:
    """Generation parameters; every field is validated up front."""

    known_classes: int = 5
    unknown_classes: int = 5
    samples_per_class: int = 30
    timesteps: int = 24
    dynamic_channels: int = 4
    background_channels: int = 2
    bias_strength: float = 0.95
    noise_sigma: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        problems = []
        if self.known_classes < 2:
            problems.append(f"known_classes must be >= 2, got {self.known_classes}")
        if self.unknown_classes < 1:
            problems.append(f"unknown_classes must be >= 1, got {self.unknown_classes}")
        if self.samples_per_class < 1:
            problems.append(f"samples_per_class must be >= 1, got {self.samples_per_class}")
        if self.timesteps < 4:
            problems.append(f"timesteps must be >= 4, got {self.timesteps}")
        if self.dynamic_channels < 1:
            problems.append(f"dynamic_channels must be >= 1, got {self.dynamic_channels}")
        if self.background_channels < 1:
            problems.append(f"background_channels must be >= 1, got {self.background_channels}")
        if not 0.0 <= self.bias_strength <= 1.0:
            problems.append(f"bias_strength must be in [0, 1], got {self.bias_strength}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0.0):
            problems.append(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        max_freq = 1 + self.known_classes + self.unknown_classes
        if problems == [] and max_freq >= self.timesteps / 2:
            problems.append(
                f"timesteps={self.timesteps} too short: highest class frequency {max_freq} "
                f"cycles reaches the Nyquist limit {self.timesteps / 2}"
            )
        if problems:
            raise ValueError("invalid dataset spec: " + "; ".join(problems))

    @property
    def channels(self) -> int:
        return self.dynamic_channels + self.background_channels

    @property
    def known_frequencies(self) -> list[int]:
        """Integer cycles per window for each known class, starting at 2."""
        return [2 + c for c in range(self.known_classes)]

    @property
    def unknown_frequencies(self) -> list[int]:
        """Held-out frequencies, disjoint from and above the known band."""
        return [2 + self.known_classes + j for j in range(self.unknown_classes)]

    @property
    def scene_offsets(self) -> list[float]:
        """One offset per scene (one scene per known class), spread over [-1, 1]."""
        k = self.known_classes
        return [(-1.0 + 2.0 * s / (k - 1)) for s in range(k)]

    @classmethod
    def from_dict(cls, raw: dict) -> "SyntheticSpec":
        """A validated spec from parsed JSON (a manifest's ``spec``)."""
        return _from_json(cls, raw, "spec")


@dataclass
class DatasetSplit:
    x: np.ndarray  # (n, channels, timesteps)
    labels: np.ndarray  # (n,) global class index; unknown classes start at known_classes
    scenes: np.ndarray  # (n,)
    ids: np.ndarray  # (n,)

    def __len__(self) -> int:
        return int(self.x.shape[0])


def _synthesize(
    spec: SyntheticSpec,
    rng: np.random.Generator,
    class_ids: list[int],
    frequencies: list[int],
    scene_mode: str,
) -> DatasetSplit:
    """Draw order per class: phases, scene coins, scene picks, then noise."""
    t_axis = np.arange(spec.timesteps)
    num_scenes = spec.known_classes
    xs, labels, scenes = [], [], []
    for cls, freq in zip(class_ids, frequencies):
        n = spec.samples_per_class
        phases = rng.uniform(0.0, 2.0 * math.pi, size=(n, spec.dynamic_channels))
        if scene_mode == "biased":
            keep = rng.random(n) < spec.bias_strength
            uniform = rng.integers(0, num_scenes, size=n)
            scene = np.where(keep, cls % num_scenes, uniform)
        else:
            scene = rng.integers(0, num_scenes, size=n)
        x = np.empty((n, spec.channels, spec.timesteps))
        angle = 2.0 * math.pi * freq * t_axis / spec.timesteps
        x[:, : spec.dynamic_channels, :] = np.sin(angle[None, None, :] + phases[:, :, None])
        offsets = np.asarray(spec.scene_offsets)[scene]
        x[:, spec.dynamic_channels :, :] = offsets[:, None, None]
        if spec.noise_sigma > 0.0:
            x += spec.noise_sigma * rng.standard_normal(size=x.shape)
        xs.append(x)
        labels.append(np.full(n, cls, dtype=np.int64))
        scenes.append(scene.astype(np.int64))
    x_all = np.concatenate(xs)
    return DatasetSplit(
        x=x_all,
        labels=np.concatenate(labels),
        scenes=np.concatenate(scenes),
        ids=np.arange(x_all.shape[0], dtype=np.int64),
    )


def generate(spec: SyntheticSpec) -> dict[str, DatasetSplit]:
    """Generate all four splits from independent per-split streams."""
    spec.validate()
    known_ids = list(range(spec.known_classes))
    unknown_ids = list(range(spec.known_classes, spec.known_classes + spec.unknown_classes))
    splits = {}
    for name in SPLIT_NAMES:
        rng = np.random.default_rng([spec.seed, _SPLIT_STREAM[name]])
        if name == "test_unknown":
            splits[name] = _synthesize(spec, rng, unknown_ids, spec.unknown_frequencies, "uniform")
        elif name == "test_unbiased":
            splits[name] = _synthesize(spec, rng, known_ids, spec.known_frequencies, "uniform")
        else:
            splits[name] = _synthesize(spec, rng, known_ids, spec.known_frequencies, "biased")
    return splits


def _float_repr(v: float) -> str:
    return repr(float(v))


def save_split(split: DatasetSplit, path) -> Path:
    """CSV with one row per sample: id, class, scene, then channel-major values.

    Beside it goes a binary copy, the same name with suffix ``.npz``
    (uncompressed): ``csv_sha256``, the hex sha256 of the CSV bytes written,
    then ``ids``, ``labels`` and ``scenes`` (int64) and ``x`` (float64,
    ``(n, C, T)``), equal to what parsing the CSV gives.  An integer outside
    int64, which no parse accepts, gets no copy.
    """
    p = Path(path)
    n, c, t = split.x.shape
    header = ["id", "class", "scene"] + [f"c{ci}_t{ti}" for ci in range(c) for ti in range(t)]
    lines = [",".join(header)]
    keys = [(int(split.ids[i]), int(split.labels[i]), int(split.scenes[i])) for i in range(n)]
    flat = split.x.reshape(n, c * t)
    for i in range(n):
        row = [str(key) for key in keys[i]]
        row.extend(_float_repr(v) for v in flat[i])
        lines.append(",".join(row))
    body = ("\n".join(lines) + "\n").encode("utf-8")
    p.write_bytes(body)
    try:
        ids, labels, scenes = np.array(keys, dtype=np.int64).reshape(n, 3).T
    except OverflowError:  # load_split names the field when it parses the CSV
        return p
    x = np.asarray(split.x, dtype=np.float64)
    with open(p.with_suffix(".npz"), "wb") as fh:
        np.savez(fh, csv_sha256=hashlib.sha256(body).hexdigest(), ids=ids, labels=labels, scenes=scenes, x=x)
    return p


_INT64 = np.iinfo(np.int64)


#: What ``int`` and ``float`` accept but :func:`save_split` never writes:
#: digit-group underscores and whitespace around or inside a field.
_FOREIGN_TEXT = re.compile(r"[_\s]")


def _parse_rows(p: Path, header: list[str], lines: list[str]):
    """Parse the rows after the header line by line; errors name file:line and column.

    Blank lines are skipped.  A field with an underscore or whitespace is
    rejected, although ``int`` and ``float`` would take it.
    """
    dims = header[3:]
    ids, labels, scenes, values, line_nos = [], [], [], [], []
    for line_no, line in enumerate(lines, start=2):
        line = line.rstrip("\n")
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 3 + len(dims):
            raise ValueError(f"{p}:{line_no}: expected {3 + len(dims)} fields, found {len(parts)}")
        if _FOREIGN_TEXT.search(line):
            column, text = next((c, t) for c, t in zip(header, parts) if _FOREIGN_TEXT.search(t))
            raise ValueError(f"{p}:{line_no}: value {column}={text!r} has an underscore or whitespace")
        for column, text, out in zip(header, parts, (ids, labels, scenes)):
            try:
                value = int(text)
            except ValueError:
                raise ValueError(f"{p}:{line_no}: value {column}={text!r} is not an integer") from None
            if not _INT64.min <= value <= _INT64.max:
                raise ValueError(f"{p}:{line_no}: value {column}={text!r} is outside the int64 range")
            out.append(value)
        try:
            values.append([float(v) for v in parts[3:]])
        except ValueError:
            for column, text in zip(dims, parts[3:]):
                try:
                    float(text)
                except ValueError:
                    raise ValueError(f"{p}:{line_no}: value {column}={text!r} is not a number") from None
        line_nos.append(line_no)
    x = np.asarray(values, dtype=np.float64).reshape(len(values), len(dims))
    finite = np.isfinite(x)
    if not finite.all():
        row, col = np.argwhere(~finite)[0]
        raise ValueError(f"{p}:{line_nos[row]}: value {dims[col]}={float(x[row, col])} is not finite")
    return (
        np.asarray(ids, dtype=np.int64),
        np.asarray(labels, dtype=np.int64),
        np.asarray(scenes, dtype=np.int64),
        x,
    )


_VALUE_COLUMN = re.compile(r"c(\d+)_t(\d+)")


def _header_shape(p: Path, header: list[str]) -> tuple[int, int]:
    """(channels, timesteps) of a header as :func:`save_split` writes it.

    That is ``id,class,scene`` then ``c{ci}_t{ti}`` in channel-major order;
    the last column gives the shape.  Any other header is rejected, naming
    ``file:1`` and its first bad column.
    """
    last = _VALUE_COLUMN.fullmatch(header[-1]) if len(header) > 3 else None
    timesteps = int(last.group(2)) + 1 if last else 0
    for col, name in enumerate(header, start=1):
        if col <= 3:
            want = ("id", "class", "scene")[col - 1]
        elif timesteps:
            want = f"c{(col - 4) // timesteps}_t{(col - 4) % timesteps}"
        else:  # the last column names no channel and timestep, so no order is known
            want = name if _VALUE_COLUMN.fullmatch(name) else "c{channel}_t{timestep}"
        if name != want:
            raise ValueError(f"{p}:1: CSV header column {col} is {name!r}, expected {want!r}")
    if not last:
        raise ValueError(f"{p}:1: CSV header has no value columns")
    return int(last.group(1)) + 1, timesteps


_COPY_DTYPES = {"ids": np.int64, "labels": np.int64, "scenes": np.int64, "x": np.float64}


def _read_copy(path: Path, csv_bytes: bytes, channels: int, timesteps: int):
    """``(ids, labels, scenes, x)`` from the binary copy at ``path``, or None unless it verifies.

    It verifies when it is an ``.npz`` archive without object arrays whose
    ``csv_sha256`` is the sha256 of ``csv_bytes``, whose arrays have the dtypes
    :func:`save_split` writes, ``x`` of shape ``(n, channels, timesteps)`` and
    the others ``(n,)``, and whose ``x`` is all finite.
    """
    try:
        # opened here, since np.load leaves its own file open when the archive is bad
        with open(path, "rb") as fh:
            saved = np.load(fh, allow_pickle=False)
            if not isinstance(saved, NpzFile):  # an .npy file loads as one array
                return None
            with saved:
                if saved["csv_sha256"].tolist() != hashlib.sha256(csv_bytes).hexdigest():
                    return None
                arrays = tuple(saved[key] for key in _COPY_DTYPES)
    except (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile):
        return None
    rows = arrays[3].shape[:1]
    shapes = (rows, rows, rows, rows + (channels, timesteps))
    for array, dtype, shape in zip(arrays, _COPY_DTYPES.values(), shapes):
        if array.dtype != dtype or array.shape != shape:
            return None
    return arrays if np.isfinite(arrays[3]).all() else None


def load_split(path) -> DatasetSplit:
    """Read a split CSV written by :func:`save_split`.

    The CSV's bytes are read once and its header checked.  The binary copy
    beside it (the same name with suffix ``.npz``) is used in place of the
    rows when it verifies against those bytes (see :func:`_read_copy`).
    Otherwise the rows are parsed line by line, and every error names its
    file, line and column.
    """
    p = Path(path)
    with open(p, "rb") as fh:
        csv_bytes = fh.read()
    # decodes lazily, the rows only if parsed; a byte that is not UTF-8 becomes "\udcXX", which no field rule takes
    text = io.TextIOWrapper(io.BytesIO(csv_bytes), encoding="utf-8", errors="surrogateescape")
    header = text.readline().strip().split(",")
    channels, timesteps = _header_shape(p, header)
    arrays = _read_copy(p.with_suffix(".npz"), csv_bytes, channels, timesteps)
    if arrays is None:
        arrays = _parse_rows(p, header, text.readlines())
    ids, labels, scenes, x = arrays
    return DatasetSplit(
        x=x.reshape(len(x), channels, timesteps),
        labels=labels,
        scenes=scenes,
        ids=ids,
    )


def save_dataset(spec: SyntheticSpec, splits: dict[str, DatasetSplit], out_dir) -> Path:
    """Write one CSV per split, each with its binary copy (see :func:`save_split`), plus a manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for name in SPLIT_NAMES:
        if name not in splits:
            raise ValueError(f"missing split {name!r}")
        save_split(splits[name], out / f"{name}.csv")
        files[name] = f"{name}.csv"
    manifest = {
        "format": "osev-dataset-v1",
        "spec": asdict(spec),
        "splits": files,
        "known_frequencies": spec.known_frequencies,
        "unknown_frequencies": spec.unknown_frequencies,
        "scene_offsets": spec.scene_offsets,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out


def _read_manifest(directory) -> tuple[SyntheticSpec, dict[str, Path]]:
    """Check ``manifest.json`` and return its spec and the path of each split, in listed order.

    Every load runs these checks, whichever splits it then parses: the format,
    a ``spec`` whose fields have their JSON types and valid values, and a file
    name for each of the four splits.  Entries for other split names are ignored.
    """
    d = Path(directory)
    manifest_path = d / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no dataset manifest at {manifest_path}")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{manifest_path}: manifest is not valid JSON: {exc}") from None
    fmt = manifest.get("format") if isinstance(manifest, dict) else None
    if fmt != "osev-dataset-v1":
        raise ValueError(f"{manifest_path}: unrecognized dataset format: {fmt!r}")
    if "spec" not in manifest:
        raise ValueError(f"{manifest_path}: manifest has no 'spec'")
    try:
        spec = SyntheticSpec.from_dict(manifest["spec"])
    except ValueError as exc:
        raise ValueError(f"{manifest_path}: {exc}") from None
    listed = manifest.get("splits")
    if not isinstance(listed, dict):
        listed = {}
    missing = [name for name in SPLIT_NAMES if name not in listed]
    if missing:
        raise ValueError(f"{manifest_path}: manifest lists no file for split(s) {', '.join(missing)}")
    for name in SPLIT_NAMES:
        if not isinstance(listed[name], str):
            raise ValueError(f"{manifest_path}: split {name!r} must name a file, got {listed[name]!r}")
    return spec, {name: d / fname for name, fname in listed.items() if name in SPLIT_NAMES}


def load_dataset(directory, names=SPLIT_NAMES) -> tuple[SyntheticSpec, dict[str, DatasetSplit]]:
    """Check the manifest, then load the splits in ``names``; no other split's CSV is opened.

    The splits are loaded one by one in manifest order with :func:`load_split`
    (from a verified binary copy where there is one), so the first error
    raised names the first bad file.  Whichever way a split was read, its
    shape must match the spec, it must have a row, and each row a class of its
    split: a known class in [0, K) for the three known splits, an unknown one
    in [K, K + U) for ``test_unknown``.
    """
    spec, files = _read_manifest(directory)
    k = spec.known_classes
    splits = {}
    for name, path in files.items():
        if name not in names:
            continue
        split = load_split(path)
        if split.x.shape[1:] != (spec.channels, spec.timesteps):
            raise ValueError(
                f"{path}: {split.x.shape[1]} channels x {split.x.shape[2]} timesteps, "
                f"manifest spec says {spec.channels} x {spec.timesteps}"
            )
        if len(split) == 0:
            raise ValueError(f"{path}: split has no rows")
        which, lo, hi = ("unknown", k, k + spec.unknown_classes) if name == "test_unknown" else ("known", 0, k)
        outside = np.flatnonzero((split.labels < lo) | (split.labels >= hi))
        if outside.size:
            row = outside[0]
            raise ValueError(
                f"{path}: row id={split.ids[row]} has class {split.labels[row]}, "
                f"outside the {which} classes [{lo}, {hi})"
            )
        splits[name] = split
    return spec, splits
