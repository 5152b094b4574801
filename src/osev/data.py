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

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

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
        known = {f: raw[f] for f in raw if f in cls.__dataclass_fields__}
        extra = set(raw) - set(known)
        if extra:
            raise ValueError(f"unknown dataset spec fields: {sorted(extra)}")
        spec = cls(**known)
        spec.validate()
        return spec


@dataclass
class DatasetSplit:
    kind: str
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
    kind: str,
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
        kind=kind,
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
            splits[name] = _synthesize(spec, rng, unknown_ids, spec.unknown_frequencies, "uniform", name)
        elif name == "test_unbiased":
            splits[name] = _synthesize(spec, rng, known_ids, spec.known_frequencies, "uniform", name)
        else:
            splits[name] = _synthesize(spec, rng, known_ids, spec.known_frequencies, "biased", name)
    return splits


def _float_repr(v: float) -> str:
    return repr(float(v))


def save_split(split: DatasetSplit, path) -> Path:
    """CSV with one row per sample: id, class, scene, then channel-major values."""
    p = Path(path)
    n, c, t = split.x.shape
    header = ["id", "class", "scene"] + [f"c{ci}_t{ti}" for ci in range(c) for ti in range(t)]
    lines = [",".join(header)]
    flat = split.x.reshape(n, c * t)
    for i in range(n):
        row = [str(int(split.ids[i])), str(int(split.labels[i])), str(int(split.scenes[i]))]
        row.extend(_float_repr(v) for v in flat[i])
        lines.append(",".join(row))
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return p


def _parse_rows_fast(lines: list[str], num_values: int):
    """Parse the rows after the header in one vectorised call, or return None.

    It is at least as strict as :func:`_parse_rows`: the integer columns
    reject ``1.0`` and ``1e0``, every row must have all its fields, and a
    non-finite value returns None so the line loop can name its line.  Floats
    go through the same correctly rounded conversion as ``float()``.
    """
    if all(line.isspace() for line in lines):  # no rows: np.loadtxt would warn
        return None
    row = np.dtype(
        [("id", np.int64), ("class", np.int64), ("scene", np.int64), ("values", np.float64, (num_values,))]
    )
    try:
        table = np.loadtxt(lines, delimiter=",", dtype=row, comments=None, ndmin=1)
    except (ValueError, OverflowError):
        return None
    x = np.ascontiguousarray(table["values"])
    if not np.isfinite(x).all():
        return None
    return (
        np.ascontiguousarray(table["id"]),
        np.ascontiguousarray(table["class"]),
        np.ascontiguousarray(table["scene"]),
        x,
    )


_INT64 = np.iinfo(np.int64)


def _parse_rows(p: Path, header: list[str], lines: list[str]):
    """Parse the rows after the header line by line; errors name file:line and column."""
    dims = header[3:]
    ids, labels, scenes, values, line_nos = [], [], [], [], []
    for line_no, line in enumerate(lines, start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3 + len(dims):
            raise ValueError(f"{p}:{line_no}: expected {3 + len(dims)} fields, found {len(parts)}")
        for column, text, out in zip(header, parts, (ids, labels, scenes)):
            try:
                value = int(text)
            except ValueError:
                raise ValueError(f"{p}:{line_no}: value {column}={text!r} is not an integer") from None
            if not _INT64.min <= value <= _INT64.max:
                raise ValueError(f"{p}:{line_no}: value {column}={text!r} is outside the int64 range")
            out.append(value)
        values.append([float(v) for v in parts[3:]])
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


def load_split(path, kind: str | None = None) -> DatasetSplit:
    """Read a split CSV written by :func:`save_split`.

    The value block is parsed in one vectorised call; on any failure it is
    re-parsed line by line, so every error names its file, line and column.
    """
    p = Path(path)
    with open(p, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        if header[:3] != ["id", "class", "scene"]:
            raise ValueError(f"{p}: unexpected CSV header {header[:3]}")
        dims = header[3:]
        if not dims:
            raise ValueError(f"{p}: no value columns")
        channels = int(dims[-1].split("_")[0][1:]) + 1
        timesteps = int(dims[-1].split("_t")[1]) + 1
        if len(dims) != channels * timesteps:
            raise ValueError(f"{p}: expected {channels * timesteps} value columns, found {len(dims)}")
        lines = fh.readlines()
    parsed = _parse_rows_fast(lines, len(dims))
    ids, labels, scenes, x = parsed if parsed is not None else _parse_rows(p, header, lines)
    return DatasetSplit(
        kind=kind or p.stem,
        x=x.reshape(len(x), channels, timesteps),
        labels=labels,
        scenes=scenes,
        ids=ids,
    )


def save_dataset(spec: SyntheticSpec, splits: dict[str, DatasetSplit], out_dir) -> Path:
    """Write one CSV per split plus a manifest describing the generation."""
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


def load_dataset(directory) -> tuple[SyntheticSpec, dict[str, DatasetSplit]]:
    d = Path(directory)
    manifest_path = d / "manifest.json"
    if not manifest_path.exists():
        raise FileNotFoundError(f"no dataset manifest at {manifest_path}")
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("format") != "osev-dataset-v1":
        raise ValueError(f"unrecognized dataset format: {manifest.get('format')!r}")
    if "spec" not in manifest:
        raise ValueError(f"{manifest_path}: manifest has no 'spec'")
    spec = SyntheticSpec.from_dict(manifest["spec"])
    listed = manifest.get("splits")
    if not isinstance(listed, dict):
        listed = {}
    missing = [name for name in SPLIT_NAMES if name not in listed]
    if missing:
        raise ValueError(f"{manifest_path}: manifest lists no file for split(s) {', '.join(missing)}")
    splits = {}
    for name, fname in listed.items():
        split = load_split(d / fname, kind=name)
        if split.x.shape[1:] != (spec.channels, spec.timesteps):
            raise ValueError(
                f"{d / fname}: {split.x.shape[1]} channels x {split.x.shape[2]} timesteps, "
                f"manifest spec says {spec.channels} x {spec.timesteps}"
            )
        splits[name] = split
    return spec, splits
