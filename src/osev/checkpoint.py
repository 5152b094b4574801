"""Flat binary checkpoints: little-endian float64 blobs plus a JSON sidecar.

The binary file is the concatenation of each array's raw bytes in file order;
the sidecar (same path with ``.json`` appended) lists names, shapes and byte
offsets along with caller-provided metadata such as whether the checkpoint is
a full training state or stripped to the inference branch.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

__all__ = ["load_checkpoint", "save_checkpoint", "sidecar_path"]

FORMAT_NAME = "osev-checkpoint-v1"


def sidecar_path(path) -> Path:
    p = Path(path)
    return p.with_name(p.name + ".json")


def _is_count(v) -> bool:
    """A non-negative JSON integer (booleans excluded)."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def save_checkpoint(path, arrays, meta: dict | None = None) -> Path:
    """Write named float64 arrays; ``arrays`` is a dict or (name, array) pairs."""
    items = list(arrays.items()) if isinstance(arrays, dict) else list(arrays)
    names = [name for name, _ in items]
    if len(set(names)) != len(names):
        raise ValueError("duplicate array names in checkpoint")
    p = Path(path)
    entries = []
    offset = 0
    with open(p, "wb") as fh:
        for name, arr in items:
            a = np.asarray(arr, dtype="<f8")
            # ascontiguousarray would promote 0-d to (1,); keep the true shape
            fh.write(np.ascontiguousarray(a).tobytes())
            entries.append({"name": name, "shape": list(a.shape), "offset": offset})
            offset += a.nbytes
    sidecar = {
        "format": FORMAT_NAME,
        "dtype": "<f8",
        "total_bytes": offset,
        "arrays": entries,
        "meta": meta or {},
    }
    with open(sidecar_path(p), "w", encoding="utf-8") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return p


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint back into {name: array} plus its metadata.

    Every rejection is a ValueError naming the checkpoint: a sidecar that is not
    a JSON object of this format and dtype, a blob of another size, a bad array
    entry, or an array holding a NaN or an infinity.
    """
    p = Path(path)
    try:
        with open(sidecar_path(p), "r", encoding="utf-8") as fh:
            sidecar = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"checkpoint {p}: sidecar is not valid JSON: {exc}") from None
    if not isinstance(sidecar, dict):
        raise ValueError(f"checkpoint {p}: sidecar is not a JSON object")
    if sidecar.get("format") != FORMAT_NAME:
        raise ValueError(f"checkpoint {p}: unrecognized checkpoint format: {sidecar.get('format')!r}")
    if sidecar.get("dtype") != "<f8":
        raise ValueError(f"checkpoint {p}: sidecar 'dtype' is {sidecar.get('dtype')!r}, not '<f8'")
    total, entries = sidecar.get("total_bytes"), sidecar.get("arrays")
    if not _is_count(total):
        raise ValueError(f"checkpoint {p}: sidecar 'total_bytes' is {total!r}, not a byte count")
    if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
        raise ValueError(f"checkpoint {p}: sidecar 'arrays' is not a list of JSON objects")
    blob = p.read_bytes()
    if len(blob) != total:
        raise ValueError(f"checkpoint {p}: size mismatch: sidecar says {total} bytes, file has {len(blob)}")
    arrays: dict[str, np.ndarray] = {}
    for index, entry in enumerate(entries):
        name, shape, offset = entry.get("name"), entry.get("shape"), entry.get("offset")
        if not isinstance(name, str):
            raise ValueError(f"checkpoint {p}: array entry {index} has name {name!r}, not a string")
        if name in arrays:
            raise ValueError(f"checkpoint {p}: array entry {index} repeats the name {name!r}")
        if not (isinstance(shape, list) and all(map(_is_count, shape)) and _is_count(offset)):
            raise ValueError(f"checkpoint {p}: array {name!r} has invalid shape {shape!r} or offset {offset!r}")
        count = math.prod(shape)
        if offset + 8 * count > len(blob):
            raise ValueError(
                f"checkpoint {p}: array {name!r} needs bytes {offset} to {offset + 8 * count}, file has {len(blob)}"
            )
        arr = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
        if not np.isfinite(arr).all():
            raise ValueError(f"checkpoint {p}: array {name!r} holds a non-finite value")
        arrays[name] = arr.reshape(shape).astype(np.float64)
    return arrays, sidecar.get("meta", {})
