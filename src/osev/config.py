"""Flat key = value run configuration, and how outside values become typed fields.

One assignment per line; blank lines and lines starting with ``#`` are
ignored.  Values keep everything after the first ``=`` (trimmed), so paths
may contain spaces but not inline comments.

Run configs and dataset specs are dataclasses read from two sources: parsed
JSON (checkpoint sidecars, dataset manifests) under one typing rule, and
``key = value`` files, whose strings are converted by field type and then
held to the same rule.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

__all__ = ["ConfigError", "RunConfig", "parse_kv_file", "parse_kv_text"]


class ConfigError(ValueError):
    """A configuration file failed validation; the message names the field."""


def parse_kv_text(text: str, source: str = "<config>") -> dict[str, str]:
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{line_no}: empty key")
        if key in out:
            raise ConfigError(f"{source}:{line_no}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def parse_kv_file(path) -> dict[str, str]:
    p = Path(path)
    try:
        return parse_kv_text(p.read_text(encoding="utf-8"), source=str(p))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{p}: {exc}") from None


def _parse_bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(text)


#: The JSON types each annotated field type takes, and how a rejection names them.
_JSON_RULE = {
    "int": (int, "an integer"),
    "float": ((int, float), "a number"),
    "bool": (bool, "a boolean"),
    "str": (str, "a string"),
}
#: How a ``key = value`` string becomes each field type.
_FROM_TEXT = {"int": int, "float": float, "bool": _parse_bool, "str": str}


def _from_json(cls, raw, label: str):
    """Build and validate a ``cls`` from parsed JSON, field by field.

    An int field takes an int (no bool, no ``3.0``), a float field an int or
    a float (no bool), a bool field a bool and a str field a str.  A value
    of another type, or an unknown key, raises :class:`ConfigError` naming
    ``label`` and the key; ``cls.validate`` then checks the values.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{label} must be a JSON object, got {raw!r}")
    types = {f.name: f.type for f in fields(cls)}
    for key, value in raw.items():
        if key not in types:
            raise ConfigError(f"unknown {label} key {key!r}")
        allowed, kind = _JSON_RULE[types[key]]
        if not isinstance(value, allowed) or (isinstance(value, bool) and allowed is not bool):
            raise ConfigError(f"{label} field {key!r} must be {kind}, got {value!r}")
    obj = cls(**raw)
    obj.validate()
    return obj


def _from_kv_file(cls, path):
    """Build and validate a ``cls`` from a ``key = value`` file via ``cls.from_dict``.

    Each value converts by its field's type; a value that does not convert,
    or an unknown key, is passed on as text for the JSON rule to reject.
    Every rejection is a :class:`ConfigError` naming the file and the key.
    """
    types = {f.name: f.type for f in fields(cls)}
    raw: dict[str, object] = {}
    for key, text in parse_kv_file(path).items():
        try:
            raw[key] = _FROM_TEXT[types.get(key, "str")](text)
        except ValueError:
            raw[key] = text
    try:
        return cls.from_dict(raw)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


@dataclass
class RunConfig:
    """Everything one training or evaluation run needs."""

    dataset: str = ""
    seed: int = 0

    # Model
    loss_type: str = "edl"  # "edl" or "softmax"
    evidence: str = "exp"  # "exp", "softplus" or "relu"
    exp_bound: float = 10.0
    feature_width: int = 16
    kernel_width: int = 5

    # Loss toggles and weights
    use_euc: bool = False
    use_ced: bool = False
    ced_mode: str = "joint"  # "joint" or "alternating"
    ced_period: int = 1
    w_euc: float = 1.0
    w_ced: float = 0.1
    lambda_hsic: float = 1.0
    lambda0: float = 0.01
    hsic_sigma: float = 0.0  # 0 selects the median heuristic

    # Optimization
    epochs: int = 30
    batch_size: int = 32
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    nesterov: bool = False
    lr_step_epochs: int = 0  # 0 keeps the rate constant
    lr_step_gamma: float = 0.1

    # Evaluation
    coverage: float = 0.95
    ece_bins: int = 15
    num_selections: int = 10
    avu_threshold: float = 0.0  # 0 selects the batch median

    def validate(self) -> None:
        if self.loss_type not in ("edl", "softmax"):
            raise ConfigError(f"loss_type: expected 'edl' or 'softmax', got {self.loss_type!r}")
        if self.evidence not in ("exp", "softplus", "relu"):
            raise ConfigError(f"evidence: expected exp, softplus or relu, got {self.evidence!r}")
        if self.loss_type == "softmax" and (self.use_euc or self.use_ced):
            raise ConfigError("use_euc/use_ced require loss_type = edl")
        if self.ced_mode not in ("joint", "alternating"):
            raise ConfigError(f"ced_mode: expected 'joint' or 'alternating', got {self.ced_mode!r}")
        if self.seed < 0:
            raise ConfigError(f"seed: must be >= 0, got {self.seed}")
        positive_ints = [
            ("feature_width", self.feature_width),
            ("epochs", self.epochs),
            ("batch_size", self.batch_size),
            ("ced_period", self.ced_period),
            ("ece_bins", self.ece_bins),
            ("num_selections", self.num_selections),
        ]
        for name, v in positive_ints:
            if v < 1:
                raise ConfigError(f"{name}: must be >= 1, got {v}")
        if self.use_ced and self.batch_size < 2:
            raise ConfigError(f"batch_size: must be >= 2 with use_ced, got {self.batch_size}")
        if self.kernel_width < 2:
            raise ConfigError(f"kernel_width: must be >= 2, got {self.kernel_width}")
        if not self.exp_bound > 0.0:
            raise ConfigError(f"exp_bound: must be positive, got {self.exp_bound}")
        if not 0.0 < self.lambda0 < 1.0:
            raise ConfigError(f"lambda0: must be in (0, 1), got {self.lambda0}")
        if not 0.0 < self.coverage <= 1.0:
            raise ConfigError(f"coverage: must be in (0, 1], got {self.coverage}")
        nonneg = [
            ("w_euc", self.w_euc),
            ("w_ced", self.w_ced),
            ("lambda_hsic", self.lambda_hsic),
            ("hsic_sigma", self.hsic_sigma),
            ("weight_decay", self.weight_decay),
            ("avu_threshold", self.avu_threshold),
            ("lr_step_epochs", self.lr_step_epochs),
        ]
        for name, v in nonneg:
            if not (math.isfinite(float(v)) and float(v) >= 0.0):
                raise ConfigError(f"{name}: must be finite and >= 0, got {v}")
        if self.lr <= 0.0 or not math.isfinite(self.lr):
            raise ConfigError(f"lr: must be positive and finite, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"momentum: must be in [0, 1), got {self.momentum}")
        if not 0.0 < self.lr_step_gamma <= 1.0:
            raise ConfigError(f"lr_step_gamma: must be in (0, 1], got {self.lr_step_gamma}")

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        """A validated config from parsed JSON (a checkpoint's ``config``)."""
        return _from_json(cls, raw, "config")

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return _from_kv_file(cls, path)

    def to_dict(self) -> dict:
        return asdict(self)
