"""Minimal reverse-mode network core on float64 numpy arrays.

Everything runs in double precision with fixed reduction orders, so a given
seed and input stream reproduces training bit for bit.  Layers cache whatever
their backward pass needs during forward; backward without a prior forward is
an error, and gradients accumulate additively into ``Parameter`` buffers until
explicitly zeroed (the optimizer step zeroes them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .evidential import (
    DEFAULT_EXP_BOUND,
    EvidenceFunction,
    evidence_from_logits,
    evidence_grad_wrt_logits,
)

__all__ = [
    "Dense",
    "EvidenceHead",
    "EvidentialNet",
    "GradcheckReport",
    "NonFiniteGradientError",
    "Parameter",
    "PointwiseConv",
    "ReLU",
    "Sequential",
    "TemporalConv",
    "TemporalMeanPool",
    "TensorValue",
    "build_feature_net",
    "glorot_uniform",
    "gradcheck",
    "sgd_step",
    "temporal_shuffle",
]


class NonFiniteGradientError(RuntimeError):
    """A gradient buffer contains NaN or infinity; the step was rejected."""


class TensorValue:
    """Shape-frozen float64 array paired with a gradient accumulator."""

    __slots__ = ("value", "grad")

    def __init__(self, value) -> None:
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def assign(self, new) -> None:
        arr = np.asarray(new, dtype=np.float64)
        if arr.shape != self.value.shape:
            raise ValueError(f"shape mismatch: have {self.value.shape}, got {arr.shape}")
        self.value[...] = arr


class Parameter(TensorValue):
    """Named tensor with a momentum buffer for SGD."""

    __slots__ = ("name", "momentum")

    def __init__(self, name: str, value) -> None:
        super().__init__(value)
        self.name = name
        self.momentum = np.zeros_like(self.value)

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base class: forward caches, backward consumes the cache additively."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> list[Parameter]:
        return []

    def _require_cache(self, cache, what: str):
        if cache is None:
            raise RuntimeError(f"backward called before forward on {what}")
        return cache


def _correlate(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Valid cross-correlation over time.

    (B, c_in, T) correlated with (c_out, c_in, k) gives (B, c_out, T - k + 1).

    One matmul per kernel tap, accumulated in place, so the only temporary is
    one output-sized product; no (B, c_in, T', k) window copy is made.
    """
    k = w.shape[2]
    t_out = x.shape[2] - k + 1
    out = np.matmul(w[:, :, 0], x[:, :, :t_out])
    for j in range(1, k):
        out += np.matmul(w[:, :, j], x[:, :, j : j + t_out])
    return out


class TemporalConv(Layer):
    """1-D convolution across the time axis, stride 1, no padding.

    Input (batch, c_in, T) -> output (batch, c_out, T - kernel + 1).  Kernel
    widths >= 2 see temporal order; width 1 degenerates to a per-timestep map.
    """

    def __init__(self, c_in: int, c_out: int, kernel: int, rng: np.random.Generator, name: str = "tconv") -> None:
        if c_in < 1 or c_out < 1:
            raise ValueError(f"channel counts must be positive, got c_in={c_in} c_out={c_out}")
        if kernel < 1:
            raise ValueError(f"kernel width must be >= 1, got {kernel}")
        self.c_in = c_in
        self.c_out = c_out
        self.kernel = kernel
        w = glorot_uniform(rng, (c_out, c_in, kernel), c_in * kernel, c_out * kernel)
        self.weight = Parameter(f"{name}.weight", w)
        self.bias = Parameter(f"{name}.bias", np.zeros(c_out))
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3 or x.shape[1] != self.c_in:
            raise ValueError(
                f"expected input (batch, {self.c_in}, time), got shape {x.shape}"
            )
        if x.shape[2] < self.kernel:
            raise ValueError(f"time axis {x.shape[2]} shorter than kernel {self.kernel}")
        out = _correlate(x, self.weight.value)
        out += self.bias.value[None, :, None]
        self._cache = x
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._require_cache(self._cache, self.weight.name)
        g = np.asarray(grad_out, dtype=np.float64)
        batch, k = x.shape[0], self.kernel
        t_out = x.shape[2] - k + 1
        if g.shape != (batch, self.c_out, t_out):
            raise ValueError(
                f"upstream gradient shape {g.shape} does not match output shape "
                f"{(batch, self.c_out, t_out)}"
            )
        # weight gradient as one GEMM against the im2col matrix of the cached
        # input; built here rather than in forward, so inference never pays for it
        windows = sliding_window_view(x, k, axis=2)  # (B, c_in, T', k) view
        cols = windows.transpose(0, 2, 1, 3).reshape(batch * t_out, self.c_in * k)
        g_rows = g.transpose(1, 0, 2).reshape(self.c_out, batch * t_out)
        self.weight.grad += (g_rows @ cols).reshape(self.weight.shape)
        self.bias.grad += g.sum(axis=(0, 2))
        # input gradient: full correlation of the zero-padded upstream gradient
        # with the time-reversed, channel-transposed kernel
        padded = np.zeros((batch, self.c_out, t_out + 2 * (k - 1)))
        padded[:, :, k - 1 : k - 1 + t_out] = g
        return _correlate(padded, self.weight.value[:, :, ::-1].transpose(1, 0, 2))

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


class PointwiseConv(TemporalConv):
    """Kernel-width-1 convolution: the same affine map at every timestep.

    Composed with any pooling that ignores order, its output is invariant to
    permutations of the time axis.
    """

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator, name: str = "pconv") -> None:
        super().__init__(c_in, c_out, 1, rng, name=name)


class Dense(Layer):
    """Affine map on (batch, d_in) inputs."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, name: str = "dense") -> None:
        if d_in < 1 or d_out < 1:
            raise ValueError(f"dimensions must be positive, got d_in={d_in} d_out={d_out}")
        self.d_in = d_in
        self.d_out = d_out
        self.weight = Parameter(f"{name}.weight", glorot_uniform(rng, (d_in, d_out), d_in, d_out))
        self.bias = Parameter(f"{name}.bias", np.zeros(d_out))
        self._cache = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.d_in:
            raise ValueError(f"expected input (batch, {self.d_in}), got shape {x.shape}")
        self._cache = x
        return x @ self.weight.value + self.bias.value

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        x = self._require_cache(self._cache, self.weight.name)
        g = np.asarray(grad_out, dtype=np.float64)
        if g.shape != (x.shape[0], self.d_out):
            raise ValueError(
                f"upstream gradient shape {g.shape} does not match output shape {(x.shape[0], self.d_out)}"
            )
        self.weight.grad += x.T @ g
        self.bias.grad += g.sum(axis=0)
        return g @ self.weight.value.T

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


class ReLU(Layer):
    def __init__(self) -> None:
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._mask = x > 0.0
        return np.where(self._mask, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        mask = self._require_cache(self._mask, "relu")
        g = np.asarray(grad_out, dtype=np.float64)
        if g.shape != mask.shape:
            raise ValueError(f"upstream gradient shape {g.shape} does not match output shape {mask.shape}")
        return np.where(mask, g, 0.0)


class TemporalMeanPool(Layer):
    """Mean over the time axis: (batch, C, T) -> (batch, C)."""

    def __init__(self) -> None:
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError(f"expected (batch, channels, time), got shape {x.shape}")
        self._shape = x.shape
        return x.mean(axis=2)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        shape = self._require_cache(self._shape, "mean-pool")
        g = np.asarray(grad_out, dtype=np.float64)
        if g.shape != shape[:2]:
            raise ValueError(f"upstream gradient shape {g.shape} does not match output shape {shape[:2]}")
        return np.broadcast_to(g[:, :, None] / shape[2], shape).copy()


class Sequential(Layer):
    def __init__(self, layers) -> None:
        self.layers = list(layers)
        self._ran = False

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        self._ran = True
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if not self._ran:
            raise RuntimeError("backward called before forward on Sequential")
        g = grad_out
        for layer in reversed(self.layers):
            g = layer.backward(g)
        return g

    def parameters(self) -> list[Parameter]:
        params: list[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params


class EvidenceHead(Layer):
    """Dense projection to K logits followed by a non-negative evidence map."""

    def __init__(
        self,
        d_in: int,
        num_classes: int,
        rng: np.random.Generator,
        kind: EvidenceFunction | str = EvidenceFunction.EXPONENTIAL,
        exp_bound: float = DEFAULT_EXP_BOUND,
        name: str = "head",
    ) -> None:
        self.dense = Dense(d_in, num_classes, rng, name=name)
        self.kind = EvidenceFunction(kind)
        self.exp_bound = exp_bound
        self._logits = None

    def forward(self, features: np.ndarray) -> np.ndarray:
        logits = self.dense.forward(features)
        self._logits = logits
        return evidence_from_logits(logits, self.kind, self.exp_bound)

    def backward(self, grad_evidence: np.ndarray) -> np.ndarray:
        logits = self._require_cache(self._logits, "evidence head")
        local = evidence_grad_wrt_logits(logits, self.kind, self.exp_bound)
        return self.dense.backward(np.asarray(grad_evidence, dtype=np.float64) * local)

    def parameters(self) -> list[Parameter]:
        return self.dense.parameters()


class EvidentialNet:
    """Feature backbone plus an output head.

    ``forward`` returns (pooled features, head output); the staged backward
    lets callers inject extra feature gradients (e.g. dependence penalties)
    alongside the gradient arriving through the head.
    """

    def __init__(self, backbone: Sequential, head: Layer, num_classes: int) -> None:
        self.backbone = backbone
        self.head = head
        self.num_classes = num_classes

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        features = self.backbone.forward(x)
        return features, self.head.forward(features)

    def backward(self, grad_head_out: np.ndarray, extra_feature_grad: np.ndarray | None = None) -> np.ndarray:
        grad_f = self.head.backward(grad_head_out)
        if extra_feature_grad is not None:
            grad_f = grad_f + extra_feature_grad
        return self.backbone.backward(grad_f)

    def parameters(self) -> list[Parameter]:
        return self.backbone.parameters() + self.head.parameters()


def build_feature_net(
    channels: int,
    width: int,
    kernel: int,
    rng: np.random.Generator,
    pointwise: bool = False,
    name: str = "net",
) -> Sequential:
    """Conv -> ReLU -> mean-pool backbone mapping (B, C, T) to (B, width)."""
    if pointwise:
        conv: Layer = PointwiseConv(channels, width, rng, name=f"{name}.conv")
    else:
        if kernel < 2:
            raise ValueError(f"temporal kernel must be >= 2, got {kernel}")
        conv = TemporalConv(channels, width, kernel, rng, name=f"{name}.conv")
    return Sequential([conv, ReLU(), TemporalMeanPool()])


def sgd_step(
    params,
    lr: float,
    momentum: float = 0.9,
    weight_decay: float = 1e-4,
    nesterov: bool = False,
) -> None:
    """One SGD update: v <- m*v + g + wd*theta; theta <- theta - lr*v.

    Rejects the whole step if any gradient is non-finite, then zeroes every
    gradient buffer after applying the update.
    """
    params = list(params)
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise NonFiniteGradientError(f"non-finite gradient in {p.name}")
    for p in params:
        g = p.grad + weight_decay * p.value
        p.momentum *= momentum
        p.momentum += g
        update = g + momentum * p.momentum if nesterov else p.momentum
        p.value -= lr * update
        p.zero_grad()


def temporal_shuffle(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Permute the time axis independently per sample; channels move together."""
    perms = draw_time_permutations(rng, x.shape[0], x.shape[2])
    return apply_time_permutations(x, perms)


def draw_time_permutations(rng: np.random.Generator, batch: int, timesteps: int) -> np.ndarray:
    perms = np.empty((batch, timesteps), dtype=np.int64)
    for b in range(batch):
        perms[b] = rng.permutation(timesteps)
    return perms


def apply_time_permutations(x: np.ndarray, perms: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected (batch, channels, time), got shape {x.shape}")
    if perms.shape != (x.shape[0], x.shape[2]):
        raise ValueError(f"permutation shape {perms.shape} does not match input {x.shape}")
    out = np.empty_like(x)
    for b in range(x.shape[0]):
        out[b] = x[b][:, perms[b]]
    return out


@dataclass(frozen=True)
class GradcheckEntry:
    name: str
    max_rel_err: float
    worst_coord: int
    analytic: float
    numeric: float


@dataclass(frozen=True)
class GradcheckReport:
    entries: tuple[GradcheckEntry, ...]

    @property
    def max_rel_err(self) -> float:
        return max((e.max_rel_err for e in self.entries), default=0.0)

    def failures(self, tol: float) -> list[GradcheckEntry]:
        return [e for e in self.entries if e.max_rel_err >= tol]

    def ok(self, tol: float = 1e-4) -> bool:
        return not self.failures(tol)


def gradcheck(
    loss_fn,
    params,
    eps: float = 1e-5,
    max_coords_per_param: int = 64,
    rng: np.random.Generator | None = None,
) -> GradcheckReport:
    """Central-difference check of the gradients already stored on ``params``.

    ``loss_fn`` must be a deterministic zero-argument callable that
    re-evaluates the loss from current parameter values without mutating them
    (re-running layer forwards is fine), and the caller must have populated
    each ``Parameter.grad`` with exactly one analytic backward pass.  Large
    parameters are checked on a sampled coordinate subset.  The relative error
    uses a unit floor: |fd - an| / max(|fd|, |an|, 1).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    entries = []
    for p in params:
        analytic = p.grad.reshape(-1).copy()
        flat = p.value.reshape(-1)
        n = flat.size
        if n <= max_coords_per_param:
            coords = np.arange(n)
        else:
            coords = np.sort(rng.choice(n, size=max_coords_per_param, replace=False))
        worst = GradcheckEntry(p.name, 0.0, -1, 0.0, 0.0)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            up = loss_fn()
            flat[i] = orig - eps
            down = loss_fn()
            flat[i] = orig
            fd = (up - down) / (2.0 * eps)
            an = analytic[i]
            rel = abs(fd - an) / max(abs(fd), abs(an), 1.0)
            if rel > worst.max_rel_err:
                worst = GradcheckEntry(p.name, float(rel), int(i), float(an), float(fd))
        entries.append(worst)
    return GradcheckReport(tuple(entries))
