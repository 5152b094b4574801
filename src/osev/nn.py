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

from .evidential import (
    DEFAULT_EXP_BOUND,
    EvidenceFunction,
    evidence_from_logits,
    evidence_grad_wrt_logits,
)

__all__ = [
    "GRADCHECK_CHUNK",
    "GRADCHECK_EPS",
    "GRADCHECK_MAX_COORDS",
    "Dense",
    "EvidenceHead",
    "EvidentialNet",
    "GradcheckEntry",
    "GradcheckReport",
    "NonFiniteGradientError",
    "Parameter",
    "ReLU",
    "Sequential",
    "TemporalConv",
    "TemporalMeanPool",
    "apply_time_permutations",
    "build_feature_net",
    "draw_time_permutations",
    "glorot_uniform",
    "gradcheck",
    "sgd_step",
]


class NonFiniteGradientError(RuntimeError):
    """A gradient buffer contains NaN or infinity; the step was rejected."""


class Parameter:
    """Named, shape-frozen float64 array with a gradient accumulator and a
    momentum buffer for SGD.

    The first :func:`sgd_step` that updates a parameter rebinds its three
    arrays to views into one flat arena shared with the other parameters of
    that step, so hold the ``Parameter``, not its arrays.
    """

    __slots__ = ("name", "value", "grad", "momentum", "_arena")

    def __init__(self, name: str, value) -> None:
        self.name = name
        self.value = np.array(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)
        self.momentum = np.zeros_like(self.value)
        self._arena = None  # (arena, index) once sgd_step has packed this parameter

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def assign(self, new) -> None:
        arr = np.asarray(new, dtype=np.float64)
        if arr.shape != self.value.shape:
            raise ValueError(f"shape mismatch: have {self.value.shape}, got {arr.shape}")
        self.value[...] = arr

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.value.shape})"


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


class Layer:
    """Base class: forward caches, backward consumes the cache additively.

    ``forward_copies(x, (parameter, stack))`` is the forward once per value in the
    (P, *parameter.shape) stack, as if the parameter held it: the P outputs, each with
    its own forward's bits, on a leading axis that x may carry too.  It caches nothing;
    a layer's ``forward`` validates and caches, then runs it with ``_NO_COPIES``.
    """

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


#: The ``copies`` of a plain forward: it substitutes no parameter.
_NO_COPIES = (None, None)


def _correlate(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Valid cross-correlation over time.

    (B, c_in, T) correlated with (c_out, c_in, k) gives (B, c_out, T - k + 1),
    and with a (P, c_out, c_in, k) stack of kernels (P, B, c_out, T - k + 1),
    each copy through the single kernel's matmuls and so with their bits.

    One matmul per kernel tap, accumulated in place, so the only temporary is
    one output-sized product; no (B, c_in, T', k) window copy is made.
    """
    if w.ndim == 4:
        w = w[:, None]
    k = w.shape[-1]
    t_out = x.shape[2] - k + 1
    out = np.matmul(w[..., 0], x[:, :, :t_out])
    for j in range(1, k):
        out += np.matmul(w[..., j], x[:, :, j : j + t_out])
    return out


class TemporalConv(Layer):
    """1-D convolution across the time axis, stride 1, no padding.

    Input (batch, c_in, T) -> output (batch, c_out, T - kernel + 1).  Kernel
    widths >= 2 see temporal order; width 1 is the pointwise map, the same
    affine map at every timestep, so composed with any pooling that ignores
    order its output is invariant to permutations of the time axis.
    It is an input layer: every backbone starts with it and no caller reads
    the gradient of its input, so backward computes none and returns None.
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
        self._cache = np.ascontiguousarray(x)  # backward views it by its own strides
        return self.forward_copies(x, _NO_COPIES)

    def forward_copies(self, x: np.ndarray, copies) -> np.ndarray:  # an input layer: x has no copies axis
        p, stack = copies
        out = _correlate(x, stack if p is self.weight else self.weight.value)
        if p is self.bias:  # a stack of biases widens the output
            return out + stack[:, None, :, None]
        out += self.bias.value[:, None]
        return out

    def backward(self, grad_out: np.ndarray) -> None:
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
        # input; built here rather than in forward, so inference never pays for it.
        # windows[b, t, c, j] is x[b, c, t + j], a view over the contiguous cache
        s0, s1, s2 = x.strides
        windows = np.ndarray((batch, t_out, self.c_in, k), x.dtype, x, 0, (s0, s2, s1, s2))
        cols = windows.reshape(batch * t_out, self.c_in * k)
        g_rows = g.transpose(1, 0, 2).reshape(self.c_out, batch * t_out)
        self.weight.grad += (g_rows @ cols).reshape(self.weight.shape)
        self.bias.grad += g.sum(axis=(0, 2))

    def parameters(self) -> list[Parameter]:
        return [self.weight, self.bias]


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
        return self.forward_copies(x, _NO_COPIES)

    def forward_copies(self, x: np.ndarray, copies) -> np.ndarray:
        p, stack = copies
        if p is self.bias:
            return x @ self.weight.value + stack[:, None, :]
        return x @ (stack if p is self.weight else self.weight.value) + self.bias.value

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
        self._out = None  # backward's mask is out > 0.0, exactly x > 0.0; inference builds none

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._out = self.forward_copies(np.asarray(x, dtype=np.float64), _NO_COPIES)
        return self._out

    def forward_copies(self, x: np.ndarray, copies) -> np.ndarray:
        return np.where(x > 0.0, x, 0.0)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        out = self._require_cache(self._out, "relu")
        g = np.asarray(grad_out, dtype=np.float64)
        if g.shape != out.shape:
            raise ValueError(f"upstream gradient shape {g.shape} does not match output shape {out.shape}")
        return np.where(out > 0.0, g, 0.0)


class TemporalMeanPool(Layer):
    """Mean over the time axis: (batch, C, T) -> (batch, C)."""

    def __init__(self) -> None:
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError(f"expected (batch, channels, time), got shape {x.shape}")
        self._shape = x.shape
        return self.forward_copies(x, _NO_COPIES)

    def forward_copies(self, x: np.ndarray, copies) -> np.ndarray:
        return np.add.reduce(x, axis=-1) / x.shape[-1]  # x.mean(axis=-1) without its Python-level wrapper

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        shape = self._require_cache(self._shape, "mean-pool")
        g = np.asarray(grad_out, dtype=np.float64)
        if g.shape != shape[:2]:
            raise ValueError(f"upstream gradient shape {g.shape} does not match output shape {shape[:2]}")
        return np.broadcast_to(g[:, :, None] / shape[2], shape)  # a read-only view


class Sequential(Layer):
    def __init__(self, layers) -> None:
        self.layers = list(layers)

    def forward(self, x: np.ndarray) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def forward_copies(self, x: np.ndarray, copies) -> np.ndarray:
        out = x
        for layer in self.layers:
            out = layer.forward_copies(out, copies)
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray | None:
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

    def forward_copies(self, features: np.ndarray, copies) -> np.ndarray:
        return evidence_from_logits(self.dense.forward_copies(features, copies), self.kind, self.exp_bound)

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

    def forward_copies(self, x: np.ndarray, copies) -> tuple[np.ndarray, np.ndarray]:
        features = self.backbone.forward_copies(x, copies)
        return features, self.head.forward_copies(features, copies)

    def backward(self, grad_head_out: np.ndarray, extra_feature_grad: np.ndarray | None = None) -> None:
        grad_f = self.head.backward(grad_head_out)
        if extra_feature_grad is not None:
            grad_f = grad_f + extra_feature_grad
        self.backbone.backward(grad_f)

    def parameters(self) -> list[Parameter]:
        return self.backbone.parameters() + self.head.parameters()


def build_feature_net(
    channels: int,
    width: int,
    kernel: int,
    rng: np.random.Generator,
    name: str = "net",
) -> Sequential:
    """Conv -> ReLU -> mean-pool backbone mapping (B, C, T) to (B, width); kernel 1 is pointwise."""
    return Sequential([TemporalConv(channels, width, kernel, rng, name=f"{name}.conv"), ReLU(), TemporalMeanPool()])


class _Arena:
    """The values, gradients and momenta of ``params``, back to back in three
    flat float64 arrays; parameter i owns elements ``offsets[i]:offsets[i + 1]``.
    An arena dies when any of its parameters is packed into another."""

    __slots__ = ("params", "offsets", "value", "grad", "momentum", "live")

    def __init__(self, params: tuple[Parameter, ...]) -> None:
        seen = set()
        self.offsets = [0]
        for p in params:
            if id(p) in seen:
                raise ValueError(f"parameter {p.name} appears twice in one step")
            seen.add(id(p))
            self.offsets.append(self.offsets[-1] + p.value.size)
        self.params = params
        self.live = True
        for field in ("value", "grad", "momentum"):
            setattr(self, field, np.concatenate([getattr(p, field).reshape(-1) for p in params]))
        for i, p in enumerate(params):
            if p._arena is not None:
                p._arena[0].live = False
            lo, hi, shape = self.offsets[i], self.offsets[i + 1], p.value.shape
            p.value = self.value[lo:hi].reshape(shape)
            p.grad = self.grad[lo:hi].reshape(shape)
            p.momentum = self.momentum[lo:hi].reshape(shape)
            p._arena = (self, i)


def sgd_step(
    params,
    lr: float,
    momentum: float = 0.9,
    weight_decay: float = 1e-4,
    nesterov: bool = False,
) -> None:
    """One SGD update: v <- m*v + g + wd*theta; theta <- theta - lr*v.

    Rejects the whole step if any gradient is non-finite, naming the first
    such parameter in list order, then zeroes every gradient buffer after
    applying the update.  The update runs once over flat views of all the
    parameters' values, gradients and momenta (see :class:`Parameter`);
    every element gets the bits of its own parameter-by-parameter update.
    A parameter named twice raises ValueError; an empty list does nothing.
    """
    params = tuple(params)
    if not params:
        return
    arena, start = params[0]._arena or (None, 0)
    stop = start + len(params)
    if arena is None or not arena.live or arena.params[start:stop] != params:  # not one run of a live arena
        arena, start, stop = _Arena(params), 0, len(params)
    lo, hi = arena.offsets[start], arena.offsets[stop]
    value, grad, mom = arena.value[lo:hi], arena.grad[lo:hi], arena.momentum[lo:hi]
    if not np.isfinite(grad).all():
        for p in params:
            if not np.isfinite(p.grad).all():
                raise NonFiniteGradientError(f"non-finite gradient in {p.name}")
    g = grad + weight_decay * value
    mom *= momentum
    mom += g
    update = g + momentum * mom if nesterov else mom
    value -= lr * update
    grad.fill(0.0)


def draw_time_permutations(rng: np.random.Generator, batch: int, timesteps: int) -> np.ndarray:
    """One independent permutation of the time axis per sample, shape (batch, timesteps).

    Shuffling the rows of a tiled arange consumes the stream exactly as one
    ``rng.permutation(timesteps)`` per sample would.
    """
    return rng.permuted(np.tile(np.arange(timesteps, dtype=np.int64), (batch, 1)), axis=1)


def apply_time_permutations(x: np.ndarray, perms: np.ndarray) -> np.ndarray:
    """Reorder each sample's time axis by its permutation; channels move together."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected (batch, channels, time), got shape {x.shape}")
    if perms.shape != (x.shape[0], x.shape[2]):
        raise ValueError(f"permutation shape {perms.shape} does not match input {x.shape}")
    return np.take_along_axis(x, perms[:, None, :], axis=2)


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
    def worst(self) -> GradcheckEntry:
        """The entry with the largest relative error, the first of equals."""
        return max(self.entries, key=lambda e: e.max_rel_err)


#: Central-difference step of :func:`gradcheck`.
GRADCHECK_EPS = 1e-5
#: Coordinates :func:`gradcheck` samples from a parameter larger than this.
GRADCHECK_MAX_COORDS = 64
#: Perturbed copies :func:`gradcheck` hands its loss per call: enough to spread
#: each forward's per-call cost, few enough to keep the stacked arrays small.
GRADCHECK_CHUNK = 16


def gradcheck(loss_fn, params, rng: np.random.Generator | None = None) -> GradcheckReport:
    """Central-difference check of the gradients already stored on ``params``.

    ``loss_fn(p, values)`` maps a (P, *p.shape) stack of values of one of
    ``params`` to the P losses at those values, every other parameter at its
    own (see :meth:`Layer.forward_copies`); it must be deterministic and change
    no parameter.  The caller must have populated each ``Parameter.grad`` with
    exactly one analytic backward pass.  Large parameters are checked on a
    sampled coordinate subset; each coordinate gives a +eps then a -eps copy,
    evaluated :data:`GRADCHECK_CHUNK` at a time.  The relative error uses a unit
    floor: |fd - an| / max(|fd|, |an|, 1); a coordinate where it is NaN (a NaN
    gradient or loss, or infinities) counts as infinitely wrong.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    entries = []
    for p in params:
        flat = p.value.reshape(-1)
        n = flat.size
        if n <= GRADCHECK_MAX_COORDS:
            coords = np.arange(n)
        else:
            coords = np.sort(rng.choice(n, size=GRADCHECK_MAX_COORDS, replace=False))
        at = np.repeat(coords, 2)  # copy 2i moves coordinate i up by eps, copy 2i + 1 down
        moved = np.column_stack([flat[coords] + GRADCHECK_EPS, flat[coords] - GRADCHECK_EPS]).reshape(-1)
        losses = []
        for start in range(0, at.size, GRADCHECK_CHUNK):
            rows = slice(start, start + GRADCHECK_CHUNK)
            copies = np.tile(flat, (len(at[rows]), 1))
            copies[np.arange(len(copies)), at[rows]] = moved[rows]
            losses.append(loss_fn(p, copies.reshape(-1, *p.shape)))
        losses = np.concatenate(losses)
        fd = (losses[0::2] - losses[1::2]) / (2.0 * GRADCHECK_EPS)
        an = p.grad.reshape(-1)[coords]
        rel = np.abs(fd - an) / np.maximum(np.maximum(np.abs(fd), np.abs(an)), 1.0)
        rel[np.isnan(rel)] = math.inf
        i = int(np.argmax(rel))
        if rel[i] > 0.0:
            entries.append(GradcheckEntry(p.name, float(rel[i]), int(coords[i]), float(an[i]), float(fd[i])))
        else:
            entries.append(GradcheckEntry(p.name, 0.0, -1, 0.0, 0.0))
    return GradcheckReport(tuple(entries))
