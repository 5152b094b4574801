"""Hilbert-Schmidt independence criterion with RBF kernels.

Biased estimator over a batch of paired features X, Y (rows are samples):

    HSIC(X, Y) = tr(Kx H Ky H) / (n - 1)^2,      H = I - (1/n) 1 1^T,

with Gaussian kernels K_ij = exp(-||x_i - x_j||^2 / (2 sigma^2)).  Bandwidths
default to the median of the nonzero pairwise distances (falling back to 1.0
when every distance is zero) and are held constant under differentiation, so
the returned gradient is the exact derivative of the estimator at that fixed
bandwidth.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .evidential import NonFiniteInputError

__all__ = [
    "KernelParams",
    "centered_gram",
    "hsic_biased",
    "hsic_value_and_grad",
    "median_bandwidth",
    "rbf_gram",
]


@dataclass(frozen=True)
class KernelParams:
    """RBF kernel configuration.

    sigma None selects the median heuristic per input matrix.  Features are
    not centred: RBF distances are translation invariant, so centring would
    change nothing.
    """

    sigma: float | None = None

    def __post_init__(self) -> None:
        if self.sigma is not None and not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")


def _as_feature_matrix(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D (samples, features), got shape {arr.shape}")
    if arr.shape[0] < 2:
        raise ValueError(f"{name} needs at least 2 samples, got {arr.shape[0]}")
    if not np.isfinite(arr).all():
        raise NonFiniteInputError(f"{name} contains non-finite values")
    return arr


def _sq_dists(x: np.ndarray) -> np.ndarray:
    sq = (x * x).sum(axis=-1)
    d2 = sq[..., :, None] + sq[..., None, :] - 2.0 * (x @ x.swapaxes(-1, -2))
    return np.maximum(d2, 0.0)


@functools.lru_cache(maxsize=64)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (rows, cols) of the strict upper triangle of an n x n matrix."""
    pairs = np.triu_indices(n, k=1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def median_bandwidth(x) -> float:
    """Median of the nonzero pairwise Euclidean distances, 1.0 if none.

    The order statistics are taken on squared distances and rooted after:
    sqrt is monotone and positive exactly where its argument is, so this is
    np.median of the distances bit for bit, without rooting every pair.
    """
    arr = _as_feature_matrix(x, "features")
    d2 = _sq_dists(arr)[_upper_pairs(arr.shape[0])]
    nonzero = d2[d2 > 0.0]
    if nonzero.size == 0:
        return 1.0
    half, odd = divmod(nonzero.size, 2)
    if odd:
        return math.sqrt(np.partition(nonzero, half)[half])
    lo, hi = np.partition(nonzero, (half - 1, half))[half - 1 : half + 1]
    return (math.sqrt(lo) + math.sqrt(hi)) / 2.0


def _kernel(arr: np.ndarray, params: KernelParams) -> tuple[np.ndarray, float]:
    """The Gaussian Gram matrix of validated features and its squared bandwidth.

    Every Gram is built here, so one matrix always gets the same bits.  A
    (P, n, d) stack of feature matrices gives the (P, n, n) stack of their
    Grams; it needs a frozen ``sigma``, as the median takes one matrix.
    """
    sigma = params.sigma if params.sigma is not None else median_bandwidth(arr)
    sigma_sq = sigma * sigma
    gram = np.exp(-_sq_dists(arr) / (2.0 * sigma_sq))
    diagonal = np.arange(gram.shape[-1])
    gram[..., diagonal, diagonal] = 1.0
    return gram, sigma_sq


def rbf_gram(x, params: KernelParams = KernelParams()) -> np.ndarray:
    """Gaussian Gram matrix; symmetric, unit diagonal, entries in (0, 1]."""
    return _kernel(_as_feature_matrix(x, "features"), params)[0]


def _center(gram: np.ndarray) -> np.ndarray:
    """H G H without materializing H.

    The means are sums divided by their counts, which is what ndarray.mean
    computes, without its per-call Python overhead.
    """
    n = gram.shape[0]
    row = np.add.reduce(gram, axis=0, keepdims=True) / n
    col = np.add.reduce(gram, axis=1, keepdims=True) / n
    return gram - row - col + np.add.reduce(gram, axis=None) / (n * n)


def hsic_biased(gram_x, gram_y) -> float:
    """tr(Kx H Ky H) / (n - 1)^2 from precomputed Gram matrices."""
    kx = np.asarray(gram_x, dtype=np.float64)
    ky = np.asarray(gram_y, dtype=np.float64)
    if kx.shape != ky.shape or kx.ndim != 2 or kx.shape[0] != kx.shape[1]:
        raise ValueError(f"Gram matrices must be square and same-shaped, got {kx.shape} and {ky.shape}")
    n = kx.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples, got {n}")
    return float((kx * _center(ky)).sum() / (n - 1) ** 2)


def _value(kx: np.ndarray, m: np.ndarray, scale: float):
    """HSIC from x's Gram and y's centred Gram; one value per Gram of a (P, n, n) stack."""
    return (kx * m).sum(axis=(-2, -1)) * scale


def centered_gram(y, params: KernelParams = KernelParams()) -> np.ndarray:
    """M = H Ky H, the part of HSIC(x, y) that depends on y alone.

    Hand it to :func:`_hsic_values` to evaluate HSIC against many x without
    rebuilding it.
    """
    return _center(_kernel(_as_feature_matrix(y, "y"), params)[0])


def _hsic_values(ax: np.ndarray, centered, params: KernelParams) -> list:
    """[HSIC(x, y) for each M = centered_gram(y, params) in centered] of validated
    features x, bit for bit equal to the value of :func:`hsic_value_and_grad`, with
    x's Gram built once.  Each M must pair with x's samples.  A (P, n, d) stack of
    features gives per Gram the (P,) values, each with its own call's bits."""
    kx, _ = _kernel(ax, params)
    scale = 1.0 / (ax.shape[-2] - 1) ** 2
    return [_value(kx, m, scale) for m in centered]


def hsic_value_and_grad(
    x, y, params: KernelParams = KernelParams()
) -> tuple[float, np.ndarray]:
    """HSIC estimate and its exact gradient with respect to the rows of x.

    With M = H Ky H and W = M * Kx (elementwise),

        d HSIC / d x_i = -2 / (sigma_x^2 (n-1)^2) * sum_j W_ij (x_i - x_j),

    treating both bandwidths as constants.  The gradient with respect to y
    follows by symmetry: swap the arguments.
    """
    ax = _as_feature_matrix(x, "x")
    ay = _as_feature_matrix(y, "y")
    if ax.shape[0] != ay.shape[0]:
        raise ValueError(f"x and y must pair the same samples, got {ax.shape[0]} and {ay.shape[0]}")
    kx, sigma_x_sq = _kernel(ax, params)
    m = _center(_kernel(ay, params)[0])
    scale = 1.0 / (ax.shape[0] - 1) ** 2
    w = m * kx
    grad = (-2.0 * scale / sigma_x_sq) * (w.sum(axis=1)[:, None] * ax - w @ ax)
    return float(_value(kx, m, scale)), grad
