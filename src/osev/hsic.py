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

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "KernelParams",
    "hsic_biased",
    "hsic_value_and_grad",
    "median_bandwidth",
    "rbf_gram",
    "resolve_bandwidth",
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
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _sq_dists(x: np.ndarray) -> np.ndarray:
    sq = (x * x).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    return np.maximum(d2, 0.0)


def median_bandwidth(x) -> float:
    """Median of the nonzero pairwise Euclidean distances, 1.0 if none."""
    arr = _as_feature_matrix(x, "features")
    d = np.sqrt(_sq_dists(arr)[np.triu_indices(arr.shape[0], k=1)])
    nonzero = d[d > 0.0]
    if nonzero.size == 0:
        return 1.0
    return float(np.median(nonzero))


def resolve_bandwidth(x, params: KernelParams) -> float:
    return params.sigma if params.sigma is not None else median_bandwidth(x)


def rbf_gram(x, params: KernelParams = KernelParams()) -> np.ndarray:
    """Gaussian Gram matrix; symmetric, unit diagonal, entries in (0, 1]."""
    arr = _as_feature_matrix(x, "features")
    sigma = resolve_bandwidth(arr, params)
    gram = np.exp(-_sq_dists(arr) / (2.0 * sigma * sigma))
    np.fill_diagonal(gram, 1.0)
    return gram


def _center(gram: np.ndarray) -> np.ndarray:
    """H G H without materializing H."""
    row = gram.mean(axis=0, keepdims=True)
    col = gram.mean(axis=1, keepdims=True)
    return gram - row - col + gram.mean()


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
    n = ax.shape[0]
    sigma_x = resolve_bandwidth(ax, params)
    kx = np.exp(-_sq_dists(ax) / (2.0 * sigma_x * sigma_x))
    np.fill_diagonal(kx, 1.0)
    ky = np.exp(-_sq_dists(ay) / (2.0 * resolve_bandwidth(ay, params) ** 2))
    np.fill_diagonal(ky, 1.0)
    m = _center(ky)
    scale = 1.0 / (n - 1) ** 2
    value = float((kx * m).sum() * scale)
    w = m * kx
    grad = (-2.0 * scale / (sigma_x * sigma_x)) * (w.sum(axis=1)[:, None] * ax - w @ ax)
    return value, grad
