"""Subjective-logic algebra over Dirichlet evidence.

A K-class evidence vector e (non-negative per-class support) parameterizes a
Dirichlet distribution through alpha = e + 1.  The induced multinomial opinion
carries belief masses b_k = e_k / S, uncertainty mass u = K / S and expected
class probabilities p_k = alpha_k / S, where S = sum_k alpha_k is the total
Dirichlet strength.  Zero evidence means maximal uncertainty (u = 1, uniform
p); abundant evidence drives u toward zero.  The exact identities

    u + sum_k b_k = 1        and        p_k = b_k + a_k * u

with uniform base rate a_k = 1 / K hold for every valid evidence vector and
are relied on by the losses and metrics downstream.
"""

from __future__ import annotations

import enum
import math

import numpy as np

__all__ = [
    "DEFAULT_EXP_BOUND",
    "EvidenceFunction",
    "NonFiniteInputError",
    "batch_probs_and_uncertainty",
    "evidence_from_logits",
    "evidence_grad_wrt_logits",
    "threshold_from_train_scores",
    "validate_evidence",
]


class NonFiniteInputError(ValueError):
    """A model quantity (logit, evidence, feature) is NaN or infinite.

    Training meets it when a run diverges, so the trainer reports it as a
    non-finite loss rather than as invalid input.
    """


class EvidenceFunction(enum.Enum):
    """Non-negative activation turning raw logits into evidence."""

    EXPONENTIAL = "exp"
    SOFTPLUS = "softplus"
    RELU = "relu"


#: Symmetric clamp applied to logits before exponentiation so large logits
#: saturate instead of overflowing.
DEFAULT_EXP_BOUND = 10.0


def _first_bad_index(mask: np.ndarray) -> tuple[int, ...]:
    bad = np.argwhere(mask)
    return tuple(int(i) for i in bad[0])


def _clamp(x, lo, hi) -> np.ndarray:
    """np.clip(x, lo, hi) without its Python-level wrapper.

    Bit for bit equal to it for lo < hi when neither bound is zero: np.clip
    breaks a tie between zeros of opposite sign toward the bound, np.maximum
    and np.minimum toward x.
    """
    return np.minimum(np.maximum(x, lo), hi)


def evidence_from_logits(
    logits,
    kind: EvidenceFunction | str = EvidenceFunction.EXPONENTIAL,
    exp_bound: float = DEFAULT_EXP_BOUND,
) -> np.ndarray:
    """Map raw logits to non-negative evidence, elementwise.

    Accepts a single K-vector or any batch shaped (..., K).  The exponential
    variant clamps logits into [-exp_bound, exp_bound] first.
    """
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] < 2:
        raise ValueError(f"need at least 2 classes on the last axis, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise NonFiniteInputError(f"non-finite logit at index {_first_bad_index(~np.isfinite(x))}")
    kind = EvidenceFunction(kind)
    if kind is EvidenceFunction.EXPONENTIAL:
        if exp_bound <= 0:
            raise ValueError(f"exp_bound must be positive, got {exp_bound}")
        return np.exp(_clamp(x, -exp_bound, exp_bound))
    if kind is EvidenceFunction.SOFTPLUS:
        return np.logaddexp(0.0, x)
    return np.maximum(x, 0.0)


def evidence_grad_wrt_logits(
    logits,
    kind: EvidenceFunction | str = EvidenceFunction.EXPONENTIAL,
    exp_bound: float = DEFAULT_EXP_BOUND,
) -> np.ndarray:
    """Elementwise derivative of :func:`evidence_from_logits`.

    Where the exponential clamp is active the derivative is zero; ReLU uses
    the right derivative at the kink.
    """
    x = np.asarray(logits, dtype=np.float64)
    kind = EvidenceFunction(kind)
    if kind is EvidenceFunction.EXPONENTIAL:
        inside = np.abs(x) < exp_bound
        return np.where(inside, np.exp(_clamp(x, -exp_bound, exp_bound)), 0.0)
    if kind is EvidenceFunction.SOFTPLUS:
        return np.fromiter(map(_logistic, x.ravel().tolist()), np.float64, count=x.size).reshape(x.shape)
    return np.where(x > 0.0, 1.0, 0.0)


def _logistic(v: float) -> float:
    """The logistic function 1 / (1 + exp(-v)), the derivative of softplus; 0.0 where exp(-v) overflows.

    It runs per element on ``math.exp`` because numpy's vectorised exp differs
    from libm's in the last bits for some inputs, which would change run bytes.
    """
    try:
        return 1.0 / (1.0 + math.exp(-v))
    except OverflowError:
        return 0.0


def validate_evidence(e) -> np.ndarray:
    """Return evidence as a float64 array, rejecting invalid values."""
    arr = np.asarray(e, dtype=np.float64)
    if arr.ndim == 0 or arr.shape[-1] < 2:
        raise ValueError(f"evidence needs at least 2 classes on the last axis, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonFiniteInputError(f"non-finite evidence at index {_first_bad_index(~np.isfinite(arr))}")
    if np.any(arr < 0.0):
        raise ValueError(f"negative evidence at index {_first_bad_index(arr < 0.0)}")
    return arr


def batch_probs_and_uncertainty(e) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (..., K) -> (probs (..., K), uncertainty (...))."""
    return _probs_and_uncertainty(validate_evidence(e))


def _probs_and_uncertainty(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`batch_probs_and_uncertainty` of validated evidence."""
    alpha = arr + 1.0
    strength = alpha.sum(axis=-1)
    return alpha / strength[..., None], arr.shape[-1] / strength


def threshold_from_train_scores(scores, coverage: float = 0.95) -> float:
    """Empirical-quantile rejection threshold.

    Returns the smallest observed score tau such that at least a `coverage`
    fraction of the inputs satisfies score <= tau, i.e. the ceil(coverage*n)-th
    smallest value.  With coverage 1.0 this is the maximum.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"scores must be a non-empty 1-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("scores must be finite")
    if not 0.0 < coverage <= 1.0:
        raise ValueError(f"coverage must be in (0, 1], got {coverage}")
    n = arr.size
    # Guard against float noise pushing e.g. 0.95 * 20 just above 19.
    rank = math.ceil(coverage * n - 1e-9)
    rank = min(max(rank, 1), n)
    return float(np.sort(arr)[rank - 1])
