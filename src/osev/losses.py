"""Training losses over Dirichlet evidence.

Labels are integer class indices, one per sample.  The classification loss
is the closed form of the expected categorical negative log-likelihood under
the predicted Dirichlet for true class y,

    L(y, e) = ln S - ln(e_y + 1),   S = sum_k (e_k + 1),

with no extra regularizer on the Dirichlet itself.  An annealed
evidential-uncertainty calibration term pushes uncertainty down on correctly
predicted samples and up on mispredicted ones, ramping its accurate-side
weight from lambda0 to 1 over training.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .evidential import _clamp, _probs_and_uncertainty, batch_probs_and_uncertainty, validate_evidence

__all__ = [
    "CLAMP_EPS",
    "AnnealingSchedule",
    "LossWeights",
    "NonFiniteLossError",
    "annealing_lambda",
    "edl_loss_batch",
    "euc_loss_grad_evidence",
    "softmax_ce_loss",
    "total_loss",
]

#: Probabilities and uncertainties are clamped into [CLAMP_EPS, 1 - CLAMP_EPS]
#: before any logarithm.
CLAMP_EPS = 1e-7


class NonFiniteLossError(RuntimeError):
    """A loss term evaluated to NaN or infinity."""


@dataclass(frozen=True)
class AnnealingSchedule:
    """Exponential ramp lambda_t = lambda0 * exp(-(ln lambda0 / T) * t).

    Starts at lambda0 for t = 0 and reaches exactly 1 at t = total_epochs.
    """

    lambda0: float = 0.01
    total_epochs: int = 50

    def __post_init__(self) -> None:
        if not 0.0 < self.lambda0 < 1.0:
            raise ValueError(f"lambda0 must be in (0, 1), got {self.lambda0}")
        if self.total_epochs < 1:
            raise ValueError(f"total_epochs must be >= 1, got {self.total_epochs}")


def annealing_lambda(t: float, schedule: AnnealingSchedule) -> float:
    """Evaluate the annealing weight at epoch t, clamping past the end."""
    if t < 0:
        raise ValueError(f"epoch index must be non-negative, got {t}")
    if t > schedule.total_epochs:
        warnings.warn(
            f"annealing evaluated at t={t} past total_epochs={schedule.total_epochs}; clamping to 1.0",
            stacklevel=2,
        )
        return 1.0
    if t == schedule.total_epochs:
        return 1.0  # lambda0 * exp(-ln lambda0) is exactly 1; skip the float round trip
    rate = math.log(schedule.lambda0) / schedule.total_epochs
    return schedule.lambda0 * math.exp(-rate * t)


def _validate_labels(labels, batch_size: int, num_classes: int) -> np.ndarray:
    """Return labels as a (batch_size,) int64 array of indices in [0, num_classes)."""
    lab = np.asarray(labels)
    if lab.shape != (batch_size,):
        raise ValueError(f"labels shape {lab.shape} does not match batch size {batch_size}")
    if lab.dtype.kind not in "iu":
        raise ValueError(f"labels must be integer class indices, got dtype {lab.dtype}")
    if ((lab < 0) | (lab >= num_classes)).any():
        raise ValueError(f"label index out of range for {num_classes} classes")
    return lab.astype(np.int64, copy=False)


def _edl_loss(y: np.ndarray, ev: np.ndarray, with_grad: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """:func:`edl_loss_batch` on validated arrays; the gradients are None without ``with_grad``.
    A (P, B, K) stack of evidence gives (P, B) losses, each copy's the bits of its own call."""
    rows = np.arange(y.size)
    alpha = ev + 1.0
    alpha_y = alpha[..., rows, y]
    strength = alpha.sum(axis=-1)
    losses = np.log(strength) - np.log(alpha_y)
    if not with_grad:
        return losses, None
    grads = np.repeat(1.0 / strength[:, None], ev.shape[1], axis=1)
    grads[rows, y] -= 1.0 / alpha_y
    return losses, grads


def edl_loss_batch(labels, e) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample evidential losses (B,) and their evidence gradients (B, K).

    grad_j = 1/S - 1[j == y] / (e_y + 1).
    """
    ev = validate_evidence(e)
    if ev.ndim != 2:
        raise ValueError(f"expected (batch, classes) evidence, got shape {ev.shape}")
    return _edl_loss(_validate_labels(labels, *ev.shape), ev, with_grad=True)


def euc_loss_grad_evidence(labels, evidence, lambda_t: float) -> tuple[float, np.ndarray]:
    """Evidential uncertainty calibration loss and its evidence gradient (B, K).

    L = -lambda_t    * mean over accurate   of p_i * ln(1 - u_i)
        -(1-lambda_t)* mean over inaccurate of (1 - p_i) * ln(u_i)

    where p_i is the maximum expected class probability (argmax k*, lowest
    index on ties) and u_i the uncertainty mass, both clamped into
    [CLAMP_EPS, 1 - CLAMP_EPS] before the logarithms; a sample is accurate
    when k* is its label.  Each subset term is a mean over that subset; an
    empty subset contributes zero.  Both p_i = alpha_{k*} / S (k* held fixed)
    and u_i = K / S are functions of the evidence, so

        dL/de_j = dL/dp * (1[j == k*]/S - alpha_{k*}/S^2) + dL/du * (-K/S^2),

    where the clamp has zero derivative where it is active.
    """
    probs, u = batch_probs_and_uncertainty(evidence)  # validates the evidence
    ev = np.asarray(evidence, dtype=np.float64)
    if ev.ndim != 2:
        raise ValueError(f"expected (batch, classes) evidence, got shape {ev.shape}")
    return _euc_loss(_validate_labels(labels, *ev.shape), ev, probs, u, lambda_t, with_grad=True)


def _euc_loss(
    y: np.ndarray, ev: np.ndarray, probs: np.ndarray, u_raw: np.ndarray, lambda_t: float, with_grad: bool
) -> tuple[float, np.ndarray | None]:
    """:func:`euc_loss_grad_evidence` on validated labels and evidence, given their
    probabilities and uncertainty; the gradient is None without ``with_grad``."""
    if not 0.0 <= lambda_t <= 1.0:
        raise ValueError(f"lambda_t must be in [0, 1], got {lambda_t}")
    rows = np.arange(y.size)
    predicted = np.argmax(probs, axis=1)
    p_raw = probs[rows, predicted]
    p = _clamp(p_raw, CLAMP_EPS, 1.0 - CLAMP_EPS)
    u = _clamp(u_raw, CLAMP_EPS, 1.0 - CLAMP_EPS)
    acc = predicted == y
    inacc = ~acc
    grad_p = np.zeros_like(p) if with_grad else None
    grad_u = np.zeros_like(u) if with_grad else None
    loss = 0.0
    p_acc, u_acc = p[acc], u[acc]
    if u_acc.size:
        n = u_acc.size
        log_one_minus_u = np.log1p(-u_acc)
        loss -= lambda_t * float(np.add.reduce(p_acc * log_one_minus_u) / n)
        if with_grad:
            grad_p[acc] = -lambda_t * log_one_minus_u / n
            grad_u[acc] = lambda_t * p_acc / ((1.0 - u_acc) * n)
    p_inacc, u_inacc = p[inacc], u[inacc]
    if u_inacc.size:
        m = u_inacc.size
        log_u = np.log(u_inacc)
        loss -= (1.0 - lambda_t) * float(np.add.reduce((1.0 - p_inacc) * log_u) / m)
        if with_grad:
            grad_p[inacc] = (1.0 - lambda_t) * log_u / m
            grad_u[inacc] = -(1.0 - lambda_t) * (1.0 - p_inacc) / (u_inacc * m)
    if not with_grad:
        return float(loss), None
    grad_p[(p_raw <= CLAMP_EPS) | (p_raw >= 1.0 - CLAMP_EPS)] = 0.0
    grad_u[(u_raw <= CLAMP_EPS) | (u_raw >= 1.0 - CLAMP_EPS)] = 0.0
    alpha = ev + 1.0
    strength = alpha.sum(axis=1)
    k = ev.shape[1]
    alpha_star = alpha[rows, predicted]
    # Shared component for all coordinates, then the argmax coordinate's extra.
    common = -(grad_p * alpha_star + grad_u * k) / strength**2
    grad_e = np.repeat(common[:, None], k, axis=1)
    grad_e[rows, predicted] += grad_p / strength
    return float(loss), grad_e


def _euc_losses(y: np.ndarray, ev: np.ndarray, lambda_t: float) -> np.ndarray:
    """The calibration loss of each copy in a (P, B, K) stack of validated evidence, each its own
    :func:`_euc_loss` call: means over masked subsets of a stack would not keep the per-copy bits."""
    probs, u = _probs_and_uncertainty(ev)
    return np.array([_euc_loss(y, *copy, lambda_t, with_grad=False)[0] for copy in zip(ev, probs, u)])


@dataclass(frozen=True)
class LossWeights:
    """Weights combining the loss terms into the training objective."""

    w_euc: float = 1.0
    w_ced: float = 0.1
    lambda_hsic: float = 1.0

    def __post_init__(self) -> None:
        for field in ("w_euc", "w_ced", "lambda_hsic"):
            v = getattr(self, field)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{field} must be finite and >= 0, got {v}")


def total_loss(edl: float, euc: float, ced: float, weights: LossWeights) -> float:
    """Combine the three terms; rejects non-finite inputs."""
    for name, v in (("edl", edl), ("euc", euc), ("ced", ced)):
        if not math.isfinite(v):
            raise NonFiniteLossError(f"{name} loss is non-finite: {v}")
    return edl + weights.w_euc * euc + weights.w_ced * ced


def softmax_ce_loss(labels, logits) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy with its logit gradient (baseline model)."""
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"expected (batch, classes) logits, got shape {z.shape}")
    y = _validate_labels(labels, *z.shape)
    rows = np.arange(y.size)
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    b = z.shape[0]
    loss = float(-log_probs[rows, y].sum() / b)
    grad = np.exp(log_probs)
    grad[rows, y] -= 1.0
    return loss, grad / b
