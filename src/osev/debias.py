"""Contrastive evidence debiasing.

Three branches see the same batch: the main branch f (temporal conv net) on
the original input, a shuffled branch on a per-sample time-permuted copy of
the input, and a static branch (kernel-width-1 conv) on the original input.
The static and shuffled branches can only exploit order-free shortcuts, so
pushing the main branch's features toward statistical independence from both
removes those shortcuts from f while the biased branches are simultaneously
trained to stay good at exploiting them:

    debias side:  L(theta_f, phi_f) = L_cls(y, e) + w_euc * L_cal
                                      + w_ced * lam * sum_h HSIC(f, h)
    bias side:    L(theta_h, phi_h) = w_ced * sum_h [ L_cls(y, e_h) - lam * HSIC(h, f) ]

Each side differentiates only its own parameters; the other side's features
are treated as constants (stop-gradient).  ``debias_objective`` and
``bias_objective`` are the only code computing these losses and gradients;
the training step calls both.  At inference the biased branches are dropped
entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evidential import EvidenceFunction
from .hsic import KernelParams, hsic_value_and_grad
from .losses import (
    BatchPrediction,
    LossWeights,
    edl_loss_batch,
    euc_loss_grad_evidence,
    total_loss,
)
from .nn import (
    Dense,
    EvidenceHead,
    EvidentialNet,
    apply_time_permutations,
    build_feature_net,
    draw_time_permutations,
    sgd_step,
)

__all__ = [
    "CedBranches",
    "CedForward",
    "StepRecord",
    "TrainingMode",
    "accumulate_gradients",
    "bias_objective",
    "build_branch",
    "build_branches",
    "ced_forward",
    "debias_objective",
    "strip_for_inference",
    "train_step",
    "vanilla_train_step",
]


def build_branch(
    name: str,
    channels: int,
    width: int,
    kernel: int,
    num_classes: int,
    rng: np.random.Generator,
    pointwise: bool = False,
    evidence: EvidenceFunction | str = EvidenceFunction.EXPONENTIAL,
    exp_bound: float = 10.0,
    head: str = "evidence",
) -> EvidentialNet:
    """One conv -> ReLU -> mean-pool backbone with a class head.

    ``head`` is "evidence" for a Dirichlet-evidence head or "logits" for a
    plain affine head (softmax baseline).  The rng is consumed in a fixed
    order (conv weights, then head weights) so a branch built alone matches
    the same branch built as part of a trio, stream for stream.
    """
    backbone = build_feature_net(channels, width, kernel, rng, pointwise=pointwise, name=name)
    if head == "evidence":
        out: EvidenceHead | Dense = EvidenceHead(
            width, num_classes, rng, kind=evidence, exp_bound=exp_bound, name=f"{name}.head"
        )
    elif head == "logits":
        out = Dense(width, num_classes, rng, name=f"{name}.head")
    else:
        raise ValueError(f"head must be 'evidence' or 'logits', got {head!r}")
    return EvidentialNet(backbone, out, num_classes)


@dataclass
class CedBranches:
    """Main branch plus the two biased branches it is contrasted against."""

    f_branch: EvidentialNet
    h_shuffled: EvidentialNet
    h_static: EvidentialNet
    num_classes: int

    def f_parameters(self):
        return self.f_branch.parameters()

    def h_parameters(self):
        return self.h_shuffled.parameters() + self.h_static.parameters()

    def all_parameters(self):
        return self.f_parameters() + self.h_parameters()


def build_branches(
    channels: int,
    width: int,
    kernel: int,
    num_classes: int,
    rng_f: np.random.Generator,
    rng_h_shuffled: np.random.Generator,
    rng_h_static: np.random.Generator,
    evidence: EvidenceFunction | str = EvidenceFunction.EXPONENTIAL,
    exp_bound: float = 10.0,
) -> CedBranches:
    """Build the three branches from independent init streams.

    Separate streams keep the main branch's initialization identical whether
    or not the biased branches exist at all.
    """
    return CedBranches(
        f_branch=build_branch("f", channels, width, kernel, num_classes, rng_f, False, evidence, exp_bound),
        h_shuffled=build_branch(
            "h_shuffled", channels, width, kernel, num_classes, rng_h_shuffled, False, evidence, exp_bound
        ),
        h_static=build_branch(
            "h_static", channels, width, kernel, num_classes, rng_h_static, True, evidence, exp_bound
        ),
        num_classes=num_classes,
    )


@dataclass
class CedForward:
    """One forward pass of all three branches on a batch."""

    x: np.ndarray
    perms: np.ndarray
    f: np.ndarray
    h_shuffled: np.ndarray
    h_static: np.ndarray
    e_f: np.ndarray
    e_shuffled: np.ndarray
    e_static: np.ndarray


def ced_forward(
    branches: CedBranches,
    x: np.ndarray,
    rng: np.random.Generator | None = None,
    perms: np.ndarray | None = None,
) -> CedForward:
    """Run all branches; a fresh shuffle is drawn from ``rng`` unless ``perms`` is given."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ValueError(f"expected (batch, channels, time) input, got shape {x.shape}")
    if x.shape[0] < 2:
        raise ValueError(f"dependence estimation needs a batch of >= 2 samples, got {x.shape[0]}")
    if perms is None:
        if rng is None:
            raise ValueError("either rng or perms must be provided")
        perms = draw_time_permutations(rng, x.shape[0], x.shape[2])
    x_shuffled = apply_time_permutations(x, perms)
    f, e_f = branches.f_branch.forward(x)
    h_sh, e_sh = branches.h_shuffled.forward(x_shuffled)
    h_st, e_st = branches.h_static.forward(x)
    return CedForward(x=x, perms=perms, f=f, h_shuffled=h_sh, h_static=h_st, e_f=e_f, e_shuffled=e_sh, e_static=e_st)


@dataclass(frozen=True)
class DebiasResult:
    loss: float
    edl: float
    euc: float
    hsic_shuffled: float
    hsic_static: float


@dataclass(frozen=True)
class BiasResult:
    loss: float
    edl_shuffled: float
    edl_static: float
    hsic_shuffled: float
    hsic_static: float


def debias_objective(
    branches: CedBranches,
    fwd: CedForward,
    labels: np.ndarray,
    weights: LossWeights,
    kernel: KernelParams,
    *,
    lambda_t: float = 0.0,
    use_euc: bool = False,
    apply_grads: bool = True,
) -> DebiasResult:
    """Main-branch objective: L_cls + w_euc * L_cal + w_ced * lam * sum_h HSIC(f, h).

    Gradients flow into the main branch's parameters only; both biased
    branches' features are constants here.  The dependence values are always
    computed, but with w_ced * lam = 0 their gradient is skipped, not
    multiplied by zero, so the main branch's gradient equals the plain run's
    bit for bit.
    """
    one_hot = _one_hot(labels, branches.num_classes)
    edl, euc, grad_e = _f_losses_and_grad_e(one_hot, labels, fwd.e_f, lambda_t, use_euc, weights.w_euc)
    coeff = weights.w_ced * weights.lambda_hsic
    hs_sh, g_sh = hsic_value_and_grad(fwd.f, fwd.h_shuffled, kernel)
    hs_st, g_st = hsic_value_and_grad(fwd.f, fwd.h_static, kernel)
    if apply_grads:
        extra = coeff * (g_sh + g_st) if coeff != 0.0 else None
        branches.f_branch.backward(grad_e, extra_feature_grad=extra)
    return DebiasResult(
        loss=edl + weights.w_euc * euc + coeff * (hs_sh + hs_st),
        edl=edl,
        euc=euc,
        hsic_shuffled=hs_sh,
        hsic_static=hs_st,
    )


def bias_objective(
    branches: CedBranches,
    fwd: CedForward,
    labels: np.ndarray,
    weights: LossWeights,
    kernel: KernelParams,
    *,
    apply_grads: bool = True,
) -> BiasResult:
    """Biased-branch objective: w_ced * sum_h [L_cls(y, e_h) - lam * HSIC(h, f)].

    Each h keeps classifying while evading the dependence penalty.  Gradients
    flow into the biased branches' parameters only; the main branch's
    features are constants here (the HSIC gradient is taken with respect to h
    by swapping the argument order).  As on the main side, the dependence
    gradient is skipped when w_ced * lam = 0.
    """
    one_hot = _one_hot(labels, branches.num_classes)
    b = fwd.x.shape[0]
    lam = weights.lambda_hsic
    coeff = weights.w_ced * lam
    parts = {}
    for key, branch, feats, ev in (
        ("shuffled", branches.h_shuffled, fwd.h_shuffled, fwd.e_shuffled),
        ("static", branches.h_static, fwd.h_static, fwd.e_static),
    ):
        losses, grads_e = edl_loss_batch(one_hot, ev)
        hs, g_h = hsic_value_and_grad(feats, fwd.f, kernel)
        if apply_grads:
            extra = -coeff * g_h if coeff != 0.0 else None
            branch.backward(weights.w_ced * grads_e / b, extra_feature_grad=extra)
        parts[key] = (float(losses.mean()), hs)
    edl_sh, hs_sh = parts["shuffled"]
    edl_st, hs_st = parts["static"]
    return BiasResult(
        loss=weights.w_ced * ((edl_sh - lam * hs_sh) + (edl_st - lam * hs_st)),
        edl_shuffled=edl_sh,
        edl_static=edl_st,
        hsic_shuffled=hs_sh,
        hsic_static=hs_st,
    )


def strip_for_inference(model) -> EvidentialNet:
    """Drop the biased branches; idempotent on an already-stripped net."""
    if isinstance(model, CedBranches):
        return model.f_branch
    if isinstance(model, EvidentialNet):
        return model
    raise TypeError(f"cannot strip object of type {type(model).__name__}")


@dataclass(frozen=True)
class TrainingMode:
    """Joint updates both sides every step with per-side stop-gradients;
    alternating updates one side per period of steps, leaving the other
    side's parameters untouched on its off-steps."""

    joint: bool = True
    period: int = 1

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")

    def side(self, step_index: int) -> str:
        if self.joint:
            return "joint"
        return "f" if (step_index // self.period) % 2 == 0 else "h"


@dataclass(frozen=True)
class StepRecord:
    """Loss components of one optimizer step (unweighted values)."""

    edl: float
    euc: float
    ced: float
    hsic_shuffled: float
    hsic_static: float
    total: float
    lambda_t: float
    side: str


def _one_hot(labels, num_classes: int) -> np.ndarray:
    lab = np.asarray(labels, dtype=np.int64)
    if lab.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {lab.shape}")
    if lab.size and (lab.min() < 0 or lab.max() >= num_classes):
        raise ValueError("label index out of range")
    out = np.zeros((lab.size, num_classes))
    out[np.arange(lab.size), lab] = 1.0
    return out


def _f_losses_and_grad_e(
    one_hot: np.ndarray,
    labels: np.ndarray,
    evidence: np.ndarray,
    lambda_t: float,
    use_euc: bool,
    w_euc: float,
) -> tuple[float, float, np.ndarray]:
    """Mean classification loss, calibration loss, and d(total)/d(evidence)."""
    b = one_hot.shape[0]
    losses, grads = edl_loss_batch(one_hot, evidence)
    edl = float(losses.mean())
    grad_e = grads / b
    euc = 0.0
    if use_euc:
        batch = BatchPrediction.from_evidence(labels, evidence)
        euc, grad_e_euc = euc_loss_grad_evidence(batch, lambda_t)
        grad_e = grad_e + w_euc * grad_e_euc
    return edl, euc, grad_e


def _assert_zero_grads(params, context: str) -> None:
    for p in params:
        if np.any(p.grad != 0.0):
            raise AssertionError(f"stop-gradient violated: {p.name} has gradient during {context}")


def accumulate_gradients(
    branches: CedBranches,
    x: np.ndarray,
    labels: np.ndarray,
    *,
    weights: LossWeights,
    lambda_t: float,
    use_euc: bool,
    kernel: KernelParams = KernelParams(),
    shuffle_rng: np.random.Generator | None = None,
    perms: np.ndarray | None = None,
    side: str = "joint",
    debug: bool = False,
) -> StepRecord:
    """Forward all branches and accumulate this step's gradients.

    The main branch receives the gradient of :func:`debias_objective` and the
    biased branches that of :func:`bias_objective`, each with the other
    side's features frozen.  ``side`` restricts which half accumulates ("f",
    "h" or "joint" for both); loss values are always computed for the record.
    With w_ced * lambda_hsic = 0 the main branch's gradient equals the plain
    run's exactly (the dependence terms are skipped, not multiplied by zero).
    """
    if side not in ("joint", "f", "h"):
        raise ValueError(f"side must be joint, f or h, got {side!r}")
    _one_hot(labels, branches.num_classes)  # reject bad labels before the forward pass
    fwd = ced_forward(branches, x, rng=shuffle_rng, perms=perms)
    apply_f = side in ("joint", "f")
    apply_h = side in ("joint", "h")

    if debug and apply_f:
        _assert_zero_grads(branches.h_parameters(), "start of f-side accumulation")
    main = debias_objective(
        branches, fwd, labels, weights, kernel, lambda_t=lambda_t, use_euc=use_euc, apply_grads=apply_f
    )
    if debug and apply_f:
        _assert_zero_grads(branches.h_parameters(), "f-side objective")

    f_snapshot = [p.grad.copy() for p in branches.f_parameters()] if debug and apply_h else None
    biased = bias_objective(branches, fwd, labels, weights, kernel, apply_grads=apply_h)
    if f_snapshot is not None:
        for p, before in zip(branches.f_parameters(), f_snapshot):
            if np.any(p.grad != before):
                raise AssertionError(f"stop-gradient violated: {p.name} changed during h-side objective")

    lam = weights.lambda_hsic
    hs_sh, hs_st = main.hsic_shuffled, main.hsic_static
    ced = lam * (hs_sh + hs_st) + (biased.edl_shuffled - lam * hs_sh) + (biased.edl_static - lam * hs_st)
    return StepRecord(
        edl=main.edl,
        euc=main.euc,
        ced=ced,
        hsic_shuffled=hs_sh,
        hsic_static=hs_st,
        total=total_loss(main.edl, main.euc, ced, weights),
        lambda_t=lambda_t,
        side=side,
    )


def train_step(
    branches: CedBranches,
    x: np.ndarray,
    labels: np.ndarray,
    *,
    weights: LossWeights,
    mode: TrainingMode,
    lambda_t: float,
    use_euc: bool,
    lr: float,
    momentum: float = 0.9,
    weight_decay: float = 1e-4,
    nesterov: bool = False,
    kernel: KernelParams = KernelParams(),
    shuffle_rng: np.random.Generator,
    step_index: int = 0,
    debug: bool = False,
) -> StepRecord:
    """One optimizer step of the full three-branch objective.

    Joint mode updates all parameters in a single step, each side computed
    under its own stop-gradient convention; alternating mode steps only the
    active side's parameters so the frozen side (momentum and weight decay
    included) is untouched on its off-steps.
    """
    side = mode.side(step_index)
    record = accumulate_gradients(
        branches,
        x,
        labels,
        weights=weights,
        lambda_t=lambda_t,
        use_euc=use_euc,
        kernel=kernel,
        shuffle_rng=shuffle_rng,
        side=side,
        debug=debug,
    )
    if side == "joint":
        params = branches.all_parameters()
    elif side == "f":
        params = branches.f_parameters()
    else:
        params = branches.h_parameters()
    sgd_step(params, lr, momentum=momentum, weight_decay=weight_decay, nesterov=nesterov)
    return record


def vanilla_train_step(
    net: EvidentialNet,
    x: np.ndarray,
    labels: np.ndarray,
    *,
    lambda_t: float,
    use_euc: bool,
    weights: LossWeights,
    lr: float,
    momentum: float = 0.9,
    weight_decay: float = 1e-4,
    nesterov: bool = False,
) -> StepRecord:
    """One step without the debiasing branches."""
    one_hot = _one_hot(labels, net.num_classes)
    _, e = net.forward(np.asarray(x, dtype=np.float64))
    edl, euc, grad_e = _f_losses_and_grad_e(one_hot, labels, e, lambda_t, use_euc, weights.w_euc)
    total = total_loss(edl, euc, 0.0, weights)
    net.backward(grad_e)
    sgd_step(net.parameters(), lr, momentum=momentum, weight_decay=weight_decay, nesterov=nesterov)
    return StepRecord(
        edl=edl, euc=euc, ced=0.0, hsic_shuffled=0.0, hsic_static=0.0, total=total, lambda_t=lambda_t, side="f"
    )
