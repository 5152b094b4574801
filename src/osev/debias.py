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
are treated as constants (stop-gradient).  Each loss is written once, as one
formula over per-branch terms.  ``debias_objective`` and ``bias_objective``
compose those terms with their gradients, and the training step calls both;
``branch_losses`` composes the same terms for the finite-difference audit,
with the held branches' parts, and each branch's own HSIC terms for its head
parameters, computed once.  At inference the biased branches are dropped
entirely.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .evidential import EvidenceFunction, _probs_and_uncertainty
from .hsic import KernelParams, _hsic_values, centered_gram, hsic_value_and_grad, hsic_values
from .losses import (
    LossWeights,
    _edl_loss,
    _euc_loss,
    _validate_labels,
    edl_loss_batch,
    euc_loss_grad_evidence,
    total_loss,
)
from .nn import (
    Dense,
    EvidenceHead,
    EvidentialNet,
    Parameter,
    apply_time_permutations,
    build_feature_net,
    draw_time_permutations,
)

__all__ = [
    "CedBranches",
    "CedForward",
    "StepRecord",
    "TrainingMode",
    "accumulate_gradients",
    "bias_objective",
    "branch_losses",
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

    def parameters(self, side: str = "joint") -> list[Parameter]:
        """The parameters one side updates: "f", "h" or "joint" for both.

        Always in the order f, h_shuffled, h_static, so a rejected step names
        the same first bad parameter whichever side is stepped.
        """
        if side not in ("joint", "f", "h"):
            raise ValueError(f"side must be joint, f or h, got {side!r}")
        f = self.f_branch.parameters() if side != "h" else []
        h = self.h_shuffled.parameters() + self.h_static.parameters() if side != "f" else []
        return f + h


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


def _hsic(x, y, kernel: KernelParams, with_grad: bool) -> tuple[float, np.ndarray | None]:
    """HSIC(x, y) and its gradient in x; the gradient is None when nothing reads it."""
    if with_grad:
        return hsic_value_and_grad(x, y, kernel)
    return hsic_values(x, [centered_gram(y, kernel)], kernel)[0], None


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
    computed; their gradient only when it is applied.  With w_ced * lam = 0
    it is skipped, not multiplied by zero, so the main branch's gradient
    equals the plain run's bit for bit.
    """
    edl, euc, grad_e = _f_losses_and_grad_e(labels, fwd.e_f, lambda_t, use_euc, weights.w_euc)
    coeff = weights.w_ced * weights.lambda_hsic
    with_grad = apply_grads and coeff != 0.0
    hs_sh, g_sh = _hsic(fwd.f, fwd.h_shuffled, kernel, with_grad)
    hs_st, g_st = _hsic(fwd.f, fwd.h_static, kernel, with_grad)
    if apply_grads:
        extra = coeff * (g_sh + g_st) if with_grad else None
        branches.f_branch.backward(grad_e, extra_feature_grad=extra)
    return DebiasResult(
        loss=_debias_loss(edl, euc, hs_sh, hs_st, weights),
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
    gradient is skipped when it is not applied or w_ced * lam = 0.
    """
    b = fwd.x.shape[0]
    coeff = weights.w_ced * weights.lambda_hsic
    with_grad = apply_grads and coeff != 0.0
    terms = []
    for branch, feats, ev in (
        (branches.h_shuffled, fwd.h_shuffled, fwd.e_shuffled),
        (branches.h_static, fwd.h_static, fwd.e_static),
    ):
        edl, grads_e = _edl_term(labels, ev)
        hs, g_h = _hsic(feats, fwd.f, kernel, with_grad)
        if apply_grads:
            extra = -coeff * g_h if with_grad else None
            branch.backward(weights.w_ced * grads_e / b, extra_feature_grad=extra)
        terms.append((edl, hs))
    (edl_sh, hs_sh), (edl_st, hs_st) = terms
    return BiasResult(
        loss=_bias_loss(*terms, weights),
        edl_shuffled=edl_sh,
        edl_static=edl_st,
        hsic_shuffled=hs_sh,
        hsic_static=hs_st,
    )


def _debias_loss(edl: float, euc: float, hsic_shuffled: float, hsic_static: float, weights: LossWeights) -> float:
    """The main side's loss from its terms: L_cls + w_euc * L_cal + w_ced * lam * sum_h HSIC(f, h)."""
    return edl + weights.w_euc * euc + weights.w_ced * weights.lambda_hsic * (hsic_shuffled + hsic_static)


def _bias_loss(shuffled: tuple[float, float], static: tuple[float, float], weights: LossWeights) -> float:
    """The biased side's loss from each branch's (L_cls, HSIC) term: w_ced * sum_h [L_cls - lam * HSIC(h, f)]."""
    lam = weights.lambda_hsic
    return weights.w_ced * ((shuffled[0] - lam * shuffled[1]) + (static[0] - lam * static[1]))


def _edl_term(labels: np.ndarray, evidence: np.ndarray) -> tuple[float, np.ndarray]:
    """A branch's mean classification loss and its per-sample evidence gradients."""
    losses, grads_e = edl_loss_batch(labels, evidence)
    return float(losses.mean()), grads_e


def branch_losses(
    side: str,
    fwd: CedForward,
    labels: np.ndarray,
    weights: LossWeights,
    kernel: KernelParams,
    *,
    lambda_t: float = 0.0,
    use_euc: bool = False,
) -> dict[str, tuple[Callable[[np.ndarray, np.ndarray], float], Callable[[np.ndarray], float]]]:
    """One side's objective loss as a function of one branch's output.

    Side "f" maps "f" to the loss of :func:`debias_objective`; side "h" maps
    "h_shuffled" and "h_static" to that of :func:`bias_objective` (which takes
    no ``lambda_t`` or ``use_euc``).  Each name maps to a pair: the loss as a
    function of the branch's (features, evidence), and the loss as a function
    of its evidence alone, with its features held at ``fwd`` (all that a head
    parameter can change).  Every other branch is held at ``fwd``, and what is
    held is computed here once: the held branches' centred Grams (M(h_shuffled)
    and M(h_static) for "f", M(f) for "h"), each branch's own HSIC values at
    its features in ``fwd``, which the evidence-only loss reads instead of
    recomputing them, and, for "h", each biased branch's (L_cls, HSIC) term for
    the other's loss.  The labels are checked once, here, with
    :func:`~osev.losses.edl_loss_batch`'s messages; a call takes the features
    and evidence of the branch's own forward as valid, computes only the given
    branch's own term, values only, through the formulas the objectives
    differentiate, and returns the objective's loss bit for bit.
    """
    if side not in ("f", "h"):
        raise ValueError(f"side must be f or h, got {side!r}")
    y = _validate_labels(labels, *fwd.e_f.shape)

    def edl(evidence: np.ndarray) -> float:
        losses = _edl_loss(y, evidence, with_grad=False)[0]
        return float(np.add.reduce(losses) / losses.size)

    if side == "f":
        held = [centered_gram(fwd.h_shuffled, kernel), centered_gram(fwd.h_static, kernel)]

        def main_loss(hsic_pair: list[float], evidence: np.ndarray) -> float:
            euc = 0.0
            if use_euc:
                euc = _euc_loss(y, evidence, *_probs_and_uncertainty(evidence), lambda_t, with_grad=False)[0]
            return _debias_loss(edl(evidence), euc, *hsic_pair, weights)

        at_fwd = _hsic_values(fwd.f, held, kernel)
        return {
            "f": (
                lambda feats, evidence: main_loss(_hsic_values(feats, held, kernel), evidence),
                lambda evidence: main_loss(at_fwd, evidence),
            )
        }
    held_f = [centered_gram(fwd.f, kernel)]

    def hsic(feats: np.ndarray) -> float:
        return _hsic_values(feats, held_f, kernel)[0]

    hs_sh, hs_st = hsic(fwd.h_shuffled), hsic(fwd.h_static)
    shuffled, static = (edl(fwd.e_shuffled), hs_sh), (edl(fwd.e_static), hs_st)
    return {
        "h_shuffled": (
            lambda feats, evidence: _bias_loss((edl(evidence), hsic(feats)), static, weights),
            lambda evidence: _bias_loss((edl(evidence), hs_sh), static, weights),
        ),
        "h_static": (
            lambda feats, evidence: _bias_loss(shuffled, (edl(evidence), hsic(feats)), weights),
            lambda evidence: _bias_loss(shuffled, (edl(evidence), hs_st), weights),
        ),
    }


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
    total: float
    side: str
    ced: float = 0.0
    hsic_shuffled: float = 0.0
    hsic_static: float = 0.0


def _f_losses_and_grad_e(
    labels: np.ndarray,
    evidence: np.ndarray,
    lambda_t: float,
    use_euc: bool,
    w_euc: float,
) -> tuple[float, float, np.ndarray]:
    """Mean classification loss, calibration loss, and d(total)/d(evidence)."""
    edl, grads = _edl_term(labels, evidence)
    grad_e = grads / grads.shape[0]
    euc = 0.0
    if use_euc:
        euc, grad_e_euc = euc_loss_grad_evidence(labels, evidence, lambda_t)
        grad_e = grad_e + w_euc * grad_e_euc
    return edl, euc, grad_e


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
    _validate_labels(labels, len(x), branches.num_classes)  # reject bad labels before the forward pass
    fwd = ced_forward(branches, x, rng=shuffle_rng, perms=perms)
    apply_f = side in ("joint", "f")
    apply_h = side in ("joint", "h")

    main = debias_objective(
        branches, fwd, labels, weights, kernel, lambda_t=lambda_t, use_euc=use_euc, apply_grads=apply_f
    )
    biased = bias_objective(branches, fwd, labels, weights, kernel, apply_grads=apply_h)

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
    kernel: KernelParams = KernelParams(),
    shuffle_rng: np.random.Generator,
    step_index: int = 0,
) -> tuple[StepRecord, list[Parameter]]:
    """Accumulate one batch's gradients of the full three-branch objective.

    Returns the record and the parameters of the side this step updates:
    all of them in joint mode, each side computed under its own stop-gradient
    convention; only the active side's in alternating mode, so the frozen
    side (momentum and weight decay included) is untouched on its off-steps.
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
    )
    return record, branches.parameters(side)


def vanilla_train_step(
    net: EvidentialNet,
    x: np.ndarray,
    labels: np.ndarray,
    *,
    lambda_t: float,
    use_euc: bool,
    weights: LossWeights,
) -> tuple[StepRecord, list[Parameter]]:
    """Accumulate one batch's gradients without the debiasing branches."""
    _, e = net.forward(np.asarray(x, dtype=np.float64))
    edl, euc, grad_e = _f_losses_and_grad_e(labels, e, lambda_t, use_euc, weights.w_euc)
    net.backward(grad_e)
    return StepRecord(edl=edl, euc=euc, total=total_loss(edl, euc, 0.0, weights), side="f"), net.parameters()
