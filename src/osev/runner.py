"""Reproducible training, evaluation and gradient-check runs.

Every run derives independent RNG streams from the config seed (model init,
batch order, temporal shuffles, evaluation selections), so enabling or
disabling one component never perturbs the draws another component sees, and
re-running a config reproduces every output byte for byte.  Timestamps go to
``run.log`` only; no other artifact embeds one.
"""

from __future__ import annotations

import datetime
import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import data as data_mod
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig
from .debias import (
    CedBranches,
    StepRecord,
    TrainingMode,
    accumulate_gradients,
    bias_objective,
    build_branch,
    build_branches,
    ced_forward,
    debias_objective,
    strip_for_inference,
    train_step,
    vanilla_train_step,
)
from .evidential import batch_probs_and_uncertainty, threshold_from_train_scores
from .hsic import KernelParams, hsic_value_and_grad, median_bandwidth
from .losses import (
    AnnealingSchedule,
    BatchPrediction,
    LossWeights,
    NonFiniteLossError,
    annealing_lambda,
    edl_loss_batch,
    euc_loss_grad_evidence,
    softmax_ce_loss,
)
from .metrics import (
    OpenSetRecord,
    confusion_and_top_confusions,
    ece,
    open_maf1_curve,
    open_predictions,
    roc_auc,
    write_score_dump,
)
from .nn import (
    Dense,
    EvidenceHead,
    EvidentialNet,
    NonFiniteGradientError,
    Parameter,
    PointwiseConv,
    ReLU,
    Sequential,
    TemporalConv,
    TemporalMeanPool,
    apply_time_permutations,
    draw_time_permutations,
    gradcheck,
    sgd_step,
)

__all__ = [
    "CheckpointDataMismatch",
    "REPORT_FORMAT",
    "load_model",
    "run_evaluation",
    "run_gradcheck",
    "run_training",
    "score_split",
]

REPORT_FORMAT = "osev-report-v1"

# Stream tags for seed derivation; fixed forever so old runs stay reproducible.
STREAM_INIT_F = 1
STREAM_INIT_H_SHUFFLED = 2
STREAM_INIT_H_STATIC = 3
STREAM_ORDER = 4
STREAM_SHUFFLE = 5
STREAM_EVAL = 6
STREAM_GRADCHECK = 7


class CheckpointDataMismatch(RuntimeError):
    """Checkpoint and dataset disagree on shapes or class counts."""


def derived_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _log(fh, message: str) -> None:
    stamp = datetime.datetime.now().isoformat(timespec="seconds")
    fh.write(f"{stamp} {message}\n")
    fh.flush()


def _float_repr(v: float) -> str:
    return repr(float(v))


def build_model(config: RunConfig, channels: int, num_classes: int):
    """Build the model a config describes, drawing from per-branch streams."""
    rng_f = derived_rng(config.seed, STREAM_INIT_F)
    if config.loss_type == "softmax":
        return build_branch(
            "f",
            channels,
            config.feature_width,
            config.kernel_width,
            num_classes,
            rng_f,
            head="logits",
        )
    if config.use_ced:
        return build_branches(
            channels,
            config.feature_width,
            config.kernel_width,
            num_classes,
            rng_f,
            derived_rng(config.seed, STREAM_INIT_H_SHUFFLED),
            derived_rng(config.seed, STREAM_INIT_H_STATIC),
            evidence=config.evidence,
            exp_bound=config.exp_bound,
        )
    return build_branch(
        "f",
        channels,
        config.feature_width,
        config.kernel_width,
        num_classes,
        rng_f,
        evidence=config.evidence,
        exp_bound=config.exp_bound,
    )


def _batch_slices(perm: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Split a permutation into batches, folding a trailing singleton into
    its predecessor so dependence estimation always sees >= 2 samples."""
    chunks = [perm[i : i + batch_size] for i in range(0, perm.size, batch_size)]
    if len(chunks) > 1 and chunks[-1].size == 1:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


def _kernel_params(config: RunConfig) -> KernelParams:
    return KernelParams(sigma=config.hsic_sigma if config.hsic_sigma > 0.0 else None)


def _softmax_step(net: EvidentialNet, x, labels, *, config: RunConfig, lr: float, lambda_t: float) -> StepRecord:
    one_hot = np.zeros((len(labels), net.num_classes))
    one_hot[np.arange(len(labels)), labels] = 1.0
    _, logits = net.forward(x)
    loss, grad = softmax_ce_loss(one_hot, logits)
    net.backward(grad)
    sgd_step(
        net.parameters(),
        lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
        nesterov=config.nesterov,
    )
    return StepRecord(
        edl=loss, euc=0.0, ced=0.0, hsic_shuffled=0.0, hsic_static=0.0, total=loss, lambda_t=lambda_t, side="f"
    )


def _epoch_lr(config: RunConfig, epoch: int) -> float:
    if config.lr_step_epochs > 0:
        return config.lr * config.lr_step_gamma ** (epoch // int(config.lr_step_epochs))
    return config.lr


def _run_one_step(
    model,
    x: np.ndarray,
    y: np.ndarray,
    config: RunConfig,
    weights: LossWeights,
    mode: TrainingMode,
    kernel: KernelParams,
    lambda_t: float,
    lr: float,
    shuffle_rng: np.random.Generator,
    step_index: int,
) -> StepRecord:
    if config.loss_type == "softmax":
        return _softmax_step(model, x, y, config=config, lr=lr, lambda_t=lambda_t)
    if isinstance(model, CedBranches):
        return train_step(
            model,
            x,
            y,
            weights=weights,
            mode=mode,
            lambda_t=lambda_t,
            use_euc=config.use_euc,
            lr=lr,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
            nesterov=config.nesterov,
            kernel=kernel,
            shuffle_rng=shuffle_rng,
            step_index=step_index,
        )
    return vanilla_train_step(
        model,
        x,
        y,
        lambda_t=lambda_t,
        use_euc=config.use_euc,
        weights=weights,
        lr=lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
        nesterov=config.nesterov,
    )


def run_training(config: RunConfig, out_dir) -> dict:
    """Train per config; writes losses.csv, run.log and two checkpoints.

    Returns {"checkpoint", "checkpoint_full", "losses", "epochs"} with paths.
    """
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec, splits = data_mod.load_dataset(config.dataset)
    train = splits["train"]
    num_classes = spec.known_classes
    if train.labels.max() >= num_classes:
        raise CheckpointDataMismatch(
            f"train split contains label {train.labels.max()} outside the {num_classes} known classes"
        )

    weights = LossWeights(w_euc=config.w_euc, w_ced=config.w_ced, lambda_hsic=config.lambda_hsic)
    kernel = _kernel_params(config)
    mode = TrainingMode(joint=config.ced_mode == "joint", period=config.ced_period)
    model = build_model(config, spec.channels, num_classes)
    schedule = AnnealingSchedule(config.lambda0, max(1, config.epochs - 1))
    order_rng = derived_rng(config.seed, STREAM_ORDER)
    shuffle_rng = derived_rng(config.seed, STREAM_SHUFFLE)

    header = ["epoch", "lambda_t", "edl", "euc", "ced", "hsic_shuffled", "hsic_static", "total"]
    rows = []
    step_index = 0
    with open(out / "run.log", "w", encoding="utf-8") as log:
        _log(log, f"training start: dataset={config.dataset} seed={config.seed} loss={config.loss_type}")
        for epoch in range(config.epochs):
            lambda_t = annealing_lambda(min(epoch, schedule.total_epochs), schedule)
            lr = _epoch_lr(config, epoch)
            records: list[StepRecord] = []
            for idx in _batch_slices(order_rng.permutation(len(train)), config.batch_size):
                x, y = train.x[idx], train.labels[idx]
                try:
                    rec = _run_one_step(
                        model, x, y, config, weights, mode, kernel, lambda_t, lr, shuffle_rng, step_index
                    )
                except (NonFiniteLossError, NonFiniteGradientError) as exc:
                    _log(log, f"non-finite loss at epoch {epoch} step {step_index}: {exc}")
                    raise
                except ValueError as exc:
                    # a diverged run trips input validation ("non-finite logit",
                    # "non-finite values") before any loss is computed; classify
                    # that as divergence, not as a config error
                    if "non-finite" in str(exc):
                        _log(log, f"non-finite loss at epoch {epoch} step {step_index}: {exc}")
                        raise NonFiniteLossError(str(exc)) from exc
                    raise
                records.append(rec)
                step_index += 1
            means = {
                field: float(np.mean([getattr(r, field) for r in records]))
                for field in ("edl", "euc", "ced", "hsic_shuffled", "hsic_static", "total")
            }
            rows.append([float(epoch), lambda_t] + [means[f] for f in header[2:]])
            _log(log, f"epoch {epoch}: total={means['total']:.6f} edl={means['edl']:.6f} lr={lr}")
        _log(log, "training done")

    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join([str(int(row[0]))] + [_float_repr(v) for v in row[1:]]))
    (out / "losses.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    base_meta = {
        "model": config.loss_type,
        "num_classes": num_classes,
        "channels": spec.channels,
        "config": config.to_dict(),
        "dataset_spec": asdict(spec),
    }
    stripped = strip_for_inference(model) if isinstance(model, CedBranches) else model
    full_arrays = (
        [(p.name, p.value) for p in model.all_parameters()]
        if isinstance(model, CedBranches)
        else [(p.name, p.value) for p in model.parameters()]
    )
    save_checkpoint(out / "model_full.ckpt", full_arrays, meta={**base_meta, "stripped": False})
    save_checkpoint(
        out / "model.ckpt",
        [(p.name, p.value) for p in stripped.parameters()],
        meta={**base_meta, "stripped": True},
    )
    return {
        "checkpoint": out / "model.ckpt",
        "checkpoint_full": out / "model_full.ckpt",
        "losses": out / "losses.csv",
        "epochs": config.epochs,
    }


def load_model(checkpoint_path) -> tuple[EvidentialNet, RunConfig, dict]:
    """Rebuild the inference branch from a checkpoint (full or stripped)."""
    arrays, meta = load_checkpoint(checkpoint_path)
    try:
        # older checkpoints store the removed no-op key hsic_center
        config = RunConfig.from_dict({k: v for k, v in meta["config"].items() if k != "hsic_center"})
        channels = int(meta["channels"])
        num_classes = int(meta["num_classes"])
    except (KeyError, ConfigError) as exc:
        raise CheckpointDataMismatch(f"checkpoint metadata unusable: {exc}") from exc
    head = "logits" if config.loss_type == "softmax" else "evidence"
    net = build_branch(
        "f",
        channels,
        config.feature_width,
        config.kernel_width,
        num_classes,
        np.random.default_rng(0),
        evidence=config.evidence,
        exp_bound=config.exp_bound,
        head=head,
    )
    for p in net.parameters():
        if p.name not in arrays:
            raise CheckpointDataMismatch(f"checkpoint is missing parameter {p.name}")
        if arrays[p.name].shape != p.value.shape:
            raise CheckpointDataMismatch(
                f"parameter {p.name} has shape {arrays[p.name].shape}, model expects {p.value.shape}"
            )
        p.assign(arrays[p.name])
    return net, config, meta


def score_split(net: EvidentialNet, config: RunConfig, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Known-class probabilities and rejection score for every sample.

    Evidential models score by the Dirichlet uncertainty mass; the softmax
    baseline scores by one minus the maximum softmax probability.
    """
    _, out = net.forward(np.asarray(x, dtype=np.float64))
    if config.loss_type == "softmax":
        shifted = out - out.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs, 1.0 - probs.max(axis=1)
    probs, u = batch_probs_and_uncertainty(out)
    return probs, u


def _records(probs: np.ndarray, scores: np.ndarray, labels) -> list[OpenSetRecord]:
    return [
        OpenSetRecord(probs=probs[i], score=float(scores[i]), label=int(labels[i]))
        for i in range(probs.shape[0])
    ]


def _augmented_confidence(records, preds) -> np.ndarray:
    """Confidence of the (K+1)-way prediction under the distribution that
    assigns mass score to "unknown" and (1 - score) * p_k to each known class."""
    conf = np.empty(len(records))
    for i, (r, pred) in enumerate(zip(records, preds)):
        conf[i] = r.score if pred == r.num_known else float(r.probs[pred]) * (1.0 - r.score)
    return conf


def run_evaluation(
    checkpoint_path,
    data_dir,
    out_dir,
    *,
    coverage: float | None = None,
    ece_bins: int | None = None,
    num_selections: int | None = None,
    seed: int | None = None,
    avu_threshold: float | None = None,
) -> dict:
    """Score all test splits against a checkpoint and write the report.

    Writes report.json, curve.csv, scores.jsonl (biased known test plus the
    unknown pool) and scores_unbiased.jsonl into ``out_dir``; returns the
    report dict.  Raises :class:`CheckpointDataMismatch` when the checkpoint
    and dataset disagree.
    """
    net, config, meta = load_model(checkpoint_path)
    spec, splits = data_mod.load_dataset(data_dir)
    if net.num_classes != spec.known_classes:
        raise CheckpointDataMismatch(
            f"checkpoint has {net.num_classes} classes, dataset has {spec.known_classes} known classes"
        )
    if int(meta["channels"]) != spec.channels:
        raise CheckpointDataMismatch(
            f"checkpoint expects {meta['channels']} channels, dataset has {spec.channels}"
        )
    coverage = config.coverage if coverage is None else coverage
    ece_bins = config.ece_bins if ece_bins is None else ece_bins
    num_selections = config.num_selections if num_selections is None else num_selections
    seed = config.seed if seed is None else seed
    avu_threshold = config.avu_threshold if avu_threshold is None else avu_threshold

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    k = spec.known_classes

    _, train_scores = score_split(net, config, splits["train"].x)
    tau = threshold_from_train_scores(train_scores, coverage)

    probs_b, scores_b = score_split(net, config, splits["test_biased"].x)
    probs_u, scores_u = score_split(net, config, splits["test_unbiased"].x)
    probs_unk, scores_unk = score_split(net, config, splits["test_unknown"].x)

    rec_biased = _records(probs_b, scores_b, splits["test_biased"].labels)
    rec_unbiased = _records(probs_u, scores_u, splits["test_unbiased"].labels)
    rec_unknown = _records(probs_unk, scores_unk, np.full(len(splits["test_unknown"]), k))
    unknown_by_class: dict[int, list[OpenSetRecord]] = {}
    for rec, cls in zip(rec_unknown, splits["test_unknown"].labels):
        unknown_by_class.setdefault(int(cls), []).append(rec)

    closed_biased = float(np.mean(np.argmax(probs_b, axis=1) == splits["test_biased"].labels))
    closed_unbiased = float(np.mean(np.argmax(probs_u, axis=1) == splits["test_unbiased"].labels))
    auc = roc_auc(scores_b, scores_unk)
    points, maf1_scalar, maf1_std, note = open_maf1_curve(
        rec_biased, unknown_by_class, tau, num_selections=num_selections, seed=seed
    )

    all_records = rec_biased + rec_unknown
    all_labels = np.asarray([r.label for r in all_records])
    preds_all = open_predictions(all_records, tau)
    unknown_ids = [None] * len(rec_biased) + [int(c) for c in splits["test_unknown"].labels]
    matrix, top = confusion_and_top_confusions(preds_all, all_labels, k, unknown_ids)

    correct_closed = np.argmax(probs_b, axis=1) == splits["test_biased"].labels
    ece_closed = ece(probs_b.max(axis=1), correct_closed.astype(float), ece_bins)
    is_unknown = all_labels == k
    pred_unknown = np.asarray([r.score > tau for r in all_records])
    conf_two_way = np.where(pred_unknown, [r.score for r in all_records], [1.0 - r.score for r in all_records])
    ece_open2 = ece(conf_two_way, (pred_unknown == is_unknown).astype(float), ece_bins)
    conf_k1 = _augmented_confidence(all_records, preds_all)
    ece_open_k1 = ece(conf_k1, (preds_all == all_labels).astype(float), ece_bins)

    thr = float(avu_threshold) if avu_threshold > 0.0 else float(np.median(scores_b))
    certain = scores_b < thr
    avu = float(np.mean((correct_closed & certain) | (~correct_closed & ~certain)))

    report = {
        "format": REPORT_FORMAT,
        "seed": int(seed),
        "config": config.to_dict(),
        "num_known_classes": int(k),
        "num_unknown_classes": int(spec.unknown_classes),
        "threshold": float(tau),
        "coverage": float(coverage),
        "train_known_fraction": float(np.mean(train_scores <= tau)),
        "closed_accuracy": {"biased": closed_biased, "unbiased": closed_unbiased},
        "open_auc": float(auc),
        "open_maf1": {
            "scalar": maf1_scalar,
            "scalar_std": maf1_std,
            "note": note,
            "points": [
                {
                    "num_unknown": pt.num_unknown,
                    "omega": pt.omega,
                    "f1_mean": pt.f1_mean,
                    "f1_std": pt.f1_std,
                }
                for pt in points
            ],
        },
        "ece": {"closed": ece_closed, "open_two_way": ece_open2, "open_k_plus_one": ece_open_k1},
        "avu": {"value": avu, "threshold": thr},
        "confusion": {
            "matrix": [[float(v) for v in row] for row in matrix],
            "top_confusions": top,
        },
    }
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    curve_lines = ["i,omega,f1_mean,f1_std"]
    for pt in points:
        curve_lines.append(
            f"{pt.num_unknown},{_float_repr(pt.omega)},{_float_repr(pt.f1_mean)},{_float_repr(pt.f1_std)}"
        )
    (out / "curve.csv").write_text("\n".join(curve_lines) + "\n", encoding="utf-8")
    write_score_dump(out / "scores.jsonl", all_records)
    write_score_dump(out / "scores_unbiased.jsonl", rec_unbiased)
    return report


def _zero_grads(params) -> None:
    for p in params:
        p.zero_grad()


def _quadratic_layer_check(layer, x: np.ndarray, eps: float) -> float:
    """Max relative FD error under the loss 0.5 * sum(out^2).

    The upstream gradient of that loss is the output itself, so one forward
    feeds one backward directly.
    """
    params = layer.parameters()
    _zero_grads(params)
    out = layer.forward(x)
    layer.backward(out.copy())
    report = gradcheck(lambda: float(0.5 * np.sum(layer.forward(x) ** 2)), params, eps=eps)
    return report.max_rel_err


#: Finite differences are invalid within eps of a kink (a ReLU zero crossing,
#: an evidence clamp boundary, or an argmax flip that moves a sample between
#: the accurate and inaccurate calibration subsets).  Random instances whose
#: nearest kink sits inside this margin are redrawn; the analytic gradient is
#: correct there, the two-sided difference is not.
KINK_MARGIN = 2e-4


def _logit_kink_distance(logits: np.ndarray, kind: str, bound: float) -> float:
    if kind == "relu":
        return float(np.abs(logits).min())
    if kind == "exp":
        return float(bound - np.abs(logits).max())
    return np.inf


def _top2_gap(probs: np.ndarray) -> float:
    ordered = np.sort(probs, axis=1)
    return float((ordered[:, -1] - ordered[:, -2]).min())


def _branch_kink_distance(branches: CedBranches, x: np.ndarray, perms: np.ndarray, kind: str, bound: float) -> float:
    """Distance of the nearest non-smooth point across all three branches."""
    x_shuffled = apply_time_permutations(x, perms)
    dist = np.inf
    for branch, inp in (
        (branches.f_branch, x),
        (branches.h_shuffled, x_shuffled),
        (branches.h_static, x),
    ):
        _, e = branch.forward(inp)
        dist = min(dist, float(np.abs(branch.backbone.layers[0].forward(inp)).min()))
        dist = min(dist, _logit_kink_distance(branch.head._logits, kind, bound))
        dist = min(dist, _top2_gap(batch_probs_and_uncertainty(e)[0]))
    return dist


def run_gradcheck(
    config: RunConfig, eps: float = 1e-5, tol: float = 1e-4, instances: int = 20
) -> tuple[list[dict], bool]:
    """Finite-difference audit of every analytic gradient the trainer uses.

    Each named check redraws ``instances`` random problems and keeps the worst
    relative error.  Layers are checked under a quadratic loss; the losses are
    checked down to evidence; the two debiasing objectives are checked per
    side, once through their own gradients and once through the composed
    training step at the training weights, because each side's update is the
    gradient of its own objective with the other side's features held
    constant (there is no single scalar both updates descend).  Kernel
    bandwidths and shuffle permutations are frozen during differencing, which
    is exactly how the training step treats them.  Returns (entries, ok).
    """
    config.validate()
    spec, _ = data_mod.load_dataset(config.dataset)
    rng = derived_rng(config.seed, STREAM_GRADCHECK)
    channels, timesteps, k = spec.channels, spec.timesteps, spec.known_classes
    batch = 8
    lam_t = 0.4
    entries: list[dict] = []

    def add(name: str, one_instance) -> None:
        worst = 0.0
        for _ in range(instances):
            worst = max(worst, one_instance())
        entries.append({"check": name, "max_rel_err": worst})

    def draw_input() -> np.ndarray:
        return rng.standard_normal((batch, channels, timesteps))

    def draw_labels() -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, k, size=batch)
        one_hot = np.zeros((batch, k))
        one_hot[np.arange(batch), labels] = 1.0
        return labels, one_hot

    add(
        "layer.temporal_conv",
        lambda: _quadratic_layer_check(TemporalConv(channels, 5, config.kernel_width, rng), draw_input(), eps),
    )
    add(
        "layer.pointwise_conv",
        lambda: _quadratic_layer_check(PointwiseConv(channels, 5, rng), draw_input(), eps),
    )
    add(
        "layer.dense",
        lambda: _quadratic_layer_check(Dense(7, 4, rng), rng.standard_normal((batch, 7)), eps),
    )
    add(
        "layer.evidence_head",
        lambda: _quadratic_layer_check(
            EvidenceHead(6, k, rng, kind=config.evidence, exp_bound=config.exp_bound),
            rng.standard_normal((batch, 6)),
            eps,
        ),
    )
    def backbone_chain_instance() -> float:
        while True:
            seq = Sequential(
                [TemporalConv(channels, 6, config.kernel_width, rng), ReLU(), TemporalMeanPool(), Dense(6, k, rng)]
            )
            x = draw_input()
            if float(np.abs(seq.layers[0].forward(x)).min()) > KINK_MARGIN:
                return _quadratic_layer_check(seq, x, eps)

    add("layer.backbone_chain", backbone_chain_instance)

    def edl_instance() -> float:
        _, one_hot = draw_labels()
        e = Parameter("edl.evidence", rng.uniform(0.5, 4.0, size=(batch, k)))
        _, grads = edl_loss_batch(one_hot, e.value)
        e.grad += grads / batch
        rep = gradcheck(lambda: float(edl_loss_batch(one_hot, e.value)[0].mean()), [e], eps=eps)
        return rep.max_rel_err

    add("loss.edl", edl_instance)

    def euc_instance() -> float:
        while True:
            labels, _ = draw_labels()
            e = Parameter("euc.evidence", rng.uniform(0.5, 4.0, size=(batch, k)))
            if _top2_gap(batch_probs_and_uncertainty(e.value)[0]) > KINK_MARGIN:
                break
        _, grad_e = euc_loss_grad_evidence(BatchPrediction.from_evidence(labels, e.value), lam_t)
        e.grad += grad_e
        rep = gradcheck(
            lambda: euc_loss_grad_evidence(BatchPrediction.from_evidence(labels, e.value), lam_t)[0],
            [e],
            eps=eps,
        )
        return rep.max_rel_err

    add("loss.euc", euc_instance)

    def hsic_instance() -> float:
        x = Parameter("hsic.x", rng.standard_normal((batch, 3)))
        y = rng.standard_normal((batch, 3))
        frozen = KernelParams(sigma=median_bandwidth(x.value))
        _, grad_x = hsic_value_and_grad(x.value, y, frozen)
        x.grad += grad_x
        rep = gradcheck(lambda: hsic_value_and_grad(x.value, y, frozen)[0], [x], eps=eps)
        return rep.max_rel_err

    add("loss.hsic", hsic_instance)

    lam = config.lambda_hsic if config.lambda_hsic > 0.0 else 1.0
    w_ced = config.w_ced if config.w_ced > 0.0 else 0.1
    weights = LossWeights(w_euc=config.w_euc, w_ced=w_ced, lambda_hsic=lam)
    objective_weights = LossWeights(w_euc=0.0, w_ced=1.0, lambda_hsic=lam)
    sigma = KernelParams(sigma=1.0)

    def fresh_instance() -> tuple[CedBranches, np.ndarray, np.ndarray, np.ndarray]:
        """Branches, input, labels and shuffle clear of every kink."""
        while True:
            branches = build_branches(
                channels,
                config.feature_width,
                config.kernel_width,
                k,
                rng,
                rng,
                rng,
                evidence=config.evidence,
                exp_bound=config.exp_bound,
            )
            x = draw_input()
            labels, _ = draw_labels()
            perms = draw_time_permutations(rng, batch, timesteps)
            if _branch_kink_distance(branches, x, perms, config.evidence, config.exp_bound) > KINK_MARGIN:
                return branches, x, labels, perms

    def side_instance(objective, parameters_of, weights: LossWeights, step_side: str | None, **options) -> float:
        """FD check of one side's objective against that side's parameters.

        The analytic gradient comes from the objective itself or, given
        ``step_side``, from the training step restricted to that side.
        """
        branches, x, labels, perms = fresh_instance()
        _zero_grads(branches.all_parameters())

        def loss(apply_grads: bool) -> float:
            fwd = ced_forward(branches, x, perms=perms)
            return objective(branches, fwd, labels, weights, sigma, apply_grads=apply_grads, **options).loss

        if step_side is None:
            loss(True)
        else:
            accumulate_gradients(
                branches, x, labels, weights=weights, lambda_t=lam_t, use_euc=True, kernel=sigma, perms=perms,
                side=step_side,
            )
        return gradcheck(lambda: loss(False), parameters_of(branches), eps=eps).max_rel_err

    f_params, h_params = CedBranches.f_parameters, CedBranches.h_parameters
    add("objective.debias", lambda: side_instance(debias_objective, f_params, objective_weights, None))
    add("objective.bias", lambda: side_instance(bias_objective, h_params, objective_weights, None))
    add(
        "composed.main_side",
        lambda: side_instance(debias_objective, f_params, weights, "f", lambda_t=lam_t, use_euc=True),
    )
    add("composed.biased_side", lambda: side_instance(bias_objective, h_params, weights, "h"))

    ok = all(entry["max_rel_err"] < tol for entry in entries)
    return entries, ok
