"""Reproducible training, evaluation and gradient-check runs.

Every run derives independent RNG streams from the config seed (model init,
batch order, temporal shuffles, evaluation selections), so enabling or
disabling one component never perturbs the draws another component sees, and
re-running a config reproduces every output byte for byte.  Timestamps go to
``run.log`` and phase durations to evaluation's ``timings.json`` only; no
other artifact embeds either.
"""

from __future__ import annotations

import datetime
import json
import math
import os
import pickle
import signal
import threading
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import data as data_mod
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ConfigError, RunConfig
from .debias import (
    CedBranches,
    CedForward,
    StepRecord,
    TrainingMode,
    accumulate_gradients,
    bias_objective,
    branch_losses,
    build_branch,
    build_branches,
    ced_forward,
    debias_objective,
    strip_for_inference,
    train_step,
    vanilla_train_step,
)
from .evidential import NonFiniteInputError, batch_probs_and_uncertainty, threshold_from_train_scores
from .hsic import KernelParams, centered_gram, hsic_value_and_grad, hsic_values, median_bandwidth
from .losses import (
    AnnealingSchedule,
    LossWeights,
    NonFiniteLossError,
    annealing_lambda,
    edl_loss_batch,
    euc_loss_grad_evidence,
    softmax_ce_loss,
)
from .metrics import (
    avu,
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
    GradcheckReport,
    NonFiniteGradientError,
    Parameter,
    ReLU,
    Sequential,
    TemporalConv,
    TemporalMeanPool,
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
# The files run_evaluation writes beside the report, in the order it writes them.
_EVAL_SIBLINGS = ("curve.csv", "scores.jsonl", "scores_unbiased.jsonl", "timings.json")

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


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _outcome(job):
    """``job()``, or the exception it raised."""
    try:
        return job()
    except Exception as exc:  # noqa: BLE001 - handed to the caller in the job's place
        return exc


def _run_jobs(jobs) -> list:
    """Run independent zero-argument jobs; returns each one's result, or the exception it raised, in job order.

    Job *i* runs on worker *i* mod *W*, where *W* is the number of usable CPUs
    (at most one per job) and worker 0 is this process; the others are forked
    children.  It forks only with two or more workers, ``os.fork`` and no other
    thread, since forking a threaded process is unsafe; otherwise every job
    runs here, in order.  A job must not depend on what another job changes,
    and must not return an exception, so both ways give the same outcomes.
    A child pickles its outcomes down a pipe and leaves by ``os._exit``; each
    job of a child whose report does not arrive whole becomes a
    :class:`ChildProcessError` naming the job.  Each pipe is read to EOF and
    each child reaped before this returns; if this process raises first, the
    children are killed.
    """
    jobs = list(jobs)
    workers = min(_usable_cpus(), len(jobs))
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [_outcome(job) for job in jobs]
    outcomes = [None] * len(jobs)
    children = []  # (worker, pid, read end of its pipe)
    payloads = None
    try:
        for worker in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    os.close(read_fd)
                    payload = pickle.dumps([_outcome(job) for job in jobs[worker::workers]])
                    with open(write_fd, "wb") as pipe:
                        pipe.write(payload)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((worker, pid, open(read_fd, "rb")))
        outcomes[::workers] = [_outcome(job) for job in jobs[::workers]]
        payloads = [pipe.read() for _, _, pipe in children]
    finally:
        statuses = []
        for _, pid, pipe in children:
            pipe.close()
            if payloads is None:  # this process raised: no child's work is wanted
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
    for (worker, _, _), payload, status in zip(children, payloads, statuses):
        try:
            outcomes[worker::workers] = pickle.loads(payload)
        except Exception:  # noqa: BLE001 - empty, cut short, or holding what will not unpickle
            outcomes[worker::workers] = [
                ChildProcessError(f"job {i}: its worker process exited with code {status} without reporting")
                for i in range(worker, len(jobs), workers)
            ]
    return outcomes


def build_model(config: RunConfig, channels: int, num_classes: int):
    """Build the model a config describes, drawing from per-branch streams."""
    rng_f = derived_rng(config.seed, STREAM_INIT_F)
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
        head="logits" if config.loss_type == "softmax" else "evidence",
    )


def _batch_slices(perm: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """Split a permutation into batches, folding a trailing singleton into
    its predecessor so dependence estimation always sees >= 2 samples."""
    chunks = [perm[i : i + batch_size] for i in range(0, perm.size, batch_size)]
    if len(chunks) > 1 and chunks[-1].size == 1:
        chunks[-2] = np.concatenate([chunks[-2], chunks[-1]])
        chunks.pop()
    return chunks


def _softmax_step(net: EvidentialNet, x, labels) -> tuple[StepRecord, list[Parameter]]:
    _, logits = net.forward(x)
    loss, grad = softmax_ce_loss(labels, logits)
    net.backward(grad)
    return StepRecord(edl=loss, euc=0.0, total=loss, side="f"), net.parameters()


def _epoch_lr(config: RunConfig, epoch: int) -> float:
    if config.lr_step_epochs > 0:
        return config.lr * config.lr_step_gamma ** (epoch // int(config.lr_step_epochs))
    return config.lr


def _step_function(config: RunConfig, model, shuffle_rng: np.random.Generator):
    """The step that accumulates one batch's gradients for the model :func:`build_model` builds.

    Returns ``step(x, labels, lambda_t, step_index) -> (record, params)``.
    Each call looks the step function up among this module's globals, so a
    rebound name (``benchmarks/spans.py`` traces them that way) takes effect.
    """
    if config.loss_type == "softmax":
        return lambda x, labels, lambda_t, step_index: _softmax_step(model, x, labels)
    weights = LossWeights(w_euc=config.w_euc, w_ced=config.w_ced, lambda_hsic=config.lambda_hsic)
    if config.use_ced:
        mode = TrainingMode(joint=config.ced_mode == "joint", period=config.ced_period)
        kernel = KernelParams(sigma=config.hsic_sigma if config.hsic_sigma > 0.0 else None)
        return lambda x, labels, lambda_t, step_index: train_step(
            model,
            x,
            labels,
            weights=weights,
            mode=mode,
            lambda_t=lambda_t,
            use_euc=config.use_euc,
            kernel=kernel,
            shuffle_rng=shuffle_rng,
            step_index=step_index,
        )
    return lambda x, labels, lambda_t, step_index: vanilla_train_step(
        model, x, labels, lambda_t=lambda_t, use_euc=config.use_euc, weights=weights
    )


def run_training(config: RunConfig, out_dir) -> dict:
    """Train per config; writes losses.csv, run.log and two checkpoints.

    Returns {"checkpoint", "checkpoint_full", "losses", "epochs"} with paths.
    """
    config.validate()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    spec, splits = data_mod.load_dataset(config.dataset, names=("train",))
    train = splits["train"]
    num_classes = spec.known_classes

    model = build_model(config, spec.channels, num_classes)
    schedule = AnnealingSchedule(config.lambda0, max(1, config.epochs - 1))
    order_rng = derived_rng(config.seed, STREAM_ORDER)
    step = _step_function(config, model, derived_rng(config.seed, STREAM_SHUFFLE))

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
                    rec, params = step(x, y, lambda_t, step_index)
                    sgd_step(
                        params,
                        lr,
                        momentum=config.momentum,
                        weight_decay=config.weight_decay,
                        nesterov=config.nesterov,
                    )
                except (NonFiniteLossError, NonFiniteGradientError) as exc:
                    _log(log, f"non-finite loss at epoch {epoch} step {step_index}: {exc}")
                    raise
                except NonFiniteInputError as exc:
                    # a diverged run trips input validation before any loss is
                    # computed; classify that as divergence, not as a config error
                    _log(log, f"non-finite loss at epoch {epoch} step {step_index}: {exc}")
                    raise NonFiniteLossError(str(exc)) from exc
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
    save_checkpoint(
        out / "model_full.ckpt",
        [(p.name, p.value) for p in model.parameters()],
        meta={**base_meta, "stripped": False},
    )
    save_checkpoint(
        out / "model.ckpt",
        [(p.name, p.value) for p in strip_for_inference(model).parameters()],
        meta={**base_meta, "stripped": True},
    )
    return {
        "checkpoint": out / "model.ckpt",
        "checkpoint_full": out / "model_full.ckpt",
        "losses": out / "losses.csv",
        "epochs": config.epochs,
    }


def load_model(checkpoint_path) -> tuple[EvidentialNet, RunConfig, dict]:
    """Rebuild the inference branch from a checkpoint (full or stripped).

    The metadata's ``channels`` and ``num_classes`` must be JSON integers >= 1;
    anything else raises :class:`CheckpointDataMismatch` naming the key.
    """
    arrays, meta = load_checkpoint(checkpoint_path)
    try:
        raw = meta["config"]
        # older checkpoints store the removed no-op key hsic_center
        if isinstance(raw, dict):
            raw = {k: v for k, v in raw.items() if k != "hsic_center"}
        config = RunConfig.from_dict(raw)
        channels, num_classes = meta["channels"], meta["num_classes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointDataMismatch(f"checkpoint metadata unusable: {exc}") from exc
    for key, value in (("channels", channels), ("num_classes", num_classes)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise CheckpointDataMismatch(f"checkpoint metadata unusable: {key} must be an integer >= 1, got {value!r}")
    net = strip_for_inference(build_model(config, channels, num_classes))
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


def _median(values: np.ndarray) -> float:
    """np.median of a non-empty array of finite values, bit for bit.

    np.median's first call in a process imports numpy.ma, which costs more
    than the rest of an evaluation's metrics.  This takes the same steps: a
    partition at np.median's points, its NaN probe at -1 included (other
    points may leave a different one of two equal values, such as 0.0 and
    -0.0, in the middle), then the mean of the middle one or two values as
    ndarray.mean computes it (its sum turns -0.0 into 0.0).
    """
    half, odd = divmod(values.size, 2)
    kth = (half, -1) if odd else (half - 1, half, -1)
    middle = np.partition(values, kth)[half - 1 + odd : half + 1]
    return float(np.add.reduce(middle) / middle.size)


def run_evaluation(
    checkpoint_path,
    data_dir,
    report_path,
    *,
    coverage: float | None = None,
    ece_bins: int | None = None,
    num_selections: int | None = None,
    seed: int | None = None,
    avu_threshold: float | None = None,
) -> dict:
    """Score all test splits against a checkpoint and write the report.

    Writes the report JSON to ``report_path`` and four siblings in its
    directory: curve.csv, scores.jsonl (biased known test plus the unknown
    pool), scores_unbiased.jsonl and timings.json, the wall seconds of each
    phase (``load_s``, ``score_s``, ``metrics_s``, ``write_s``), which is not
    deterministic and appears in no other output.  No other file is written,
    so a ``report.json`` beside a report of another name keeps its bytes.
    Returns the report dict.  A ``report_path`` named like a sibling raises
    :class:`ConfigError` before anything is read or written.  An override
    left None keeps the checkpoint config's value; one that breaks that key's
    rule raises :class:`ConfigError`.  Raises :class:`CheckpointDataMismatch`
    when the checkpoint and dataset disagree.
    """
    start = time.perf_counter()
    report_path = Path(report_path)
    if report_path.name in _EVAL_SIBLINGS:
        raise ConfigError(
            f"report path {report_path} would be overwritten by the eval file of that name; "
            f"the report may not be named {', '.join(_EVAL_SIBLINGS)}"
        )
    net, config, meta = load_model(checkpoint_path)
    overrides = {
        "coverage": coverage,
        "ece_bins": ece_bins,
        "num_selections": num_selections,
        "seed": seed,
        "avu_threshold": avu_threshold,
    }
    # overrides obey the config keys' rules; the report keeps the checkpoint's config
    chosen = replace(config, **{key: value for key, value in overrides.items() if value is not None})
    chosen.validate()
    coverage, ece_bins, num_selections = chosen.coverage, chosen.ece_bins, chosen.num_selections
    seed, avu_threshold = chosen.seed, chosen.avu_threshold
    spec, splits = data_mod.load_dataset(data_dir)
    if net.num_classes != spec.known_classes:
        raise CheckpointDataMismatch(
            f"checkpoint has {net.num_classes} classes, dataset has {spec.known_classes} known classes"
        )
    if meta["channels"] != spec.channels:
        raise CheckpointDataMismatch(
            f"checkpoint expects {meta['channels']} channels, dataset has {spec.channels}"
        )

    out = report_path.parent
    out.mkdir(parents=True, exist_ok=True)
    k = spec.known_classes
    loaded = time.perf_counter()

    _, train_scores = score_split(net, config, splits["train"].x)
    tau = threshold_from_train_scores(train_scores, coverage)

    biased, unbiased, unknown = splits["test_biased"], splits["test_unbiased"], splits["test_unknown"]
    probs_b, scores_b = score_split(net, config, biased.x)
    probs_u, scores_u = score_split(net, config, unbiased.x)
    probs_unk, scores_unk = score_split(net, config, unknown.x)

    # the open set: the biased known test split, then the unknown pool labelled K
    probs = np.concatenate([probs_b, probs_unk])
    scores = np.concatenate([scores_b, scores_unk])
    labels = np.concatenate([biased.labels, np.full(len(unknown), k)])
    unknown_ids = np.concatenate([np.full(len(biased), -1), unknown.labels])
    preds = open_predictions(probs, scores, tau)
    scored = time.perf_counter()

    correct_closed = np.argmax(probs_b, axis=1) == biased.labels
    closed_biased = float(np.mean(correct_closed))
    closed_unbiased = float(np.mean(np.argmax(probs_u, axis=1) == unbiased.labels))
    auc = roc_auc(scores_b, scores_unk)
    points, maf1_scalar, maf1_std = open_maf1_curve(
        preds, labels, unknown_ids, k, num_selections=num_selections, seed=seed
    )
    matrix, top = confusion_and_top_confusions(preds, labels, k, unknown_ids)

    ece_closed = ece(probs_b.max(axis=1), correct_closed.astype(float), ece_bins)
    pred_unknown = preds == k
    conf_two_way = np.where(pred_unknown, scores, 1.0 - scores)
    ece_open2 = ece(conf_two_way, (pred_unknown == (labels == k)).astype(float), ece_bins)
    # confidence of the (K+1)-way prediction under the distribution that puts
    # mass score on "unknown" and (1 - score) * p_c on each known class c
    prob_pred = np.take_along_axis(probs, np.minimum(preds, k - 1)[:, None], axis=1)[:, 0]
    conf_k1 = np.where(pred_unknown, scores, prob_pred * (1.0 - scores))
    ece_open_k1 = ece(conf_k1, (preds == labels).astype(float), ece_bins)

    thr = float(avu_threshold) if avu_threshold > 0.0 else _median(scores_b)
    avu_value = avu(correct_closed, scores_b, thr)

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
        "avu": {"value": avu_value, "threshold": thr},
        "confusion": {
            "matrix": [[float(v) for v in row] for row in matrix],
            "top_confusions": top,
        },
    }
    measured = time.perf_counter()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    curve_lines = ["i,omega,f1_mean,f1_std"]
    for pt in points:
        curve_lines.append(
            f"{pt.num_unknown},{_float_repr(pt.omega)},{_float_repr(pt.f1_mean)},{_float_repr(pt.f1_std)}"
        )
    curve_path, dump_path, unbiased_dump_path, timings_path = (out / name for name in _EVAL_SIBLINGS)
    curve_path.write_text("\n".join(curve_lines) + "\n", encoding="utf-8")
    write_score_dump(dump_path, probs, scores, labels)
    write_score_dump(unbiased_dump_path, probs_u, scores_u, unbiased.labels)
    timings = {
        "load_s": loaded - start,
        "score_s": scored - loaded,
        "metrics_s": measured - scored,
        "write_s": time.perf_counter() - measured,
    }
    timings_path.write_text(json.dumps(timings, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return report


def _quadratic_layer_check(layer, x: np.ndarray):
    """The job that returns the max relative FD error under the loss 0.5 * sum(out^2).

    The upstream gradient of that loss is the output itself, so one forward
    feeds one backward directly; both run here, and the job runs only the
    quotients.  The layer must be freshly built, so its gradients start at zero.
    """
    out = layer.forward(x)
    layer.backward(out.copy())
    return lambda: gradcheck(lambda: float(0.5 * np.sum(layer.forward(x) ** 2)), layer.parameters()).max_rel_err


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


def _branch_kink_distance(branches: CedBranches, fwd: CedForward, kind: str, bound: float) -> float:
    """Distance of the nearest non-smooth point across all three branches of ``fwd``.

    The evidence and each head's cached logits are read from that forward;
    only the conv pre-activations, which no layer keeps, are recomputed.
    """
    dist = np.inf
    for branch, inp, e in (
        (branches.f_branch, fwd.x, fwd.e_f),
        (branches.h_shuffled, fwd.x_shuffled, fwd.e_shuffled),
        (branches.h_static, fwd.x, fwd.e_static),
    ):
        dist = min(dist, float(np.abs(branch.backbone.layers[0].forward(inp)).min()))
        dist = min(dist, _logit_kink_distance(branch.head._logits, kind, bound))
        dist = min(dist, _top2_gap(batch_probs_and_uncertainty(e)[0]))
    return dist


def _branch_gradchecks(
    branches: CedBranches,
    fwd: CedForward,
    labels: np.ndarray,
    weights: LossWeights,
    kernel: KernelParams,
    side: str,
    **options,
) -> list[GradcheckReport]:
    """Difference one side's objective one branch at a time, backbone and head apart.

    Perturbing a branch's parameter can only change that branch's output, and
    the side's loss is evaluated through :func:`~osev.debias.branch_losses`,
    which builds the held branches' parts from ``fwd`` once and computes
    values only.  A backbone coordinate's quotient re-forwards the branch
    alone, on the input it already has.  A head parameter cannot change the
    features, so a head coordinate's quotient re-forwards only the head, on
    the branch's features in ``fwd``, and reads the branch's HSIC term at
    those features from ``branch_losses`` instead of recomputing it.  Each
    quotient thus computes only what the perturbed parameter can change and
    equals the objective's loss of a full forward bit for bit.
    One coordinate generator runs through the side's branches in parameter
    order (f; or h_shuffled, then h_static; backbone before head), so the
    coordinates sampled are exactly those of one gradcheck over all of the
    side's parameters.  Returns two reports per branch, backbone then head.
    """
    if side == "f":
        parts = [("f", branches.f_branch, fwd.x, fwd.f)]
    else:
        parts = [
            ("h_shuffled", branches.h_shuffled, fwd.x_shuffled, fwd.h_shuffled),
            ("h_static", branches.h_static, fwd.x, fwd.h_static),
        ]
    losses = branch_losses(side, fwd, labels, weights, kernel, **options)
    coords = np.random.default_rng(0)
    reports = []
    for name, branch, inp, feats in parts:
        branch_loss, evidence_loss = losses[name]

        def backbone_loss() -> float:
            return branch_loss(*branch.forward(inp))

        def head_loss() -> float:
            return evidence_loss(branch.head.forward(feats))

        reports.append(gradcheck(backbone_loss, branch.backbone.parameters(), rng=coords))
        reports.append(gradcheck(head_loss, branch.head.parameters(), rng=coords))
    return reports


def run_gradcheck(config: RunConfig, tol: float = 1e-4, instances: int = 20) -> tuple[list[dict], bool]:
    """Finite-difference audit of every analytic gradient the trainer uses.

    Each named check redraws ``instances`` random problems and keeps the worst
    relative error.  Layers are checked under a quadratic loss; the losses are
    checked down to evidence; the two debiasing objectives are checked per
    side, once through their own gradients and once through the composed
    training step at the training weights, because each side's update is the
    gradient of its own objective with the other side's features held
    constant (there is no single scalar both updates descend).  Kernel
    bandwidths and shuffle permutations are frozen during differencing, which
    is exactly how the training step treats them.  Each side's branches are
    differenced separately: all three branches are forwarded once per
    instance, a forward the kink test reads too, and each difference
    quotient re-forwards only the perturbed branch (only its head, for a
    head parameter, which also holds the branch's HSIC term) and recomputes
    only the value of its term, while the others' contributions stay cached
    and the labels are checked once (see :func:`_branch_gradchecks`).  A
    coordinate whose relative error is NaN (a NaN gradient or loss) counts
    as infinitely wrong (see :func:`~osev.nn.gradcheck`), so its check
    fails.  Returns (entries, ok).

    The audit runs in two phases.  First every instance of every check is
    prepared here, in check order: its draws from the audit's one random
    stream (kink redraws included), its bandwidth and its analytic gradient.
    Each prepared instance is a job that only runs its difference quotients,
    which draw nothing from that stream, so :func:`_run_jobs` may spread the
    jobs over forked processes.  Each check's worst error is then folded in
    job order, so the entries are the same floats however the jobs ran, and
    the first job in that order that raised re-raises here.

    Raises :class:`ConfigError` for fewer than one instance or a ``tol`` that
    is not positive and finite: such an audit would pass without checking
    anything.  The dataset is loaded as :func:`run_training` loads it (the
    manifest and the train split), so a manifest or train split that
    ``osev train`` cannot read fails here too.
    """
    if instances < 1:
        raise ConfigError(f"--instances must be >= 1, got {instances}")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"--tol must be positive and finite, got {tol}")
    config.validate()
    spec, _ = data_mod.load_dataset(config.dataset, names=("train",))
    rng = derived_rng(config.seed, STREAM_GRADCHECK)
    channels, timesteps, k = spec.channels, spec.timesteps, spec.known_classes
    batch = 8
    lam_t = 0.4
    names: list[str] = []
    jobs = []

    def add(name: str, prepare) -> None:
        names.append(name)
        jobs.extend(prepare() for _ in range(instances))

    def draw_input() -> np.ndarray:
        return rng.standard_normal((batch, channels, timesteps))

    def draw_labels() -> np.ndarray:
        return rng.integers(0, k, size=batch)

    add(
        "layer.temporal_conv",
        lambda: _quadratic_layer_check(TemporalConv(channels, 5, config.kernel_width, rng), draw_input()),
    )
    add("layer.pointwise_conv", lambda: _quadratic_layer_check(TemporalConv(channels, 5, 1, rng), draw_input()))
    add("layer.dense", lambda: _quadratic_layer_check(Dense(7, 4, rng), rng.standard_normal((batch, 7))))
    add(
        "layer.evidence_head",
        lambda: _quadratic_layer_check(
            EvidenceHead(6, k, rng, kind=config.evidence, exp_bound=config.exp_bound),
            rng.standard_normal((batch, 6)),
        ),
    )
    def backbone_chain_instance():
        while True:
            seq = Sequential(
                [TemporalConv(channels, 6, config.kernel_width, rng), ReLU(), TemporalMeanPool(), Dense(6, k, rng)]
            )
            x = draw_input()
            if float(np.abs(seq.layers[0].forward(x)).min()) > KINK_MARGIN:
                return _quadratic_layer_check(seq, x)

    add("layer.backbone_chain", backbone_chain_instance)

    def edl_instance():
        labels = draw_labels()
        e = Parameter("edl.evidence", rng.uniform(0.5, 4.0, size=(batch, k)))
        _, grads = edl_loss_batch(labels, e.value)
        e.grad += grads / batch
        return lambda: gradcheck(lambda: float(edl_loss_batch(labels, e.value)[0].mean()), [e]).max_rel_err

    add("loss.edl", edl_instance)

    def euc_instance():
        while True:
            labels = draw_labels()
            e = Parameter("euc.evidence", rng.uniform(0.5, 4.0, size=(batch, k)))
            if _top2_gap(batch_probs_and_uncertainty(e.value)[0]) > KINK_MARGIN:
                break
        _, grad_e = euc_loss_grad_evidence(labels, e.value, lam_t)
        e.grad += grad_e
        return lambda: gradcheck(lambda: euc_loss_grad_evidence(labels, e.value, lam_t)[0], [e]).max_rel_err

    add("loss.euc", euc_instance)

    def hsic_instance():
        x = Parameter("hsic.x", rng.standard_normal((batch, 3)))
        y = rng.standard_normal((batch, 3))
        frozen = KernelParams(sigma=median_bandwidth(x.value))
        _, grad_x = hsic_value_and_grad(x.value, y, frozen)
        x.grad += grad_x
        held = [centered_gram(y, frozen)]
        return lambda: gradcheck(lambda: hsic_values(x.value, held, frozen)[0], [x]).max_rel_err

    add("loss.hsic", hsic_instance)

    lam = config.lambda_hsic if config.lambda_hsic > 0.0 else 1.0
    w_ced = config.w_ced if config.w_ced > 0.0 else 0.1
    weights = LossWeights(w_euc=config.w_euc, w_ced=w_ced, lambda_hsic=lam)
    objective_weights = LossWeights(w_euc=0.0, w_ced=1.0, lambda_hsic=lam)
    sigma = KernelParams(sigma=1.0)

    def fresh_instance() -> tuple[CedBranches, CedForward, np.ndarray]:
        """Branches, their forward on an input and shuffle clear of every kink, and labels."""
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
            labels = draw_labels()
            fwd = ced_forward(branches, x, perms=draw_time_permutations(rng, batch, timesteps))
            if _branch_kink_distance(branches, fwd, config.evidence, config.exp_bound) > KINK_MARGIN:
                return branches, fwd, labels

    def side_instance(side: str, weights: LossWeights, composed: bool, **options):
        """FD check of one side's objective against that side's parameters.

        The analytic gradient comes from the objective itself (debias for
        "f", bias for "h") or, when ``composed``, from the training step
        restricted to that side.
        """
        branches, fwd, labels = fresh_instance()
        if composed:
            accumulate_gradients(
                branches, fwd.x, labels, weights=weights, lambda_t=lam_t, use_euc=True, kernel=sigma,
                perms=fwd.perms, side=side,
            )
        else:
            objective = debias_objective if side == "f" else bias_objective
            objective(branches, fwd, labels, weights, sigma, apply_grads=True, **options)
        return lambda: max(
            report.max_rel_err
            for report in _branch_gradchecks(branches, fwd, labels, weights, sigma, side, **options)
        )

    add("objective.debias", lambda: side_instance("f", objective_weights, False))
    add("objective.bias", lambda: side_instance("h", objective_weights, False))
    add("composed.main_side", lambda: side_instance("f", weights, True, lambda_t=lam_t, use_euc=True))
    add("composed.biased_side", lambda: side_instance("h", weights, True))

    outcomes = iter(_run_jobs(jobs))
    entries: list[dict] = []
    for name in names:
        worst = 0.0
        for _ in range(instances):
            outcome = next(outcomes)
            if isinstance(outcome, Exception):
                raise outcome
            worst = max(worst, outcome)
        entries.append({"check": name, "max_rel_err": worst})
    ok = all(entry["max_rel_err"] < tol for entry in entries)
    return entries, ok
