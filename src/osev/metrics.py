"""Open-set evaluation: openness-weighted macro-F1, AUC, ECE, confusion.

A scored set is three arrays: ``probs`` (N, K) of known-class probabilities,
``scores`` (N,) of rejection scores (higher means more likely unknown) and
``labels`` (N,) of ground-truth labels, where label K stands for "unknown".
The headline number is the openness-weighted macro-F1

    maF1 = sum_i w_i * F1_i / sum_i w_i,    w_i = 1 - sqrt(2K / (2K + i)),

swept over the number of unknown classes mixed into the test set, with each
sweep point averaged over randomized unknown-class selections.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "OpennessPoint",
    "avu",
    "confusion_and_top_confusions",
    "ece",
    "macro_f1",
    "open_maf1_curve",
    "open_predictions",
    "openness",
    "read_score_dump",
    "roc_auc",
    "write_score_dump",
]


def openness(num_known: int, num_unknown: int) -> float:
    """1 - sqrt(2K / (2K + i)); zero when no unknown classes are present."""
    if num_known < 1:
        raise ValueError(f"need at least one known class, got {num_known}")
    if num_unknown < 0:
        raise ValueError(f"unknown-class count must be >= 0, got {num_unknown}")
    return 1.0 - math.sqrt(2.0 * num_known / (2.0 * num_known + num_unknown))


def open_predictions(probs, scores, tau: float) -> np.ndarray:
    """(K+1)-way predictions: label K when score > tau, else argmax of probs."""
    p = np.asarray(probs, dtype=np.float64)
    s = np.asarray(scores, dtype=np.float64)
    if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 2:
        raise ValueError(f"probs must be a non-empty (N, K>=2) array, got shape {p.shape}")
    if s.shape != p.shape[:1]:
        raise ValueError(f"scores shape {s.shape} does not match {p.shape[0]} samples")
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(s))):
        raise ValueError("probs and scores must be finite")
    return np.where(s > tau, p.shape[1], np.argmax(p, axis=1))


def macro_f1(preds, labels, num_classes: int) -> float:
    """Unweighted mean F1 over classes present in preds or labels.

    A class with zero precision and zero recall contributes F1 = 0; classes
    absent from both arrays are skipped entirely.
    """
    p = np.asarray(preds, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if p.shape != y.shape or p.ndim != 1 or p.size == 0:
        raise ValueError(f"preds and labels must be matching non-empty 1-D arrays, got {p.shape} and {y.shape}")
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if p.min() < 0 or p.max() >= num_classes or y.min() < 0 or y.max() >= num_classes:
        raise ValueError("class index out of range")
    scores = []
    for c in range(num_classes):
        in_pred = p == c
        in_label = y == c
        if not in_pred.any() and not in_label.any():
            continue
        tp = float(np.sum(in_pred & in_label))
        precision = tp / in_pred.sum() if in_pred.any() else 0.0
        recall = tp / in_label.sum() if in_label.any() else 0.0
        f1 = 0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall)
        scores.append(f1)
    return float(np.mean(scores))


@dataclass(frozen=True)
class OpennessPoint:
    num_unknown: int
    omega: float
    f1_mean: float
    f1_std: float
    f1_values: tuple[float, ...]


def open_maf1_curve(
    preds,
    labels,
    unknown_ids,
    num_known: int,
    *,
    num_selections: int = 10,
    seed: int = 0,
    max_unknown: int | None = None,
) -> tuple[list[OpennessPoint], float, float, str | None]:
    """Openness sweep of (K+1)-way macro-F1 with randomized unknown subsets.

    ``preds`` and ``labels`` are (K+1)-way, with K for unknown; ``unknown_ids``
    holds the original class of each unknown sample and -1 for known ones.
    For each i in 1..U, ``num_selections`` random i-subsets of the unknown
    classes (without replacement, seeded per (i, selection)) are kept with
    all known samples and scored by macro-F1.  Returns the per-point curve,
    the openness-weighted scalar over selection means, the standard deviation
    of that scalar across aligned selections, and a truncation note when
    max_unknown cut the sweep short.
    """
    p = np.asarray(preds, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    ids = np.asarray(unknown_ids, dtype=np.int64)
    if p.ndim != 1 or p.shape != y.shape or ids.shape != y.shape:
        raise ValueError(
            f"preds, labels and unknown_ids must be matching 1-D arrays, got {p.shape}, {y.shape}, {ids.shape}"
        )
    known = ids < 0
    if not known.any():
        raise ValueError("no known samples")
    class_ids = sorted(set(ids[~known].tolist()))
    if not class_ids:
        raise ValueError("no unknown classes")
    if num_selections < 1:
        raise ValueError(f"num_selections must be >= 1, got {num_selections}")
    k = num_known
    note = None
    limit = len(class_ids)
    if max_unknown is not None and max_unknown < limit:
        limit = max_unknown
        note = f"sweep truncated to {limit} of {len(class_ids)} unknown classes"

    points: list[OpennessPoint] = []
    for i in range(1, limit + 1):
        f1s = []
        for s in range(num_selections):
            rng = np.random.default_rng([seed, 7001, i, s])
            chosen = rng.choice(class_ids, size=i, replace=False)
            mask = known | np.isin(ids, chosen)
            f1s.append(macro_f1(p[mask], y[mask], k + 1))
        arr = np.asarray(f1s)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        points.append(
            OpennessPoint(
                num_unknown=i,
                omega=openness(k, i),
                f1_mean=float(arr.mean()),
                f1_std=std,
                f1_values=tuple(float(v) for v in arr),
            )
        )

    omegas = np.asarray([pt.omega for pt in points])
    means = np.asarray([pt.f1_mean for pt in points])
    scalar = float((omegas * means).sum() / omegas.sum())
    per_trial = np.asarray(
        [
            (omegas * np.asarray([pt.f1_values[s] for pt in points])).sum() / omegas.sum()
            for s in range(num_selections)
        ]
    )
    scalar_std = float(per_trial.std(ddof=1)) if num_selections > 1 else 0.0
    return points, scalar, scalar_std, note


def roc_auc(scores_known, scores_unknown) -> float:
    """Probability an unknown sample outscores a known one, ties counting half.

    Counts the pairs exactly: for each unknown score, binary search in the
    sorted known scores gives how many it beats and how many it ties.
    """
    k = np.asarray(scores_known, dtype=np.float64)
    u = np.asarray(scores_unknown, dtype=np.float64)
    if k.size == 0 or u.size == 0:
        raise ValueError("both score sets must be non-empty")
    if not (np.all(np.isfinite(k)) and np.all(np.isfinite(u))):
        raise ValueError("scores must be finite")
    known = np.sort(k)
    lo = np.searchsorted(known, u, "left")
    hi = np.searchsorted(known, u, "right")
    return float((lo.sum() + 0.5 * (hi - lo).sum()) / (u.size * k.size))


def ece(confidences, correct, num_bins: int = 15) -> float:
    """Expected calibration error over equal-width confidence bins.

    A confidence of exactly 1.0 lands in the last bin; empty bins contribute
    nothing.
    """
    c = np.asarray(confidences, dtype=np.float64)
    ok = np.asarray(correct, dtype=np.float64)
    if c.shape != ok.shape or c.ndim != 1 or c.size == 0:
        raise ValueError(f"confidences and flags must be matching non-empty 1-D arrays, got {c.shape} and {ok.shape}")
    if np.any(c < 0.0) or np.any(c > 1.0):
        raise ValueError("confidences must lie in [0, 1]")
    if num_bins < 1:
        raise ValueError(f"num_bins must be >= 1, got {num_bins}")
    idx = np.minimum((c * num_bins).astype(np.int64), num_bins - 1)
    n = c.size
    total = 0.0
    for m in range(num_bins):
        mask = idx == m
        if not mask.any():
            continue
        total += (mask.sum() / n) * abs(ok[mask].mean() - c[mask].mean())
    return float(total)


def avu(correct, scores, threshold: float) -> float:
    """Accuracy-versus-uncertainty (n_AC + n_IU) / n.

    A sample counts as certain when its score is strictly below the threshold.
    """
    ok = np.asarray(correct, dtype=bool)
    s = np.asarray(scores, dtype=np.float64)
    if ok.shape != s.shape or ok.ndim != 1 or ok.size == 0:
        raise ValueError(f"flags and scores must be matching non-empty 1-D arrays, got {ok.shape} and {s.shape}")
    certain = s < threshold
    return float(np.mean((ok & certain) | (~ok & ~certain)))


def confusion_and_top_confusions(
    preds,
    labels,
    num_known: int,
    unknown_ids=None,
) -> tuple[np.ndarray, list[dict]]:
    """Row-normalized (K+1)x(K+1) confusion matrix plus worst unknown leaks.

    Rows are true labels, columns predictions; each non-empty row sums to 1.
    When ``unknown_ids`` gives the original class of every unknown-labeled
    sample (and -1 elsewhere), the second element ranks unknown classes by
    the fraction of their samples predicted as some known class, each with its
    most frequent known target (lowest index on ties).
    """
    p = np.asarray(preds, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    if p.shape != y.shape or p.ndim != 1:
        raise ValueError(f"preds and labels must be matching 1-D arrays, got {p.shape} and {y.shape}")
    side = num_known + 1
    if p.min(initial=0) < 0 or p.max(initial=0) >= side or y.min(initial=0) < 0 or y.max(initial=0) >= side:
        raise ValueError("class index out of range")
    counts = np.zeros((side, side))
    np.add.at(counts, (y, p), 1.0)
    rows = counts.sum(axis=1, keepdims=True)
    matrix = np.divide(counts, rows, out=np.zeros_like(counts), where=rows > 0)

    top: list[dict] = []
    if unknown_ids is not None:
        ids = np.asarray(unknown_ids, dtype=np.int64)
        if ids.shape != y.shape:
            raise ValueError(f"unknown_ids shape {ids.shape} does not match labels {y.shape}")
        for cls in np.unique(ids[ids >= 0]):
            mask = ids == cls
            as_known = p[mask] < num_known
            rate = float(as_known.mean())
            if as_known.any():
                target_counts = np.bincount(p[mask][as_known], minlength=num_known)
                target = int(np.argmax(target_counts))
            else:
                target = None
            top.append({"unknown_class": int(cls), "rate": rate, "target": target})
        top.sort(key=lambda d: (-d["rate"], d["unknown_class"]))
    return matrix, top


def write_score_dump(path, probs, scores, labels) -> Path:
    """One JSON object per line: {probs, score, label}, label K as "unknown"."""
    p = Path(path)
    k = np.shape(probs)[1]
    rows = zip(np.asarray(probs).tolist(), np.asarray(scores).tolist(), np.asarray(labels).tolist())
    with open(p, "w", encoding="utf-8") as fh:
        for row, score, label in rows:
            record = {"probs": row, "score": score, "label": "unknown" if label == k else label}
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")
    return p


def read_score_dump(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a score dump back into (probs (N, K), scores (N,), labels (N,)).

    Every line must hold K >= 2 finite probabilities, with the same K on every
    line, a finite score, and an integer label in [0, K] or "unknown"; any
    other line raises ValueError naming ``path:line``.
    """
    rows, scores, labels = [], [], []
    k = None
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{line_no}"
            try:
                obj = json.loads(line)
                probs = np.asarray(obj["probs"], dtype=np.float64)
                score = float(obj["score"])
                label = obj["label"]
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{where}: malformed score record: {exc}") from exc
            if probs.ndim != 1 or probs.size < 2:
                raise ValueError(f"{where}: probs must be a K>=2 vector, got shape {probs.shape}")
            if k is None:
                k = probs.size
            elif probs.size != k:
                raise ValueError(f"{where}: {probs.size} class probabilities, earlier lines have {k}")
            if not (np.all(np.isfinite(probs)) and math.isfinite(score)):
                raise ValueError(f"{where}: record contains non-finite values")
            if label == "unknown":
                label = k
            elif isinstance(label, bool) or not isinstance(label, int) or not 0 <= label <= k:
                raise ValueError(f"{where}: label {label!r} out of range for K={k}")
            rows.append(probs)
            scores.append(score)
            labels.append(label)
    probs = np.asarray(rows, dtype=np.float64).reshape(len(rows), k or 0)
    return probs, np.asarray(scores, dtype=np.float64), np.asarray(labels, dtype=np.int64)
