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


def _group_counts(preds, labels, ids, side: int) -> tuple[np.ndarray, np.ndarray]:
    """(group, label, prediction) counts by one ``np.bincount``: the sorted non-negative ids, and
    (1 + len(ids), side, side) tables whose group 0 holds the negative ids and group j the j-th id."""
    if any(a.min(initial=0) < 0 or a.max(initial=0) >= side for a in (preds, labels)):
        raise ValueError("class index out of range")
    unknown = ids >= 0
    classes, inverse = np.unique(ids[unknown], return_inverse=True)
    groups = np.zeros(ids.shape, dtype=np.int64)
    groups[unknown] = inverse + 1
    counts = np.bincount((groups * side + labels) * side + preds, minlength=(classes.size + 1) * side * side)
    return classes, counts.reshape(classes.size + 1, side, side)


def _macro_f1s(counts: np.ndarray) -> list[float]:
    """Macro-F1 of each table in ``counts`` (n, side, side): a per-class loop's elementwise steps,
    then ``np.mean`` over each table's 1-D array of present-class F1s, as the loop does (a mean
    over a zero-padded row of all classes would group numpy's pairwise sum differently)."""
    tp = np.diagonal(counts, axis1=-2, axis2=-1).astype(np.float64)
    predicted = counts.sum(axis=-2)
    actual = counts.sum(axis=-1)
    precision = np.divide(tp, predicted, out=np.zeros_like(tp), where=predicted > 0)
    recall = np.divide(tp, actual, out=np.zeros_like(tp), where=actual > 0)
    total = precision + recall
    f1 = np.divide(2.0 * precision * recall, total, out=np.zeros_like(tp), where=total != 0.0)
    return [float(np.mean(row[keep])) for row, keep in zip(f1, (predicted > 0) | (actual > 0))]


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
    return _macro_f1s(_group_counts(p, y, np.full(p.shape, -1), num_classes)[1])[0]


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
) -> tuple[list[OpennessPoint], float, float]:
    """Openness sweep of (K+1)-way macro-F1 with randomized unknown subsets.

    ``preds`` and ``labels`` lie in [0, K] (checked for every sample), K for
    unknown; ``unknown_ids`` holds each unknown sample's original class and -1
    for known ones.  For each i in 1..U, ``num_selections`` random i-subsets of
    the unknown classes (without replacement, seeded per (i, selection)) are
    kept with all known samples and scored by macro-F1.  Returns the curve,
    the openness-weighted scalar over selection means, and the standard
    deviation of that scalar across aligned selections.
    """
    p = np.asarray(preds, dtype=np.int64)
    y = np.asarray(labels, dtype=np.int64)
    ids = np.asarray(unknown_ids, dtype=np.int64)
    if p.ndim != 1 or p.shape != y.shape or ids.shape != y.shape:
        shapes = f"{p.shape}, {y.shape}, {ids.shape}"
        raise ValueError(f"preds, labels and unknown_ids must be matching 1-D arrays, got {shapes}")
    if not (ids < 0).any():
        raise ValueError("no known samples")
    if not (ids >= 0).any():
        raise ValueError("no unknown classes")
    if num_selections < 1:
        raise ValueError(f"num_selections must be >= 1, got {num_selections}")
    k = num_known
    if k < 1:
        raise ValueError(f"num_classes must be >= 2, got {k + 1}")
    class_ids, counts = _group_counts(p, y, ids, k + 1)
    u = class_ids.size

    # row (i - 1) * num_selections + s marks the unknown classes that selection s of point i keeps
    kept = np.zeros((u * num_selections, u), dtype=np.int64)
    for i in range(1, u + 1):
        for s in range(num_selections):
            chosen = np.random.default_rng([seed, 7001, i, s]).choice(class_ids, size=i, replace=False)
            kept[(i - 1) * num_selections + s, np.searchsorted(class_ids, chosen)] = 1
    tables = counts[0] + (kept @ counts[1:].reshape(u, -1)).reshape(-1, k + 1, k + 1)
    f1s = np.asarray(_macro_f1s(tables)).reshape(u, num_selections)
    points = [
        OpennessPoint(i, openness(k, i), float(arr.mean()), float(arr.std(ddof=1)) if num_selections > 1 else 0.0,
                      tuple(arr.tolist()))
        for i, arr in enumerate(f1s, start=1)
    ]
    omegas = np.asarray([pt.omega for pt in points])
    means = np.asarray([pt.f1_mean for pt in points])
    scalar = float((omegas * means).sum() / omegas.sum())
    per_trial = np.asarray([(omegas * trial).sum() / omegas.sum() for trial in f1s.T])
    scalar_std = float(per_trial.std(ddof=1)) if num_selections > 1 else 0.0
    return points, scalar, scalar_std


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


def confusion_and_top_confusions(preds, labels, num_known: int, unknown_ids=None) -> tuple[np.ndarray, list[dict]]:
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
    ids = np.full(p.shape, -1) if unknown_ids is None else np.asarray(unknown_ids, dtype=np.int64)
    if ids.shape != y.shape:
        raise ValueError(f"unknown_ids shape {ids.shape} does not match labels {y.shape}")
    class_ids, counts = _group_counts(p, y, ids, num_known + 1)
    total = counts.sum(axis=0).astype(np.float64)
    rows = total.sum(axis=1, keepdims=True)
    matrix = np.divide(total, rows, out=np.zeros_like(total), where=rows > 0)

    top: list[dict] = []
    for cls, table in zip(class_ids.tolist(), counts[1:]):
        predicted = table.sum(axis=0)
        as_known = predicted[:num_known]
        target = int(np.argmax(as_known)) if as_known.any() else None
        top.append({"unknown_class": cls, "rate": float(as_known.sum() / predicted.sum()), "target": target})
    top.sort(key=lambda d: (-d["rate"], d["unknown_class"]))
    return matrix, top


def _json_items(values: list) -> list[str]:
    """The JSON text of each number (or string without ", ") in ``values``, as ``json.dumps`` writes it."""
    text = json.dumps(values)[1:-1]
    return text.split(", ") if text else []


def write_score_dump(path, probs, scores, labels) -> Path:
    """One JSON object per line: {probs, score, label}, label K as "unknown".

    Each line is ``json.dumps(record, sort_keys=True)``.  Each column of a block of 128
    records is encoded by one ``json.dumps`` and cut apart again (no JSON number contains
    ", " or "], ["), which keeps few strings alive at once, and the file is written at once.
    """
    p = Path(path)
    probs, scores, labels = np.asarray(probs), np.asarray(scores), np.asarray(labels)
    k = probs.shape[1]
    blocks = []
    for at in range(0, min(len(probs), len(scores), len(labels)), 128):
        block = slice(at, at + 128)
        rows = json.dumps(probs[block].tolist())[2:-2].split("], [")
        label_text = _json_items(["unknown" if label == k else label for label in labels[block].tolist()])
        records = zip(rows, _json_items(scores[block].tolist()), label_text)
        blocks.append("".join([f'{{"label": {y}, "probs": [{row}], "score": {s}}}\n' for row, s, y in records]))
    with open(p, "w", encoding="utf-8") as fh:
        fh.write("".join(blocks))
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
