"""Metric oracles: openness, macro-F1 sweep, ranking AUC, calibration, confusion."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osev.metrics import (
    OpennessPoint,
    confusion_and_top_confusions,
    ece,
    macro_f1,
    open_maf1_curve,
    open_predictions,
    openness,
    read_score_dump,
    roc_auc,
    write_score_dump,
)
from osev.runner import _median


class TestOpenness:
    def test_closed_world_is_zero(self):
        for k in (1, 5, 100):
            assert openness(k, 0) == 0.0

    def test_reference_values(self):
        assert openness(101, 51) == pytest.approx(1.0 - math.sqrt(202.0 / 253.0), abs=1e-9)
        assert round(openness(101, 51), 5) == 0.10646
        assert openness(1, 2) == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-9)
        assert round(openness(1, 2), 5) == 0.29289

    def test_monotone_in_unknowns(self):
        vals = [openness(5, i) for i in range(20)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v < 1.0 for v in vals)

    def test_validation(self):
        with pytest.raises(ValueError, match="known"):
            openness(0, 1)
        with pytest.raises(ValueError, match=">= 0"):
            openness(3, -1)


class TestOpenPredictions:
    def test_mixed_hand_case(self):
        probs = [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.2, 0.3, 0.5], [0.4, 0.4, 0.2]]
        np.testing.assert_array_equal(open_predictions(probs, [0.3, 0.6, 0.5, 0.9], 0.55), [0, 3, 2, 3])

    def test_infinite_threshold_reduces_to_argmax(self):
        probs = [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1], [0.4, 0.4, 0.2]]
        np.testing.assert_array_equal(open_predictions(probs, [0.9, 0.9, 0.9], math.inf), [0, 1, 0])

    def test_all_above_threshold_all_unknown(self):
        np.testing.assert_array_equal(open_predictions([[0.9, 0.1], [0.1, 0.9]], [0.5, 0.6], 0.0), [2, 2])

    def test_empty_and_inconsistent_records_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            open_predictions(np.zeros((0, 2)), np.zeros(0), 0.5)
        with pytest.raises(ValueError, match="does not match"):
            open_predictions([[0.5, 0.5], [0.3, 0.7]], [0.1], 0.5)

    def test_validation(self):
        with pytest.raises(ValueError, match="K>=2"):
            open_predictions([[1.0]], [0.1], 0.5)
        with pytest.raises(ValueError, match="K>=2"):
            open_predictions([0.5, 0.5], [0.1, 0.1], 0.5)
        with pytest.raises(ValueError, match="finite"):
            open_predictions([[0.5, np.nan]], [0.1], 0.5)
        with pytest.raises(ValueError, match="finite"):
            open_predictions([[0.5, 0.5]], [math.inf], 0.5)


class TestMacroF1:
    def test_perfect_predictions(self):
        assert macro_f1([0, 1, 2], [0, 1, 2], 3) == 1.0

    def test_balanced_half_right(self):
        assert macro_f1([0, 0, 1, 1], [0, 1, 0, 1], 2) == pytest.approx(0.5, abs=1e-15)

    def test_collapsed_predictor_on_balanced_labels(self):
        # predicted class: precision 0.5, recall 1 -> F1 = 2/3; other class 0
        assert macro_f1([0, 0, 0, 0], [0, 0, 1, 1], 2) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_absent_class_skipped(self):
        # class 2 appears in neither array and must not dilute the mean
        assert macro_f1([0, 1], [0, 1], 3) == 1.0

    def test_sample_permutation_invariance(self):
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 4, size=50)
        labels = rng.integers(0, 4, size=50)
        perm = rng.permutation(50)
        assert macro_f1(preds, labels, 4) == macro_f1(preds[perm], labels[perm], 4)

    def test_validation(self):
        with pytest.raises(ValueError, match="matching"):
            macro_f1([0, 1], [0], 2)
        with pytest.raises(ValueError, match="out of range"):
            macro_f1([0, 2], [0, 1], 2)
        with pytest.raises(ValueError, match="num_classes"):
            macro_f1([0], [0], 1)


def perfect_known(k, per_class):
    """(probs, scores, labels) of known samples the model gets right and accepts."""
    labels = np.repeat(np.arange(k), per_class)
    return np.eye(k)[labels], np.full(labels.size, 0.1), labels


def unknown_pool(k, class_ids, per_class, score):
    """(probs, scores, unknown class ids) of uniform-probability unknown samples."""
    ids = np.repeat(np.asarray(class_ids, dtype=np.int64), per_class)
    return np.full((ids.size, k), 1.0 / k), np.full(ids.size, score), ids


def sweep(known, pool, tau, **kwargs):
    """Open-set curve of known samples mixed with an unknown pool at threshold tau."""
    (probs_k, scores_k, labels_k), (probs_u, scores_u, ids_u) = known, pool
    k = probs_k.shape[1]
    preds = open_predictions(np.concatenate([probs_k, probs_u]), np.concatenate([scores_k, scores_u]), tau)
    labels = np.concatenate([labels_k, np.full(ids_u.size, k)])
    ids = np.concatenate([np.full(labels_k.size, -1), ids_u])
    return open_maf1_curve(preds, labels, ids, k, **kwargs)


class TestOpenMaf1Curve:
    def test_perfect_separation_gives_constant_one(self):
        known = perfect_known(3, 4)
        pool = unknown_pool(3, [10, 11, 12], 4, score=0.9)
        points, scalar, scalar_std = sweep(known, pool, tau=0.5, num_selections=5)
        assert len(points) == 3
        for i, pt in enumerate(points, start=1):
            assert pt.num_unknown == i
            assert pt.omega == pytest.approx(openness(3, i), abs=0.0)
            assert pt.f1_mean == 1.0
            assert pt.f1_std == 0.0
            assert len(pt.f1_values) == 5
        assert scalar == 1.0
        assert scalar_std == 0.0

    def test_scalar_is_weighted_mean_of_point_means(self):
        rng = np.random.default_rng(3)
        rows = [(np.eye(3)[rng.integers(0, 3)], float(rng.uniform(0, 1)), int(rng.integers(0, 3))) for _ in range(30)]
        known = tuple(np.asarray(col) for col in zip(*rows))
        scores_u = np.asarray([float(rng.uniform(0, 1)) for _ in range(16)])
        pool = (np.full((16, 3), 1 / 3), scores_u, np.repeat([0, 1], 8))
        points, scalar, _ = sweep(known, pool, tau=0.5, num_selections=4)
        omegas = np.array([pt.omega for pt in points])
        means = np.array([pt.f1_mean for pt in points])
        assert scalar == pytest.approx((omegas * means).sum() / omegas.sum(), abs=1e-12)
        assert means.min() - 1e-12 <= scalar <= means.max() + 1e-12

    def test_single_unknown_class_scalar_equals_its_f1(self):
        known = perfect_known(3, 4)
        pool = unknown_pool(3, [42], 4, score=0.2)  # below tau: every unknown leaks
        points, scalar, _ = sweep(known, pool, tau=0.5, num_selections=3)
        assert len(points) == 1
        assert scalar == points[0].f1_mean
        assert points[0].f1_mean < 1.0

    def test_selections_are_reproducible(self):
        known = perfect_known(4, 3)
        pool = unknown_pool(4, [5, 6, 7], 3, score=0.9)
        a = sweep(known, pool, tau=0.5, num_selections=4, seed=9)
        b = sweep(known, pool, tau=0.5, num_selections=4, seed=9)
        assert a[0] == b[0] and a[1] == b[1]

    def test_validation(self):
        with pytest.raises(ValueError, match="no known"):
            open_maf1_curve([3], [3], [0], 3)
        with pytest.raises(ValueError, match="no unknown"):
            open_maf1_curve([0], [0], [-1], 3)
        with pytest.raises(ValueError, match="num_selections"):
            open_maf1_curve([0, 3], [0, 3], [-1, 0], 3, num_selections=0)
        with pytest.raises(ValueError, match="matching"):
            open_maf1_curve([0, 3], [0, 3], [-1], 3)

    @pytest.mark.parametrize("pred, label", [(7, 3), (-1, 3), (3, 4), (3, -2)])
    def test_class_range_is_checked_for_unselected_unknown_classes(self, pred, label):
        # with seed 0 point 1's one selection keeps class 11 only, so class 10 is first scored at point 2
        preds = np.array([0, 1, 2, 3, pred])
        labels = np.array([0, 1, 2, 3, label])
        ids = np.array([-1, -1, -1, 11, 10])
        with pytest.raises(ValueError, match="out of range"):
            open_maf1_curve(preds, labels, ids, 3, num_selections=1, seed=0)


def record_open_predictions(records, tau):
    """Former per-record implementation; a record is (probs, score, label)."""
    k = len(records[0][0])
    preds = np.empty(len(records), dtype=np.int64)
    for i, (probs, score, _) in enumerate(records):
        preds[i] = k if score > tau else int(np.argmax(probs))
    return preds


def record_curve(known_records, unknown_by_class, tau, num_selections, seed):
    """Former per-record sweep: known records plus {class: unknown records}."""
    class_ids = sorted(unknown_by_class)
    k = len(known_records[0][0])
    points = []
    for i in range(1, len(class_ids) + 1):
        f1s = []
        for s in range(num_selections):
            rng = np.random.default_rng([seed, 7001, i, s])
            chosen = sorted(int(c) for c in rng.choice(class_ids, size=i, replace=False))
            records = list(known_records)
            labels = [min(r[2], k) for r in known_records]
            for c in chosen:
                records.extend(unknown_by_class[c])
                labels.extend([k] * len(unknown_by_class[c]))
            f1s.append(macro_f1(record_open_predictions(records, tau), np.asarray(labels), k + 1))
        arr = np.asarray(f1s)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        points.append(OpennessPoint(i, openness(k, i), float(arr.mean()), std, tuple(float(v) for v in arr)))
    omegas = np.asarray([pt.omega for pt in points])
    means = np.asarray([pt.f1_mean for pt in points])
    scalar = float((omegas * means).sum() / omegas.sum())
    per_trial = np.asarray(
        [(omegas * np.asarray([pt.f1_values[s] for pt in points])).sum() / omegas.sum() for s in range(num_selections)]
    )
    return points, scalar, float(per_trial.std(ddof=1)) if num_selections > 1 else 0.0


class TestArraysMatchRecordOracle:
    """The array paths reproduce the former per-record loops bit for bit."""

    @pytest.mark.parametrize("seed", range(4))
    def test_predictions_and_curve_bit_equal(self, seed):
        rng = np.random.default_rng(seed)
        k, n_known, n_unknown = 4, 60, 45
        # quantized probs and scores force argmax ties and scores equal to tau
        probs = rng.integers(0, 3, size=(n_known + n_unknown, k)) / 4.0
        scores = rng.integers(0, 5, size=n_known + n_unknown) / 4.0
        tau = 0.5
        labels = np.concatenate([rng.integers(0, k, size=n_known), np.full(n_unknown, k)])
        # unknown samples interleaved across classes, not grouped
        ids = np.concatenate([np.full(n_known, -1), rng.choice([4, 6, 7, 9, 12], size=n_unknown)])

        records = [(probs[i], float(scores[i]), int(labels[i])) for i in range(labels.size)]
        preds = open_predictions(probs, scores, tau)
        np.testing.assert_array_equal(preds, record_open_predictions(records, tau))
        accepted = probs[scores <= tau]
        assert np.any((accepted == accepted.max(axis=1, keepdims=True)).sum(axis=1) > 1)  # argmax ties
        assert np.any(scores == tau)

        unknown_by_class = {}
        for rec, c in zip(records[n_known:], ids[n_known:]):
            unknown_by_class.setdefault(int(c), []).append(rec)
        points, scalar, scalar_std = open_maf1_curve(preds, labels, ids, k, num_selections=6, seed=seed)
        assert (points, scalar, scalar_std) == record_curve(records[:n_known], unknown_by_class, tau, 6, seed)


def mask_loop_macro_f1(preds, labels, num_classes):
    """Former macro_f1: one mask per class over the samples."""
    scores = []
    for c in range(num_classes):
        in_pred = preds == c
        in_label = labels == c
        if not in_pred.any() and not in_label.any():
            continue
        tp = float(np.sum(in_pred & in_label))
        precision = tp / in_pred.sum() if in_pred.any() else 0.0
        recall = tp / in_label.sum() if in_label.any() else 0.0
        scores.append(0.0 if precision + recall == 0.0 else 2.0 * precision * recall / (precision + recall))
    return float(np.mean(scores))


def mask_loop_curve(preds, labels, ids, k, num_selections, seed):
    """Former open_maf1_curve: each selection masks the open set with np.isin and runs the mask loop."""
    known = ids < 0
    class_ids = sorted(set(ids[~known].tolist()))
    points = []
    for i in range(1, len(class_ids) + 1):
        f1s = []
        for s in range(num_selections):
            chosen = np.random.default_rng([seed, 7001, i, s]).choice(class_ids, size=i, replace=False)
            mask = known | np.isin(ids, chosen)
            f1s.append(mask_loop_macro_f1(preds[mask], labels[mask], k + 1))
        arr = np.asarray(f1s)
        std = float(arr.std(ddof=1)) if arr.size > 1 else 0.0
        points.append(OpennessPoint(i, openness(k, i), float(arr.mean()), std, tuple(float(v) for v in arr)))
    omegas = np.asarray([pt.omega for pt in points])
    means = np.asarray([pt.f1_mean for pt in points])
    scalar = float((omegas * means).sum() / omegas.sum())
    per_trial = np.asarray(
        [(omegas * np.asarray([pt.f1_values[s] for pt in points])).sum() / omegas.sum() for s in range(num_selections)]
    )
    return points, scalar, float(per_trial.std(ddof=1)) if num_selections > 1 else 0.0


def mask_loop_confusion(preds, labels, k, ids):
    """Former confusion report: np.add.at counts and one mask per unknown class."""
    counts = np.zeros((k + 1, k + 1))
    np.add.at(counts, (labels, preds), 1.0)
    rows = counts.sum(axis=1, keepdims=True)
    matrix = np.divide(counts, rows, out=np.zeros_like(counts), where=rows > 0)
    top = []
    for cls in np.unique(ids[ids >= 0]):
        as_known = preds[ids == cls] < k
        target = int(np.argmax(np.bincount(preds[ids == cls][as_known], minlength=k))) if as_known.any() else None
        top.append({"unknown_class": int(cls), "rate": float(as_known.mean()), "target": target})
    top.sort(key=lambda d: (-d["rate"], d["unknown_class"]))
    return matrix, top


@st.composite
def open_sets(draw):
    """An open set with K + 1 from 3 to 12, unknown classes interleaved with known samples."""
    k = draw(st.integers(2, 11))
    num_classes = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_known, n_unknown = draw(st.integers(1, 50)), draw(st.integers(num_classes, 50))
    class_ids = rng.choice(40, size=num_classes, replace=False)
    ids = np.concatenate([np.full(n_known, -1), class_ids, rng.choice(class_ids, size=n_unknown - num_classes)])
    # labels and predictions from subsets of the classes, so some classes are absent from both
    labelled = rng.choice(k, size=draw(st.integers(1, k)), replace=False)
    labels = np.concatenate([rng.choice(labelled, size=n_known), np.full(n_unknown, k)])
    predicted = rng.choice(k + 1, size=draw(st.integers(1, k + 1)), replace=False)
    preds = rng.choice(predicted, size=ids.size)
    order = rng.permutation(ids.size)
    return preds[order], labels[order], ids[order], k


class TestCountTablesMatchMaskLoops:
    """The count-table sweep and confusion report equal the former mask loops bit for bit."""

    @settings(deadline=None, max_examples=150)
    @given(open_sets(), st.integers(1, 4), st.integers(0, 10**6))
    def test_curve_and_confusion(self, open_set, num_selections, seed):
        preds, labels, ids, k = open_set
        got = open_maf1_curve(preds, labels, ids, k, num_selections=num_selections, seed=seed)
        assert got == mask_loop_curve(preds, labels, ids, k, num_selections, seed)
        matrix, top = confusion_and_top_confusions(preds, labels, k, ids)
        want_matrix, want_top = mask_loop_confusion(preds, labels, k, ids)
        assert np.array_equal(matrix, want_matrix) and top == want_top
        assert macro_f1(preds, labels, k + 1) == mask_loop_macro_f1(preds, labels, k + 1)

    def test_absent_classes_inside_the_pairwise_block(self):
        # from 8 present classes numpy's pairwise sum groups the first 8 apart; with classes 1
        # and 2 absent, a mean over a zero-padded row of all K + 1 classes groups differently
        rng = np.random.default_rng(1)
        present = [0, 3, 4, 5, 6, 7, 8, 9, 10]
        labels = np.concatenate([rng.choice(present, 60), np.full(24, 11)])
        ids = np.concatenate([np.full(60, -1), 30 + np.arange(24) % 4])
        preds = rng.choice(present + [11], size=labels.size)
        order = rng.permutation(labels.size)
        preds, labels, ids = preds[order], labels[order], ids[order]
        got = open_maf1_curve(preds, labels, ids, 11, num_selections=3, seed=5)
        assert got == mask_loop_curve(preds, labels, ids, 11, 3, 5)


def brute_force_auc(known, unknown):
    wins = 0.0
    for su in unknown:
        for sk in known:
            if su > sk:
                wins += 1.0
            elif su == sk:
                wins += 0.5
    return wins / (len(known) * len(unknown))


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.2], [0.3, 0.4]) == 1.0

    def test_all_ties(self):
        assert roc_auc([0.5, 0.5, 0.5], [0.5, 0.5]) == 0.5

    def test_one_tie_hand_case(self):
        assert roc_auc([0.1, 0.3], [0.3, 0.4]) == 0.875

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_with_ties(self, seed):
        rng = np.random.default_rng(seed)
        # quantized scores force plenty of exact ties
        known = (rng.integers(0, 20, size=rng.integers(1, 200)) / 20.0).tolist()
        unknown = (rng.integers(0, 20, size=rng.integers(1, 200)) / 20.0).tolist()
        assert roc_auc(known, unknown) == brute_force_auc(known, unknown)

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10**6))
    def test_complement_rule(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.integers(0, 10, size=rng.integers(1, 30)) / 10.0
        b = rng.integers(0, 10, size=rng.integers(1, 30)) / 10.0
        assert roc_auc(a, b) + roc_auc(b, a) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(4)
        known = rng.uniform(0, 1, size=40)
        unknown = rng.uniform(0, 1, size=30)
        base = roc_auc(known, unknown)
        assert roc_auc(np.exp(known), np.exp(unknown)) == pytest.approx(base, abs=1e-12)
        assert roc_auc(known * 100 - 3, unknown * 100 - 3) == pytest.approx(base, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="non-empty"):
            roc_auc([], [0.5])
        with pytest.raises(ValueError, match="finite"):
            roc_auc([0.5], [np.nan])


class TestEce:
    def test_all_confident_and_correct_is_zero(self):
        assert ece(np.ones(10), np.ones(10)) == 0.0

    def test_single_bin_hand_case(self):
        assert ece([0.8, 0.6], [1.0, 0.0], num_bins=1) == pytest.approx(0.2, abs=1e-15)

    def test_confidence_one_lands_in_last_bin(self):
        # would be an index-out-of-range bug otherwise
        assert ece([1.0], [0.0], num_bins=15) == 1.0

    def test_calibrated_oracle_converges(self):
        rng = np.random.default_rng(123)
        n = 10**5
        conf = rng.uniform(0.0, 1.0, size=n)
        correct = (rng.uniform(0.0, 1.0, size=n) < conf).astype(np.float64)
        assert ece(conf, correct, num_bins=15) < 0.02

    def test_sample_permutation_invariance(self):
        rng = np.random.default_rng(5)
        conf = rng.uniform(0, 1, size=100)
        correct = rng.integers(0, 2, size=100).astype(np.float64)
        perm = rng.permutation(100)
        # summation order inside bins changes, so equality is up to reassociation
        assert ece(conf, correct) == pytest.approx(ece(conf[perm], correct[perm]), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="matching"):
            ece([0.5], [1.0, 0.0])
        with pytest.raises(ValueError, match="lie in"):
            ece([1.5], [1.0])
        with pytest.raises(ValueError, match="num_bins"):
            ece([0.5], [1.0], num_bins=0)


class TestConfusion:
    def test_identity_predictions(self):
        labels = np.array([0, 1, 2, 3])
        matrix, top = confusion_and_top_confusions(labels, labels, num_known=3)
        np.testing.assert_array_equal(matrix, np.eye(4))
        assert top == []

    def test_single_unknown_class_always_leaks_to_three(self):
        preds = np.array([3, 3, 3])
        labels = np.array([5, 5, 5])
        ids = np.array([7, 7, 7])
        matrix, top = confusion_and_top_confusions(preds, labels, num_known=5, unknown_ids=ids)
        assert matrix[5, 3] == 1.0
        assert top == [{"unknown_class": 7, "rate": 1.0, "target": 3}]

    def test_mixed_hand_case(self):
        # K=3; last three samples are unknowns from classes 10, 10, 11
        preds = np.array([0, 1, 1, 3, 2, 2])
        labels = np.array([0, 1, 2, 3, 3, 3])
        ids = np.array([-1, -1, -1, 10, 10, 11])
        matrix, top = confusion_and_top_confusions(preds, labels, num_known=3, unknown_ids=ids)
        np.testing.assert_allclose(matrix[0], [1, 0, 0, 0], atol=0.0)
        np.testing.assert_allclose(matrix[2], [0, 1, 0, 0], atol=0.0)
        np.testing.assert_allclose(matrix[3], [0, 0, 2 / 3, 1 / 3], atol=1e-15)
        assert top == [
            {"unknown_class": 11, "rate": 1.0, "target": 2},
            {"unknown_class": 10, "rate": 0.5, "target": 2},
        ]

    def test_rows_normalize_or_stay_zero(self):
        preds = np.array([0, 0, 1])
        labels = np.array([0, 1, 1])
        matrix, _ = confusion_and_top_confusions(preds, labels, num_known=2)
        np.testing.assert_allclose(matrix[:2].sum(axis=1), 1.0, atol=1e-15)
        np.testing.assert_allclose(matrix[2], 0.0, atol=0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            confusion_and_top_confusions([4], [0], num_known=3)
        with pytest.raises(ValueError, match="unknown_ids"):
            confusion_and_top_confusions([0], [0], num_known=3, unknown_ids=np.array([-1, -1]))


class TestScoreDump:
    def test_round_trip(self, tmp_path):
        probs = np.array([[0.25, 0.5, 0.25], [0.1, 0.2, 0.7], [1 / 3, 1 / 3, 1 / 3]])
        scores = np.array([0.125, 0.9375, 1e-9])
        labels = np.array([1, 3, 0])  # the second sample is unknown
        path = tmp_path / "scores.jsonl"
        write_score_dump(path, probs, scores, labels)
        back = read_score_dump(path)
        assert len(back[0]) == 3
        for orig, loaded in zip((probs, scores, labels), back):
            np.testing.assert_array_equal(orig, loaded)
        assert back[2].dtype == np.int64

    def test_unknown_label_serialized_as_string(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_score_dump(path, [[0.5, 0.5]], [0.9], [2])
        assert '"label": "unknown"' in path.read_text()

    @staticmethod
    def json_dumps_oracle(probs, scores, labels):
        k = np.shape(probs)[1]
        records = zip(np.asarray(probs).tolist(), np.asarray(scores).tolist(), np.asarray(labels).tolist())
        return "".join(
            json.dumps({"probs": row, "score": score, "label": "unknown" if label == k else label}, sort_keys=True)
            + "\n"
            for row, score, label in records
        )

    def test_bytes_equal_json_dumps_of_each_record(self, tmp_path):
        probs = np.array([[0.0, 5e-324, 1.0], [np.nan, np.inf, -np.inf], [1 / 3, 1e-300, 123456789.0]])
        scores = np.array([5e-324, np.nan, -np.inf])
        labels = np.array([3, 0, 2])
        path = tmp_path / "scores.jsonl"
        write_score_dump(path, probs, scores, labels)
        text = path.read_text(encoding="utf-8")
        assert text == self.json_dumps_oracle(probs, scores, labels)
        assert text.splitlines()[0] == '{"label": "unknown", "probs": [0.0, 5e-324, 1.0], "score": 5e-324}'
        assert '"probs": [NaN, Infinity, -Infinity], "score": NaN' in text

    def test_empty_dump(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        write_score_dump(path, np.zeros((0, 3)), np.zeros(0), np.zeros(0, dtype=np.int64))
        assert path.read_bytes() == b""

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 8), st.integers(2, 6), st.data())
    def test_bytes_equal_json_dumps_for_any_floats(self, tmp_path_factory, n, k, data):
        values = st.floats(allow_nan=True, allow_infinity=True, width=64)
        probs = np.asarray(data.draw(st.lists(st.lists(values, min_size=k, max_size=k), min_size=n, max_size=n)))
        probs = probs.reshape(n, k)
        scores = np.asarray(data.draw(st.lists(values, min_size=n, max_size=n)), dtype=np.float64)
        labels = np.asarray(data.draw(st.lists(st.integers(0, k), min_size=n, max_size=n)), dtype=np.int64)
        path = tmp_path_factory.mktemp("dump") / "scores.jsonl"
        write_score_dump(path, probs, scores, labels)
        assert path.read_text(encoding="utf-8") == self.json_dumps_oracle(probs, scores, labels)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"probs": [0.5, 0.5], "score": 0.1, "label": 0}\nnot json\n')
        with pytest.raises(ValueError, match=":2: malformed"):
            read_score_dump(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('\n{"probs": [0.5, 0.5], "score": 0.1, "label": 0}\n\n')
        assert len(read_score_dump(path)[0]) == 1

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"probs": [0.5, 0.5], "score": 0.1}', "malformed"),
            ('{"probs": 0.5, "score": 0.1, "label": 0}', "K>=2"),
            ('{"probs": [1.0], "score": 0.1, "label": 0}', "K>=2"),
            ('{"probs": [0.3, 0.3, 0.4], "score": 0.1, "label": 0}', "earlier lines have 2"),
            ('{"probs": [0.5, NaN], "score": 0.1, "label": 0}', "non-finite"),
            ('{"probs": [0.5, 0.5], "score": Infinity, "label": 0}', "non-finite"),
            ('{"probs": [0.5, 0.5], "score": 0.1, "label": 3}', "out of range"),
            ('{"probs": [0.5, 0.5], "score": 0.1, "label": -1}', "out of range"),
            ('{"probs": [0.5, 0.5], "score": 0.1, "label": "cat"}', "out of range"),
        ],
        ids=[
            "missing_key", "probs_not_a_list", "k_below_2", "k_differs", "nan_prob", "inf_score",
            "label_above_k", "label_negative", "label_not_an_int",
        ],
    )
    def test_invalid_record_reports_line(self, tmp_path, line, message):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"probs": [0.5, 0.5], "score": 0.1, "label": "unknown"}\n' + line + "\n")
        with pytest.raises(ValueError, match=rf"scores\.jsonl:2: .*{message}"):
            read_score_dump(path)


@settings(deadline=None, max_examples=200)
@given(half=st.integers(1, 20), odd=st.booleans(), data=st.data())
def test_avu_median_is_np_median_bit_for_bit(half, odd, data):
    """The AVU threshold's median, on odd and even lengths with ties, leaves its input alone."""
    size = 2 * half - odd
    values = st.sampled_from([0.0, -0.0, 0.25, 0.5, 1.0]) | st.floats(allow_nan=False, allow_infinity=False)
    x = np.array(data.draw(st.lists(values, min_size=size, max_size=size)))
    before = x.tobytes()
    with np.errstate(over="ignore"):
        assert repr(_median(x)) == repr(float(np.median(x)))
    assert x.tobytes() == before
