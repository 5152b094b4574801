"""EDL / EUC losses, annealing, AvU, and the total-loss combiner.

The EDL closed form is cross-checked against a Monte-Carlo estimate of the
Dirichlet-categorical negative log-likelihood, which is the independent oracle
for the formula (the full 10^6-draw version lives in the acceptance suite).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osev import losses as losses_module
from osev.evidential import _probs_and_uncertainty, batch_probs_and_uncertainty
from osev.losses import (
    CLAMP_EPS,
    AnnealingSchedule,
    LossWeights,
    NonFiniteLossError,
    _edl_loss,
    _euc_loss,
    annealing_lambda,
    edl_loss_batch,
    euc_loss_grad_evidence,
    softmax_ce_loss,
    total_loss,
)
from osev.metrics import avu


def mc_dirichlet_nll(label, alpha, draws, seed):
    """Monte-Carlo −ln E_{p~Dir(alpha)}[p_label] with a standard error."""
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(alpha, size=draws)
    lik = p[:, label]
    mean = lik.mean()
    se = lik.std(ddof=1) / math.sqrt(draws)
    # delta method: sd of ln(mean)
    return -math.log(mean), se / mean


def scalar_edl_oracle(y, e):
    """The one-hot, single-sample EDL formula: (sum_k y_k (ln S - ln alpha_k), 1/S - y / alpha)."""
    y = np.asarray(y, dtype=np.float64)
    alpha = np.asarray(e, dtype=np.float64) + 1.0
    strength = alpha.sum()
    return float(np.dot(y, np.log(strength) - np.log(alpha))), 1.0 / strength - y / alpha


def edl_one(label, e):
    """Loss and gradient of one sample through the batched API."""
    losses, grads = edl_loss_batch(np.array([label]), np.asarray(e, dtype=np.float64)[None, :])
    return float(losses[0]), grads[0]


def test_edl_loss_zero_evidence():
    loss, grad = edl_one(0, [0.0, 0.0, 0.0])
    assert loss == pytest.approx(math.log(3.0), abs=1e-12)
    np.testing.assert_allclose(grad, [1 / 3 - 1, 1 / 3, 1 / 3], atol=1e-15)


def test_edl_loss_worked_example():
    loss, _ = edl_one(0, [4.0, 1.0, 0.0])
    assert loss == pytest.approx(math.log(8.0) - math.log(5.0), abs=1e-12)
    assert loss == pytest.approx(0.470004, abs=1e-6)


def test_edl_loss_matches_monte_carlo():
    # light version of the acceptance oracle: 2 instances at 10^5 draws
    rng = np.random.default_rng(7)
    for i in range(2):
        k = int(rng.integers(2, 6))
        e = rng.uniform(0.0, 5.0, size=k)
        label = int(rng.integers(0, k))
        closed, _ = edl_one(label, e)
        est, se = mc_dirichlet_nll(label, e + 1.0, draws=100_000, seed=100 + i)
        assert abs(closed - est) < 3.0 * se, f"instance {i}: {closed} vs {est} +- {se}"


def test_edl_loss_batch_matches_scalar():
    rng = np.random.default_rng(0)
    for k in (2, 4, 9):
        e = rng.uniform(0, 4, size=(6, k)) * 10.0 ** rng.uniform(-3, 3, size=(6, 1))
        labels = rng.integers(0, k, size=6)
        losses, grads = edl_loss_batch(labels, e)
        for i in range(6):
            loss_i, grad_i = scalar_edl_oracle(np.eye(k)[labels[i]], e[i])
            assert losses[i] == loss_i
            assert (grads[i] == grad_i).all()


@pytest.mark.parametrize(
    "labels, message",
    [
        (np.array([0.0, 1.0]), "integer"),
        (np.array([[0], [1]]), "shape"),
        (np.array([0, -1]), "out of range"),
        (np.array([0, 3]), "out of range"),
        (np.array([0, 1, 2]), "shape"),
    ],
    ids=["float_dtype", "two_d", "negative", "too_large", "wrong_length"],
)
def test_bad_labels_rejected(labels, message):
    e = np.ones((2, 3))
    with pytest.raises(ValueError, match=message):
        edl_loss_batch(labels, e)
    with pytest.raises(ValueError, match=message):
        softmax_ce_loss(labels, e)
    with pytest.raises(ValueError, match=message):
        euc_loss_grad_evidence(labels, e, 0.5)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 30.0, allow_nan=False), min_size=3, max_size=3), st.integers(0, 2))
def test_edl_loss_non_negative(evidence, true_class):
    loss, _ = edl_one(true_class, evidence)
    assert loss >= 0.0


def test_edl_loss_vanishes_with_strong_evidence():
    losses = [edl_one(0, [s, 0.0, 0.0])[0] for s in (10.0, 100.0, 10_000.0)]
    assert losses[0] > losses[1] > losses[2]
    assert losses[-1] < 1e-3


def test_annealing_endpoints_and_midpoint():
    sched = AnnealingSchedule(lambda0=0.01, total_epochs=50)
    assert annealing_lambda(0, sched) == pytest.approx(0.01, abs=1e-15)
    assert annealing_lambda(50, sched) == pytest.approx(1.0, abs=1e-12)
    assert annealing_lambda(25, sched) == pytest.approx(0.1, abs=1e-12)


def test_annealing_monotone_and_clamped():
    sched = AnnealingSchedule(lambda0=0.05, total_epochs=17)
    values = [annealing_lambda(t, sched) for t in range(18)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    with pytest.warns(UserWarning, match="clamping"):
        assert annealing_lambda(18, sched) == 1.0


def test_annealing_rejects_bad_arguments():
    with pytest.raises(ValueError):
        AnnealingSchedule(lambda0=1.5, total_epochs=10)
    with pytest.raises(ValueError):
        AnnealingSchedule(lambda0=0.01, total_epochs=0)
    with pytest.raises(ValueError):
        annealing_lambda(-1, AnnealingSchedule())


def _accurate_two_class_batch(p_star, u):
    """Evidence of one 2-class sample, accurate for label 0, with chosen max-prob and uncertainty.

    u = 2/S fixes S, p_star fixes the winning alpha; feasible whenever the
    implied evidence stays non-negative.
    """
    s = 2.0 / u
    alpha_win = p_star * s
    e = np.array([[alpha_win - 1.0, s - alpha_win - 1.0]])
    probs, unc = batch_probs_and_uncertainty(e)
    assert np.argmax(probs[0]) == 0
    assert probs[0, 0] == pytest.approx(p_star, abs=1e-9)
    assert unc[0] == pytest.approx(u, abs=1e-9)
    return e


def test_euc_accurate_sample_value():
    e = _accurate_two_class_batch(p_star=0.9, u=0.2)
    loss = euc_loss_grad_evidence(np.array([0]), e, 0.5)[0]
    assert loss == pytest.approx(-0.5 * 0.9 * math.log(0.8), abs=1e-12)
    assert loss == pytest.approx(0.100414, abs=1e-6)


def test_euc_inaccurate_sample_value():
    # K=4 realizes max-prob 0.3 with u=0.7: alpha = [12/7, 4/3, 4/3, 4/3],
    # S = 40/7, p* = 0.3, u = 4/S = 0.7; label 1 makes the sample inaccurate.
    e = np.array([[5.0 / 7.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0]])
    probs, u = batch_probs_and_uncertainty(e)
    assert np.argmax(probs[0]) != 1
    assert probs[0].max() == pytest.approx(0.3, abs=1e-12)
    assert u[0] == pytest.approx(0.7, abs=1e-12)
    loss = euc_loss_grad_evidence(np.array([1]), e, 0.5)[0]
    assert loss == pytest.approx(-0.5 * 0.7 * math.log(0.7), abs=1e-12)
    assert loss == pytest.approx(0.124836, abs=1e-6)


def test_euc_accurate_confident_sample_is_free():
    # u -> 0 makes ln(1 - u) -> 0; an accurate certain sample costs nothing
    e = _accurate_two_class_batch(p_star=0.99, u=1e-6)
    loss = euc_loss_grad_evidence(np.array([0]), e, 0.5)[0]
    assert loss == pytest.approx(0.0, abs=1e-5)


def test_euc_non_negative_on_random_batches():
    rng = np.random.default_rng(5)
    for _ in range(50):
        e = rng.uniform(0, 6, size=(8, 4))
        labels = rng.integers(0, 4, size=8)
        loss = euc_loss_grad_evidence(labels, e, float(rng.uniform(0.01, 1.0)))[0]
        assert loss >= 0.0


def test_euc_subset_means_are_batch_size_invariant():
    """Duplicating every sample leaves the loss unchanged."""
    rng = np.random.default_rng(9)
    e = rng.uniform(0, 6, size=(5, 3))
    labels = rng.integers(0, 3, size=5)
    one = euc_loss_grad_evidence(labels, e, 0.4)[0]
    two = euc_loss_grad_evidence(np.tile(labels, 2), np.tile(e, (2, 1)), 0.4)[0]
    assert two == pytest.approx(one, abs=1e-12)


def test_euc_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    e = rng.uniform(0.5, 4.0, size=(6, 3))
    labels = rng.integers(0, 3, size=6)
    lam_t = 0.35
    _, grad = euc_loss_grad_evidence(labels, e, lam_t)
    eps = 1e-6
    for i in range(e.shape[0]):
        for j in range(e.shape[1]):
            up, down = e.copy(), e.copy()
            up[i, j] += eps
            down[i, j] -= eps
            fd = (
                euc_loss_grad_evidence(labels, up, lam_t)[0]
                - euc_loss_grad_evidence(labels, down, lam_t)[0]
            ) / (2 * eps)
            assert abs(fd - grad[i, j]) < 1e-6, f"evidence grad mismatch at ({i},{j})"


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 12),
    classes=st.integers(2, 6),
    scale=st.sampled_from([1e-9, 1.0, 30.0, 1e9]),
    lambda_t=st.floats(0.0, 1.0),
)
def test_value_only_terms_equal_the_gradient_carrying_ones(seed, batch, classes, scale, lambda_t):
    """The audit's value-only EDL and EUC terms are the same floats as the training entries'."""
    rng = np.random.default_rng(seed)
    e = rng.exponential(scale, size=(batch, classes)) * (rng.random((batch, classes)) < 0.8)
    labels = rng.integers(0, classes, size=batch)

    values, no_grads = _edl_loss(labels, e, with_grad=False)
    assert no_grads is None
    assert values.tolist() == edl_loss_batch(labels, e)[0].tolist()

    loss, no_grad = _euc_loss(labels, e, *_probs_and_uncertainty(e), lambda_t, with_grad=False)
    assert no_grad is None
    assert loss == euc_loss_grad_evidence(labels, e, lambda_t)[0]


def test_avu_counts():
    # 2 accurate-certain, 1 accurate-uncertain, 1 inaccurate-uncertain
    e = np.array(
        [
            [9.0, 0.0],  # u = 2/11, accurate, certain
            [9.0, 0.0],
            [0.2, 0.0],  # u = 2/2.2, accurate, uncertain
            [0.0, 0.2],  # inaccurate (label 0), uncertain
        ]
    )
    labels = np.array([0, 0, 0, 0])
    probs, u = batch_probs_and_uncertainty(e)
    assert avu(np.argmax(probs, axis=1) == labels, u, threshold=0.5) == pytest.approx(0.75)


def test_avu_extremes():
    e = np.array([[9.0, 0.0], [9.0, 0.0]])
    probs, u = batch_probs_and_uncertainty(e)
    accurate = np.argmax(probs, axis=1) == np.array([0, 0])
    assert avu(accurate, u, threshold=0.99) == 1.0  # all accurate and certain
    assert avu(accurate, u, threshold=0.0001) == 0.0  # all accurate but uncertain


def test_total_loss_combination():
    w = LossWeights()
    assert total_loss(1.0, 0.0, 0.0, w) == 1.0
    assert total_loss(1.0, 0.5, 2.0, w) == pytest.approx(1.7)
    assert total_loss(0.0, 0.0, 0.0, w) == 0.0


def test_total_loss_rejects_non_finite():
    with pytest.raises(NonFiniteLossError, match="edl"):
        total_loss(float("nan"), 0.0, 0.0, LossWeights())
    with pytest.raises(NonFiniteLossError, match="ced"):
        total_loss(0.0, 0.0, float("inf"), LossWeights())


def test_loss_weights_reject_negative():
    with pytest.raises(ValueError):
        LossWeights(w_euc=-0.1)


def test_softmax_ce_gradient_sums_to_zero():
    rng = np.random.default_rng(4)
    logits = rng.standard_normal((5, 3))
    labels = rng.integers(0, 3, size=5)
    loss, grad = softmax_ce_loss(labels, logits)
    assert loss > 0.0
    np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)


def test_softmax_ce_matches_one_hot_form():
    rng = np.random.default_rng(5)
    logits = rng.standard_normal((9, 4)) * 3.0
    labels = rng.integers(0, 4, size=9)
    y = np.eye(4)[labels]
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss, grad = softmax_ce_loss(labels, logits)
    assert loss == pytest.approx(float(-(y * log_probs).sum() / 9), rel=1e-15)
    assert (grad == (np.exp(log_probs) - y) / 9).all()


def euc_edges() -> list[float]:
    """Probabilities and uncertainties exactly at, just inside and beyond each clamp bound."""
    lo, hi = CLAMP_EPS, 1.0 - CLAMP_EPS
    return [0.0, 5e-324, lo, np.nextafter(lo, 0.0), np.nextafter(lo, 1.0), 0.5,
            hi, np.nextafter(hi, 0.0), np.nextafter(hi, 1.0), 1.0]


@settings(deadline=None, max_examples=150)
@given(data=st.data(), n=st.integers(1, 8), lambda_t=st.floats(0.0, 1.0), with_grad=st.booleans())
def test_euc_clamps_are_np_clip_bit_for_bit(data, n, lambda_t, with_grad):
    """_euc_loss against itself with np.clip as its clamp, and its value against the
    np.clip and ndarray.mean expression it replaces.

    One probability column makes p the max probability and argmax 0, so label 0
    is accurate and label 1 is not, and p, u and accuracy are independent edge
    values.  The two evidence columns carry dL/dp and dL/du into the gradient
    as independent combinations (their difference is dL/dp / 4)."""
    unit = st.sampled_from(euc_edges()) | st.floats(0.0, 1.0)
    p = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    u = np.array(data.draw(st.lists(unit, min_size=n, max_size=n)))
    acc = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    args = (np.where(acc, 0, 1), np.ones((n, 2)), p[:, None], u, lambda_t, with_grad)
    got = _euc_loss(*args)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(losses_module, "_clamp", np.clip)
        clipped = _euc_loss(*args)
    assert repr(got[0]) == repr(clipped[0])
    assert (got[1] is None and clipped[1] is None) or got[1].tobytes() == clipped[1].tobytes()
    pc, uc = np.clip(p, CLAMP_EPS, 1.0 - CLAMP_EPS), np.clip(u, CLAMP_EPS, 1.0 - CLAMP_EPS)
    expected = 0.0
    if acc.any():
        expected -= lambda_t * float((pc[acc] * np.log1p(-uc[acc])).mean())
    if (~acc).any():
        expected -= (1.0 - lambda_t) * float(((1.0 - pc[~acc]) * np.log(uc[~acc])).mean())
    assert repr(got[0]) == repr(expected)


def _edl_loss_with_sum(y, ev):
    """_edl_loss with gradients as it read with ``alpha.sum(axis=1)``."""
    rows = np.arange(y.size)
    alpha = ev + 1.0
    alpha_y = alpha[rows, y]
    strength = alpha.sum(axis=1)
    grads = np.repeat(1.0 / strength[:, None], ev.shape[1], axis=1)
    grads[rows, y] -= 1.0 / alpha_y
    return np.log(strength) - np.log(alpha_y), grads


def _euc_grad_evidence_with_sum(y, ev, lambda_t):
    """euc_loss_grad_evidence written out, with ``alpha.sum(axis=1)`` as the strength."""
    probs, u_raw = batch_probs_and_uncertainty(ev)
    rows = np.arange(y.size)
    predicted = np.argmax(probs, axis=1)
    p_raw = probs[rows, predicted]
    p, u = np.clip(p_raw, CLAMP_EPS, 1.0 - CLAMP_EPS), np.clip(u_raw, CLAMP_EPS, 1.0 - CLAMP_EPS)
    acc = predicted == y
    grad_p, grad_u = np.zeros_like(p), np.zeros_like(u)
    loss = 0.0
    if acc.any():
        log_one_minus_u = np.log1p(-u[acc])
        loss -= lambda_t * float(np.add.reduce(p[acc] * log_one_minus_u) / log_one_minus_u.size)
        grad_p[acc] = -lambda_t * log_one_minus_u / float(acc.sum())
        grad_u[acc] = lambda_t * p[acc] / ((1.0 - u[acc]) * float(acc.sum()))
    if (~acc).any():
        log_u = np.log(u[~acc])
        loss -= (1.0 - lambda_t) * float(np.add.reduce((1.0 - p[~acc]) * log_u) / log_u.size)
        grad_p[~acc] = (1.0 - lambda_t) * log_u / float((~acc).sum())
        grad_u[~acc] = -(1.0 - lambda_t) * (1.0 - p[~acc]) / (u[~acc] * float((~acc).sum()))
    grad_p[~((p_raw > CLAMP_EPS) & (p_raw < 1.0 - CLAMP_EPS))] = 0.0
    grad_u[~((u_raw > CLAMP_EPS) & (u_raw < 1.0 - CLAMP_EPS))] = 0.0
    alpha = ev + 1.0
    strength = alpha.sum(axis=1)
    k = ev.shape[1]
    grad_e = np.repeat((-(grad_p * alpha[rows, predicted] + grad_u * k) / strength**2)[:, None], k, axis=1)
    grad_e[rows, predicted] += grad_p / strength
    return loss, grad_e


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    batch=st.integers(1, 12),
    classes=st.integers(2, 6),
    scale=st.sampled_from([1e-9, 1.0, 30.0, 1e9, 1e300]),
    lambda_t=st.floats(0.0, 1.0),
)
def test_add_reduce_strengths_are_the_sum_expressions_bit_for_bit(seed, batch, classes, scale, lambda_t):
    rng = np.random.default_rng(seed)
    e = rng.exponential(scale, size=(batch, classes)) * (rng.random((batch, classes)) < 0.8)
    labels = rng.integers(0, classes, size=batch)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for ours, reference in zip(edl_loss_batch(labels, e), _edl_loss_with_sum(labels, e)):
            assert ours.tobytes() == reference.tobytes()
        loss, grad = euc_loss_grad_evidence(labels, e, lambda_t)
        ref_loss, ref_grad = _euc_grad_evidence_with_sum(labels, e, lambda_t)
    assert repr(loss) == repr(ref_loss)
    assert grad.tobytes() == ref_grad.tobytes()
