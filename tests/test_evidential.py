"""Subjective-logic algebra: identities, evidence functions, thresholding."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osev.evidential import (
    DEFAULT_EXP_BOUND,
    EvidenceFunction,
    NonFiniteInputError,
    _clamp,
    batch_probs_and_uncertainty,
    evidence_from_logits,
    evidence_grad_wrt_logits,
    threshold_from_train_scores,
    validate_evidence,
)
from osev.hsic import hsic_value_and_grad
from osev.losses import CLAMP_EPS, euc_loss_grad_evidence


def opinion(evidence):
    """(probs, uncertainty, belief) of one evidence vector; belief is e / S with S = K / u."""
    e = np.asarray(evidence, dtype=np.float64)
    probs, u = batch_probs_and_uncertainty(e)
    return probs, u, e / (e.size / u)


def test_zero_evidence_is_maximal_uncertainty():
    probs, u, belief = opinion([0.0, 0.0, 0.0])
    assert u == 1.0
    np.testing.assert_allclose(probs, [1 / 3, 1 / 3, 1 / 3])
    np.testing.assert_array_equal(belief, [0.0, 0.0, 0.0])


def test_worked_opinion_example():
    # e=[4,1,0]: alpha=[5,2,1], S=8
    probs, u, belief = opinion([4.0, 1.0, 0.0])
    assert 3 / u == 8.0
    np.testing.assert_allclose(probs * 8.0, [5.0, 2.0, 1.0])
    np.testing.assert_allclose(probs, [0.625, 0.25, 0.125])
    assert u == pytest.approx(0.375, abs=1e-15)
    np.testing.assert_allclose(belief, [0.5, 0.125, 0.0])


def test_high_evidence_opinion():
    probs, u, _ = opinion([9.0, 0.0, 0.0])
    assert u == pytest.approx(0.25, abs=1e-15)
    np.testing.assert_allclose(probs, [10 / 12, 1 / 12, 1 / 12])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=10).flatmap(
        lambda k: st.lists(st.floats(0.0, 50.0, allow_nan=False), min_size=k, max_size=k)
    )
)
def test_opinion_identities(evidence):
    probs, u, belief = opinion(evidence)
    k = len(evidence)
    assert abs(u + belief.sum() - 1.0) < 1e-12
    assert abs(probs.sum() - 1.0) < 1e-12
    np.testing.assert_allclose(probs, belief + u / k, atol=1e-12)
    assert abs(u - k / (sum(evidence) + k)) < 1e-12


def test_increasing_evidence_moves_mass():
    """Raising e_k strictly decreases u and strictly increases p_k."""
    (base_probs, bumped_probs), (base_u, bumped_u) = batch_probs_and_uncertainty([[1.0, 2.0, 3.0], [1.0, 2.0, 4.0]])
    assert bumped_u < base_u
    assert bumped_probs[2] > base_probs[2]


def test_evidence_function_values():
    np.testing.assert_allclose(evidence_from_logits([0.0, 0.0, 0.0], EvidenceFunction.EXPONENTIAL), [1, 1, 1])
    out = evidence_from_logits([0.0, 1.0], EvidenceFunction.SOFTPLUS)
    assert out[0] == pytest.approx(np.log(2.0), abs=1e-12)
    np.testing.assert_array_equal(evidence_from_logits([-1.0, 2.0], EvidenceFunction.RELU), [0.0, 2.0])


def test_exponential_clamp_bounds_evidence():
    big = evidence_from_logits([50.0, -50.0], EvidenceFunction.EXPONENTIAL)
    np.testing.assert_allclose(big, [np.exp(DEFAULT_EXP_BOUND), np.exp(-DEFAULT_EXP_BOUND)])
    grad = evidence_grad_wrt_logits(np.array([[50.0, 0.0]]), EvidenceFunction.EXPONENTIAL)
    assert grad[0, 0] == 0.0  # clamped region is flat
    assert grad[0, 1] == pytest.approx(1.0)


def test_softplus_gradient_is_sigmoid():
    x = np.linspace(-4, 4, 9)
    grad = evidence_grad_wrt_logits(x, EvidenceFunction.SOFTPLUS)
    np.testing.assert_allclose(grad, 1.0 / (1.0 + np.exp(-x)), atol=1e-12)
    wide = np.array([[-800.0, -709.9, -709.0], [0.0, 709.9, 800.0]])  # exp(709.9) overflows a float
    grad = evidence_grad_wrt_logits(wide, EvidenceFunction.SOFTPLUS)
    assert grad.shape == (2, 3) and grad[0, :2].tolist() == [0.0, 0.0] and grad[1].tolist() == [0.5, 1.0, 1.0]
    assert 0.0 < grad[0, 2] < 2.3e-308  # a subnormal, not flushed to zero


def test_validate_evidence_rejects_bad_input():
    with pytest.raises(ValueError, match="negative"):
        validate_evidence([1.0, -0.5])
    with pytest.raises(ValueError, match="non-finite"):
        validate_evidence([1.0, np.nan])
    with pytest.raises(ValueError, match="at least 2"):
        validate_evidence([1.0])


def test_non_finite_model_values_raise_the_typed_error():
    with pytest.raises(NonFiniteInputError, match="logit"):
        evidence_from_logits([[0.0, np.nan]])
    with pytest.raises(NonFiniteInputError, match="evidence"):
        validate_evidence([[1.0, np.nan]])
    good = np.random.default_rng(0).standard_normal((4, 2))
    bad = good.copy()
    bad[2, 1] = np.nan
    with pytest.raises(NonFiniteInputError, match="x contains non-finite"):
        hsic_value_and_grad(bad, good)
    with pytest.raises(NonFiniteInputError, match="y contains non-finite"):
        hsic_value_and_grad(good, bad)
    # malformed but finite input stays a plain ValueError
    with pytest.raises(ValueError) as info:
        validate_evidence([1.0, -0.5])
    assert not isinstance(info.value, NonFiniteInputError)


def test_euc_argmax_tie_breaks_to_lowest_index():
    """All-zero evidence ties every class at p = 1/3, u = 1: label 0 takes the
    accurate branch, and the gradient's argmax term dL/dp / S lands on column 0."""
    loss, grad = euc_loss_grad_evidence([0], [[0.0, 0.0, 0.0]], 0.5)
    u = 1.0 - CLAMP_EPS  # u = 1 sits on the clamp, so only dL/dp reaches the evidence
    assert loss == pytest.approx(-0.5 * (1 / 3) * math.log1p(-u), rel=1e-12)
    dl_dp = -0.5 * math.log1p(-u)
    np.testing.assert_allclose(grad[0], [dl_dp * (1 / 3 - 1 / 9), -dl_dp / 9, -dl_dp / 9], rtol=1e-12)
    inaccurate, _ = euc_loss_grad_evidence([1], [[0.0, 0.0, 0.0]], 0.5)
    assert inaccurate == pytest.approx(-0.5 * (2 / 3) * math.log(u), rel=1e-12)


def test_predict_worked_example():
    probs, u = batch_probs_and_uncertainty([[4.0, 1.0, 0.0], [0.0, 8.0, 0.0]])
    assert (np.argmax(probs[0]), probs[0].max(), u[0]) == (
        0,
        pytest.approx(0.625),
        pytest.approx(0.375),
    )
    assert np.argmax(probs[1]) == 1


def test_threshold_order_statistic():
    scores = [round(0.01 * i, 2) for i in range(1, 21)]
    assert threshold_from_train_scores(scores, 0.95) == pytest.approx(0.19)
    assert threshold_from_train_scores(scores, 1.0) == pytest.approx(0.20)
    assert threshold_from_train_scores([0.5], 0.95) == 0.5


def test_threshold_permutation_invariant():
    rng = np.random.default_rng(3)
    scores = rng.uniform(size=57)
    shuffled = rng.permutation(scores)
    assert threshold_from_train_scores(scores, 0.9) == threshold_from_train_scores(shuffled, 0.9)


def test_threshold_rejects_bad_input():
    with pytest.raises(ValueError):
        threshold_from_train_scores([], 0.95)
    with pytest.raises(ValueError):
        threshold_from_train_scores([0.1], 0.0)
    with pytest.raises(ValueError):
        threshold_from_train_scores([0.1], 1.5)


def test_threshold_guarantees_coverage():
    rng = np.random.default_rng(11)
    for n in (7, 20, 33, 100):
        scores = rng.uniform(size=n)
        for coverage in (0.5, 0.8, 0.95, 1.0):
            tau = threshold_from_train_scores(scores, coverage)
            assert np.mean(scores <= tau) >= coverage


def bits(a) -> bytes:
    return np.asarray(a, dtype=np.float64).tobytes()


nonzero_bounds = st.floats(allow_nan=False, allow_infinity=True).filter(lambda v: v != 0.0)


@settings(deadline=None, max_examples=200)
@given(
    x=st.lists(st.floats(allow_nan=False), min_size=1, max_size=12),
    bounds=st.tuples(nonzero_bounds, nonzero_bounds).filter(lambda b: b[0] != b[1]),
)
def test_clamp_is_np_clip_bit_for_bit(x, bounds):
    lo, hi = sorted(bounds)
    assert bits(_clamp(np.array(x), lo, hi)) == bits(np.clip(np.array(x), lo, hi))


def clamp_edges(bound: float) -> list[float]:
    """Finite logits exactly at, just inside and beyond +-bound, signed zeros and subnormals."""
    near = [np.nextafter(bound, 0.0), np.nextafter(bound, np.inf), 2.0 * bound, 1e308]
    values = [bound, *near, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308]
    return [v for s in (1.0, -1.0) for v in (s * np.float64(u) for u in values) if np.isfinite(v)]


@settings(deadline=None, max_examples=200)
@given(
    bound=st.one_of(st.just(np.inf), st.just(DEFAULT_EXP_BOUND), st.floats(min_value=5e-324, max_value=1e308)),
    data=st.data(),
)
def test_exp_evidence_is_exp_of_np_clip_bit_for_bit(bound, data):
    edges = st.sampled_from(clamp_edges(bound))
    logits = data.draw(st.lists(edges | st.floats(allow_nan=False, allow_infinity=False), min_size=2, max_size=16))
    x = np.array(logits)
    with np.errstate(over="ignore"):
        assert bits(evidence_from_logits(x, "exp", bound)) == bits(np.exp(np.clip(x, -bound, bound)))
        for d in (-1.0, 1.0):  # the gradient's clamp too, a step either side of each logit
            moved = np.nextafter(x, d * np.inf)
            expected = np.where(np.abs(moved) < bound, np.exp(np.clip(moved, -bound, bound)), 0.0)
            assert bits(evidence_grad_wrt_logits(moved, "exp", bound)) == bits(expected)


@settings(deadline=None, max_examples=100)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(2, 5)),
    data=st.data(),
)
def test_non_finite_values_are_reported_at_their_first_index(shape, data):
    """The first non-finite value in C order is named, for logits and evidence alike."""
    size = shape[0] * shape[1]
    bad = data.draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3, unique=True))
    values = np.arange(size, dtype=np.float64)
    values[bad] = data.draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), min_size=len(bad),
                                     max_size=len(bad)))
    x = values.reshape(shape)
    first = tuple(int(i) for i in np.unravel_index(min(bad), shape))
    with pytest.raises(NonFiniteInputError) as logit:
        evidence_from_logits(x)
    assert str(logit.value) == f"non-finite logit at index {first}"
    with pytest.raises(NonFiniteInputError) as evidence:
        validate_evidence(x)
    assert str(evidence.value) == f"non-finite evidence at index {first}"
