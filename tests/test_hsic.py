"""HSIC estimator against a direct-summation oracle plus kernel edge cases."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osev.hsic import (
    KernelParams,
    hsic_biased,
    hsic_value_and_grad,
    median_bandwidth,
    rbf_gram,
)


def oracle_gram(x, sigma):
    """Entry-by-entry RBF Gram matrix, no vectorized shortcuts."""
    n = x.shape[0]
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            d2 = float(np.sum((x[i] - x[j]) ** 2))
            gram[i, j] = math.exp(-d2 / (2.0 * sigma * sigma))
    return gram


def oracle_hsic(x, y, sigma_x, sigma_y):
    """tr(Kx H Ky H) / (n-1)^2 with H materialized explicitly."""
    n = x.shape[0]
    kx = oracle_gram(x, sigma_x)
    ky = oracle_gram(y, sigma_y)
    h = np.eye(n) - np.full((n, n), 1.0 / n)
    return float(np.trace(kx @ h @ ky @ h)) / (n - 1) ** 2


@pytest.mark.parametrize("n", [2, 3, 8, 64])
@pytest.mark.parametrize("d", [1, 4])
def test_matches_direct_summation_oracle_fixed_sigma(n, d):
    rng = np.random.default_rng(100 * n + d)
    x = rng.normal(size=(n, d))
    y = rng.normal(size=(n, d))
    value, _ = hsic_value_and_grad(x, y, KernelParams(sigma=0.8))
    assert value == pytest.approx(oracle_hsic(x, y, 0.8, 0.8), abs=1e-12)


@pytest.mark.parametrize("n", [3, 16])
def test_matches_oracle_under_median_heuristic(n):
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 3))
    y = rng.normal(size=(n, 2))
    value, _ = hsic_value_and_grad(x, y)
    expected = oracle_hsic(x, y, median_bandwidth(x), median_bandwidth(y))
    assert value == pytest.approx(expected, abs=1e-12)


def test_gram_route_agrees_with_fused_route():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(10, 3))
    y = rng.normal(size=(10, 5))
    params = KernelParams(sigma=1.3)
    via_grams = hsic_biased(rbf_gram(x, params), rbf_gram(y, params))
    fused, _ = hsic_value_and_grad(x, y, params)
    assert via_grams == pytest.approx(fused, abs=1e-12)


def test_two_sample_half_correlation_gives_quarter():
    # With n=2 and both off-diagonals c, c': HSIC = (1-c)(1-c').
    kx = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert hsic_biased(kx, kx) == pytest.approx(0.25, abs=1e-15)


def test_constant_input_scores_zero():
    x = np.ones((6, 3))
    y = np.random.default_rng(0).normal(size=(6, 2))
    value, grad = hsic_value_and_grad(x, y)
    assert value == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(grad, 0.0, atol=1e-15)


def test_argument_symmetry():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(9, 2))
    y = rng.normal(size=(9, 4))
    vxy, _ = hsic_value_and_grad(x, y)
    vyx, _ = hsic_value_and_grad(y, x)
    assert vxy == pytest.approx(vyx, abs=1e-12)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**6))
def test_sample_permutation_invariance(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    x = rng.normal(size=(n, 3))
    y = rng.normal(size=(n, 2))
    perm = rng.permutation(n)
    base, _ = hsic_value_and_grad(x, y, KernelParams(sigma=1.0))
    shuffled, _ = hsic_value_and_grad(x[perm], y[perm], KernelParams(sigma=1.0))
    assert shuffled == pytest.approx(base, abs=1e-12)


def test_self_dependence_is_positive():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(8, 3))
    value, _ = hsic_value_and_grad(x, x)
    assert value > 0.0


def test_centering_features_is_a_no_op_for_value():
    # RBF distances are translation invariant, so features need no centring
    rng = np.random.default_rng(5)
    x = rng.normal(size=(7, 3))
    y = rng.normal(size=(7, 2))
    c = np.array([100.0, -50.0, 3.0])
    for params in (KernelParams(sigma=1.0), KernelParams()):
        plain, gp = hsic_value_and_grad(x, y, params)
        shifted, gs = hsic_value_and_grad(x + c, y, params)
        assert shifted == pytest.approx(plain, abs=1e-12)
        np.testing.assert_allclose(gs, gp, atol=1e-12)


class TestRbfGram:
    def test_identical_rows_give_all_ones(self):
        gram = rbf_gram(np.ones((4, 2)), KernelParams(sigma=2.0))
        np.testing.assert_allclose(gram, np.ones((4, 4)), atol=0.0)

    def test_distance_sigma_root_two_gives_exp_minus_one(self):
        sigma = 0.7
        x = np.array([[0.0], [sigma * math.sqrt(2.0)]])
        gram = rbf_gram(x, KernelParams(sigma=sigma))
        assert gram[0, 1] == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert gram[0, 1] == pytest.approx(0.3678794411714423, abs=1e-12)

    def test_unit_diagonal_and_bounded_entries(self):
        rng = np.random.default_rng(2)
        gram = rbf_gram(rng.normal(size=(12, 5)))
        np.testing.assert_allclose(np.diag(gram), 1.0, atol=0.0)
        assert np.all(gram > 0.0) and np.all(gram <= 1.0)
        np.testing.assert_allclose(gram, gram.T, atol=0.0)


class TestMedianBandwidth:
    def test_hand_computed_median(self):
        # pairwise distances 1, 3, 2 -> median 2
        x = np.array([[0.0], [1.0], [3.0]])
        assert median_bandwidth(x) == pytest.approx(2.0, abs=0.0)

    def test_all_zero_distances_fall_back_to_one(self):
        assert median_bandwidth(np.ones((5, 3))) == 1.0

    def test_zero_distances_are_excluded_from_median(self):
        # duplicates contribute zero distances which must not drag the median down
        x = np.array([[0.0], [0.0], [4.0]])
        assert median_bandwidth(x) == pytest.approx(4.0, abs=0.0)


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(21)
    params = KernelParams(sigma=1.1)
    for _ in range(5):
        x = rng.normal(size=(6, 3))
        y = rng.normal(size=(6, 2))
        _, grad = hsic_value_and_grad(x, y, params)
        eps = 1e-6
        fd = np.empty_like(x)
        for i in range(x.shape[0]):
            for j in range(x.shape[1]):
                hi = x.copy()
                lo = x.copy()
                hi[i, j] += eps
                lo[i, j] -= eps
                vh, _ = hsic_value_and_grad(hi, y, params)
                vl, _ = hsic_value_and_grad(lo, y, params)
                fd[i, j] = (vh - vl) / (2.0 * eps)
        np.testing.assert_allclose(grad, fd, atol=5e-9)


def test_median_mode_gradient_freezes_the_bandwidth():
    # The returned gradient is the derivative at the *current* median sigma,
    # so it must equal the explicit-sigma gradient with that value pinned.
    rng = np.random.default_rng(13)
    x = rng.normal(size=(8, 3))
    y = rng.normal(size=(8, 2))
    _, grad_median = hsic_value_and_grad(x, y)
    sig_x = median_bandwidth(x)
    kx = rbf_gram(x, KernelParams(sigma=sig_x))
    ky = rbf_gram(y, KernelParams(sigma=median_bandwidth(y)))
    n = x.shape[0]
    h = np.eye(n) - np.full((n, n), 1.0 / n)
    w = (h @ ky @ h) * kx
    expected = (-2.0 / (sig_x * sig_x * (n - 1) ** 2)) * (
        w.sum(axis=1)[:, None] * x - w @ x
    )
    np.testing.assert_allclose(grad_median, expected, atol=1e-12)


class TestValidation:
    def test_single_sample_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            hsic_value_and_grad(np.ones((1, 3)), np.ones((1, 3)))

    def test_mismatched_sample_counts_rejected(self):
        with pytest.raises(ValueError, match="same samples"):
            hsic_value_and_grad(np.ones((3, 2)), np.ones((4, 2)))

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            rbf_gram(np.ones(5))

    def test_non_finite_input_rejected(self):
        x = np.ones((3, 2))
        x[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            rbf_gram(x)

    def test_non_square_gram_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hsic_biased(np.ones((3, 2)), np.ones((3, 2)))

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            KernelParams(sigma=0.0)
        with pytest.raises(ValueError, match="sigma"):
            KernelParams(sigma=-1.0)
