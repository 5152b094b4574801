"""Three-branch debiasing: stop-gradients, schedules, stripping, dynamics."""

import numpy as np
import pytest

from osev.checkpoint import save_checkpoint
from osev.debias import (
    CedBranches,
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
from osev.hsic import KernelParams, hsic_value_and_grad
from osev.losses import LossWeights
from osev.nn import sgd_step

CHANNELS, WIDTH, KERNEL, CLASSES = 3, 6, 3, 4


def make_branches(seed=0):
    return build_branches(
        CHANNELS,
        WIDTH,
        KERNEL,
        CLASSES,
        np.random.default_rng([seed, 1]),
        np.random.default_rng([seed, 2]),
        np.random.default_rng([seed, 3]),
    )


def make_batch(seed=100, batch=12, timesteps=10):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(batch, CHANNELS, timesteps))
    labels = rng.integers(0, CLASSES, size=batch)
    return x, labels


class TestStopGradients:
    def test_debias_objective_leaves_biased_branches_untouched(self):
        branches = make_branches()
        x, labels = make_batch()
        fwd = ced_forward(branches, x, rng=np.random.default_rng(1))
        debias_objective(branches, fwd, labels, LossWeights(w_ced=1.0, lambda_hsic=1.0), KernelParams())
        for p in branches.parameters("h"):
            assert not p.grad.any(), p.name
        assert any(p.grad.any() for p in branches.parameters("f"))

    def test_bias_objective_leaves_main_branch_untouched(self):
        branches = make_branches()
        x, labels = make_batch()
        fwd = ced_forward(branches, x, rng=np.random.default_rng(1))
        bias_objective(branches, fwd, labels, LossWeights(w_ced=1.0, lambda_hsic=1.0), KernelParams())
        for p in branches.parameters("f"):
            assert not p.grad.any(), p.name
        assert any(p.grad.any() for p in branches.parameters("h"))

    def test_debug_mode_passes_on_clean_accumulation(self):
        branches = make_branches()
        x, labels = make_batch()
        weights = LossWeights(w_euc=1.0, w_ced=0.1, lambda_hsic=1.0)
        accumulate_gradients(
            branches,
            x,
            labels,
            weights=weights,
            lambda_t=0.5,
            use_euc=True,
            shuffle_rng=np.random.default_rng(2),
            debug=True,
        )

    def test_debug_mode_flags_poisoned_gradient(self):
        branches = make_branches()
        x, labels = make_batch()
        branches.parameters("h")[0].grad[...] = 1.0
        with pytest.raises(AssertionError, match="stop-gradient"):
            accumulate_gradients(
                branches,
                x,
                labels,
                weights=LossWeights(lambda_hsic=1.0),
                lambda_t=0.5,
                use_euc=False,
                shuffle_rng=np.random.default_rng(2),
                debug=True,
            )

    def test_f_then_h_side_equals_joint_bit_for_bit(self):
        x, labels = make_batch()
        perms = np.random.default_rng(3).permuted(np.tile(np.arange(x.shape[2]), (x.shape[0], 1)), axis=1)
        weights = LossWeights(w_euc=1.0, w_ced=0.1, lambda_hsic=1.0)
        grads = {}
        for sides in (("f", "h"), ("joint",)):
            branches = make_branches()
            for side in sides:
                accumulate_gradients(
                    branches, x, labels, weights=weights, lambda_t=0.5, use_euc=True, perms=perms, side=side
                )
            grads[sides] = [p.grad.copy() for p in branches.parameters()]
        assert all(g.any() for g in grads[("joint",)])
        for split, joint in zip(grads[("f", "h")], grads[("joint",)]):
            assert np.array_equal(split, joint)

    def test_side_argument_validated(self):
        branches = make_branches()
        x, labels = make_batch()
        with pytest.raises(ValueError, match="side"):
            accumulate_gradients(
                branches,
                x,
                labels,
                weights=LossWeights(),
                lambda_t=0.5,
                use_euc=False,
                shuffle_rng=np.random.default_rng(0),
                side="both",
            )

    @pytest.mark.parametrize(
        "labels, message",
        [(np.full(12, CLASSES), "out of range"), (np.zeros(12), "integer"), (np.zeros(11, dtype=int), "shape")],
        ids=["too_large", "float_dtype", "wrong_length"],
    )
    def test_bad_labels_rejected_before_the_forward_pass(self, monkeypatch, labels, message):
        def no_forward(*args, **kwargs):
            raise AssertionError("forward pass ran on bad labels")

        monkeypatch.setattr("osev.debias.ced_forward", no_forward)
        x, _ = make_batch()
        with pytest.raises(ValueError, match=message):
            accumulate_gradients(
                make_branches(), x, labels, weights=LossWeights(), lambda_t=0.5, use_euc=False,
                shuffle_rng=np.random.default_rng(0),
            )


class TestRecordOnlyDependence:
    @pytest.mark.parametrize(
        "side, lam, gradient_calls",
        [("joint", 1.0, 4), ("f", 1.0, 2), ("h", 1.0, 2), ("joint", 0.0, 0)],
    )
    def test_only_applied_gradients_are_computed(self, monkeypatch, side, lam, gradient_calls):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return hsic_value_and_grad(*args, **kwargs)

        monkeypatch.setattr("osev.debias.hsic_value_and_grad", counted)
        x, labels = make_batch()
        perms = np.random.default_rng(3).permuted(np.tile(np.arange(x.shape[2]), (x.shape[0], 1)), axis=1)
        weights = LossWeights(w_euc=1.0, w_ced=0.1, lambda_hsic=lam)

        def step(on):
            return accumulate_gradients(
                make_branches(), x, labels, weights=weights, lambda_t=0.5, use_euc=True, perms=perms, side=on
            )

        record = step(side)
        assert len(calls) == gradient_calls
        # value-only dependence terms record exactly what the gradient path computes
        joint = step("joint")
        assert record.hsic_shuffled == joint.hsic_shuffled
        assert record.hsic_static == joint.hsic_static
        assert record.ced == joint.ced


class TestZeroPenaltyEquivalence:
    def test_main_branch_matches_vanilla_run_bit_for_bit(self):
        # penalty weight zero (lambda_hsic = 0 or w_ced = 0) must skip the
        # dependence terms entirely, so the main branch follows the exact same
        # trajectory as a run without the biased branches at all; the record
        # still reports the true dependence
        for weights in (
            LossWeights(w_euc=1.0, w_ced=0.1, lambda_hsic=0.0),
            LossWeights(w_euc=1.0, w_ced=0.0, lambda_hsic=1.0),
        ):
            branches = make_branches(seed=3)
            solo = build_branch("f", CHANNELS, WIDTH, KERNEL, CLASSES, np.random.default_rng([3, 1]))
            shuffle_rng = np.random.default_rng(50)
            mode = TrainingMode(joint=True)
            for step in range(5):
                x, labels = make_batch(seed=200 + step)
                record, params = train_step(
                    branches,
                    x,
                    labels,
                    weights=weights,
                    mode=mode,
                    lambda_t=0.3,
                    use_euc=True,
                    shuffle_rng=shuffle_rng,
                    step_index=step,
                )
                sgd_step(params, 0.05)
                _, solo_params = vanilla_train_step(solo, x, labels, lambda_t=0.3, use_euc=True, weights=weights)
                sgd_step(solo_params, 0.05)
                assert record.hsic_shuffled > 0.0 and record.hsic_static > 0.0
            for p_ced, p_solo in zip(branches.parameters("f"), solo.parameters()):
                assert p_ced.name == p_solo.name
                assert np.array_equal(p_ced.value, p_solo.value), (weights, p_ced.name)


class TestAlternatingSchedule:
    def test_side_sequence(self):
        mode = TrainingMode(joint=False, period=1)
        assert [mode.side(i) for i in range(4)] == ["f", "h", "f", "h"]
        mode2 = TrainingMode(joint=False, period=2)
        assert [mode2.side(i) for i in range(6)] == ["f", "f", "h", "h", "f", "f"]
        assert TrainingMode(joint=True).side(17) == "joint"

    def test_period_validated(self):
        with pytest.raises(ValueError, match="period"):
            TrainingMode(joint=False, period=0)

    def test_off_side_parameters_and_momentum_untouched(self):
        branches = make_branches(seed=4)
        x, labels = make_batch(seed=300)
        weights = LossWeights(lambda_hsic=1.0)
        mode = TrainingMode(joint=False, period=1)
        h_before = [(p.value.copy(), p.momentum.copy()) for p in branches.parameters("h")]
        rec, params = train_step(
            branches,
            x,
            labels,
            weights=weights,
            mode=mode,
            lambda_t=0.5,
            use_euc=False,
            shuffle_rng=np.random.default_rng(5),
            step_index=0,
        )
        sgd_step(params, 0.05)
        assert rec.side == "f"
        for p, (val, mom) in zip(branches.parameters("h"), h_before):
            assert np.array_equal(p.value, val), p.name
            assert np.array_equal(p.momentum, mom), p.name

        f_before = [(p.value.copy(), p.momentum.copy()) for p in branches.parameters("f")]
        rec, params = train_step(
            branches,
            x,
            labels,
            weights=weights,
            mode=mode,
            lambda_t=0.5,
            use_euc=False,
            shuffle_rng=np.random.default_rng(6),
            step_index=1,
        )
        sgd_step(params, 0.05)
        assert rec.side == "h"
        for p, (val, mom) in zip(branches.parameters("f"), f_before):
            assert np.array_equal(p.value, val), p.name
            assert np.array_equal(p.momentum, mom), p.name


class TestStripForInference:
    def test_returns_main_branch_and_is_idempotent(self):
        branches = make_branches()
        stripped = strip_for_inference(branches)
        assert stripped is branches.f_branch
        assert strip_for_inference(stripped) is stripped

    def test_predictions_do_not_depend_on_biased_weights(self):
        branches = make_branches(seed=7)
        x, _ = make_batch(seed=400)
        stripped = strip_for_inference(branches)
        _, before = stripped.forward(x)
        for p in branches.parameters("h"):
            p.value[...] = 123.0
        _, after = stripped.forward(x)
        np.testing.assert_array_equal(before, after)

    def test_stripped_checkpoint_is_strictly_smaller(self, tmp_path):
        branches = make_branches()
        full = tmp_path / "full.ckpt"
        lean = tmp_path / "lean.ckpt"
        save_checkpoint(full, {p.name: p.value for p in branches.parameters()})
        save_checkpoint(
            lean, {p.name: p.value for p in strip_for_inference(branches).parameters()}
        )
        assert lean.stat().st_size < full.stat().st_size

    def test_unknown_object_rejected(self):
        with pytest.raises(TypeError, match="strip"):
            strip_for_inference(42)


class TestCedForward:
    def test_shapes(self):
        branches = make_branches()
        x, _ = make_batch(batch=5, timesteps=9)
        fwd = ced_forward(branches, x, rng=np.random.default_rng(0))
        assert fwd.f.shape == (5, WIDTH)
        assert fwd.h_shuffled.shape == (5, WIDTH)
        assert fwd.h_static.shape == (5, WIDTH)
        for e in (fwd.e_f, fwd.e_shuffled, fwd.e_static):
            assert e.shape == (5, CLASSES)
            assert np.all(e >= 0.0)
        assert fwd.perms.shape == (5, 9)

    def test_small_batch_rejected(self):
        branches = make_branches()
        with pytest.raises(ValueError, match=">= 2"):
            ced_forward(branches, np.zeros((1, CHANNELS, 8)), rng=np.random.default_rng(0))

    def test_needs_rng_or_perms(self):
        branches = make_branches()
        x, _ = make_batch()
        with pytest.raises(ValueError, match="rng or perms"):
            ced_forward(branches, x)

    def test_explicit_perms_are_reproducible(self):
        branches = make_branches()
        x, _ = make_batch()
        perms = np.tile(np.arange(x.shape[2])[::-1], (x.shape[0], 1))
        a = ced_forward(branches, x, perms=perms)
        b = ced_forward(branches, x, perms=perms)
        np.testing.assert_array_equal(a.h_shuffled, b.h_shuffled)

    def test_time_constant_input_makes_shuffle_branch_see_original(self):
        branches = make_branches()
        x = np.repeat(np.random.default_rng(8).normal(size=(6, CHANNELS, 1)), 10, axis=2)
        fwd = ced_forward(branches, x, rng=np.random.default_rng(9))
        direct, _ = branches.h_shuffled.forward(x)
        np.testing.assert_allclose(fwd.h_shuffled, direct, atol=0.0)


def test_penalty_drives_dependence_down_against_frozen_branches():
    # train only the main branch against fixed biased branches: the penalized
    # run must end with lower feature dependence than both its own start and
    # the unpenalized run (the joint adversarial game has no such guarantee,
    # since the biased side pushes dependence back up)
    x, labels = make_batch(seed=500, batch=16, timesteps=12)
    perms = np.tile(np.arange(x.shape[2])[::-1], (x.shape[0], 1))
    first = {}
    last = {}
    for lam in (0.0, 1.0):
        branches = make_branches(seed=11)
        for _ in range(200):
            fwd = ced_forward(branches, x, perms=perms)
            res = debias_objective(branches, fwd, labels, LossWeights(w_ced=1.0, lambda_hsic=lam), KernelParams())
            sgd_step(branches.parameters("f"), 0.05)
            dep = res.hsic_shuffled + res.hsic_static
            first.setdefault(lam, dep)
            last[lam] = dep
    assert first[0.0] == first[1.0]  # identical inits
    assert last[1.0] < first[1.0]
    assert last[1.0] < last[0.0]


def test_out_of_range_labels_rejected():
    branches = make_branches()
    x, _ = make_batch(batch=4)
    with pytest.raises(ValueError, match="label"):
        accumulate_gradients(
            branches,
            x,
            np.array([0, 1, 2, CLASSES]),
            weights=LossWeights(),
            lambda_t=0.5,
            use_euc=False,
            shuffle_rng=np.random.default_rng(0),
        )


class TestCedBranchesApi:
    def test_parameter_partition(self):
        branches = make_branches()
        f_names = [p.name for p in branches.parameters("f")]
        h_names = [p.name for p in branches.parameters("h")]
        assert not set(f_names) & set(h_names)
        # f, then h_shuffled, then h_static: a rejected step names the same first bad parameter
        assert [p.name for p in branches.parameters()] == f_names + h_names
        assert [p.name for p in branches.parameters("joint")] == f_names + h_names
        assert all(n.startswith("f.") for n in f_names)
        assert all(n.startswith(("h_shuffled.", "h_static.")) for n in h_names)
        assert h_names.index("h_shuffled.head.weight") < h_names.index("h_static.head.weight")
        with pytest.raises(ValueError, match="side"):
            branches.parameters("both")

    def test_bad_head_kind_rejected(self):
        with pytest.raises(ValueError, match="head"):
            build_branch("x", 2, 4, 3, 3, np.random.default_rng(0), head="other")

    def test_static_branch_is_pointwise(self):
        branches = make_branches()
        assert branches.h_static.backbone.layers[0].kernel == 1
        assert branches.f_branch.backbone.layers[0].kernel == KERNEL
