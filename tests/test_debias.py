"""Three-branch debiasing: stop-gradients, schedules, stripping, dynamics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osev.checkpoint import save_checkpoint
from osev.debias import (
    CedBranches,
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
from osev.hsic import KernelParams, hsic_value_and_grad, median_bandwidth
from osev.losses import LossWeights, edl_loss_batch
from osev.nn import apply_time_permutations, draw_time_permutations, sgd_step

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


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32 - 1),
    branch=st.sampled_from(["f", "h_shuffled", "h_static"]),
    batch=st.integers(2, 9),
    use_euc=st.booleans(),
    lambda_hsic=st.sampled_from([0.0, 0.7]),
    sigma=st.sampled_from([None, 1.3]),
    delta=st.floats(-0.5, 0.5),
)
def test_branch_losses_equal_the_objective_on_a_fresh_forward(seed, branch, batch, use_euc, lambda_hsic, sigma, delta):
    """The side's loss, built before one coordinate of one branch moves, still gives
    for each copy of a stack of moves objective(...).loss of a full forward after that
    move, bit for bit, whether the coordinate is in the backbone or in the head (whose
    stack re-forwards only the head, on the held features).  A stack of features needs
    a frozen bandwidth: under the median kernel a backbone move's stack is rejected."""
    branches = make_branches(seed)
    rng = np.random.default_rng([seed, 4])
    x, labels = rng.normal(size=(batch, CHANNELS, 10)), rng.integers(0, CLASSES, size=batch)
    perms = draw_time_permutations(rng, batch, 10)
    weights = LossWeights(w_euc=0.8, w_ced=0.3, lambda_hsic=lambda_hsic)
    kernel = KernelParams(sigma=sigma)
    if branch == "f":
        objective, side, options, net = debias_objective, "f", {"lambda_t": 0.4, "use_euc": use_euc}, branches.f_branch
    else:
        objective, side, options, net = bias_objective, "h", {}, getattr(branches, branch)
    fwd = ced_forward(branches, x, perms=perms)
    loss = branch_losses(side, branches, fwd, labels, weights, kernel, **options)

    params = net.parameters()
    param = params[rng.integers(len(params))]
    coord = rng.integers(param.value.size)
    stack = np.repeat(param.value[None], 3, axis=0)
    for copy, move in zip(stack, (delta, -delta, delta / 3.0)):
        copy.flat[coord] += move
    expected = []
    original = param.value.copy()
    for copy in stack:
        param.assign(copy)
        full = ced_forward(branches, x, perms=perms)
        expected.append(objective(branches, full, labels, weights, kernel, apply_grads=False, **options).loss)
    param.assign(original)
    in_head = any(param is p for p in net.head.parameters())
    if sigma is None and not in_head:
        with pytest.raises(ValueError, match=r"features must be 2-D \(samples, features\), got shape \(3, "):
            loss(param, stack)
    else:
        assert loss(param, stack).tolist() == expected


def test_branch_losses_rejects_an_unknown_side():
    branches = make_branches()
    x, labels = make_batch()
    fwd = ced_forward(branches, x, rng=np.random.default_rng(1))
    with pytest.raises(ValueError, match="side"):
        branch_losses("joint", branches, fwd, labels, LossWeights(), KernelParams())


BAD_LABELS = [
    pytest.param(lambda y: y.astype(np.float64), "labels must be integer class indices, got dtype float64", id="float"),
    pytest.param(lambda y: np.where(np.arange(y.size) == 3, CLASSES, y), "label index out of range for 4 classes",
                 id="out_of_range"),
    pytest.param(lambda y: y[:-1], "labels shape (11,) does not match batch size 12", id="wrong_length"),
]


@pytest.mark.parametrize("side, options", [("f", {"lambda_t": 0.4, "use_euc": True}), ("h", {})])
@pytest.mark.parametrize("bad, message", BAD_LABELS)
def test_branch_losses_rejects_bad_labels_as_edl_loss_batch_does(side, options, bad, message):
    """Labels are checked once, when the losses are built, with the training loss's messages."""
    branches = make_branches()
    x, labels = make_batch()
    fwd = ced_forward(branches, x, rng=np.random.default_rng(1))
    with pytest.raises(ValueError) as training:
        edl_loss_batch(bad(labels), fwd.e_f)
    with pytest.raises(ValueError) as audit:
        branch_losses(side, branches, fwd, bad(labels), LossWeights(), KernelParams(), **options)
    assert str(audit.value) == str(training.value) == message


class TestRecordOnlyDependence:
    @pytest.mark.parametrize("side, lam", [("joint", 1.0), ("f", 1.0), ("h", 1.0), ("joint", 0.0)])
    def test_every_term_takes_the_gradient_path(self, monkeypatch, side, lam):
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
        assert len(calls) == 4  # HSIC(f, h) and HSIC(h, f) for both biased branches, applied or not
        # a term whose gradient is not applied records what the joint step computes
        joint = step("joint")
        assert record.hsic_shuffled == joint.hsic_shuffled
        assert record.hsic_static == joint.hsic_static
        assert record.ced == joint.ced

    @pytest.mark.parametrize("sigma, calls", [(None, 8), (1.0, 0)])
    def test_a_joint_step_takes_eight_median_bandwidths(self, monkeypatch, sigma, calls):
        """Both bandwidths of each of the 4 HSIC terms come from the median heuristic; a fixed sigma takes none."""
        counted = []
        monkeypatch.setattr("osev.hsic.median_bandwidth", lambda x: counted.append(1) or median_bandwidth(x))
        x, labels = make_batch()
        accumulate_gradients(make_branches(), x, labels, weights=LossWeights(), lambda_t=0.5, use_euc=True,
                             kernel=KernelParams(sigma=sigma), shuffle_rng=np.random.default_rng(3))
        assert len(counted) == calls


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

    def test_keeps_the_shuffled_input(self):
        branches = make_branches()
        x, _ = make_batch(batch=5, timesteps=9)
        fwd = ced_forward(branches, x, rng=np.random.default_rng(0))
        expected = apply_time_permutations(x, fwd.perms)
        assert (fwd.x_shuffled.dtype, fwd.x_shuffled.shape) == (expected.dtype, expected.shape)
        assert fwd.x_shuffled.tobytes() == expected.tobytes()

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
