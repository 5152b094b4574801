"""Layer forward/backward checks, optimizer arithmetic, and checkpoint I/O."""

import math

import numpy as np
import pytest

from osev.checkpoint import load_checkpoint, save_checkpoint, sidecar_path
from osev.nn import (
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
    build_feature_net,
    glorot_uniform,
    gradcheck,
    sgd_step,
    temporal_shuffle,
)


def quadratic_gradcheck(layer, x):
    """Populate grads for loss = 0.5 * sum(out^2), then finite-difference them."""
    out = layer.forward(x)
    layer.backward(out.copy())

    def loss():
        return 0.5 * float((layer.forward(x) ** 2).sum())

    return gradcheck(loss, layer.parameters())


class TestGradcheckHarness:
    def test_exact_quadratic_passes(self):
        p = Parameter("theta", np.array([1.5, -2.0, 0.25, 3.0]))
        p.grad[...] = p.value

        def loss():
            return 0.5 * float((p.value**2).sum())

        report = gradcheck(loss, [p])
        assert report.ok(1e-8)
        assert report.max_rel_err < 1e-8

    def test_corrupted_gradient_is_caught(self):
        p = Parameter("theta", np.array([1.0, 2.0]))
        p.grad[...] = p.value + 0.5

        def loss():
            return 0.5 * float((p.value**2).sum())

        report = gradcheck(loss, [p])
        assert not report.ok(1e-4)
        assert [e.name for e in report.failures(1e-4)] == ["theta"]


class TestLayerGradients:
    def test_temporal_conv(self):
        rng = np.random.default_rng(42)
        layer = TemporalConv(3, 4, 3, rng)
        x = rng.normal(size=(5, 3, 9))
        assert quadratic_gradcheck(layer, x).ok(1e-6)

    def test_pointwise_conv(self):
        rng = np.random.default_rng(43)
        layer = PointwiseConv(3, 4, rng)
        x = rng.normal(size=(5, 3, 7))
        assert quadratic_gradcheck(layer, x).ok(1e-6)

    def test_dense(self):
        rng = np.random.default_rng(44)
        layer = Dense(6, 4, rng)
        x = rng.normal(size=(8, 6))
        assert quadratic_gradcheck(layer, x).ok(1e-6)

    @pytest.mark.parametrize("kind", ["exp", "softplus", "relu"])
    def test_evidence_head(self, kind):
        rng = np.random.default_rng(45)
        layer = EvidenceHead(6, 3, rng, kind=kind)
        x = rng.normal(size=(7, 6))
        # keep finite differences away from the relu / clamp corners
        logits = layer.dense.forward(x)
        assert np.abs(logits).min() > 1e-3
        assert np.abs(logits).max() < layer.exp_bound - 1e-3
        assert quadratic_gradcheck(layer, x).ok(1e-6)

    def test_full_backbone_chain(self):
        rng = np.random.default_rng(48)
        net = build_feature_net(3, 5, 3, rng)
        x = rng.normal(size=(4, 3, 10))
        preact = net.layers[0].forward(x)
        assert np.abs(preact).min() > 1e-3  # clear of the ReLU corner
        assert quadratic_gradcheck(net, x).ok(1e-6)

    def test_input_gradient_of_dense(self):
        rng = np.random.default_rng(47)
        layer = Dense(4, 3, rng)
        x = rng.normal(size=(2, 4))
        out = layer.forward(x)
        grad_x = layer.backward(out.copy())
        eps = 1e-6
        fd = np.empty_like(x)
        for idx in np.ndindex(*x.shape):
            hi, lo = x.copy(), x.copy()
            hi[idx] += eps
            lo[idx] -= eps
            fd[idx] = (
                0.5 * (layer.forward(hi) ** 2).sum() - 0.5 * (layer.forward(lo) ** 2).sum()
            ) / (2 * eps)
        np.testing.assert_allclose(grad_x, fd, atol=1e-7)


def conv_by_loops(x, w, b, g):
    """Direct nested-loop TemporalConv: output, weight, bias and input gradients."""
    batch, c_in, t = x.shape
    c_out, _, k = w.shape
    t_out = t - k + 1
    out = np.empty((batch, c_out, t_out))
    grad_w = np.zeros_like(w)
    grad_x = np.zeros_like(x)
    for n in range(batch):
        for o in range(c_out):
            for s in range(t_out):
                acc = b[o]
                for i in range(c_in):
                    for j in range(k):
                        acc += w[o, i, j] * x[n, i, s + j]
                        grad_w[o, i, j] += g[n, o, s] * x[n, i, s + j]
                        grad_x[n, i, s + j] += g[n, o, s] * w[o, i, j]
                out[n, o, s] = acc
    return out, grad_w, g.sum(axis=(0, 2)), grad_x


class TestTemporalConvOracle:
    @pytest.mark.parametrize(
        "batch,c_in,c_out,t,kernel",
        [
            (4, 3, 5, 11, 4),  # general case
            (3, 2, 4, 6, 1),  # kernel 1: the pointwise case
            (2, 3, 2, 7, 7),  # kernel == T: one output step
            (1, 3, 4, 9, 3),  # batch 1
            (3, 1, 4, 8, 3),  # one input channel
        ],
    )
    def test_matches_nested_loops(self, batch, c_in, c_out, t, kernel):
        rng = np.random.default_rng(100 + kernel)
        if kernel == 1:
            layer = PointwiseConv(c_in, c_out, rng)
        else:
            layer = TemporalConv(c_in, c_out, kernel, rng)
        layer.bias.assign(rng.normal(size=c_out))
        x = rng.normal(size=(batch, c_in, t))
        g = rng.normal(size=(batch, c_out, t - kernel + 1))
        out = layer.forward(x)
        grad_x = layer.backward(g)
        ref_out, ref_gw, ref_gb, ref_gx = conv_by_loops(x, layer.weight.value, layer.bias.value, g)
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(layer.weight.grad, ref_gw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(layer.bias.grad, ref_gb, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grad_x, ref_gx, rtol=0, atol=1e-12)


class TestLayerMechanics:
    def test_backward_before_forward_rejected(self):
        rng = np.random.default_rng(0)
        cases = [
            (TemporalConv(2, 2, 2, rng), np.zeros((1, 2, 1))),
            (Dense(2, 2, rng), np.zeros((1, 2))),
            (ReLU(), np.zeros((1, 2))),
            (TemporalMeanPool(), np.zeros((1, 2))),
            (Sequential([ReLU()]), np.zeros((1, 2))),
            (EvidenceHead(2, 2, rng), np.zeros((1, 2))),
        ]
        for layer, g in cases:
            with pytest.raises(RuntimeError, match="before forward"):
                layer.backward(g)

    def test_gradients_accumulate_additively(self):
        rng = np.random.default_rng(1)
        layer = Dense(3, 2, rng)
        x = rng.normal(size=(4, 3))
        out = layer.forward(x)
        layer.backward(out.copy())
        once = layer.weight.grad.copy()
        layer.forward(x)
        layer.backward(out.copy())
        np.testing.assert_allclose(layer.weight.grad, 2.0 * once, atol=0.0)

    def test_zero_upstream_gives_zero_accumulation(self):
        rng = np.random.default_rng(2)
        layer = TemporalConv(2, 3, 2, rng)
        out = layer.forward(rng.normal(size=(3, 2, 6)))
        grad_x = layer.backward(np.zeros_like(out))
        assert not layer.weight.grad.any()
        assert not layer.bias.grad.any()
        assert not grad_x.any()

    def test_dense_identity_passthrough(self):
        layer = Dense(3, 3, np.random.default_rng(0))
        layer.weight.assign(np.eye(3))
        layer.bias.assign(np.zeros(3))
        x = np.random.default_rng(1).normal(size=(5, 3))
        np.testing.assert_allclose(layer.forward(x), x, atol=0.0)

    def test_meanpool_constant_identity_and_backward_split(self):
        pool = TemporalMeanPool()
        x = np.full((2, 3, 4), 7.5)
        np.testing.assert_allclose(pool.forward(x), np.full((2, 3), 7.5), atol=0.0)
        g = pool.backward(np.ones((2, 3)))
        np.testing.assert_allclose(g, np.full((2, 3, 4), 0.25), atol=0.0)

    def test_shape_validation(self):
        rng = np.random.default_rng(3)
        conv = TemporalConv(2, 2, 3, rng)
        with pytest.raises(ValueError, match="expected input"):
            conv.forward(np.zeros((1, 3, 5)))
        with pytest.raises(ValueError, match="shorter than kernel"):
            conv.forward(np.zeros((1, 2, 2)))
        dense = Dense(4, 2, rng)
        with pytest.raises(ValueError, match="expected input"):
            dense.forward(np.zeros((1, 5)))
        dense.forward(np.zeros((2, 4)))
        with pytest.raises(ValueError, match="upstream gradient"):
            dense.backward(np.zeros((2, 3)))
        with pytest.raises(ValueError, match="kernel"):
            TemporalConv(2, 2, 0, rng)
        with pytest.raises(ValueError, match="channel counts"):
            TemporalConv(0, 2, 1, rng)

    def test_parameter_assign_shape_mismatch(self):
        p = Parameter("p", np.zeros((2, 3)))
        with pytest.raises(ValueError, match="shape mismatch"):
            p.assign(np.zeros((3, 2)))

    def test_glorot_bound(self):
        rng = np.random.default_rng(9)
        w = glorot_uniform(rng, (200, 50), 200, 50)
        assert np.abs(w).max() <= math.sqrt(6.0 / 250.0)

    def test_evidential_net_extra_feature_grad_is_additive(self):
        rng = np.random.default_rng(10)
        backbone = build_feature_net(2, 4, 3, rng)
        head = EvidenceHead(4, 3, rng)
        net = EvidentialNet(backbone, head, 3)
        x = rng.normal(size=(3, 2, 8))
        extra = rng.normal(size=(3, 4))

        feats, evidence = net.forward(x)
        net.backward(np.zeros_like(evidence), extra_feature_grad=extra)
        via_net = {p.name: p.grad.copy() for p in net.parameters()}

        rng2 = np.random.default_rng(10)
        backbone2 = build_feature_net(2, 4, 3, rng2)
        backbone2.forward(x)
        backbone2.backward(extra)
        for p in backbone2.parameters():
            np.testing.assert_allclose(via_net[p.name], p.grad, atol=0.0)
        for p in head.parameters():
            assert not via_net[p.name].any()


class TestSgd:
    def test_zero_gradient_without_decay_is_a_noop(self):
        p = Parameter("p", np.array([1.0, -2.0]))
        sgd_step([p], lr=0.1, momentum=0.9, weight_decay=0.0)
        np.testing.assert_allclose(p.value, [1.0, -2.0], atol=0.0)

    def test_single_plain_step(self):
        p = Parameter("p", np.array([1.0]))
        p.grad[...] = 1.0
        sgd_step([p], lr=0.1, momentum=0.0, weight_decay=0.0)
        assert p.value[0] == pytest.approx(0.9, abs=0.0)
        assert p.grad[0] == 0.0  # zeroed after the update

    def test_two_step_momentum_unroll(self):
        # v1 = 1, theta = 0.9; v2 = 0.9 + 1 = 1.9, theta = 0.9 - 0.19 = 0.71
        p = Parameter("p", np.array([1.0]))
        p.grad[...] = 1.0
        sgd_step([p], lr=0.1, momentum=0.9, weight_decay=0.0)
        assert p.value[0] == pytest.approx(0.9, abs=1e-15)
        p.grad[...] = 1.0
        sgd_step([p], lr=0.1, momentum=0.9, weight_decay=0.0)
        assert p.value[0] == pytest.approx(0.71, abs=1e-15)

    def test_weight_decay_contributes_to_the_step(self):
        p = Parameter("p", np.array([1.0]))
        sgd_step([p], lr=0.1, momentum=0.0, weight_decay=0.1)
        assert p.value[0] == pytest.approx(0.99, abs=1e-15)

    def test_nesterov_lookahead(self):
        # v = 1; update = g + m*v = 1.9; theta = 1 - 0.19
        p = Parameter("p", np.array([1.0]))
        p.grad[...] = 1.0
        sgd_step([p], lr=0.1, momentum=0.9, weight_decay=0.0, nesterov=True)
        assert p.value[0] == pytest.approx(0.81, abs=1e-15)

    def test_non_finite_gradient_rejects_whole_step(self):
        good = Parameter("good", np.array([1.0]))
        bad = Parameter("bad", np.array([1.0]))
        good.grad[...] = 1.0
        bad.grad[...] = np.nan
        with pytest.raises(NonFiniteGradientError, match="bad"):
            sgd_step([good, bad], lr=0.1)
        # validation runs before any parameter moves
        assert good.value[0] == 1.0
        assert good.grad[0] == 1.0


class TestTemporalShuffle:
    def test_single_timestep_is_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 3, 1))
        np.testing.assert_allclose(temporal_shuffle(x, np.random.default_rng(1)), x, atol=0.0)

    def test_columns_are_permuted_not_altered(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 2, 10))
        shuffled = temporal_shuffle(x, np.random.default_rng(6))
        for b in range(3):
            orig_cols = sorted(map(tuple, x[b].T))
            new_cols = sorted(map(tuple, shuffled[b].T))
            assert orig_cols == new_cols
        assert not np.allclose(shuffled, x)

    def test_seeded_replay(self):
        x = np.random.default_rng(7).normal(size=(2, 2, 8))
        a = temporal_shuffle(x, np.random.default_rng(99))
        b = temporal_shuffle(x, np.random.default_rng(99))
        np.testing.assert_allclose(a, b, atol=0.0)

    def test_temporal_conv_sees_order_pointwise_does_not(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3, 12))
        shuffled = temporal_shuffle(x, np.random.default_rng(9))

        temporal = build_feature_net(3, 5, 3, np.random.default_rng(10))
        assert not np.allclose(temporal.forward(x), temporal.forward(shuffled))

        pointwise = build_feature_net(3, 5, 1, np.random.default_rng(10), pointwise=True)
        np.testing.assert_allclose(
            pointwise.forward(x), pointwise.forward(shuffled), atol=1e-12
        )

    def test_apply_permutations_validates_shape(self):
        with pytest.raises(ValueError, match="permutation shape"):
            apply_time_permutations(np.zeros((2, 3, 4)), np.zeros((2, 5), dtype=np.int64))


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        arrays = {
            "net.conv.weight": rng.normal(size=(4, 3, 5)),
            "net.conv.bias": rng.normal(size=4),
            "scalar": np.array(3.25),
        }
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arrays, meta={"epochs": 3, "stripped": False})
        loaded, meta = load_checkpoint(path)
        assert set(loaded) == set(arrays)
        for name, arr in arrays.items():
            assert loaded[name].shape == np.asarray(arr).shape
            np.testing.assert_array_equal(loaded[name], arr)
        assert meta == {"epochs": 3, "stripped": False}

    def test_sidecar_written_next_to_blob(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"a": np.zeros(2)})
        assert sidecar_path(path).exists()
        assert sidecar_path(path).name == "m.ckpt.json"

    def test_duplicate_names_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            save_checkpoint(tmp_path / "x.ckpt", [("a", np.zeros(1)), ("a", np.ones(1))])

    def test_truncated_blob_detected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"a": np.arange(4.0)})
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="size mismatch"):
            load_checkpoint(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"a": np.zeros(1)})
        sidecar = sidecar_path(path)
        sidecar.write_text(sidecar.read_text().replace("osev-checkpoint-v1", "other"))
        with pytest.raises(ValueError, match="unrecognized"):
            load_checkpoint(path)
