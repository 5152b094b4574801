"""Layer forward/backward checks, optimizer arithmetic, and checkpoint I/O."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from osev.checkpoint import load_checkpoint, save_checkpoint, sidecar_path
from osev.nn import (
    GRADCHECK_CHUNK,
    GRADCHECK_EPS,
    Dense,
    EvidenceHead,
    EvidentialNet,
    NonFiniteGradientError,
    Parameter,
    ReLU,
    Sequential,
    TemporalConv,
    TemporalMeanPool,
    apply_time_permutations,
    build_feature_net,
    draw_time_permutations,
    glorot_uniform,
    gradcheck,
    sgd_step,
)
from test_runner_gradcheck import serial_gradcheck


def quadratic_gradcheck(layer, x):
    """Populate grads for loss = 0.5 * sum(out^2), then finite-difference them with
    stacked forwards; every entry equals, with ==, the serial differencer's over the
    plain forward."""
    out = layer.forward(x)
    layer.backward(out.copy())

    def loss(p, values):
        squares = layer.forward_copies(x, (p, values)) ** 2
        return 0.5 * squares.reshape(len(values), -1).sum(axis=1)

    report = gradcheck(loss, layer.parameters())
    assert report == serial_gradcheck(lambda _: 0.5 * float((layer.forward(x) ** 2).sum()), layer.parameters())
    return report


def half_squares(p, values):
    return 0.5 * (values**2).sum(axis=1)


class TestGradcheckHarness:
    def test_exact_quadratic_passes(self):
        p = Parameter("theta", np.array([1.5, -2.0, 0.25, 3.0]))
        p.grad[...] = p.value
        report = gradcheck(half_squares, [p])
        assert report.worst.max_rel_err < 1e-8

    def test_corrupted_gradient_is_caught(self):
        p = Parameter("theta", np.array([1.0, 2.0]))
        p.grad[...] = p.value + 0.5
        report = gradcheck(half_squares, [p])
        assert report.worst.max_rel_err >= 1e-4
        assert [e.name for e in report.entries if e.max_rel_err >= 1e-4] == ["theta"]

    def test_nan_gradient_is_caught(self):
        w = Parameter("w", np.array([1.0, -2.0, 0.5]))
        w.grad[...] = 2.0 * w.value
        w.grad[1] = np.nan
        report = gradcheck(lambda p, values: (values**2).sum(axis=1), [w])
        assert report.worst.max_rel_err == math.inf
        assert report.entries[0].worst_coord == 1

    def test_nan_loss_is_caught(self):
        w = Parameter("w", np.array([1.0, -2.0, 0.5]))
        w.grad[...] = 2.0 * w.value
        report = gradcheck(lambda p, values: np.full(len(values), np.nan), [w])
        assert report.worst.max_rel_err == math.inf

    def test_copies_come_in_chunks_up_then_down(self):
        """Each sampled coordinate gives two copies, +eps then -eps there and the value
        elsewhere, in coordinate order; the loss sees them GRADCHECK_CHUNK at a time, and
        no parameter value changes."""
        rng = np.random.default_rng(5)
        big = Parameter("big", rng.standard_normal((10, 10)))  # 100 coordinates: 64 are sampled
        small = Parameter("small", rng.standard_normal(3))
        before = [big.value.copy(), small.value.copy()]
        seen = {"big": [], "small": []}

        def loss(p, values):
            seen[p.name].append(values.copy())
            return np.zeros(len(values))

        gradcheck(loss, [big, small])
        assert [len(v) for v in seen["big"]] == [min(GRADCHECK_CHUNK, 128 - i) for i in range(0, 128, GRADCHECK_CHUNK)]
        assert [len(v) for v in seen["small"]] == [6]
        for p, orig in zip((big, small), before):
            assert np.array_equal(p.value, orig)
            flat = orig.reshape(-1)
            copies = np.concatenate(seen[p.name]).reshape(-1, flat.size)
            coords = np.argmax(copies[0::2] != flat, axis=1)
            assert (np.diff(coords) > 0).all() and len(coords) == min(flat.size, 64)
            expected = np.tile(flat, (len(copies), 1))
            expected[0::2][np.arange(len(coords)), coords] += GRADCHECK_EPS
            expected[1::2][np.arange(len(coords)), coords] -= GRADCHECK_EPS
            assert np.array_equal(copies, expected)


@settings(deadline=None, max_examples=100)
@given(
    shape=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 300)),
    seed=st.integers(0, 2**32 - 1),
    specials=st.lists(st.sampled_from([0.0, -0.0, 5e-324, -1e-310, 1e150, -1e150]), max_size=8),
)
def test_mean_pool_is_ndarray_mean_bit_for_bit(shape, seed, specials):
    """Time axes shorter and longer than numpy's pairwise-sum blocks, magnitudes from 1e-150 to 1e150."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 151, size=shape)
    x.flat[rng.integers(x.size, size=len(specials))] = specials
    assert TemporalMeanPool().forward(x).tobytes() == x.mean(axis=2).tobytes()


class TestLayerGradients:
    def test_temporal_conv(self):
        rng = np.random.default_rng(42)
        layer = TemporalConv(3, 4, 3, rng)
        x = rng.normal(size=(5, 3, 9))
        assert quadratic_gradcheck(layer, x).worst.max_rel_err < 1e-6

    def test_pointwise_conv(self):
        rng = np.random.default_rng(43)
        layer = TemporalConv(3, 4, 1, rng)
        x = rng.normal(size=(5, 3, 7))
        assert quadratic_gradcheck(layer, x).worst.max_rel_err < 1e-6

    def test_dense(self):
        rng = np.random.default_rng(44)
        layer = Dense(6, 4, rng)
        x = rng.normal(size=(8, 6))
        assert quadratic_gradcheck(layer, x).worst.max_rel_err < 1e-6

    @pytest.mark.parametrize("kind", ["exp", "softplus", "relu"])
    def test_evidence_head(self, kind):
        rng = np.random.default_rng(45)
        layer = EvidenceHead(6, 3, rng, kind=kind)
        x = rng.normal(size=(7, 6))
        # keep finite differences away from the relu / clamp corners
        logits = layer.dense.forward(x)
        assert np.abs(logits).min() > 1e-3
        assert np.abs(logits).max() < layer.exp_bound - 1e-3
        assert quadratic_gradcheck(layer, x).worst.max_rel_err < 1e-6

    def test_full_backbone_chain(self):
        rng = np.random.default_rng(48)
        net = build_feature_net(3, 5, 3, rng)
        x = rng.normal(size=(4, 3, 10))
        preact = net.layers[0].forward(x)
        assert np.abs(preact).min() > 1e-3  # clear of the ReLU corner
        assert quadratic_gradcheck(net, x).worst.max_rel_err < 1e-6

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
    """Direct nested-loop TemporalConv: output, weight and bias gradients."""
    batch, c_in, t = x.shape
    c_out, _, k = w.shape
    t_out = t - k + 1
    out = np.empty((batch, c_out, t_out))
    grad_w = np.zeros_like(w)
    for n in range(batch):
        for o in range(c_out):
            for s in range(t_out):
                acc = b[o]
                for i in range(c_in):
                    for j in range(k):
                        acc += w[o, i, j] * x[n, i, s + j]
                        grad_w[o, i, j] += g[n, o, s] * x[n, i, s + j]
                out[n, o, s] = acc
    return out, grad_w, g.sum(axis=(0, 2))


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
        layer = TemporalConv(c_in, c_out, kernel, rng)
        layer.bias.assign(rng.normal(size=c_out))
        x = rng.normal(size=(batch, c_in, t))
        g = rng.normal(size=(batch, c_out, t - kernel + 1))
        out = layer.forward(x)
        layer.backward(g)
        ref_out, ref_gw, ref_gb = conv_by_loops(x, layer.weight.value, layer.bias.value, g)
        np.testing.assert_allclose(out, ref_out, rtol=0, atol=1e-12)
        np.testing.assert_allclose(layer.weight.grad, ref_gw, rtol=0, atol=1e-12)
        np.testing.assert_allclose(layer.bias.grad, ref_gb, rtol=0, atol=1e-12)


def sliding_window_grads(x, g, kernel):
    """The weight and bias gradients of one backward from zero, by the
    ``sliding_window_view`` plus transpose im2col the conv backward used to build."""
    batch, c_in, _ = x.shape
    c_out, t_out = g.shape[1], g.shape[2]
    cols = sliding_window_view(x, kernel, axis=2).transpose(0, 2, 1, 3).reshape(batch * t_out, c_in * kernel)
    g_rows = g.transpose(1, 0, 2).reshape(c_out, batch * t_out)
    grad_w, grad_b = np.zeros((c_out, c_in, kernel)), np.zeros(c_out)
    grad_w += (g_rows @ cols).reshape(grad_w.shape)
    grad_b += g.sum(axis=(0, 2))
    return grad_w, grad_b


def conv_inputs(rng, batch, c_in, t):
    """Inputs of one shape in the layouts training and callers hand the conv."""
    base = rng.normal(size=(batch + 3, c_in, t + 2))
    perms = draw_time_permutations(rng, batch, t)
    return {
        "contiguous": rng.normal(size=(batch, c_in, t)),
        "fancy_indexed": base[rng.permutation(batch + 3)[:batch], :, :t],
        "take_along_axis": apply_time_permutations(base[:batch, :, :t], perms),
        "transposed": rng.normal(size=(t, c_in, batch)).transpose(2, 1, 0),
        "sliced": base[1 : batch + 1, :, 2:],
        "fortran": np.asfortranarray(rng.normal(size=(batch, c_in, t))),
    }


class TestIm2colView:
    @pytest.mark.parametrize(
        "batch,c_in,c_out,t,kernel",
        [(32, 6, 12, 24, 9), (4, 3, 5, 11, 1), (3, 2, 4, 7, 7), (1, 3, 4, 9, 3), (1, 1, 1, 5, 5)],
        ids=["train_shape", "k1", "t_out1", "b1", "all_ones"],
    )
    def test_gradients_equal_the_sliding_window_form(self, batch, c_in, c_out, t, kernel):
        rng = np.random.default_rng(batch * 100 + kernel)
        g = rng.normal(size=(batch, c_out, t - kernel + 1))
        for layout, x in conv_inputs(rng, batch, c_in, t).items():
            layer = TemporalConv(c_in, c_out, kernel, np.random.default_rng(1))
            layer.forward(x)
            layer.backward(g)
            grad_w, grad_b = sliding_window_grads(x, g, kernel)
            assert layer.weight.grad.tobytes() == grad_w.tobytes(), layout
            assert layer.bias.grad.tobytes() == grad_b.tobytes(), layout

    def test_backward_leaves_the_input_untouched(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 3, 10))
        before = x.copy()
        layer = TemporalConv(3, 4, 3, rng)
        layer.backward(np.ones_like(layer.forward(x)))
        assert x.tobytes() == before.tobytes()


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
        assert grad_x is None  # an input layer computes no input gradient

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

    def test_relu_passes_gradient_exactly_where_its_input_is_positive(self):
        x = np.array([[-0.0, 0.0, 5e-324, -5e-324, 2.5, -1.0, np.nan, np.inf, -np.inf]])
        relu = ReLU()
        out = relu.forward(x)
        assert out.tolist() == [[0.0, 0.0, 5e-324, 0.0, 2.5, 0.0, 0.0, np.inf, 0.0]]
        assert not np.signbit(out).any()
        g = np.arange(1.0, 10.0)[None]
        assert relu.backward(g).tolist() == np.where(x > 0.0, g, 0.0).tolist()
        with pytest.raises(ValueError, match=r"upstream gradient shape \(9,\) does not match output shape \(1, 9\)"):
            relu.backward(g[0])

    def test_shape_validation(self):
        rng = np.random.default_rng(3)
        conv = TemporalConv(2, 2, 3, rng)
        with pytest.raises(ValueError, match="expected input"):
            conv.forward(np.zeros((1, 3, 5)))
        with pytest.raises(ValueError, match="shorter than kernel"):
            conv.forward(np.zeros((1, 2, 2)))
        conv.forward(np.zeros((2, 2, 5)))
        message = r"upstream gradient shape \(2, 2, 4\) does not match output shape \(2, 2, 3\)"
        with pytest.raises(ValueError, match=message):
            conv.backward(np.zeros((2, 2, 4)))
        with pytest.raises(ValueError, match="expected"):
            TemporalMeanPool().forward(np.zeros((3, 2, 2, 5)))  # a copies axis passes only through forward_copies
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


def serial_sgd_step(params, lr, momentum=0.9, weight_decay=1e-4, nesterov=False):
    """The parameter-by-parameter update sgd_step made before its flat arena: the reference."""
    params = list(params)
    for p in params:
        if not np.all(np.isfinite(p.grad)):
            raise NonFiniteGradientError(f"non-finite gradient in {p.name}")
    for p in params:
        g = p.grad + weight_decay * p.value
        p.momentum *= momentum
        p.momentum += g
        update = g + momentum * p.momentum if nesterov else p.momentum
        p.value -= lr * update
        p.grad[...] = 0.0


ARENA_SHAPES = {"a": (3, 2, 4), "b": (3,), "c": (2, 5), "d": (), "e": (4, 1)}


def twin_parameters(seed):
    """Two lists of equal parameters: one for sgd_step, one for the serial reference."""
    rng = np.random.default_rng(seed)
    values = {name: rng.normal(size=shape) for name, shape in ARENA_SHAPES.items()}
    return ({name: Parameter(name, v) for name, v in values.items()} for _ in range(2))


def state_bytes(params):
    return {name: (p.value.tobytes(), p.grad.tobytes(), p.momentum.tobytes()) for name, p in params.items()}


def fill_grads(params, names, rng):
    for name in names:
        params[name].grad[...] = rng.normal(size=params[name].grad.shape)


class TestSgdArena:
    """sgd_step's flat arena against :func:`serial_sgd_step`, every bit compared."""

    def run_twins(self, sides, seed=0, **options):
        """Step each list of names in ``sides`` through both twins with the same gradients."""
        arena, serial = twin_parameters(seed)
        for step, names in enumerate(sides):
            for params, step_fn in ((arena, sgd_step), (serial, serial_sgd_step)):
                fill_grads(params, names, np.random.default_rng([seed, step]))
                step_fn([params[n] for n in names], 0.05, **options)
            assert state_bytes(arena) == state_bytes(serial), (step, names)
        return arena

    @pytest.mark.parametrize(
        "options",
        [dict(momentum=0.0, weight_decay=0.0), dict(momentum=0.0, weight_decay=0.1), dict(),
         dict(momentum=0.9, weight_decay=1e-3, nesterov=True), dict(momentum=0.5, weight_decay=0.0, nesterov=True)],
        ids=["plain", "decay_only", "default", "nesterov", "nesterov_no_decay"],
    )
    def test_equals_the_serial_update(self, options):
        self.run_twins([list(ARENA_SHAPES)] * 4, **options)

    def test_lists_spanning_two_arenas_or_part_of_one(self):
        sides = [
            ["a", "b", "c", "d", "e"],  # one arena
            ["b", "c"],  # a run inside it
            ["c", "d", "e"],
            ["a", "c"],  # not back to back: packed anew
            ["b", "c"],  # a run of the first arena, which died when c left it
            ["b", "d", "e"],
            ["a", "c", "b", "d"],  # spans two arenas
            ["a", "c", "b", "d"],
            ["e"],
            ["e", "d", "c", "b", "a"],
            ["a", "b", "c", "d", "e"],
        ]
        self.run_twins(sides, seed=3, nesterov=True)

    def test_a_packed_list_shares_one_arena_and_layers_see_it(self):
        layer = Dense(3, 2, np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(4, 3))
        layer.backward(np.ones_like(layer.forward(x)))
        sgd_step(layer.parameters(), 0.1)
        for field in ("value", "grad", "momentum"):
            weight, bias = getattr(layer.weight, field), getattr(layer.bias, field)
            assert weight.base is not None and weight.base is bias.base, field
            assert weight.base.shape == (weight.size + bias.size,), field
        expected = x @ layer.weight.value + layer.bias.value
        assert layer.forward(x).tobytes() == expected.tobytes()

    def test_empty_list_is_a_noop(self):
        sgd_step([], 0.1)
        sgd_step(iter([]), 0.1, nesterov=True)

    def test_a_parameter_named_twice_is_rejected_and_nothing_moves(self):
        arena, _ = twin_parameters(5)
        fill_grads(arena, list(ARENA_SHAPES), np.random.default_rng(6))
        before = state_bytes(arena)
        with pytest.raises(ValueError, match="parameter b appears twice in one step"):
            sgd_step([arena["a"], arena["b"], arena["c"], arena["b"]], 0.1)
        assert state_bytes(arena) == before

    @pytest.mark.parametrize("packed", [False, True], ids=["first_step", "packed"])
    def test_first_bad_parameter_in_list_order_and_nothing_moves(self, packed):
        arena, serial = twin_parameters(7)
        order = ["e", "c", "a", "b", "d"]
        if packed:
            for params, step_fn in ((arena, sgd_step), (serial, serial_sgd_step)):
                fill_grads(params, order, np.random.default_rng(8))
                step_fn([params[n] for n in order], 0.1)
        for params in (arena, serial):
            fill_grads(params, order, np.random.default_rng(9))
            params["a"].grad[1, 0, 2] = np.inf
            params["b"].grad[0] = np.nan
        before = state_bytes(arena)
        with pytest.raises(NonFiniteGradientError) as got:
            sgd_step([arena[n] for n in order], 0.1)
        with pytest.raises(NonFiniteGradientError) as want:
            serial_sgd_step([serial[n] for n in order], 0.1)
        assert str(got.value) == str(want.value) == "non-finite gradient in a"
        assert state_bytes(arena) == before == state_bytes(serial)

    def test_alternating_sides_leave_the_off_side_untouched(self):
        """f then h, as an alternating run steps, after one joint step that packs both."""
        f, h = ["a", "b"], ["c", "d", "e"]
        arena, serial = twin_parameters(11)
        for step, side in enumerate([f + h, f, h, f, f, h, h, f + h]):
            off = [n for n in ARENA_SHAPES if n not in side]
            for params, step_fn in ((arena, sgd_step), (serial, serial_sgd_step)):
                fill_grads(params, ARENA_SHAPES, np.random.default_rng([11, step]))
                before = {n: state_bytes(params)[n] for n in off}
                step_fn([params[n] for n in side], 0.05, nesterov=True)
                assert {n: state_bytes(params)[n] for n in off} == before, (step, side)
                for n in off:
                    params[n].grad[...] = 0.0
            assert state_bytes(arena) == state_bytes(serial), step


class TestTemporalShuffle:
    def test_single_timestep_is_identity(self):
        x = np.random.default_rng(0).normal(size=(4, 3, 1))
        perms = draw_time_permutations(np.random.default_rng(1), 4, 1)
        np.testing.assert_allclose(apply_time_permutations(x, perms), x, atol=0.0)

    def test_columns_are_permuted_not_altered(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 2, 10))
        shuffled = apply_time_permutations(x, draw_time_permutations(np.random.default_rng(6), 3, 10))
        for b in range(3):
            orig_cols = sorted(map(tuple, x[b].T))
            new_cols = sorted(map(tuple, shuffled[b].T))
            assert orig_cols == new_cols
        assert not np.allclose(shuffled, x)

    def test_seeded_replay(self):
        x = np.random.default_rng(7).normal(size=(2, 2, 8))
        a = apply_time_permutations(x, draw_time_permutations(np.random.default_rng(99), 2, 8))
        b = apply_time_permutations(x, draw_time_permutations(np.random.default_rng(99), 2, 8))
        np.testing.assert_allclose(a, b, atol=0.0)

    def test_temporal_conv_sees_order_pointwise_does_not(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(4, 3, 12))
        shuffled = apply_time_permutations(x, draw_time_permutations(np.random.default_rng(9), 4, 12))

        temporal = build_feature_net(3, 5, 3, np.random.default_rng(10))
        assert not np.allclose(temporal.forward(x), temporal.forward(shuffled))

        pointwise = build_feature_net(3, 5, 1, np.random.default_rng(10))
        np.testing.assert_allclose(
            pointwise.forward(x), pointwise.forward(shuffled), atol=1e-12
        )

    def test_apply_permutations_validates_shape(self):
        with pytest.raises(ValueError, match="permutation shape"):
            apply_time_permutations(np.zeros((2, 3, 4)), np.zeros((2, 5), dtype=np.int64))
        # a 4-D input's (batch, time) would match the permutations; only the 3-D check stops it
        for shape in ((2, 4), (2, 3, 4, 1)):
            with pytest.raises(ValueError) as err:
                apply_time_permutations(np.zeros(shape), np.zeros((2, 4), dtype=np.int64))
            assert str(err.value) == f"expected (batch, channels, time), got shape {shape}"


def permutations_by_loop(rng, batch, timesteps):
    """One ``rng.permutation`` per sample, the draw order training relies on."""
    perms = np.empty((batch, timesteps), dtype=np.int64)
    for b in range(batch):
        perms[b] = rng.permutation(timesteps)
    return perms


def gather_by_loop(x, perms):
    out = np.empty_like(x)
    for b in range(x.shape[0]):
        out[b] = x[b][:, perms[b]]
    return out


class TestTimePermutationOracle:
    @pytest.mark.parametrize("batch,timesteps", [(1, 1), (1, 9), (2, 2), (5, 7), (32, 24)])
    def test_draws_match_the_per_sample_loop_and_leave_the_same_stream(self, batch, timesteps):
        rng, oracle_rng = np.random.default_rng(batch * 100 + timesteps), np.random.default_rng(batch * 100 + timesteps)
        perms = draw_time_permutations(rng, batch, timesteps)
        expected = permutations_by_loop(oracle_rng, batch, timesteps)
        assert perms.dtype == expected.dtype
        assert perms.shape == expected.shape
        assert (perms == expected).all()
        assert rng.random() == oracle_rng.random()
        assert (rng.permutation(timesteps) == oracle_rng.permutation(timesteps)).all()

    @pytest.mark.parametrize("batch,channels,timesteps", [(1, 1, 1), (1, 3, 8), (4, 2, 5), (32, 6, 24)])
    def test_gather_matches_the_per_sample_loop(self, batch, channels, timesteps):
        rng = np.random.default_rng(channels * 1000 + timesteps)
        x = rng.normal(size=(batch, channels, timesteps))
        perms = draw_time_permutations(rng, batch, timesteps)
        shuffled = apply_time_permutations(x, perms)
        expected = gather_by_loop(x, perms)
        assert shuffled.shape == expected.shape
        assert (shuffled == expected).all()


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

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("offset", 10**6, "needs bytes 1000000 to 1000032, file has 64"),
            ("offset", 40, "needs bytes 40 to 72, file has 64"),
            ("offset", -8, "invalid shape"),
            ("offset", 1.5, "invalid shape"),
            ("shape", [-4], "invalid shape"),
            ("shape", [5], "needs bytes 32 to 72"),
            # the remaining cases corrupt the sidecar itself: None deletes the key
            pytest.param("total_bytes", None, "sidecar 'total_bytes' is None, not a byte count", id="no_total_bytes"),
            pytest.param("total_bytes", "64", "sidecar 'total_bytes' is '64', not a byte count", id="text_total_bytes"),
            pytest.param("arrays", None, "sidecar 'arrays' is not a list of JSON objects", id="no_arrays"),
            pytest.param("arrays", [{"name": "a"}, "b"], "sidecar 'arrays' is not a list of JSON", id="entry_not_object"),
            pytest.param("sidecar", ["not", "an", "object"], "sidecar is not a JSON object", id="not_an_object"),
        ],
    )
    def test_corrupt_entry_names_checkpoint_and_array(self, tmp_path, field, value, message):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"a": np.arange(4.0), "b": np.arange(4.0)})
        sidecar = json.loads(sidecar_path(path).read_text())
        if field in ("offset", "shape"):
            sidecar["arrays"][1][field] = value
            message = f"array 'b' .*{message}"
        elif field == "sidecar":
            sidecar = value
        elif value is None:
            del sidecar[field]
        else:
            sidecar[field] = value
        sidecar_path(path).write_text(json.dumps(sidecar))
        with pytest.raises(ValueError, match=rf"checkpoint .*m\.ckpt: {message}"):
            load_checkpoint(path)

    def test_unknown_format_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, {"a": np.zeros(1)})
        sidecar = sidecar_path(path)
        sidecar.write_text(sidecar.read_text().replace("osev-checkpoint-v1", "other"))
        with pytest.raises(ValueError, match="unrecognized"):
            load_checkpoint(path)
