"""score_split runs the backbone over row blocks and the head once, with the bits of one whole-split forward."""

import numpy as np
import pytest

from osev import nn, runner
from osev.config import RunConfig
from osev.debias import strip_for_inference
from osev.evidential import NonFiniteInputError, batch_probs_and_uncertainty
from osev.runner import build_model, score_split

CHANNELS, CLASSES, TIMESTEPS = 6, 5, 48
NETS = {
    "exp": {"evidence": "exp"},
    "softplus": {"evidence": "softplus"},
    "relu": {"evidence": "relu"},
    "softmax": {"loss_type": "softmax"},
}


def _net(kind):
    config = RunConfig(seed=2, feature_width=12, kernel_width=9, **NETS[kind])
    return strip_for_inference(build_model(config, CHANNELS, CLASSES)), config


def _rows(config) -> int:
    """Rows per block: the byte budget over one row's float64 conv output."""
    return runner._BLOCK_BYTES // (8 * config.feature_width * (TIMESTEPS - config.kernel_width + 1))


def _inputs(n: int) -> np.ndarray:
    return np.random.default_rng(5).normal(size=(n, CHANNELS, TIMESTEPS))


def _whole_split(net, config, x):
    """One forward of the whole split, then score_split's probability and score step."""
    _, out = net.forward(x)
    if config.loss_type == "softmax":
        shifted = out - out.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs, 1.0 - probs.max(axis=1)
    return batch_probs_and_uncertainty(out)


SIZES = [
    pytest.param(lambda rows: 0, id="0"),
    pytest.param(lambda rows: 1, id="1"),
    pytest.param(lambda rows: rows - 1, id="rows-1"),
    pytest.param(lambda rows: rows, id="rows"),
    pytest.param(lambda rows: rows + 1, id="rows+1"),
    pytest.param(lambda rows: 2 * rows + 1, id="2*rows+1"),
    pytest.param(lambda rows: 750, id="750"),
]


@pytest.mark.parametrize("kind", NETS)
@pytest.mark.parametrize("size", SIZES)
def test_blocked_scores_have_the_bits_of_one_whole_split_forward(kind, size):
    net, config = _net(kind)
    x = _inputs(size(_rows(config)))
    got, want = score_split(net, config, x), _whole_split(net, config, x)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.dtype == w.dtype == np.float64
        assert np.array_equal(g.view(np.int64), w.view(np.int64))
    assert got[0].shape == (len(x), CLASSES)


def test_a_non_finite_logit_past_the_first_block_is_named_by_its_split_index():
    net, config = _net("exp")
    x = _inputs(750)
    x[200] = 1e308
    assert 200 > _rows(config)
    message = r"non-finite logit at index \(200, 0\)"
    with np.errstate(all="ignore"), pytest.raises(NonFiniteInputError, match=message):
        _whole_split(net, config, x)
    with np.errstate(all="ignore"), pytest.raises(NonFiniteInputError, match=message):
        score_split(net, config, x)


def test_the_conv_sees_row_blocks_and_the_head_runs_once(monkeypatch):
    net, config = _net("exp")
    batches, heads = [], []
    conv_forward, head_forward = nn.TemporalConv.forward, nn.EvidenceHead.forward

    def recording_conv(self, x):
        batches.append(len(x))
        return conv_forward(self, x)

    def recording_head(self, features):
        heads.append(len(features))
        return head_forward(self, features)

    monkeypatch.setattr(nn.TemporalConv, "forward", recording_conv)
    monkeypatch.setattr(nn.EvidenceHead, "forward", recording_head)
    score_split(net, config, _inputs(750))
    rows = _rows(config)
    assert rows == 136
    assert batches == [rows] * 5 + [750 - 5 * rows]
    assert heads == [750]
