"""Training knobs that only run_training reads change what it writes."""

from dataclasses import replace

import pytest

from osev.config import RunConfig
from osev.data import SyntheticSpec, generate, save_dataset
from osev.runner import run_training

ARTIFACTS = ("losses.csv", "model.ckpt")


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    spec = SyntheticSpec(known_classes=3, unknown_classes=2, samples_per_class=8, timesteps=16, seed=4)
    out = tmp_path_factory.mktemp("knob_data")
    save_dataset(spec, generate(spec), out)
    return str(out)


def train_bytes(dataset_dir, out_dir, **overrides) -> dict[str, bytes]:
    config = replace(
        RunConfig(dataset=dataset_dir, seed=3),
        feature_width=4,
        kernel_width=3,
        epochs=3,
        batch_size=6,
        **overrides,
    )
    run_training(config, out_dir)
    return {name: (out_dir / name).read_bytes() for name in ARTIFACTS}


@pytest.mark.parametrize(
    "base, knob",
    [
        pytest.param({}, {"lr_step_epochs": 1}, id="lr_step_epochs"),
        pytest.param({"use_ced": True, "ced_mode": "alternating"}, {"ced_period": 2}, id="ced_period"),
    ],
)
def test_knob_changes_every_training_artifact(dataset_dir, tmp_path, base, knob):
    default = train_bytes(dataset_dir, tmp_path / "default", **base)
    again = train_bytes(dataset_dir, tmp_path / "again", **base)
    changed = train_bytes(dataset_dir, tmp_path / "changed", **base, **knob)
    assert default == again
    for name in ARTIFACTS:
        assert changed[name] != default[name], name


def test_lr_step_beyond_the_last_epoch_changes_nothing(dataset_dir, tmp_path):
    assert train_bytes(dataset_dir, tmp_path / "a") == train_bytes(dataset_dir, tmp_path / "b", lr_step_epochs=3)
