"""Key = value parsing and run-config validation."""

import re

import pytest

from osev.config import ConfigError, RunConfig, parse_kv_file, parse_kv_text


class TestKvParsing:
    def test_basic_lines(self):
        out = parse_kv_text("a = 1\nb=two\nc =  3.5  \n")
        assert out == {"a": "1", "b": "two", "c": "3.5"}

    def test_comments_and_blanks_ignored(self):
        out = parse_kv_text("# header\n\na = 1\n   \n# trailing\n")
        assert out == {"a": "1"}

    def test_value_keeps_later_equals_signs(self):
        out = parse_kv_text("path = /data/run=3/x\n")
        assert out == {"path": "/data/run=3/x"}

    def test_missing_equals_reports_location(self):
        with pytest.raises(ConfigError, match=r"cfg:2: expected 'key = value'"):
            parse_kv_text("a = 1\njust words\n", source="cfg")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigError, match="empty key"):
            parse_kv_text("= 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key 'a'"):
            parse_kv_text("a = 1\na = 2\n")

    def test_file_source_appears_in_errors(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("broken line\n")
        with pytest.raises(ConfigError, match="run.cfg:1"):
            parse_kv_file(path)


class TestDefaults:
    def test_published_hyperparameter_defaults(self):
        cfg = RunConfig()
        assert cfg.lambda0 == 0.01
        assert cfg.w_euc == 1.0
        assert cfg.w_ced == 0.1
        assert cfg.lambda_hsic == 1.0
        assert cfg.momentum == 0.9
        assert cfg.weight_decay == 1e-4
        assert cfg.evidence == "exp"
        assert cfg.coverage == 0.95
        assert cfg.ece_bins == 15
        assert cfg.num_selections == 10
        assert cfg.loss_type == "edl"
        assert cfg.nesterov is False

    def test_defaults_validate(self):
        RunConfig().validate()


class TestFromDict:
    """Parsed JSON (a checkpoint's config): each field takes its own JSON type."""

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key 'typo'"):
            RunConfig.from_dict({"typo": 1})

    @pytest.mark.parametrize(
        "raw,message",
        [
            ({"lr": "0.25"}, "config field 'lr' must be a number, got '0.25'"),
            ({"epochs": "5"}, "config field 'epochs' must be an integer, got '5'"),
            ({"epochs": 3.0}, "config field 'epochs' must be an integer, got 3.0"),
            ({"seed": 1.5}, "config field 'seed' must be an integer, got 1.5"),
            ({"feature_width": True}, "config field 'feature_width' must be an integer, got True"),
            ({"exp_bound": False}, "config field 'exp_bound' must be a number, got False"),
            ({"use_euc": 1}, "config field 'use_euc' must be a boolean, got 1"),
            ({"dataset": 5}, "config field 'dataset' must be a string, got 5"),
            (["epochs", 5], "config must be a JSON object"),
        ],
    )
    def test_mistyped_json_rejected(self, raw, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            RunConfig.from_dict(raw)

    def test_an_integer_is_a_number(self):
        assert RunConfig.from_dict({"lr": 1}).lr == 1.0

    def test_round_trip(self):
        cfg = RunConfig(epochs=7, lr=0.02, use_ced=True, dataset="/tmp/d")
        assert RunConfig.from_dict(cfg.to_dict()) == cfg


class TestFromFile:
    """key = value text: each string converts by its field's type."""

    @staticmethod
    def read(tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return RunConfig.from_file(path)

    def test_from_file(self, tmp_path):
        cfg = self.read(tmp_path, "# test config\nepochs = 3\nlr = 0.5\nuse_euc = true\n")
        assert (cfg.epochs, cfg.lr, cfg.use_euc) == (3, 0.5, True)

    def test_string_coercion(self, tmp_path):
        cfg = self.read(tmp_path, "epochs = 5\nlr = 0.25\nuse_euc = true\nnesterov = 0\nevidence = relu\n")
        assert cfg.epochs == 5
        assert cfg.lr == 0.25
        assert cfg.use_euc is True
        assert cfg.nesterov is False
        assert cfg.evidence == "relu"

    @pytest.mark.parametrize("text,expected", [("yes", True), ("no", False), ("1", True), ("FALSE", False)])
    def test_bool_spellings(self, tmp_path, text, expected):
        assert self.read(tmp_path, f"use_ced = {text}\n").use_ced is expected

    @pytest.mark.parametrize(
        "text,message",
        [
            ("typo = 1", "unknown config key 'typo'"),
            ("use_euc = maybe", "config field 'use_euc' must be a boolean, got 'maybe'"),
            ("epochs = three", "config field 'epochs' must be an integer, got 'three'"),
            ("epochs = 2.0", "config field 'epochs' must be an integer, got '2.0'"),
            ("epochs = 0", "epochs: must be >= 1, got 0"),
        ],
    )
    def test_rejections_name_the_file_and_key(self, tmp_path, text, message):
        with pytest.raises(ConfigError, match=re.escape(f"run.cfg: {message}")):
            self.read(tmp_path, text + "\n")


class TestValidation:
    @pytest.mark.parametrize(
        "overrides,match",
        [
            ({"loss_type": "bayes"}, "loss_type"),
            ({"evidence": "sigmoid"}, "evidence"),
            ({"loss_type": "softmax", "use_euc": True}, "require loss_type"),
            ({"ced_mode": "round-robin"}, "ced_mode"),
            ({"epochs": 0}, "epochs"),
            ({"kernel_width": 1}, "kernel_width"),
            ({"exp_bound": 0.0}, "exp_bound"),
            ({"exp_bound": float("nan")}, "exp_bound"),
            ({"lambda0": 1.0}, "lambda0"),
            ({"lambda0": 0.0}, "lambda0"),
            ({"coverage": 0.0}, "coverage"),
            ({"coverage": 1.5}, "coverage"),
            ({"w_ced": -0.1}, "w_ced"),
            ({"lr": 0.0}, "lr"),
            ({"lr": float("inf")}, "lr"),
            ({"momentum": 1.0}, "momentum"),
            ({"lr_step_gamma": 0.0}, "lr_step_gamma"),
        ],
    )
    def test_rejections_name_the_field(self, overrides, match):
        cfg = RunConfig(**overrides)
        with pytest.raises(ConfigError, match=match):
            cfg.validate()

    def test_ced_needs_two_samples_per_batch(self):
        """HSIC needs >= 2 samples, so use_ced rejects single-sample batches up front."""
        with pytest.raises(ConfigError) as err:
            RunConfig(use_ced=True, batch_size=1).validate()
        assert str(err.value) == "batch_size: must be >= 2 with use_ced, got 1"
        with pytest.raises(ConfigError) as err:
            RunConfig(use_ced=True, batch_size=0).validate()
        assert str(err.value) == "batch_size: must be >= 1, got 0"
        RunConfig(use_ced=True, batch_size=2).validate()
        RunConfig(batch_size=1).validate()

    def test_infinite_exp_bound_is_accepted(self):
        RunConfig(exp_bound=float("inf")).validate()
