"""Synthetic dataset: spectral identity, bias wiring, serialization."""

import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from osev import data as data_mod
from osev.cli import main
from osev.data import (
    SPLIT_NAMES,
    DatasetSplit,
    SyntheticSpec,
    generate,
    load_dataset,
    load_split,
    save_dataset,
    save_split,
)
from osev.nn import apply_time_permutations, draw_time_permutations


def small_spec(**overrides):
    base = dict(
        known_classes=4,
        unknown_classes=3,
        samples_per_class=12,
        timesteps=24,
        dynamic_channels=3,
        background_channels=2,
        bias_strength=0.95,
        noise_sigma=0.1,
        seed=7,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        SyntheticSpec().validate()

    def test_field_level_diagnostics_are_collected(self):
        spec = SyntheticSpec(known_classes=1, unknown_classes=0, bias_strength=1.5)
        with pytest.raises(ValueError) as err:
            spec.validate()
        message = str(err.value)
        assert "known_classes" in message
        assert "unknown_classes" in message
        assert "bias_strength" in message

    def test_nyquist_guard(self):
        spec = small_spec(timesteps=12, known_classes=4, unknown_classes=3)
        # highest frequency 2 + 4 + 3 - 1 = 8 >= 12/2
        with pytest.raises(ValueError, match="Nyquist"):
            spec.validate()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown spec key 'bogus'"):
            SyntheticSpec.from_dict({"known_classes": 3, "bogus": 1})

    @pytest.mark.parametrize(
        "raw, message",
        [([], "spec must be a JSON object"), ({"seed": False}, "'seed' must be an integer, got False"),
         ({"bias_strength": "0.9"}, "'bias_strength' must be a number")],
    )
    def test_from_dict_rejects_mistyped_json(self, raw, message):
        with pytest.raises(ValueError, match=message):
            SyntheticSpec.from_dict(raw)

    def test_from_dict_takes_an_integer_for_a_float_field(self):
        assert SyntheticSpec.from_dict({"bias_strength": 1}).bias_strength == 1.0

    def test_frequency_sets_are_disjoint(self):
        spec = small_spec()
        known = set(spec.known_frequencies)
        unknown = set(spec.unknown_frequencies)
        assert known
        assert unknown
        assert not known & unknown
        assert max(known | unknown) < spec.timesteps / 2


class TestGeneration:
    def test_split_shapes_and_label_ranges(self):
        spec = small_spec()
        splits = generate(spec)
        assert set(splits) == set(SPLIT_NAMES)
        n_known = spec.known_classes * spec.samples_per_class
        for name in ("train", "test_biased", "test_unbiased"):
            s = splits[name]
            assert s.x.shape == (n_known, spec.channels, spec.timesteps)
            assert s.labels.min() == 0
            assert s.labels.max() == spec.known_classes - 1
        unk = splits["test_unknown"]
        assert unk.x.shape == (
            spec.unknown_classes * spec.samples_per_class,
            spec.channels,
            spec.timesteps,
        )
        assert unk.labels.min() == spec.known_classes
        assert unk.labels.max() == spec.known_classes + spec.unknown_classes - 1

    def test_noiseless_fft_peak_recovers_class_frequency(self):
        spec = small_spec(noise_sigma=0.0)
        splits = generate(spec)
        freq_of = {c: f for c, f in zip(range(spec.known_classes), spec.known_frequencies)}
        freq_of.update(
            {
                spec.known_classes + j: f
                for j, f in enumerate(spec.unknown_frequencies)
            }
        )
        for name in SPLIT_NAMES:
            s = splits[name]
            spectrum = np.abs(np.fft.rfft(s.x[:, : spec.dynamic_channels, :], axis=2))
            peaks = spectrum.argmax(axis=2)
            expected = np.vectorize(freq_of.get)(s.labels)
            assert (peaks == expected[:, None]).all(), name

    def test_full_bias_locks_scene_to_class(self):
        splits = generate(small_spec(bias_strength=1.0, noise_sigma=0.0))
        for name in ("train", "test_biased"):
            s = splits[name]
            np.testing.assert_array_equal(s.scenes, s.labels, err_msg=name)

    def test_biased_split_scene_matches_class_at_strength(self):
        spec = small_spec(samples_per_class=500)
        train = generate(spec)["train"]
        match_rate = float((train.scenes == train.labels).mean())
        # rho plus the uniform redraw's accidental hits
        expected = spec.bias_strength + (1 - spec.bias_strength) / spec.known_classes
        assert abs(match_rate - expected) < 0.03

    def test_unbiased_split_scene_is_independent_of_class(self):
        spec = small_spec(samples_per_class=500)
        s = generate(spec)["test_unbiased"]
        k = spec.known_classes
        for c in range(k):
            freqs = np.bincount(s.scenes[s.labels == c], minlength=k) / spec.samples_per_class
            assert np.abs(freqs - 1.0 / k).max() < 0.07, f"class {c}: {freqs}"

    def test_background_mean_identifies_scene(self):
        # the shortcut must be genuinely available: the time-mean of the
        # background channels sits closest to the sample's own scene offset
        spec = small_spec(samples_per_class=200)
        train = generate(spec)["train"]
        means = train.x[:, spec.dynamic_channels :, :].mean(axis=(1, 2))
        offsets = np.asarray(spec.scene_offsets)
        nearest = np.abs(means[:, None] - offsets[None, :]).argmin(axis=1)
        assert (nearest == train.scenes).mean() > 0.99

    def test_unknown_split_reuses_known_scene_pool(self):
        spec = small_spec(samples_per_class=300)
        unk = generate(spec)["test_unknown"]
        assert set(unk.scenes.tolist()) == set(range(spec.known_classes))

    def test_shuffle_preserves_per_channel_means(self):
        spec = small_spec()
        train = generate(spec)["train"]
        perms = draw_time_permutations(np.random.default_rng(0), len(train), spec.timesteps)
        shuffled = apply_time_permutations(train.x, perms)
        np.testing.assert_allclose(
            shuffled.mean(axis=2), train.x.mean(axis=2), atol=1e-12
        )

    def test_same_seed_is_deterministic(self):
        a = generate(small_spec())
        b = generate(small_spec())
        for name in SPLIT_NAMES:
            np.testing.assert_array_equal(a[name].x, b[name].x)
            np.testing.assert_array_equal(a[name].scenes, b[name].scenes)


class TestSerialization:
    def test_round_trip_is_exact(self, tmp_path):
        split = generate(small_spec(samples_per_class=5))["train"]
        path = tmp_path / "train.csv"
        save_split(split, path)
        back = load_split(path)
        np.testing.assert_array_equal(back.x, split.x)
        np.testing.assert_array_equal(back.labels, split.labels)
        np.testing.assert_array_equal(back.scenes, split.scenes)
        np.testing.assert_array_equal(back.ids, split.ids)

    def test_empty_split_writes_header_only(self, tmp_path):
        split = DatasetSplit(
            x=np.zeros((0, 2, 3)),
            labels=np.zeros(0, dtype=np.int64),
            scenes=np.zeros(0, dtype=np.int64),
            ids=np.zeros(0, dtype=np.int64),
        )
        path = tmp_path / "empty.csv"
        save_split(split, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("id,class,scene,c0_t0")
        assert len(load_split(path)) == 0

    def test_hand_written_fixture_parses(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text(
            "id,class,scene,c0_t0,c0_t1,c1_t0,c1_t1\n"
            "7,1,0,0.5,-0.25,1.5,2.0\n"
        )
        split = load_split(path)
        assert len(split) == 1
        assert split.ids[0] == 7
        assert split.labels[0] == 1
        assert split.scenes[0] == 0
        np.testing.assert_array_equal(split.x[0], [[0.5, -0.25], [1.5, 2.0]])

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,c0_t0\n")
        with pytest.raises(ValueError, match="header"):
            load_split(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("id,class,scene,c0_t0,value", "column 5 is 'value', expected 'c{channel}_t{timestep}'"),
            ("id,class,scene,c1_t0,c0_t1", "column 4 is 'c1_t0', expected 'c0_t0'"),
            ("id,class,scene,c0_t0,c0_t1,c1_t1", "column 6 is 'c1_t1', expected 'c1_t0'"),
            ("id,class,scene,c0_t0,c0_t01", "column 5 is 'c0_t01', expected 'c0_t1'"),
            ("id,label,scene,c0_t0", "column 2 is 'label', expected 'class'"),
            ("id,class,scene", "CSV header has no value columns"),
        ],
    )
    def test_header_other_than_save_splits_names_its_first_bad_column(self, tmp_path, header, message):
        path = tmp_path / "bad.csv"
        path.write_text(header + "\n")
        with pytest.raises(ValueError) as err:
            load_split(path)
        assert str(err.value) == f"{path}:1: " + (message if "no value" in message else f"CSV header {message}")

    def test_short_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("id,class,scene,c0_t0,c0_t1\n1,0,0,0.5,0.5\n2,0,0,0.5\n")
        with pytest.raises(ValueError, match=":3:"):
            load_split(path)

    @pytest.mark.parametrize(
        "row, message",
        [pytest.param(f"2,0,0,0.5,{bad}", r"value c0_t1=.* is not finite", id=bad) for bad in ("nan", "inf", "-Infinity")]
        + [
            pytest.param("x,0,0,0.5,0.5", "value id='x' is not an integer", id="id"),
            pytest.param("2,1.5,0,0.5,0.5", "value class='1.5' is not an integer", id="class"),
            pytest.param("2,0,,0.5,0.5", "value scene='' is not an integer", id="scene"),
            pytest.param("2,0,0,abc,0.5", "value c0_t0='abc' is not a number", id="not_a_number"),
            pytest.param(
                "99999999999999999999,0,0,0.5,0.5",
                "value id='99999999999999999999' is outside the int64 range",
                id="id_overflow",
            ),
        ],
    )
    def test_non_finite_value_reports_line_and_column(self, tmp_path, row, message):
        """A value that is not a finite number, or an id, class or scene that is not an int64 integer,
        names file:line and the column."""
        path = tmp_path / "bad.csv"
        path.write_text(f"id,class,scene,c0_t0,c0_t1\n1,0,0,0.5,0.5\n\n{row}\n")
        with pytest.raises(ValueError, match=rf"bad\.csv:4: {message}"):
            load_split(path)

    def test_dataset_round_trip_and_manifest(self, tmp_path):
        spec = small_spec(samples_per_class=3)
        splits = generate(spec)
        save_dataset(spec, splits, tmp_path)
        assert (tmp_path / "manifest.json").exists()
        spec_back, splits_back = load_dataset(tmp_path)
        assert spec_back == spec
        for name in SPLIT_NAMES:
            np.testing.assert_array_equal(splits_back[name].x, splits[name].x)

    def test_load_dataset_parses_the_named_splits(self, tmp_path):
        spec = small_spec(samples_per_class=2)
        save_dataset(spec, generate(spec), tmp_path)
        assert sorted(load_dataset(tmp_path)[1]) == sorted(SPLIT_NAMES)
        (tmp_path / "test_unknown.csv").unlink()  # never opened unless asked for
        assert list(load_dataset(tmp_path, names=("train",))[1]) == ["train"]
        assert load_dataset(tmp_path, names=())[1] == {}
        with pytest.raises(FileNotFoundError, match="test_unknown.csv"):
            load_dataset(tmp_path)

    def test_saved_files_are_byte_identical_across_regeneration(self, tmp_path):
        spec = small_spec(samples_per_class=4)
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        save_dataset(spec, generate(spec), dir_a)
        save_dataset(spec, generate(spec), dir_b)
        for name in list(SPLIT_NAMES) + ["manifest"]:
            fname = f"{name}.csv" if name != "manifest" else "manifest.json"
            assert (dir_a / fname).read_bytes() == (dir_b / fname).read_bytes(), fname

    def test_missing_split_rejected_on_save(self, tmp_path):
        spec = small_spec(samples_per_class=2)
        splits = generate(spec)
        del splits["train"]
        with pytest.raises(ValueError, match="missing split"):
            save_dataset(spec, splits, tmp_path)

    def test_missing_manifest_and_bad_format(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dataset(tmp_path)
        (tmp_path / "manifest.json").write_text('{"format": "other"}\n')
        with pytest.raises(ValueError, match="unrecognized dataset format"):
            load_dataset(tmp_path)


class TestCsvParse:
    """Without a verified copy the rows are parsed line by line, to float()'s bits."""

    def test_shortest_repr_doubles_match_float(self, tmp_path):
        rng = np.random.default_rng(3)
        values = np.exp(rng.uniform(np.log(1e-300), np.log(1e300), size=(400, 100)))
        values *= rng.choice([-1.0, 1.0], size=values.shape)
        split = DatasetSplit(
            x=values.reshape(400, 4, 25),
            labels=np.arange(400, dtype=np.int64) % 5,
            scenes=np.zeros(400, dtype=np.int64),
            ids=np.arange(400, dtype=np.int64),
        )
        path = save_split(split, tmp_path / "wide.csv")
        path.with_suffix(".npz").unlink()
        assert load_split(path).x.tobytes() == values.tobytes()

    @pytest.mark.parametrize(
        "row, column, text",
        [
            ("1_0,0, 0,1_5,0.5", "id", "1_0"),
            ("2,0, 0,0.5,0.5", "scene", " 0"),
            ("2,0,0,1_5,0.5", "c0_t0", "1_5"),
            ("2,0,0,0.5,0.5 ", "c0_t1", "0.5 "),
            (" 2,0,0,0.5,0.5", "id", " 2"),
            ("2,0,0,0.5,\t0.5", "c0_t1", "\t0.5"),
        ],
    )
    def test_a_field_save_split_cannot_write_names_its_line_and_column(self, tmp_path, row, column, text):
        """int() and float() take digit-group underscores and surrounding whitespace; the parse does not.
        The row before it, negatives and exponents as save_split writes them, parses."""
        path = tmp_path / "bad.csv"
        path.write_text(f"id,class,scene,c0_t0,c0_t1\n-1,0,-2,-1e-05,1.5e+300\n{row}\n")
        with pytest.raises(ValueError) as err:
            load_split(path)
        assert str(err.value) == f"{path}:3: value {column}={text!r} has an underscore or whitespace"
        path.write_text("id,class,scene,c0_t0,c0_t1\n-1,0,-2,-1e-05,1.5e+300\n")
        split = load_split(path)
        assert (split.ids[0], split.scenes[0]) == (-1, -2)
        assert split.x.tobytes() == np.array([-1e-05, 1.5e300]).tobytes()

    def test_verified_copy_skips_the_parse(self, tmp_path, monkeypatch):
        split = generate(small_spec(samples_per_class=3))["train"]
        path = save_split(split, tmp_path / "train.csv")

        def fail(*args):
            raise AssertionError("rows parsed beside a verified copy")

        monkeypatch.setattr(data_mod, "_parse_rows", fail)
        np.testing.assert_array_equal(load_split(path).x, split.x)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("2,1.0,0,0.5,0.5", "value class='1.0' is not an integer"),
            ("2,1e0,0,0.5,0.5", "value class='1e0' is not an integer"),
            ("2.0,0,0,0.5,0.5", "value id='2.0' is not an integer"),
            ("2,0,1.5,0.5,0.5", "value scene='1.5' is not an integer"),
            ("2,0,0,0.5", "expected 5 fields, found 4"),
            ("2,0,0,0.5,0.5,0.5", "expected 5 fields, found 6"),
            ("2,0,0,0.5,", "bad.csv:3: value c0_t1='' is not a number"),
            ("2,0,0,nan,0.5", "value c0_t0=nan is not finite"),
            ("2,0,0,0.5,-inf", "value c0_t1=-inf is not finite"),
            ("2,0,0,0.5,1e400", "value c0_t1=inf is not finite"),
        ],
    )
    def test_rejected_row(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"id,class,scene,c0_t0,c0_t1\n1,0,0,0.5,0.5\n{row}\n")
        with pytest.raises(ValueError, match=message):
            load_split(path)


#: Known splits of 12 rows and an unknown pool of 40, each row 5 channels x 32 timesteps.
OPEN_SET_SPEC = dict(known_classes=3, unknown_classes=10, samples_per_class=4, timesteps=32)


@pytest.fixture(scope="module")
def open_set_run(tmp_path_factory):
    """(dataset dir, checkpoint) for ``osev eval``: a tiny model trained for one epoch."""
    root = tmp_path_factory.mktemp("open_set")
    spec = small_spec(**OPEN_SET_SPEC)
    save_dataset(spec, generate(spec), root / "data")
    cfg = root / "run.cfg"
    cfg.write_text(f"dataset = {root / 'data'}\nseed = 0\nepochs = 1\nfeature_width = 4\nkernel_width = 3\n")
    assert main(["train", "--config", str(cfg), "--out", str(root / "run")]) == 0
    return root / "data", root / "run" / "model.ckpt"


@pytest.fixture
def copies_used(monkeypatch):
    """A dict that maps each split loaded from here on to whether its binary copy was used."""
    used = {}
    inner = data_mod._read_copy

    def spy(path, *args):
        arrays = inner(path, *args)
        used[Path(path).stem] = arrays is not None
        return arrays

    monkeypatch.setattr(data_mod, "_read_copy", spy)
    return used


def _parse_only(path, monkeypatch) -> DatasetSplit:
    """``load_split(path)`` with every binary copy ignored."""
    with monkeypatch.context() as patch:
        patch.setattr(data_mod, "_read_copy", lambda *args: None)
        return load_split(path)


def _assert_same_split(a: DatasetSplit, b: DatasetSplit) -> None:
    for field in ("x", "ids", "labels", "scenes"):
        u, v = getattr(a, field), getattr(b, field)
        assert (u.dtype, u.shape, u.tobytes()) == (v.dtype, v.shape, v.tobytes()), field
        assert u.flags.writeable and u.flags.c_contiguous, field


def _drop_copies(directory: Path) -> None:
    for npz in directory.glob("*.npz"):
        npz.unlink()


def _forge(npz: Path, how: str) -> None:
    """Replace a binary copy with one that must not verify; all but the first three keep the digest."""
    if how == "truncated":
        npz.write_bytes(npz.read_bytes()[:-100])
        return
    if how == "not_a_zip":
        npz.write_text("id,class,scene\n")
        return
    with np.load(npz) as saved:
        arrays = dict(saved)
    if how == "npy":  # a lone array, which np.load returns without an archive
        with open(npz, "wb") as fh:
            np.save(fh, arrays["x"])
        return
    x = arrays["x"].copy()
    if how == "x_float32":
        arrays["x"] = x.astype(np.float32)
    elif how == "labels_int32":
        arrays["labels"] = arrays["labels"].astype(np.int32)
    elif how == "one_row_short":
        arrays["x"] = x[:-1]
    elif how == "one_channel_short":
        arrays["x"] = x[:, :-1]
    elif how == "nan":
        x[1, 0, 2] = np.nan
        arrays["x"] = x
    elif how == "pickled_object_array":
        arrays["x"] = x.astype(object)
    elif how == "digest_as_bytes":
        arrays["csv_sha256"] = np.bytes_(str(arrays["csv_sha256"]))
    else:  # "no_scenes"
        del arrays["scenes"]
    with open(npz, "wb") as fh:
        np.savez(fh, **arrays)


class TestBinaryCopies:
    """A split CSV's ``.npz`` copy is read in place of the parse only when it verifies against the CSV."""

    def test_copies_load_bit_identical_to_the_parse(self, open_set_run, copies_used, monkeypatch):
        data_dir, _ = open_set_run
        _, splits = load_dataset(data_dir)
        assert copies_used == {name: True for name in SPLIT_NAMES}
        assert list(splits) == ["test_biased", "test_unbiased", "test_unknown", "train"]  # manifest order
        for name in SPLIT_NAMES:
            _assert_same_split(splits[name], _parse_only(data_dir / f"{name}.csv", monkeypatch))

    def test_a_csv_with_one_changed_digit_is_parsed_not_read_from_its_stale_copy(self, tmp_path, copies_used, monkeypatch):
        path = save_split(generate(small_spec(samples_per_class=3))["train"], tmp_path / "train.csv")
        stale = load_split(path)
        lines = path.read_text().splitlines()
        fields = lines[1].split(",")
        digit = fields[3][-1]
        fields[3] = fields[3][:-1] + str((int(digit) + 1) % 10)
        lines[1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        split = load_split(path)
        assert copies_used == {"train": False}
        _assert_same_split(split, _parse_only(path, monkeypatch))
        assert split.x[0, 0, 0] != stale.x[0, 0, 0]
        assert np.array_equal(split.x.ravel()[1:], stale.x.ravel()[1:])

    @pytest.mark.parametrize(
        "how",
        [
            "truncated",
            "not_a_zip",
            "npy",
            "x_float32",
            "labels_int32",
            "one_row_short",
            "one_channel_short",
            "nan",
            "pickled_object_array",
            "digest_as_bytes",
            "no_scenes",
        ],
    )
    def test_a_copy_that_does_not_verify_falls_back_to_the_parse(self, tmp_path, copies_used, monkeypatch, how):
        path = save_split(generate(small_spec(samples_per_class=3))["test_biased"], tmp_path / "test_biased.csv")
        _forge(path.with_suffix(".npz"), how)
        split = load_split(path)
        assert copies_used == {"test_biased": False}
        _assert_same_split(split, _parse_only(path, monkeypatch))

    def test_an_id_outside_int64_gets_no_copy_and_fails_the_parse(self, tmp_path):
        split = generate(small_spec(samples_per_class=2))["train"]
        ids = split.ids.astype(np.uint64)
        ids[1] = 2**63
        path = save_split(replace(split, ids=ids), tmp_path / "train.csv")
        assert not path.with_suffix(".npz").exists()
        with pytest.raises(ValueError, match=r"train\.csv:3: value id='9223372036854775808' is outside the int64 range"):
            load_split(path)

    def test_generate_data_twice_writes_identical_bytes(self, tmp_path):
        spec = tmp_path / "spec.cfg"
        spec.write_text("known_classes = 3\nunknown_classes = 2\nsamples_per_class = 4\ntimesteps = 16\n")
        for out in ("a", "b"):
            assert main(["generate-data", "--spec", str(spec), "--out", str(tmp_path / out)]) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(["manifest.json"] + [f"{n}.{ext}" for n in SPLIT_NAMES for ext in ("csv", "npz")])
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == names
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def _corrupt(path: Path, how: str) -> None:
    """Break one split file the way ``how`` names."""
    if how == "channels":  # a well-formed file with one channel fewer than the manifest says
        split = load_split(path)
        save_split(replace(split, x=split.x[:, :-1, :]), path)
        return
    lines = path.read_text().splitlines()
    if how == "header":
        lines[0] = lines[0].replace("scene", "place")
    else:  # on line 3: a nan in column c0_t2, an id past the int64 range, or a digit-group underscore
        column, text = {"nan": (5, "nan"), "id": (0, "99999999999999999999"), "underscore": (3, "1_5")}[how]
        fields = lines[2].split(",")
        fields[column] = text
        lines[2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


#: The message each ``_corrupt`` gives, after ``error: <path of the CSV>``.
CORRUPT_MESSAGE = {
    "header": ":1: CSV header column 3 is 'place', expected 'scene'",
    "nan": ":3: value c0_t2=nan is not finite",
    "id": ":3: value id='99999999999999999999' is outside the int64 range",
    "underscore": ":3: value c0_t0='1_5' has an underscore or whitespace",
    "channels": ": 4 channels x 32 timesteps, manifest spec says 5 x 32",
}


@pytest.mark.parametrize("copies", [True, False], ids=["copies", "no_copies"])
class TestDatasetLoad:
    """Every malformed split gives the same exit code and message with the binary copies present or deleted.

    With copies present, an edited CSV leaves its copy stale unless the test
    saves the split again, which writes a copy that verifies.
    """

    @pytest.mark.parametrize("how", ["header", "nan", "id", "underscore", "channels"])
    @pytest.mark.parametrize("bad", ["test_unknown", "test_biased"])
    def test_a_malformed_file_exits_2_with_its_message(self, tmp_path, open_set_run, capsys, copies, bad, how):
        data_dir, ckpt = open_set_run
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        _corrupt(data / f"{bad}.csv", how)
        if not copies:
            _drop_copies(data)
        report = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(report)]) == 2
        assert capsys.readouterr().err == f"error: {data / bad}.csv{CORRUPT_MESSAGE[how]}\n"
        assert not report.exists()

    @pytest.mark.parametrize(
        "bad, label, message",
        [
            ("train", -1, "has class -1, outside the known classes [0, 3)"),
            ("train", 3, "has class 3, outside the known classes [0, 3)"),
            ("train", None, "split has no rows"),
            ("test_biased", 13, "has class 13, outside the known classes [0, 3)"),
            ("test_unknown", 2, "has class 2, outside the unknown classes [3, 13)"),
            ("test_unknown", None, "split has no rows"),
        ],
    )
    def test_a_split_without_rows_or_with_a_class_outside_its_range_exits_2(
        self, tmp_path, open_set_run, copies_used, capsys, copies, bad, label, message
    ):
        """The row's id is named, or the empty file; in eval and in train."""
        data_dir, ckpt = open_set_run
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        path = data / f"{bad}.csv"
        lines = path.read_text().splitlines()
        if label is None:  # the header alone
            del lines[1:]
        else:
            fields = lines[2].split(",")
            fields[1] = str(label)
            lines[2] = ",".join(fields)
            message = f"row id={fields[0]} {message}"
        path.write_text("\n".join(lines) + "\n")
        if copies:  # the split's checks then run on what its copy holds
            edited = path.read_bytes()
            save_split(load_split(path), path)
            assert path.read_bytes() == edited
        else:
            _drop_copies(data)
        expected = f"error: {path}: {message}\n"
        report = tmp_path / "report.json"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(report)]) == 2
        assert capsys.readouterr().err == expected
        assert copies_used[bad] == copies
        assert not report.exists()
        if bad == "train":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"dataset = {data}\nseed = 0\nepochs = 1\nfeature_width = 4\nkernel_width = 3\n")
            assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
            assert capsys.readouterr().err == expected
            assert not (tmp_path / "run" / "run.log").exists()

    @pytest.mark.parametrize("first, second", [("test_unknown", "train"), ("test_biased", "test_unknown")])
    def test_the_first_bad_file_in_manifest_order_is_named(self, tmp_path, open_set_run, copies, first, second):
        data = tmp_path / "data"
        shutil.copytree(open_set_run[0], data)
        _corrupt(data / f"{first}.csv", "nan")
        _corrupt(data / f"{second}.csv", "header")
        if not copies:
            _drop_copies(data)
        with pytest.raises(ValueError, match=rf"{first}\.csv:3: value c0_t2=nan is not finite"):
            load_dataset(data)

    def test_eval_loads_each_split_once_and_prints_its_line_once(
        self, tmp_path, open_set_run, copies_used, capfd, copies
    ):
        data_dir, ckpt = open_set_run
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        if not copies:
            _drop_copies(data)
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data), "--out", str(tmp_path / "r.json")]) == 0
        out = capfd.readouterr().out
        assert out.count("open-set AUC") == 1, out
        assert copies_used == {name: copies for name in SPLIT_NAMES}
