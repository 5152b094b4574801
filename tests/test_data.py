"""Synthetic dataset: spectral identity, bias wiring, serialization."""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osev import data as data_mod
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
        with pytest.raises(ValueError, match="unknown dataset spec fields"):
            SyntheticSpec.from_dict({"known_classes": 3, "bogus": 1})

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
            kind="train",
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
        split = load_split(path, kind="train")
        assert split.kind == "train"
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
            pytest.param(
                "99999999999999999999,0,0,0.5,0.5",
                "value id='99999999999999999999' is outside the int64 range",
                id="id_overflow",
            ),
        ],
    )
    def test_non_finite_value_reports_line_and_column(self, tmp_path, row, message):
        """A non-finite value, or an id, class or scene that is not an int64 integer, names file:line and the column."""
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


def _parse_both(path):
    """(fast, loop) parses of a split file's rows; loop is an exception if it raises."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        lines = fh.readlines()
    fast = data_mod._parse_rows_fast(lines, len(header) - 3)
    try:
        loop = data_mod._parse_rows(Path(path), header, lines)
    except ValueError as exc:
        loop = exc
    return fast, loop


def _assert_same_bytes(fast, loop):
    assert len(fast) == len(loop) == 4
    for a, b in zip(fast, loop):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()


#: CSV fields near the boundary of what either parser accepts.
FIELD = st.one_of(
    st.sampled_from(["1.0", "1e0", "1_0", "nan", "inf", "1e400", "", " ", "0x1", "1,"]),
    st.text(alphabet="0123456789.-+eE naifINF_x\t", max_size=5),
)
VALID_ROW = st.tuples(
    *[st.integers(-(10**6), 10**6).map(str)] * 3,
    *[st.floats(allow_nan=False, allow_infinity=False).map(repr)] * 2,
).map(list)


def _mutate(row, edit):
    """Apply one edit to a valid row: None, ("set", i, text), ("add", text) or ("drop",)."""
    if edit is None:
        return row
    if edit[0] == "set":
        return row[: edit[1]] + [edit[2]] + row[edit[1] + 1 :]
    if edit[0] == "add":
        return row + [edit[1]]
    return row[:-1]


ROW = st.builds(
    _mutate,
    VALID_ROW,
    st.one_of(
        st.none(),
        st.tuples(st.just("set"), st.integers(0, 4), FIELD),
        st.tuples(st.just("add"), FIELD),
        st.just(("drop",)),
    ),
)


class TestVectorisedParse:
    """The one-call parse gives the line loop's bytes and defers whatever the loop rejects."""

    def test_generated_split_matches_loop(self, tmp_path):
        path = save_split(generate(small_spec(samples_per_class=6))["train"], tmp_path / "train.csv")
        fast, loop = _parse_both(path)
        assert fast is not None
        _assert_same_bytes(fast, loop)

    def test_shortest_repr_doubles_match_float(self, tmp_path):
        rng = np.random.default_rng(3)
        values = np.exp(rng.uniform(np.log(1e-300), np.log(1e300), size=(400, 100)))
        values *= rng.choice([-1.0, 1.0], size=values.shape)
        split = DatasetSplit(
            kind="train",
            x=values.reshape(400, 4, 25),
            labels=np.arange(400, dtype=np.int64) % 5,
            scenes=np.zeros(400, dtype=np.int64),
            ids=np.arange(400, dtype=np.int64),
        )
        path = save_split(split, tmp_path / "wide.csv")
        fast, loop = _parse_both(path)
        assert fast is not None
        _assert_same_bytes(fast, loop)
        assert load_split(path).x.tobytes() == values.tobytes()

    def test_well_formed_split_skips_the_line_loop(self, tmp_path, monkeypatch):
        split = generate(small_spec(samples_per_class=3))["train"]
        path = save_split(split, tmp_path / "train.csv")

        def fail(*args):
            raise AssertionError("line loop ran on a well-formed split")

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
            ("2,0,0,0.5,", "could not convert"),
            ("2,0,0,nan,0.5", "value c0_t0=nan is not finite"),
            ("2,0,0,0.5,-inf", "value c0_t1=-inf is not finite"),
            ("2,0,0,0.5,1e400", "value c0_t1=inf is not finite"),
        ],
    )
    def test_fast_path_defers_every_rejected_row(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"id,class,scene,c0_t0,c0_t1\n1,0,0,0.5,0.5\n{row}\n")
        fast, loop = _parse_both(path)
        assert fast is None
        assert isinstance(loop, ValueError)
        with pytest.raises(ValueError, match=message):
            load_split(path)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(ROW, min_size=1, max_size=4))
    def test_whatever_the_fast_path_accepts_the_loop_accepts_identically(self, rows):
        lines = [",".join(fields) + "\n" for fields in rows]
        header = ["id", "class", "scene", "c0_t0", "c0_t1"]
        fast = data_mod._parse_rows_fast(lines, 2)
        if fast is not None:
            _assert_same_bytes(fast, data_mod._parse_rows(Path("fuzz.csv"), header, lines))
