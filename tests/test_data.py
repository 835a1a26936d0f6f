"""Data-plane tests: normalization, windowing, splits, synthetic corpus,
CSV ingestion."""

from __future__ import annotations

import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fedsim import SyntheticSpec, generate_synthetic, stratified_split, window, z_normalize
from fedsim.data import (
    CSV_HEADER,
    DEFAULT_STEP,
    DEFAULT_WINDOW,
    CsvDataSpec,
    CsvFormatError,
    _orthogonal,
    client_windows,
    concat_window_sets,
    ingest_csv,
    read_csv_clients,
)
from fedsim.fabric import ShapeError
from fedsim.nn import Batch
from fedsim.seeds import sequence


def series_from(channels: np.ndarray, labels=None) -> Batch:
    channels = np.asarray(channels, dtype=np.float64)
    if labels is None:
        labels = np.zeros(len(channels), dtype=np.intp)
    return Batch(channels, np.asarray(labels, dtype=np.intp))


class TestZNormalize:
    def test_hand_arithmetic_1_2_3(self):
        out = z_normalize(series_from(np.array([[1.0], [2.0], [3.0]])))
        # population std of (1,2,3) is sqrt(2/3)
        expected = (np.array([1.0, 2.0, 3.0]) - 2.0) / np.sqrt(2.0 / 3.0)
        assert np.allclose(out.inputs[:, 0], expected, atol=1e-12)
        assert abs(out.inputs[:, 0].mean()) < 1e-9
        assert abs(out.inputs[:, 0].std() - 1) < 1e-9

    def test_idempotent(self, rng):
        once = z_normalize(series_from(rng.normal(2.0, 3.0, size=(500, 6))))
        twice = z_normalize(once)
        assert np.abs(once.inputs - twice.inputs).max() < 1e-9

    def test_constant_channel_centered(self):
        data = np.column_stack([np.full(10, 7.0), np.arange(10, dtype=float)])
        out = z_normalize(series_from(data))
        assert np.all(out.inputs[:, 0] == 0)
        # the mean of three 0.1s rounds off 0.1, leaving a std of 1e-17
        out = z_normalize(series_from(np.full((3, 1), 0.1)))
        assert np.all(out.inputs == 0)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_undoes_any_channel_gain_and_offset(self, seed, n, data):
        # Why a device gain or offset is no client heterogeneity: each
        # client's series is normalized on its own statistics.
        channels = data.draw(st.integers(1, 6))

        def per_channel(values):
            return np.array(data.draw(st.lists(values, min_size=channels,
                                               max_size=channels)))

        gain, offset = per_channel(st.floats(0.5, 2.0)), per_channel(st.floats(-1.0, 1.0))
        constant = per_channel(st.booleans())
        rng = np.random.default_rng(seed)
        x = rng.normal(rng.uniform(-3, 3, channels), rng.uniform(0.1, 3, channels),
                       size=(n, channels))
        x[:, constant] = x[0, constant]
        moved = z_normalize(series_from(x * gain + offset)).inputs
        assert np.abs(moved - z_normalize(series_from(x)).inputs).max() <= 1e-12

    def test_every_channel_normalized(self, rng):
        out = z_normalize(series_from(rng.normal(5, 2, size=(400, 6)) *
                                      np.arange(1, 7)))
        assert np.abs(out.inputs.mean(axis=0)).max() < 1e-9
        assert np.abs(out.inputs.std(axis=0) - 1).max() < 1e-9


def numpy_z_normalize(data: np.ndarray) -> np.ndarray:
    """z_normalize written with ndarray.mean and ndarray.std: the reference
    it equals bit for bit."""
    std = data.std(axis=0)
    safe = np.where(std == 0, 1.0, std)
    mean = np.where((data == data[:1]).all(axis=0), data[:1], data.mean(axis=0))
    return (data - mean) / safe


class TestZNormalizeBits:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_three_tenths_and_constant_channels(self, dtype):
        # the mean of three 0.1s rounds off 0.1; a channel of one value and
        # a constant channel of both signed zeros are centered only
        data = np.array([[0.1, 7.0, 0.0, 1.0],
                         [0.1, 7.0, -0.0, 2.0],
                         [0.1, 7.0, 0.0, 4.0]], dtype=dtype)
        out = z_normalize(Batch(data, np.zeros(3, dtype=np.intp)))
        assert out.inputs.dtype == dtype
        assert out.inputs.tobytes() == numpy_z_normalize(data).tobytes()
        assert np.all(out.inputs[:, :3] == 0)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400),
           dtype=st.sampled_from([np.float64, np.float32]), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_equals_numpys_mean_and_std(self, seed, n, dtype, data):
        channels = data.draw(st.integers(1, 7))
        constant = np.array(data.draw(st.lists(st.booleans(), min_size=channels,
                                                max_size=channels)))
        rng = np.random.default_rng(seed)
        x = rng.normal(rng.uniform(-1e3, 1e3, channels),
                       10.0 ** rng.uniform(-8, 3, channels), size=(n, channels))
        x[:, constant] = x[0, constant]
        x = x.astype(dtype)
        out = z_normalize(Batch(x, np.zeros(n, dtype=np.intp))).inputs
        assert out.dtype == dtype and out.shape == x.shape
        assert out.tobytes() == numpy_z_normalize(x).tobytes()


class TestWindow:
    def test_single_window_at_exact_length(self):
        ws = window(series_from(np.zeros((128, 6))))
        assert len(ws) == 1
        assert ws.inputs.shape == (1, 128, 6)

    def test_n_1000_gives_14_windows(self):
        # offsets 0, 64, ..., 896 enumerate to 14
        ws = window(series_from(np.zeros((1000, 6))))
        assert len(ws) == 14

    def test_consecutive_windows_share_half(self, rng):
        data = rng.normal(size=(400, 3))
        ws = window(series_from(data), length=128, step=64)
        assert np.array_equal(ws.inputs[0][64:], ws.inputs[1][:64])
        # a read-only view of the series, not a copy
        assert np.shares_memory(ws.inputs, data) and not ws.inputs.flags.writeable

    def test_too_short_series_warns_and_returns_empty(self):
        with pytest.warns(UserWarning, match="shorter"):
            ws = window(series_from(np.zeros((100, 6))))
        assert len(ws) == 0

    def test_majority_label_with_tie_to_lowest(self):
        labels = np.array([1] * 64 + [0] * 64)
        ws = window(series_from(np.zeros((128, 2)), labels))
        assert ws.labels.tolist() == [0]  # 64/64 tie -> lowest class
        labels = np.array([2] * 65 + [0] * 63)
        ws = window(series_from(np.zeros((128, 2)), labels))
        assert ws.labels.tolist() == [2]

    @given(st.integers(128, 3000))
    @settings(max_examples=60, deadline=None)
    def test_count_formula_matches_offset_enumeration(self, n):
        ws = window(series_from(np.zeros((n, 1))), length=128, step=64)
        offsets = [o for o in range(0, n, 64) if o + 128 <= n]
        assert len(ws) == len(offsets) == (n - 128) // 64 + 1


@pytest.mark.parametrize("frame", [window, z_normalize])
def test_series_functions_reject_framed_inputs(frame):
    framed = Batch(np.zeros((20, 128, 6)), np.zeros(20, dtype=np.intp))
    with pytest.raises(ValueError, match=r"\[samples, channels\], got 3-D"):
        frame(framed)


def window_set(labels) -> Batch:
    labels = np.asarray(labels, dtype=np.intp)
    return Batch(np.zeros((len(labels), 4, 1)), labels)


def test_batch_rows_select_the_examples():
    inputs = np.arange(24.0).reshape(4, 3, 2)
    batch = Batch(inputs, np.array([1, 0]), np.array([3, 1]))
    assert len(batch) == 2
    assert np.array_equal(batch.take(), inputs[[3, 1]])
    assert np.array_equal(batch.take(slice(1, 2)), inputs[[1]])
    for rows in (np.array([0, 4]), np.array([-1, 0]), np.array([[0, 1]])):
        with pytest.raises(ShapeError, match=r"rows must be a vector of indices in \[0, 4\)"):
            Batch(inputs, np.array([0, 0]), rows)
    with pytest.raises(ShapeError, match="labels must be a vector matching the example count"):
        Batch(inputs, np.zeros(4, dtype=np.intp), np.array([0, 1]))


class TestStratifiedSplit:
    def test_exact_ratio_when_divisible(self):
        train, test = stratified_split(window_set([0] * 10 + [1] * 10), 0.8, 0)
        assert np.bincount(train.labels).tolist() == [8, 8]
        assert np.bincount(test.labels).tolist() == [2, 2]

    def test_deterministic_for_fixed_seed(self):
        ws = window_set([0, 0, 0, 1, 1, 1, 1, 2, 2, 2])
        a = stratified_split(ws, 0.8, 42)
        b = stratified_split(ws, 0.8, 42)
        assert np.array_equal(a[0].labels, b[0].labels)
        assert np.array_equal(a[0].rows, b[0].rows)
        assert np.array_equal(a[0].take(), b[0].take())

    def test_rounding_rule_vs_enumerating_oracle(self):
        train, test = stratified_split(window_set([0] * 7 + [1] * 13), 0.8, 1)
        counts = np.bincount(train.labels).tolist()
        # round-half-up then clamp: 7 * 0.8 = 5.6 -> 6; 13 * 0.8 = 10.4 -> 10
        assert counts == [6, 10]
        for n_c, got in zip((7, 13), counts):
            assert abs(got - n_c * 0.8) <= 1.0  # within one window of the ratio

    def test_union_disjoint_and_complete(self, rng):
        labels = rng.integers(0, 4, size=60)
        ws = Batch(rng.normal(size=(60, 4, 1)), labels)
        train, test = stratified_split(ws, 0.7, 3)
        assert len(train) + len(test) == 60
        stacked = np.concatenate([train.take(), test.take()]).reshape(60, -1)
        original = ws.inputs.reshape(60, -1)
        assert {tuple(r) for r in stacked} == {tuple(r) for r in original}

    def test_empty_set_splits_into_two_empty_sets(self):
        empty = window_set([])
        train, test = stratified_split(empty, 0.8, 0)
        assert len(train) == len(test) == 0
        assert train.inputs.shape == test.inputs.shape == empty.inputs.shape

    def test_singleton_class_goes_to_train_with_warning(self):
        with pytest.warns(UserWarning, match="single window"):
            train, test = stratified_split(window_set([0, 0, 0, 0, 1]), 0.8, 0)
        assert (train.labels == 1).sum() == 1
        assert (test.labels == 1).sum() == 0

    def test_singleton_warning_names_the_client(self, tmp_path):
        with pytest.warns(UserWarning, match=r"^client 3: class 1 has a single window"):
            stratified_split(window_set([0, 0, 0, 0, 1]), 0.8, 0, client=3)
        # The synthetic source names each client by its index...
        spec = SyntheticSpec(clients=3, classes=4, dirichlet_alpha=5.0,
                             samples_per_client=(190, 400), segment_range=(40, 80),
                             seed=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sides = generate_synthetic(spec)
        named = [str(w.message) for w in caught if "single window" in str(w.message)]
        assert named
        for message in named:
            client, cls = map(int, re.fullmatch(
                r"client (\d+): class (\d+) has a single window; kept in train",
                message).groups())
            train, test = sides[client]
            assert (train.labels == cls).sum() == 1 and not (test.labels == cls).any()
        # ... and so does the CSV source: only the second export (client 1)
        # has a class, 1, that fills a single window (offset 256 of 64-step
        # windows; the windows either side of it tie 64 to 64, and a tie
        # goes to class 0).
        from fedsim import ExperimentConfig, LayerSpec, ModelArch
        from fedsim.scheduler import CsvDataSpec, client_datasets

        paths = []
        for k, rows in enumerate((range(0), range(256, 384))):
            labels = [1 if i in rows else 0 for i in range(640)]
            write_csv(tmp_path / f"client{k}.csv",
                      [f"{i / 50:.2f},{i % 7},1,2,3,4,5,{label}"
                       for i, label in enumerate(labels)])
            paths.append(str(tmp_path / f"client{k}.csv"))
        arch = ModelArch(128, 6, (LayerSpec("dense", width=8, activation="relu"),
                                  LayerSpec("softmax-output", width=2)))
        cfg = ExperimentConfig(algorithm="fedavg", model=arch,
                               data=CsvDataSpec(paths=tuple(paths), classes=2))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            client_datasets(cfg)
        assert [str(w.message) for w in caught] == [
            "client 1: class 1 has a single window; kept in train"]

    def test_split_allocates_only_rows_and_labels(self, rng):
        # Both sides index window()'s view of the series, so the split keeps
        # one row index and one label per window and copies no window (the
        # 3,124 windows would take 19 MB)
        series = series_from(rng.normal(size=(200_000, 6)), rng.integers(0, 4, 200_000))
        ws = window(series)
        stratified_split(ws, 0.8, 0)  # the first call imports numpy.ma
        tracemalloc.start()
        try:
            sides = stratified_split(ws, 0.8, 0)
            retained, allocated = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = sum(side.rows.nbytes + side.labels.nbytes for side in sides)
        assert sum(len(side) for side in sides) == len(ws) == 3124
        assert kept == 2 * len(ws) * np.dtype(np.intp).itemsize
        assert all(np.shares_memory(side.inputs, series.inputs) for side in sides)
        assert retained <= 1.1 * kept
        # the per-class indices and their sorted copies pass through
        assert allocated <= 2 * kept

    @given(n=st.integers(0, 100) | st.just(16), step=st.sampled_from([5, 15, 16, 17, 40]),
           fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_row_indexed_sides_equal_the_copying_split(self, n, step, fraction, seed):
        # 16-sample windows: the series is shorter than, exactly or longer
        # than one window, stepped below, at and above the window length.
        # Each side's gathered windows are those the split used to copy.
        rng = np.random.default_rng(seed)
        series = series_from(rng.normal(size=(n, 3)), rng.integers(0, 3, n))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a short series, singleton classes
            ws = window(series, 16, step)
            sides = stratified_split(ws, fraction, seed)
        for side in sides:
            copied = ws.inputs[side.rows]
            assert side.take().shape == copied.shape
            assert side.take().tobytes() == copied.tobytes()
            assert np.array_equal(side.labels, ws.labels[side.rows])
            assert np.all(np.diff(side.rows) > 0)  # sorted, no repeats
            assert not side.inputs.flags.writeable
        both = np.concatenate([side.rows for side in sides])
        assert np.array_equal(np.sort(both), np.arange(len(ws)))  # disjoint, complete


class TestClientsHoldEachSampleOnce:
    """A client keeps its normalized series, one label and one row index per
    window, and nothing else: its windows are a view of the series, shared
    by both sides of its split.  Copying the windows would keep about twice
    the series, since windows overlap by half."""

    @staticmethod
    def retained(make):
        make()  # a first call fills import caches, which hold no client data
        tracemalloc.start()
        try:
            datasets = make()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        windows = sum(len(side) for sides in datasets for side in sides)
        return kept, windows * 2 * np.dtype(np.intp).itemsize  # labels, rows

    def test_synthetic_clients(self):
        spec = SyntheticSpec(clients=4, classes=4, dirichlet_alpha=1.0,
                             samples_per_client=(6000, 6000), seed=2)
        kept, indices = self.retained(lambda: generate_synthetic(spec))
        assert kept <= 1.1 * 4 * 6000 * 6 * 8 + indices

    def test_one_client_peaks_below_three_and_a_half_series(self):
        # the series, its labels and two scratch buffers for the signal
        spec = SyntheticSpec(clients=1, classes=8, dirichlet_alpha=0.1,
                             samples_per_client=(18000, 18000), seed=48)
        generate_synthetic(spec)  # a first call fills import caches
        tracemalloc.start()
        try:
            generate_synthetic(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 18000 * 6 * 8

    def test_csv_clients(self, tmp_path):
        from fedsim import ExperimentConfig, LayerSpec, ModelArch
        from fedsim.scheduler import CsvDataSpec, client_datasets

        rng = np.random.default_rng(3)
        paths = []
        for k in range(2):
            labels = np.arange(6000) // 500 % 4
            rows = [f"{i / 50:.2f}," + ",".join(f"{v:.5f}" for v in values) + f",{label}"
                    for i, (values, label) in enumerate(zip(rng.normal(size=(6000, 6)),
                                                            labels))]
            write_csv(tmp_path / f"client{k}.csv", rows)
            paths.append(str(tmp_path / f"client{k}.csv"))
        arch = ModelArch(128, 6, (LayerSpec("dense", width=8, activation="relu"),
                                  LayerSpec("softmax-output", width=4)))
        cfg = ExperimentConfig(algorithm="fedavg", model=arch,
                               data=CsvDataSpec(paths=tuple(paths), classes=4))
        kept, indices = self.retained(lambda: client_datasets(cfg))
        assert kept <= 1.1 * 2 * 6000 * 6 * 8 + indices


class TestGenerateSynthetic:
    def test_seed_determinism_bit_identical(self):
        spec = SyntheticSpec(clients=3, classes=4, dirichlet_alpha=0.5,
                             samples_per_client=(1000, 1500), seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        for (ta, va), (tb, vb) in zip(a, b):
            assert np.array_equal(ta.inputs, tb.inputs)
            assert np.array_equal(ta.take(), tb.take())
            assert np.array_equal(va.labels, vb.labels)

    def test_large_alpha_gives_uniform_segment_draws(self, monkeypatch):
        # chi-square fit on pooled segment class draws; verified to hold on
        # every one of these 20 frozen seeds.  The draws are the classes
        # data._segment_class returns, recorded by a wrapper that forwards
        # every call.
        from fedsim import data
        from fedsim.data import _class_signatures, _client_series

        draws = []

        def recording(cdf, rng, draw=data._segment_class):
            draws.append(draw(cdf, rng))
            return draws[-1]

        monkeypatch.setattr(data, "_segment_class", recording)
        for seed in range(20):
            spec = SyntheticSpec(clients=5, classes=8, dirichlet_alpha=1e6,
                                 samples_per_client=(4000, 6000), seed=seed)
            offsets, amps, freqs = _class_signatures(spec)
            counts = np.zeros(8)
            for k in range(spec.clients):
                rng = np.random.default_rng(
                    np.random.SeedSequence(seed, spawn_key=(102, k)))
                priors = rng.dirichlet(np.full(8, 1e6))
                draws.clear()
                _client_series(spec, offsets, amps, freqs, priors, rng)
                counts += np.bincount(draws, minlength=8)
            assert stats.chisquare(counts).pvalue > 0.01

    def test_small_alpha_concentrates_clients(self):
        # statistical fixture: at alpha=0.1, K=10, C=8 some client holds one
        # class above 60% mass; observed on 20/20 frozen seeds, assert majority
        hits = 0
        for seed in range(20):
            spec = SyntheticSpec(clients=10, classes=8, dirichlet_alpha=0.1,
                                 samples_per_client=(2000, 3000), seed=seed)
            for train, test in generate_synthetic(spec):
                labels = np.concatenate([train.labels, test.labels])
                if np.bincount(labels, minlength=8).max() / len(labels) > 0.6:
                    hits += 1
                    break
        assert hits >= 15

    def test_pipeline_shapes_and_normalization(self):
        spec = SyntheticSpec(clients=2, classes=3, dirichlet_alpha=1.0,
                             samples_per_client=(1500, 1500), seed=4)
        for train, test in generate_synthetic(spec):
            assert train.inputs.shape[1:] == (128, 6)
            assert len(train) > len(test) > 0
            assert train.labels.max() < 3

    def test_concat_window_sets(self):
        spec = SyntheticSpec(clients=2, classes=3, dirichlet_alpha=1.0,
                             samples_per_client=(1200, 1200), seed=5)
        data = generate_synthetic(spec)
        pooled = concat_window_sets(test for _train, test in data)
        assert len(pooled) == sum(len(test) for _train, test in data)


class TestSyntheticSpecValidation:
    @pytest.mark.parametrize("field, value, message", [
        ("channels", 0, "channels must be >= 1, got 0"),
        ("channels", -3, "channels must be >= 1, got -3"),
        ("noise", float("nan"), "noise must be finite, got nan"),
        ("noise", float("inf"), "noise must be finite, got inf"),
        ("dirichlet_alpha", float("inf"), "dirichlet_alpha must be finite, got inf"),
        ("dirichlet_alpha", float("nan"), "dirichlet_alpha must be finite, got nan"),
        ("sample_rate", float("nan"), "sample_rate must be finite, got nan"),
        ("sample_rate", float("inf"), "sample_rate must be finite, got inf"),
    ])
    def test_rejected_naming_the_field(self, field, value, message):
        # a NaN noise gave all-NaN windows, channels=0 zero-channel windows;
        # the class draw has no check of its priors
        kwargs = dict(clients=2, classes=3, dirichlet_alpha=1.0, rotation=False)
        with pytest.raises(ValueError, match=re.escape(message)):
            SyntheticSpec(**{**kwargs, field: value})


def segment_by_segment_series(spec, offsets, amps, freqs, priors, rng) -> Batch:
    """The generator as it drew and computed one segment at a time, with
    Generator.choice: the reference data._client_series equals bit for bit."""
    lo, hi = spec.samples_per_client
    total = int(rng.integers(lo, hi + 1))
    data = np.empty((total, spec.channels))
    labels = np.empty(total, dtype=np.intp)
    pos = 0
    while pos < total:
        seg = int(rng.integers(spec.segment_range[0], spec.segment_range[1] + 1))
        seg = min(seg, total - pos)
        cls = int(rng.choice(spec.classes, p=priors))
        t = (np.arange(pos, pos + seg) / spec.sample_rate)[:, None]
        phase = rng.uniform(0, 2 * np.pi, size=spec.channels)
        clean = offsets[cls] + amps[cls] * np.sin(2 * np.pi * freqs[cls] * t + phase)
        data[pos:pos + seg] = clean + rng.normal(0.0, spec.noise, size=(seg, spec.channels))
        labels[pos:pos + seg] = cls
        pos += seg
    if spec.rotation:
        for block in range(spec.channels // 3):
            q = _orthogonal(rng, 3)
            sl = slice(3 * block, 3 * block + 3)
            data[:, sl] = data[:, sl] @ q.T
    scale = rng.uniform(0.8, 1.2, size=spec.channels)
    offset = rng.uniform(-0.3, 0.3, size=spec.channels)
    return Batch(data * scale + offset, labels)


class TestGeneratorBitIdentity:
    @pytest.mark.parametrize("noise", [0.0, 0.3])
    @pytest.mark.parametrize("rotation, channels", [(True, 3), (True, 6), (False, 3),
                                                    (False, 6)])
    def test_client_series_equals_segment_by_segment(self, rotation, channels, noise):
        # segments of one sample and segments longer than the series;
        # priors from near one-hot (alpha 1e-3) to near uniform (1e6)
        from fedsim.data import _class_signatures, _client_series

        for seed, samples, segments, alpha in itertools.product(
                (48, 3, 7), ((1, 1), (128, 128), (300, 500)),
                ((1, 1), (160, 320), (600, 900)), (1e-3, 0.1, 1e6)):
            spec = SyntheticSpec(clients=1, classes=5, dirichlet_alpha=alpha,
                                 samples_per_client=samples, rotation=rotation,
                                 channels=channels, segment_range=segments,
                                 noise=noise, seed=seed)
            signatures = _class_signatures(spec)
            ours, reference = (np.random.default_rng(sequence("client series", seed, 0))
                               for _ in range(2))
            priors = ours.dirichlet(np.full(5, alpha))
            assert priors.tobytes() == reference.dirichlet(np.full(5, alpha)).tobytes()
            got = _client_series(spec, *signatures, priors, ours)
            want = segment_by_segment_series(spec, *signatures, priors, reference)
            assert got.inputs.dtype == want.inputs.dtype
            assert got.inputs.shape == want.inputs.shape
            assert got.inputs.tobytes() == want.inputs.tobytes()
            assert got.labels.dtype == want.labels.dtype
            assert got.labels.tobytes() == want.labels.tobytes()
            assert ours.bit_generator.state == reference.bit_generator.state
            normalized = z_normalize(got).inputs
            assert normalized.tobytes() == numpy_z_normalize(want.inputs).tobytes()

    @given(weights=st.lists(st.just(0.0) | st.floats(1e-12, 1.0), min_size=1,
                            max_size=12).filter(any),
           seed=st.integers(0, 2**64 - 1))
    @settings(max_examples=150, deadline=None)
    def test_class_draw_is_generator_choice(self, weights, seed):
        # Generator.choice's algorithm, restated: a numpy that changed it
        # would change every synthetic series
        from fedsim.data import _segment_class

        priors = np.array(weights) / sum(weights)
        cdf = priors.cumsum()
        cdf /= cdf[-1]
        ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(64):
            cls = _segment_class(cdf, ours)
            assert cls == numpys.choice(len(priors), p=priors)
            assert priors[cls] > 0
        assert ours.bit_generator.state == numpys.bit_generator.state


class TestConcatWindowSets:
    @pytest.mark.parametrize("pick", [
        lambda sets: sets[::-1],
        lambda sets: sets[:1] + sets[2:],
        lambda sets: [Batch(s.take().copy(), s.labels.copy()) for s in sets],
        lambda sets: [Batch(s.inputs, s.labels[1:], s.rows[1:]) for s in sets],
    ], ids=["out-of-order", "gap", "separate-arrays", "subsets"])
    def test_other_sets_are_copied(self, pick):
        spec = SyntheticSpec(clients=3, classes=3, dirichlet_alpha=1.0,
                             samples_per_client=(1200, 1200), seed=5)
        sets = pick([test for _train, test in generate_synthetic(spec)])
        pooled = concat_window_sets(sets)
        assert np.array_equal(pooled.inputs, np.concatenate([s.take() for s in sets]))
        assert np.array_equal(pooled.labels, np.concatenate([s.labels for s in sets]))
        assert not any(np.shares_memory(pooled.inputs, s.inputs) for s in sets)
        assert not any(np.shares_memory(pooled.labels, s.labels) for s in sets)


def write_csv(path, rows, header=",".join(CSV_HEADER)):
    path.write_text("\n".join([header] + rows) + "\n")


class TestIngestCsv:
    def test_two_row_file(self, tmp_path):
        f = tmp_path / "a.csv"
        write_csv(f, ["0.00,1,2,3,4,5,6,0", "0.02,1,2,3,4,5,6,0"])
        series = ingest_csv(f, 50.0)
        assert len(series) == 2
        assert series.inputs.shape == (2, 6)

    def test_decimation_100_to_50(self, tmp_path):
        f = tmp_path / "b.csv"
        rows = [f"{i},{i},0,0,0,0,0,0" for i in range(10)]
        write_csv(f, rows)
        series = ingest_csv(f, 100.0, target_hz=50.0)
        assert len(series) == 5
        assert series.inputs[:, 0].tolist() == [0, 2, 4, 6, 8]

    def test_bad_row_cites_line_number(self, tmp_path):
        f = tmp_path / "c.csv"
        rows = [f"{i},1,2,3,4,5,6,0" for i in range(20)]
        rows[15] = "bad,row"  # physical line 17 (header is line 1)
        write_csv(f, rows)
        with pytest.raises(CsvFormatError, match="line 17"):
            ingest_csv(f, 50.0)

    def test_header_must_match_exactly(self, tmp_path):
        f = tmp_path / "d.csv"
        write_csv(f, ["0,1,2,3,4,5,6,0"], header="time,ax,ay,az,gx,gy,gz,label")
        with pytest.raises(CsvFormatError, match="line 1"):
            ingest_csv(f, 50.0)

    def test_non_integer_downsample_factor_rejected(self, tmp_path):
        f = tmp_path / "e.csv"
        write_csv(f, ["0,1,2,3,4,5,6,0"])
        with pytest.raises(CsvFormatError, match="factor"):
            ingest_csv(f, 75.0, target_hz=50.0)

    def test_negative_label_cites_line(self, tmp_path):
        f = tmp_path / "g.csv"
        write_csv(f, ["0.00,1,2,3,4,5,6,0", "0.02,1,2,3,4,5,6,-1"])
        with pytest.raises(CsvFormatError, match="line 3: negative label -1"):
            ingest_csv(f, 50.0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_cites_line(self, tmp_path, value):
        f = tmp_path / "n.csv"
        write_csv(f, ["0.00,1,2,3,4,5,6,0", f"0.02,1,2,{value},4,5,6,0",
                      "0.04,1,2,3,4,5,6,0"])
        with pytest.raises(CsvFormatError, match="line 3: non-finite sensor value"):
            ingest_csv(f, 50.0)

    def test_header_only_file_cites_line_2(self, tmp_path):
        f = tmp_path / "h.csv"
        write_csv(f, [])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CsvFormatError, match="line 2: no data rows"):
                z_normalize(ingest_csv(f, 50.0))


class TestOneClientPipeline:
    """Both sources turn a client's raw series into its windows through
    client_windows, each splitting on its own seed stream."""

    SPEC = SyntheticSpec(clients=3, classes=4, dirichlet_alpha=0.5,
                         samples_per_client=(2500, 3500), seed=11)

    @classmethod
    def raw_series(cls) -> list[Batch]:
        """Each synthetic client's raw series, drawn as generate_synthetic
        draws it."""
        from fedsim.data import _class_signatures, _client_series

        signatures = _class_signatures(cls.SPEC)
        out = []
        for k in range(cls.SPEC.clients):
            rng = np.random.default_rng(sequence("client series", cls.SPEC.seed, k))
            priors = rng.dirichlet(np.full(cls.SPEC.classes, cls.SPEC.dirichlet_alpha))
            out.append(_client_series(cls.SPEC, *signatures, priors, rng))
        return out

    @staticmethod
    def assert_same_sides(got, want):
        assert len(got) == len(want) == 2
        for ours, theirs in zip(got, want):
            assert np.array_equal(ours.rows, theirs.rows)
            assert ours.labels.dtype == theirs.labels.dtype
            assert ours.labels.tobytes() == theirs.labels.tobytes()
            assert ours.take().tobytes() == theirs.take().tobytes()

    def test_synthetic_clients_split_on_the_client_split_stream(self):
        clients = generate_synthetic(self.SPEC)
        for k, series in enumerate(self.raw_series()):
            self.assert_same_sides(clients[k], client_windows(
                series, DEFAULT_WINDOW, DEFAULT_STEP, self.SPEC.train_fraction,
                sequence("client split", self.SPEC.seed, k), k))

    def test_csv_clients_split_on_the_csv_splits_stream(self, tmp_path):
        # Each export holds a synthetic client's raw series at full
        # precision (repr round-trips a float), so the reader sees its bits.
        paths = []
        for k, series in enumerate(self.raw_series()):
            write_csv(tmp_path / f"client{k}.csv",
                      [f"{i / 50:.2f}," + ",".join(map(repr, values.tolist()))
                       + f",{label}" for i, (values, label)
                       in enumerate(zip(series.inputs, series.labels))])
            assert ingest_csv(tmp_path / f"client{k}.csv", 50.0).inputs.tobytes() \
                == series.inputs.tobytes()
            paths.append(str(tmp_path / f"client{k}.csv"))
        spec = CsvDataSpec(paths=tuple(paths), classes=self.SPEC.classes,
                           window_step=32)
        clients = read_csv_clients(spec, 5)
        for k, path in enumerate(paths):
            self.assert_same_sides(clients[k], client_windows(
                ingest_csv(path, 50.0), 128, 32, spec.train_fraction,
                sequence("csv splits", 5, k), k))

