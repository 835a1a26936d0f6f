"""Sensor-series data plane: synthetic non-IID client generation, channel
z-normalization, sliding-window framing, stratified splits, a generic CSV
ingester for 6-channel IMU exports, and the two client-data sources
(SyntheticSpec, CsvDataSpec), which both turn each client's raw series
into its windows through client_windows.  A raw series, inputs [samples,
channels], and its framed windows, [count, length, channels], are both
nn.Batch.
The windows are a read-only view of the normalized series, and the two
sides of a split are that view plus their rows, so a client holds each
sample once.

The synthetic generator stands in for real multi-user recordings at desk
scale.  Two per-client differences reach the model: label skew from
Dirichlet class priors and an orthogonal rotation of each 3-axis sensor
block (z-normalization removes any per-channel gain and offset).  Class
signatures (per-channel offset, amplitude, frequency) are shared across
clients so collaboration is actually useful.

Everything here is a pure function of (spec, seed).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .nn import Batch
from .seeds import sequence

DEFAULT_WINDOW = 128
DEFAULT_STEP = 64  # 50% overlap
CSV_HEADER = ["timestamp", "ax", "ay", "az", "gx", "gy", "gz", "label"]
CSV_CHANNELS = len(CSV_HEADER) - 2  # the columns between timestamp and label


class CsvFormatError(ValueError):
    """Raised for malformed CSV exports; message cites the physical line."""


def concat_window_sets(sets) -> Batch:
    """The non-empty sets' windows in order, gathered into one Batch."""
    sets = [s for s in sets if len(s)]
    if not sets:
        raise ValueError("nothing to concatenate")
    return Batch(np.concatenate([s.take() for s in sets]),
                 np.concatenate([s.labels for s in sets]))


@dataclass(frozen=True)
class SyntheticSpec:
    """Knobs for the synthetic non-IID corpus.

    dirichlet_alpha (small alpha: clients concentrate on few classes) and
    rotation (a per-client orthogonal mixing of each 3-axis channel block)
    are the only knobs that make clients differ in what the model sees.
    """

    clients: int
    classes: int
    dirichlet_alpha: float
    samples_per_client: tuple[int, int] = (3000, 6000)
    rotation: bool = True
    channels: int = 6
    sample_rate: float = 50.0
    segment_range: tuple[int, int] = (160, 320)
    noise: float = 0.3
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.clients < 1:
            raise ValueError("clients must be >= 1")
        if self.classes < 2:
            raise ValueError("classes must be >= 2")
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        for name in ("dirichlet_alpha", "sample_rate", "noise"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dirichlet_alpha <= 0:
            raise ValueError("dirichlet_alpha must be positive")
        for name in ("samples_per_client", "segment_range"):
            lo, hi = getattr(self, name)
            if lo < 1:
                raise ValueError(f"{name} lower bound must be >= 1, got {lo}")
            if lo > hi:
                raise ValueError(f"{name} range is inverted")
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.noise < 0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.rotation and self.channels % 3:
            raise ValueError(f"rotation mixes 3-axis blocks, but channels is "
                             f"{self.channels}; set rotation: false")

    @property
    def window_shape(self) -> tuple[int, int]:
        return (DEFAULT_WINDOW, self.channels)


@dataclass(frozen=True)
class CsvDataSpec:
    """Per-client CSV sources, one file per client, pushed through the
    standard pipeline (ingest -> normalize -> window -> split)."""

    paths: tuple[str, ...]
    classes: int
    sample_rate_hz: float = 50.0
    target_hz: float | None = 50.0
    train_fraction: float = 0.8
    window_length: int = 128
    window_step: int = 64

    def __post_init__(self) -> None:
        if not self.paths:
            raise ValueError("paths must name at least one file")
        for name in ("sample_rate_hz", "target_hz"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.classes < 2:
            raise ValueError("classes must be >= 2")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.window_length < 1:
            raise ValueError("window_length must be >= 1")
        if self.window_step < 1:
            raise ValueError("window_step must be >= 1")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.target_hz is not None and self.target_hz <= 0:
            raise ValueError("target_hz must be positive or null")

    @property
    def clients(self) -> int:
        return len(self.paths)

    @property
    def window_shape(self) -> tuple[int, int]:
        return (self.window_length, CSV_CHANNELS)


def _samples(series: Batch) -> np.ndarray:
    if series.inputs.ndim != 2:
        raise ValueError(f"a series must be [samples, channels], got {series.inputs.ndim}-D")
    return series.inputs


def z_normalize(series: Batch) -> Batch:
    """Channel-wise z-normalization of a raw series with the population
    standard deviation.  Constant channels are centered only."""
    data = _samples(series)
    n = len(data)
    # The mean and the variance are the reductions ndarray.mean and .std run,
    # in their order, so every bit is theirs; the centred array is squared
    # for the variance, then centred again as the output.
    mean = np.add.reduce(data, axis=0) / n
    out = data - mean
    np.square(out, out=out)
    std = np.sqrt(np.add.reduce(out, axis=0) / n)
    safe = np.where(std == 0, 1.0, std)
    # A constant channel's mean can round off its value, and the std of a
    # few ulps left would scale it to +-1: center it on its value instead.
    # The check reads a channel-major copy: all() along the series is fast.
    constant = np.ascontiguousarray((data == data[:1]).T).all(axis=1)
    np.subtract(data, np.where(constant, data[:1], mean), out=out)
    out /= safe
    return Batch(out, series.labels)


def window(series: Batch, length: int = DEFAULT_WINDOW,
           step: int = DEFAULT_STEP) -> Batch:
    """Frame a raw series at offsets 0, step, 2*step, ... into inputs
    [count, length, channels], a read-only strided view of series.inputs;
    the trailing remainder is dropped, so count = floor((N - length) / step)
    + 1.  One label per window: the majority vote over its samples, ties to
    the lowest class."""
    data = _samples(series)
    n = len(data)
    if n < length:
        warnings.warn(f"series of {n} samples is shorter than one window ({length})")
        return Batch(np.zeros((0, length, data.shape[1]), dtype=data.dtype),
                     np.zeros(0, dtype=np.intp))
    frames = np.lib.stride_tricks.sliding_window_view(data, (length, data.shape[1]))
    offsets = range(0, n - length + 1, step)
    labels = np.empty(len(offsets), dtype=np.intp)
    for i, o in enumerate(offsets):
        labels[i] = np.bincount(series.labels[o:o + length]).argmax()
    return Batch(frames[::step, 0], labels)


def stratified_split(batch: Batch, train_fraction: float = 0.8,
                     seed=0, client: int | None = None) -> tuple[Batch, Batch]:
    """Per-class split: round(n_c * fraction) windows to train, clamped so
    both sides keep at least one window when a class has >= 2.  Singleton
    classes go to train with a warning, which names `client` when given.
    Each side is a read-only view of batch's inputs plus its sorted rows
    and their labels; no window is copied."""
    if not 0 < train_fraction < 1:
        raise ValueError("train_fraction must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    train_idx: list[np.ndarray] = []
    test_idx: list[np.ndarray] = []
    for cls in np.unique(batch.labels):
        idx = np.flatnonzero(batch.labels == cls)
        if len(idx) == 1:
            where = "" if client is None else f"client {client}: "
            warnings.warn(f"{where}class {cls} has a single window; kept in train")
            train_idx.append(idx)
            continue
        perm = rng.permutation(idx)
        n_train = int(len(idx) * train_fraction + 0.5)
        n_train = min(max(n_train, 1), len(idx) - 1)
        train_idx.append(perm[:n_train])
        test_idx.append(perm[n_train:])
    none = [np.zeros(0, dtype=np.intp)]
    sides = (np.sort(np.concatenate(train_idx or none)),
             np.sort(np.concatenate(test_idx or none)))
    inputs = batch.inputs.view()
    inputs.flags.writeable = False
    return tuple(Batch(inputs, batch.labels[idx],
                       idx if batch.rows is None else batch.rows[idx])
                 for idx in sides)


def client_windows(series: Batch, length: int, step: int, train_fraction: float,
                   seed, client: int) -> tuple[Batch, Batch]:
    """A client's (train, test) windows from its raw series, the one pipeline
    every source runs: z_normalize -> window -> stratified_split.  The
    statistics are the client's own, nothing crosses clients, and both
    sides index one window view, so the client holds its series once."""
    return stratified_split(window(z_normalize(series), length, step),
                            train_fraction, seed, client=client)


def _class_signatures(spec: SyntheticSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared per-(class, channel) signal parameters: offset, amplitude, Hz."""
    rng = np.random.default_rng(sequence("class signatures", spec.seed))
    offsets = rng.normal(0.0, 0.8, size=(spec.classes, spec.channels))
    amps = rng.uniform(0.4, 1.2, size=(spec.classes, spec.channels))
    freqs = rng.uniform(0.5, 10.0, size=(spec.classes, spec.channels))
    return offsets, amps, freqs


def _orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _segment_class(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """One class drawn as rng.choice(len(priors), p=priors) draws it, given
    cdf = priors.cumsum() / its last entry: Generator.choice's own algorithm
    for one draw with replacement, from the same single double of rng, without
    the checks of p it repeats on every call."""
    return int(cdf.searchsorted(rng.random(), side="right"))


def _client_series(spec: SyntheticSpec, offsets, amps, freqs,
                   priors: np.ndarray, rng: np.random.Generator) -> Batch:
    lo, hi = spec.samples_per_client
    total = int(rng.integers(lo, hi + 1))
    data = np.empty((total, spec.channels))
    cdf = priors.cumsum()
    cdf /= cdf[-1]
    classes, lengths, phases = [], [], []
    pos = 0
    while pos < total:
        # A segment's draws, in stream order: length, class, phase, noise.
        # The noise lands in the series as standard normals, scaled below:
        # rng.normal(0, noise) but for the sign of a zero, which adding the
        # signal drops.
        seg = int(rng.integers(spec.segment_range[0], spec.segment_range[1] + 1))
        seg = min(seg, total - pos)
        classes.append(_segment_class(cdf, rng))
        phases.append(rng.uniform(0, 2 * np.pi, size=spec.channels))
        rng.standard_normal(out=data[pos:pos + seg])
        lengths.append(seg)
        pos += seg
    labels = np.repeat(np.array(classes, dtype=np.intp), lengths)

    # The clean signal offsets + amps * sin(2 pi freqs t + phase), each
    # sample at its segment's class and phase, in one pass over the series
    # with two scratch buffers.  Each elementwise step is the one a single
    # segment would take, so every rounding is the same.
    # take() buffers `out` unless mode is "clip"; every label is in range.
    signal = np.take(2 * np.pi * freqs, labels, axis=0)
    signal *= (np.arange(total) / spec.sample_rate)[:, None]
    scratch = np.repeat(phases, lengths, axis=0)
    signal += scratch
    np.sin(signal, out=signal)
    signal *= np.take(amps, labels, axis=0, out=scratch, mode="clip")
    signal += np.take(offsets, labels, axis=0, out=scratch, mode="clip")
    data *= spec.noise
    data += signal
    del signal, scratch  # before the rotation's temporaries

    if spec.rotation:
        for block in range(spec.channels // 3):
            q = _orthogonal(rng, 3)
            sl = slice(3 * block, 3 * block + 3)
            data[:, sl] = data[:, sl] @ q.T
    # z_normalize undoes a per-channel gain and offset, so these draws move
    # no window beyond rounding.  They stay only so that every window keeps
    # the bits perfbench/reference.json was recorded on.
    data *= rng.uniform(0.8, 1.2, size=spec.channels)
    data += rng.uniform(-0.3, 0.3, size=spec.channels)
    return Batch(data, labels)


def generate_synthetic(spec: SyntheticSpec) -> list[tuple[Batch, Batch]]:
    """Per-client (train, test) windows: each client's generated series
    through client_windows, split on stream "client split"."""
    offsets, amps, freqs = _class_signatures(spec)
    out = []
    for k in range(spec.clients):
        rng = np.random.default_rng(sequence("client series", spec.seed, k))
        priors = rng.dirichlet(np.full(spec.classes, spec.dirichlet_alpha))
        series = _client_series(spec, offsets, amps, freqs, priors, rng)
        out.append(client_windows(series, DEFAULT_WINDOW, DEFAULT_STEP, spec.train_fraction,
                                  sequence("client split", spec.seed, k), k))
    return out


def read_csv_clients(spec: CsvDataSpec, seed: int) -> list[tuple[Batch, Batch]]:
    """Per-client (train, test) windows of spec's exports, one client per
    file, through ingest_csv and client_windows; client k splits on stream
    "csv splits" of the run's seed.  A CsvFormatError, and a ValueError
    for a label outside [0, classes), name the file."""
    out = []
    for k, path in enumerate(spec.paths):
        try:
            series = ingest_csv(path, spec.sample_rate_hz, spec.target_hz)
        except CsvFormatError as exc:
            raise CsvFormatError(f"{path}: {exc}") from exc
        top = int(series.labels.max(initial=0))
        if top >= spec.classes:
            raise ValueError(f"{path}: label {top} is outside [0, {spec.classes})")
        out.append(client_windows(series, spec.window_length, spec.window_step,
                                  spec.train_fraction, sequence("csv splits", seed, k), k))
    return out


def ingest_csv(path, sample_rate_hz: float,
               target_hz: float | None = 50.0) -> Batch:
    """Parse a 6-channel IMU export into a raw series: inputs [samples, 6]
    and one label per sample.

    The header must read exactly: timestamp,ax,ay,az,gx,gy,gz,label, and
    labels are non-negative integers.  target_hz enables integer-factor
    decimation (e.g. 100 Hz -> 50 Hz); None keeps sample_rate_hz.
    Malformed rows, non-finite sensor values (nan, inf) and a file without
    data rows raise CsvFormatError citing the 1-based physical line; a
    non-integer downsampling factor is rejected.
    """
    rows: list[list[float]] = []
    labels: list[int] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError("line 1: empty file") from None
        if header != CSV_HEADER:
            raise CsvFormatError(
                f"line 1: header {header!r} != expected {CSV_HEADER!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(CSV_HEADER):
                raise CsvFormatError(
                    f"line {lineno}: expected {len(CSV_HEADER)} fields, got {len(row)}"
                )
            sensors = row[1:1 + CSV_CHANNELS]
            try:
                values = [float(v) for v in sensors]
            except ValueError as exc:
                raise CsvFormatError(f"line {lineno}: {exc}") from None
            if not all(map(math.isfinite, values)):
                raise CsvFormatError(f"line {lineno}: non-finite sensor value in {sensors}")
            try:
                label = int(row[7])
            except ValueError:
                raise CsvFormatError(
                    f"line {lineno}: label {row[7]!r} is not an integer"
                ) from None
            if label < 0:
                raise CsvFormatError(f"line {lineno}: negative label {label}")
            rows.append(values)
            labels.append(label)
    if not rows:
        raise CsvFormatError("line 2: no data rows after the header")

    data = np.asarray(rows, dtype=np.float64)
    label_arr = np.asarray(labels, dtype=np.intp)
    if target_hz is not None and sample_rate_hz != target_hz:
        factor = sample_rate_hz / target_hz
        if factor < 1 or abs(factor - round(factor)) > 1e-9:
            raise CsvFormatError(
                f"cannot downsample {sample_rate_hz} Hz to {target_hz} Hz: "
                f"factor {factor} is not a positive integer"
            )
        step = int(round(factor))
        data, label_arr = data[::step], label_arr[::step]
    return Batch(data, label_arr)
