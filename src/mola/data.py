"""Synthetic series, CSV ingestion, chronological splits, and sliding windows.

Datasets are immutable after construction: an N x D float64 value matrix,
per-channel names, and two split indices (train_end, val_end) marking the
chronological train/val/test boundaries.  Window enumeration and
standardization are pure functions that return new objects.

The windows of a split form one :class:`WindowSet`: (N, L, D) histories and
(N, T, D) labels that are read-only views into the dataset's values, plus
the run of rows they slide over, so enumerating a split copies nothing.  A
training batch is a :class:`Batch`, the window indices alone; the model
gathers its history block and just the label rows it needs straight from
the WindowSet's rows, both in one take.

CSV files are read once; plain records are parsed by numpy's C reader, and
anything else (quotes, a wrong field count, a bad or non-finite cell) by a
cell-by-cell scan whose errors name the row.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

COMPONENT_KINDS = ("sine", "trend", "ar1")
DEFAULT_SPLIT = (0.7, 0.1, 0.2)


@dataclass(frozen=True)
class SynthComponent:
    """One additive ingredient of a synthetic series.

    sine:  amplitude * sin(2*pi*n/period + phase), phase shifted by
           2*pi*c/D on channel c so channels are not identical copies.
    trend: linear ramp from 0 to amplitude across the series.
    ar1:   stationary AR(1) with innovation std = amplitude, independent
           per channel.
    """

    kind: str
    amplitude: float = 1.0
    period: float = 24.0
    phase: float = 0.0
    ar_coeff: float = 0.9

    def __post_init__(self):
        if self.kind not in COMPONENT_KINDS:
            raise ValueError(f"unknown component kind {self.kind!r}; expected one of {COMPONENT_KINDS}")
        if self.kind == "sine" and self.period <= 0:
            raise ValueError(f"sine period must be > 0, got {self.period}")
        if self.kind == "ar1" and not abs(self.ar_coeff) < 1.0:
            raise ValueError(f"|ar_coeff| must be < 1 for stationarity, got {self.ar_coeff}")


@dataclass(frozen=True)
class SynthSpec:
    n_points: int
    d_channels: int
    components: tuple[SynthComponent, ...]
    noise_std: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_points < 1:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")
        if self.d_channels < 1:
            raise ValueError(f"d_channels must be >= 1, got {self.d_channels}")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        object.__setattr__(self, "components", tuple(self.components))


@dataclass(frozen=True)
class NormStats:
    mean: np.ndarray  # (D,)
    std: np.ndarray  # (D,), all entries > 0


@dataclass(frozen=True)
class WindowSample:
    """History rows n-L+1..n and label rows n+1..n+T at origin n (0-based).

    The arrays are views into the source dataset; treat them as read-only.
    """

    history: np.ndarray  # (L, D)
    label: np.ndarray  # (T, D)
    origin: int


@dataclass(frozen=True, eq=False)
class WindowSet(Sequence):
    """Windows stacked along a leading axis: a sequence of WindowSample.

    An int index gives one WindowSample (views, no copy); a slice or an
    index array gives a WindowSet.  Windows from :func:`windows` are views
    into the dataset; a fancy index copies just the selected windows.

    ``series``, set by :func:`windows` alone, is the (N + L + T - 1, D) run
    of dataset rows the windows slide over: window i has history rows
    i..i+L-1 and label rows i+L..i+L+T-1 of it.  A :class:`Batch` then
    gathers a block with one ``take`` of series rows, several times faster
    than fancy-indexing the (N, W, D) window views.
    """

    history: np.ndarray  # (N, L, D)
    label: np.ndarray  # (N, T, D)
    origin: np.ndarray  # (N,) int64
    series: np.ndarray | None = None  # (N + L + T - 1, D) or None

    def __len__(self) -> int:
        return self.origin.shape[0]

    def __getitem__(self, idx):
        if isinstance(idx, (int, np.integer)):
            return WindowSample(
                history=self.history[idx], label=self.label[idx], origin=int(self.origin[idx])
            )
        return WindowSet(history=self.history[idx], label=self.label[idx], origin=self.origin[idx])

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]

    def history_block(self, groups: int | None = None) -> np.ndarray:
        """Histories as one contiguous (L, N*D) column block; column i*D + c
        is channel c of window i.  This is the layout every model consumes.
        With ``groups`` K, the N windows are K equal groups one after another
        and the block is (K, L, N/K*D), one such block per group."""
        n, lookback, d = self.history.shape
        if groups is None:
            return np.ascontiguousarray(self.history.transpose(1, 0, 2)).reshape(lookback, n * d)
        return Batch(self, np.arange(n)).history_block(groups)

    def label_block(self, first=1, last=None) -> np.ndarray:
        """Label rows first..last (1-based, inclusive) as a contiguous
        (rows, N*D) block in the column order of :meth:`history_block`.
        With ``first`` and ``last`` sequences of K rows, the windows are K
        groups as in ``history_block(K)``, group k takes rows first[k] to
        last[k] (equally many in every group), and the block is
        (K, rows, N/K*D)."""
        if isinstance(first, (int, np.integer)):
            lab = self.label[:, first - 1 : last]
            n, rows, d = lab.shape
            return np.ascontiguousarray(lab.transpose(1, 0, 2)).reshape(rows, n * d)
        return Batch(self, np.arange(len(self))).label_block(first, last)

    def blocks(self, first=1, last=None) -> tuple[np.ndarray, np.ndarray]:
        """``history_block(K)`` and ``label_block(first, last)``, with K
        groups for K-row sequences ``first`` and ``last`` and none for ints
        (see :meth:`Batch.blocks`)."""
        if isinstance(first, (int, np.integer)):
            return self.history_block(), self.label_block(first, last)
        return Batch(self, np.arange(len(self))).blocks(first, last)


@dataclass(frozen=True, eq=False)
class Batch(Sequence):
    """The windows ``windows[rows]`` as a sequence of WindowSample, not yet
    copied.  Its blocks are bitwise those of the WindowSet ``windows[rows]``,
    but each is gathered straight from ``windows`` in one copy, reading only
    the label rows it returns, and :meth:`blocks` gathers the history and
    label blocks of a step together.  ``rows`` must be integers.  A slice of
    a Batch is the Batch of those rows; its rows were checked with the
    whole."""

    windows: WindowSet
    rows: np.ndarray  # (B,) window indices, 0 <= rows < len(windows)

    def __post_init__(self):
        rows = np.asarray(self.rows)
        # as unsigned, a negative index is huge: one max checks both bounds
        if (rows.ndim != 1 or rows.dtype.kind not in "iu"
                or rows.size and rows.astype(np.uintp).max() >= len(self.windows)):
            raise IndexError(f"batch rows must be a 1-D array of window indices "
                             f"0..{len(self.windows) - 1}")
        object.__setattr__(self, "rows", rows)

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __getitem__(self, i):
        if isinstance(i, slice):
            part = object.__new__(Batch)  # in bounds already: skip the check
            object.__setattr__(part, "windows", self.windows)
            object.__setattr__(part, "rows", self.rows[i])
            return part
        return self.windows[int(self.rows[i])]

    def history_block(self, groups: int | None = None) -> np.ndarray:
        """As :meth:`WindowSet.history_block` of ``windows[rows]``."""
        lookback = self.windows.history.shape[1]
        return self._gather(self.windows.history, 0, _window_rows(0, (0,), lookback), groups)

    def label_block(self, first=1, last=None) -> np.ndarray:
        """As :meth:`WindowSet.label_block` of ``windows[rows]``."""
        lookback = self.windows.history.shape[1]
        starts, n_rows, groups = self._label_rows(first, last)
        return self._gather(self.windows.label, lookback, _window_rows(0, starts, n_rows), groups)

    def blocks(self, first=1, last=None) -> tuple[np.ndarray, np.ndarray]:
        """``history_block(K)`` and ``label_block(first, last)``, K being the
        number of groups ``first`` and ``last`` give (None for one row
        range).  With a series, both come from one take of the L history
        rows and then the label rows of every window, split into the two
        blocks: with K groups they are views of one (K, L + rows, B/K*D)
        block, each group's rows contiguous.  Without a series, they come
        from the two fancy indexes of the blocks."""
        starts, n_rows, groups = self._label_rows(first, last)
        if self.windows.series is None:
            return self.history_block(groups), self.label_block(first, last)
        lookback = self.windows.history.shape[1]
        block = self._gather(None, 0, _window_rows(lookback, starts, n_rows), groups)
        return block[..., :lookback, :], block[..., lookback:, :]

    def _label_rows(self, first, last) -> tuple[tuple[int, ...], int, int | None]:
        """(starts, rows, groups) of label rows first..last (1-based,
        inclusive): the window row of each group's first label row, counted
        from the first history row, the rows per group, and the number of
        groups (None for one int range)."""
        lookback, label_len = self.windows.history.shape[1], self.windows.label.shape[1]
        if isinstance(first, (int, np.integer)):
            steps = range(label_len)[first - 1 : last]
            return (lookback + steps.start,), len(steps), None
        first, last = tuple(first), tuple(last)
        n_rows = last[0] - first[0] + 1
        if any(b - a + 1 != n_rows for a, b in zip(first, last)):
            raise ValueError(f"label rows {list(first)} to {list(last)} "
                             "differ in length between groups")
        if min(first) < 1 or max(last) > label_len:
            raise ValueError(f"label rows {list(first)} to {list(last)} "
                             f"outside 1..{label_len}")
        return tuple(lookback + a - 1 for a in first), n_rows, len(first)

    def _gather(self, windows: np.ndarray | None, shift: int, offsets: np.ndarray,
                groups: int | None) -> np.ndarray:
        """Window rows ``offsets`` (see _window_rows) of the batch's windows
        as one contiguous (W, B*D) block in one copy: one take of series rows
        when the set has a series, else one fancy index of the (N, W', D)
        window array ``windows``, whose row 0 is window row ``shift``.  With
        ``groups`` K the windows are K equal consecutive groups and the block
        is (K, W, B/K*D)."""
        k = 1 if groups is None else groups
        if k < 1 or len(self) % k:
            raise ValueError(f"{len(self)} windows do not split into {k} equal groups")
        rows = self.rows.reshape(k, 1, -1)
        series = self.windows.series
        if series is None:
            block = windows[rows, offsets - shift]
        else:
            block = series.take(rows + offsets, axis=0)
        # block is (K, W, B/K, D)
        n_rows, width = block.shape[1], block.shape[2] * block.shape[3]
        return block.reshape(k, n_rows, width) if groups else block.reshape(n_rows, width)


@functools.lru_cache(maxsize=64)
def _window_rows(lead: int, starts: tuple[int, ...], n_rows: int) -> np.ndarray:
    """The read-only (len(starts), lead + n_rows, 1) rows a block gathers
    from each window, counted from its first history row: rows 0..lead-1,
    then rows starts[k] .. starts[k] + n_rows - 1 for group k.  Built once
    per distinct block shape instead of per batch."""
    offsets = np.array([[*range(lead), *range(s, s + n_rows)] for s in starts],
                       dtype=np.intp).reshape(len(starts), lead + n_rows, 1)
    offsets.flags.writeable = False
    return offsets


def as_window_set(samples: Sequence[WindowSample]) -> WindowSet:
    """A WindowSet as is, or a list of WindowSample stacked into one."""
    if isinstance(samples, WindowSet):
        return samples
    return WindowSet(
        history=np.stack([w.history for w in samples]),
        label=np.stack([w.label for w in samples]),
        origin=np.array([w.origin for w in samples], dtype=np.int64),
    )


@dataclass(frozen=True)
class SeriesDataset:
    values: np.ndarray  # (N, D) float64
    channel_names: list[str]
    train_end: int
    val_end: int
    norm_stats: NormStats | None = None

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        object.__setattr__(self, "values", vals)
        n = vals.shape[0]
        if vals.ndim != 2:
            raise ValueError("values must be a 2-D (N, D) array")
        if len(self.channel_names) != vals.shape[1]:
            raise ValueError("one channel name per column required")
        if not (0 < self.train_end < self.val_end <= n):
            raise ValueError(
                f"split indices must satisfy 0 < train_end < val_end <= N; "
                f"got train_end={self.train_end}, val_end={self.val_end}, N={n}"
            )

    @property
    def n_points(self) -> int:
        return self.values.shape[0]

    @property
    def d_channels(self) -> int:
        return self.values.shape[1]


def default_synth_spec(n_points: int = 2000, seed: int = 0) -> SynthSpec:
    """Case-study default: two channels mixing two sines and a slow trend.

    Periods 24 and 60 with noise_std 0.1 make near-term and far-term
    prediction genuinely different problems, which is what the per-step
    representation probe is meant to expose.
    """
    return SynthSpec(
        n_points=n_points,
        d_channels=2,
        components=(
            SynthComponent(kind="sine", amplitude=1.0, period=24.0, phase=0.0),
            SynthComponent(kind="sine", amplitude=0.7, period=60.0, phase=0.9),
            SynthComponent(kind="trend", amplitude=1.5),
        ),
        noise_std=0.1,
        seed=seed,
    )


def generate_synthetic(spec: SynthSpec, split: tuple[float, float, float] = DEFAULT_SPLIT) -> SeriesDataset:
    """Sum the configured components, add Gaussian noise, split 70/10/20.

    Deterministic for a fixed spec: the RNG is seeded from ``spec.seed``
    and consumed in a fixed order (ar1 components first, then noise).
    """
    rng = np.random.default_rng(spec.seed)
    n, d = spec.n_points, spec.d_channels
    values = np.zeros((n, d))
    steps = np.arange(n, dtype=np.float64)
    for comp in spec.components:
        if comp.kind == "sine":
            for c in range(d):
                ph = comp.phase + 2.0 * math.pi * c / d
                values[:, c] += comp.amplitude * np.sin(2.0 * math.pi * steps / comp.period + ph)
        elif comp.kind == "trend":
            ramp = comp.amplitude * steps / max(n - 1, 1)
            values += ramp[:, None]
        else:  # ar1
            innov = rng.normal(size=(n, d)) * comp.amplitude
            first = innov[0] / math.sqrt(1.0 - comp.ar_coeff**2)
            series = np.empty((n, d))
            # one channel at a time on Python floats: the same IEEE multiply
            # and add per step as a numpy row update, without its overhead
            for c in range(d):
                x = float(first[c])
                column = [x]
                for e in innov[1:, c].tolist():
                    x = comp.ar_coeff * x + e
                    column.append(x)
                series[:, c] = column
            values += series
    if spec.noise_std > 0:
        values += rng.normal(size=(n, d)) * spec.noise_std
    train_end, val_end = _split_from_ratios(n, split)
    names = [f"ch{c}" for c in range(d)]
    return SeriesDataset(values=values, channel_names=names, train_end=train_end, val_end=val_end)


def _split_from_ratios(n: int, ratios: tuple[float, float, float]) -> tuple[int, int]:
    if len(ratios) != 3 or any(r < 0 for r in ratios):
        raise ValueError(f"ratios must be three non-negative numbers, got {ratios}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {ratios}")
    # small epsilon so 10 * (0.7 + 0.1) floors to 8, not 7
    train_end = int(n * ratios[0] + 1e-9)
    val_end = int(n * (ratios[0] + ratios[1]) + 1e-9)
    return train_end, val_end


def load_csv(
    path,
    ratios: tuple[float, float, float] | None = None,
    counts: tuple[int, int, int] | None = None,
) -> SeriesDataset:
    """Load a comma-separated, UTF-8, header-first file into a dataset.

    The first column is a timestamp and is ignored for the math (a
    non-monotone timestamp order only warns).  Remaining columns must be
    fully numeric: missing or unparseable cells are hard errors naming
    the 1-based data row.  The split comes from exactly one of ``ratios``
    (fractions of N) or ``counts`` (explicit row counts per split; the
    file is truncated to their sum).

    Numbers are parsed by numpy's C reader when every line is a plain
    record (no quotes, the header's field count) of finite values; any other
    file goes through a cell-by-cell scan that names the offending row.
    Both give every value bitwise as ``float(cell.strip())``.
    """
    if (ratios is None) == (counts is None):
        raise ValueError("provide exactly one of ratios= or counts=")
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError(f"{path}: empty file, header row required") from None
    if len(header) < 2:
        raise ValueError(f"{path}: need a timestamp column plus at least one channel")
    channel_names = [h.strip() for h in header[1:]]
    parsed = _parse_plain_records(lines, len(header))
    if parsed is None:
        stamps, values = _scan_rows(reader, path, header, channel_names)
    else:
        stamps, values = parsed
    if not stamps:
        raise ValueError(f"{path}: no data rows")
    _check_monotone(stamps, path)
    if counts is not None:
        a, b, c = counts
        if min(a, b) < 1 or c < 0:
            raise ValueError(f"counts must be positive (test may be 0), got {counts}")
        total = a + b + c
        if total > len(stamps):
            raise ValueError(f"{path}: counts {counts} sum to {total} but the file has {len(stamps)} data rows")
        values = values[:total]
        train_end, val_end = a, a + b
    else:
        train_end, val_end = _split_from_ratios(len(stamps), ratios)
    return SeriesDataset(values=values, channel_names=channel_names, train_end=train_end, val_end=val_end)


def _parse_plain_records(lines: list[str], n_fields: int):
    """(timestamps, (N, n_fields - 1) values) of the data lines after the
    header, parsed by ``np.loadtxt``, or None unless every line is a plain
    record with ``n_fields`` fields and finite values.  Without quotes a
    record is one line split at its commas, so then ``csv`` reads the same
    fields, and numpy converts each stripped cell with the parser behind
    ``float``."""
    body = lines[1:]
    if not body or any('"' in line for line in lines):
        return None
    if any(line.count(",") != n_fields - 1 for line in body):
        return None
    try:
        values = np.loadtxt(body, dtype=np.float64, delimiter=",", comments=None,
                            usecols=range(1, n_fields), ndmin=2, quotechar=None)
    except ValueError:
        return None
    if not np.isfinite(values).all():
        return None
    return [line[: line.index(",")] for line in body], values


def _scan_rows(reader, path, header: list[str], channel_names: list[str]):
    """(timestamps, values) of the data rows, cell by cell; the first bad
    row or cell raises a ValueError naming its 1-based row."""
    stamps: list[str] = []
    rows: list[list[float]] = []
    for i, row in enumerate(reader, start=1):
        if len(row) != len(header):
            raise ValueError(f"{path}: row {i} has {len(row)} fields, expected {len(header)}")
        stamps.append(row[0])
        parsed = []
        for name, cell in zip(channel_names, row[1:]):
            text = cell.strip()
            if text == "":
                raise ValueError(f"{path}: missing value at row {i}, column {name!r}")
            try:
                x = float(text)
            except ValueError:
                raise ValueError(
                    f"{path}: non-numeric cell {text!r} at row {i}, column {name!r}"
                ) from None
            if not math.isfinite(x):
                raise ValueError(f"{path}: non-finite value at row {i}, column {name!r}")
            parsed.append(x)
        rows.append(parsed)
    return stamps, np.array(rows, dtype=np.float64)


def _check_monotone(stamps: list[str], path) -> None:
    try:
        keys = [float(s) for s in stamps]
    except ValueError:
        keys = stamps  # lexicographic works for ISO-style timestamps
    if any(b < a for a, b in zip(keys, keys[1:])):
        warnings.warn(f"{path}: timestamps are not monotone non-decreasing", UserWarning)


def standardize(ds: SeriesDataset) -> SeriesDataset:
    """Per-channel z-score using statistics from the train split only."""
    if ds.norm_stats is not None:
        raise ValueError("dataset is already standardized")
    train = ds.values[: ds.train_end]
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    for c, s in enumerate(std):
        if s < 1e-12:
            raise ValueError(
                f"channel {ds.channel_names[c]!r} is constant in the train split; cannot standardize"
            )
    stats = NormStats(mean=mean, std=std)
    return replace(ds, values=(ds.values - mean) / std, norm_stats=stats)


def window_origins(ds: SeriesDataset, lookback: int, horizon: int, split: str) -> list[int]:
    """Origins n of stride-1 windows whose labels lie inside ``split``.

    Labels never cross forward into a later split; val/test histories may
    reach back across the boundary (the usual benchmark convention).
    """
    lo, hi = _origin_range(ds, lookback, horizon, split)
    return list(range(lo, hi + 1))


def _origin_range(ds: SeriesDataset, lookback: int, horizon: int, split: str) -> tuple[int, int]:
    if lookback < 1:
        raise ValueError(f"lookback must be >= 1, got {lookback}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    n = ds.n_points
    if split == "train":
        lo, hi = lookback - 1, ds.train_end - 1 - horizon
    elif split == "val":
        lo, hi = max(ds.train_end - 1, lookback - 1), ds.val_end - 1 - horizon
    elif split == "test":
        lo, hi = max(ds.val_end - 1, lookback - 1), n - 1 - horizon
    else:
        raise ValueError(f"split must be train, val, or test; got {split!r}")
    if hi < lo:
        raise ValueError(
            f"{split} split too short for lookback={lookback}, horizon={horizon}"
        )
    return lo, hi


def windows(ds: SeriesDataset, lookback: int, horizon: int, split: str) -> WindowSet:
    """Every window of ``split`` (origins from :func:`window_origins`) as
    read-only views into ``ds.values``; nothing is copied."""
    lo, hi = _origin_range(ds, lookback, horizon, split)
    # sliding_window_view puts the window axis last: (starts, D, len)
    hist = sliding_window_view(ds.values, lookback, axis=0)[lo - lookback + 1 : hi - lookback + 2]
    lab = sliding_window_view(ds.values, horizon, axis=0)[lo + 1 : hi + 2]
    series = ds.values[lo - lookback + 1 : hi + horizon + 1]
    series.flags.writeable = False
    return WindowSet(
        history=hist.transpose(0, 2, 1),
        label=lab.transpose(0, 2, 1),
        origin=np.arange(lo, hi + 1, dtype=np.int64),
        series=series,
    )
