"""Synthetic series, CSV ingestion, chronological splits, and sliding windows.

Datasets are immutable after construction: an N x D float64 value matrix,
per-channel names, and two split indices (train_end, val_end) marking where
the chronological train and val splits end.  Window enumeration and
standardization are pure functions that return new objects.

The windows of a split form one :class:`WindowSet`: the read-only run of
dataset rows they slide over plus the row where each window starts, so
enumerating a split copies nothing.  :func:`windows` makes every window
set; indexing one with a slice or with window rows (a training batch)
picks starts, not rows.  Every read of window rows beyond one window's
views is one ``take`` of series rows into the (rows, N*D) column layout
that models consume and errors are scored in.  This module alone knows
where a window's rows lie and which label rows exist; every read names a
block of them as ``rows`` label rows from row ``first`` (1-based), the
count by default running through row T.  Every pass without
gradients over a whole set, each val loss and each evaluation, is one
:meth:`WindowSet.errors`, which gathers, forecasts and yields the errors
of the set one :meth:`WindowSet.chunks` slice at a time, in chunks whose
products round as those of the whole set's block.  Each block comes with
its first label row and its window slice, so no caller infers a block's
place from the order of the stream; callers reduce each block before
asking for the next, so no pass holds a block of the whole set.

CSV files are read once; plain records are parsed by numpy's C reader, and
anything else (quotes, a wrong field count, a bad or non-finite cell) by a
cell-by-cell scan whose errors name the row.
"""

from __future__ import annotations

import csv
import functools
import math
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

COMPONENT_KINDS = ("sine", "trend", "ar1")
DEFAULT_SPLIT = (0.7, 0.1, 0.2)

# Column budget of one chunk of a whole-split pass (WindowSet.chunks), which
# holds one chunk's rows at a time.  A chunk's products must round as the
# matching columns of the whole block's do, so that forecasts and errors do
# not depend on the chunking; losses and metrics, summed chunk by chunk, do
# through their summation order.  With OpenBLAS 0.3.31 the products keep
# their bits only when every chunk boundary falls on a multiple of 8 columns
# and every chunk is wide enough to stay off the small-matrix GEMM path: at
# lookback 96, mlp2 (32, 16) and a 48-row head on one BLAS thread, chunks of
# 2048 columns or more kept the bits and 1536 did not.  Do not lower it
# without the bitwise tests in tests/test_train.py.
_CHUNK_COLUMNS = 2048


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
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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


@dataclass(eq=False, slots=True)
class WindowSet(Sequence):
    """Windows of one read-only (M, D) ``series``: window i has history rows
    starts[i] .. starts[i] + L - 1 of it and the T label rows after them.

    Every set comes from :func:`windows` or from indexing one, so the series
    is a run of dataset rows starting at row ``series_start``, and a
    window's origin is its start plus a constant.

    A sequence of WindowSample: an int index gives one window (views, no
    copy); a slice or a 1-D integer array gives the WindowSet of those
    windows over the same series, again without a copy.  Every other read
    is one ``take`` of series rows.  Treat a WindowSet as read-only; it is not
    frozen because a training step makes one, and slots with a plain
    ``__init__`` make and read it fastest.
    """

    series: np.ndarray  # (M, D), read-only
    starts: np.ndarray  # (N,) intp, series row of each window's first history row
    series_start: int  # dataset row of series row 0
    lookback: int
    horizon: int

    def __len__(self) -> int:
        return self.starts.shape[0]

    def __getitem__(self, idx):
        # a slice stays in bounds, so it is not checked: a training epoch
        # checks its window rows once and then takes a slice per step
        if not isinstance(idx, slice):
            if isinstance(idx, (int, np.integer)):
                s, lookback = int(self.starts[idx]), self.lookback
                return WindowSample(history=self.series[s : s + lookback],
                                    label=self.series[s + lookback : s + lookback + self.horizon],
                                    origin=self.series_start + s + lookback - 1)
            idx = np.asarray(idx)
            # as unsigned, a negative index is huge: one max checks both bounds
            if (idx.ndim != 1 or idx.dtype.kind not in "iu"
                    or idx.size and idx.astype(np.uintp).max() >= len(self)):
                raise IndexError(f"window rows must be a 1-D array of window indices "
                                 f"0..{len(self) - 1}")
        return WindowSet(self.series, self.starts[idx], self.series_start, self.lookback,
                         self.horizon)

    @property
    def origin(self) -> np.ndarray:
        """(N,) int64 origins: the dataset row of each window's last history row."""
        return (self.starts + (self.series_start + self.lookback - 1)).astype(np.int64, copy=False)

    def chunks(self) -> list[slice]:
        """The window slices :meth:`errors` works through one at a time:
        W = 8 * ceil(_CHUNK_COLUMNS / (8 * D)) windows each, the remainder
        merged into the last, so every chunk has W to 2W - 1 windows and a
        set of fewer than 2W windows is one chunk.  Nothing is copied."""
        width = 8 * -(-_CHUNK_COLUMNS // (8 * self.series.shape[1]))
        n = len(self)
        bounds = [i * width for i in range(max(1, n // width))] + [n]
        return [slice(a, b) for a, b in zip(bounds, bounds[1:])]

    def errors(self, forecast_fn, first: int = 1,
               rows: int | None = None) -> Iterator[tuple[int, slice, np.ndarray]]:
        """Yield ``(row, windows, err)`` for forecast minus the ``rows``
        label rows from row ``first`` (1-based; by default through row T),
        one :meth:`chunks` slice at a time.  ``err`` is the C-contiguous
        (r, n, D) view of an (r, n*D) block in the column order of
        :meth:`history_block`: window i's channel c is ``[:, i, c]``.  It
        is ``E[row - first : row - first + r, windows]`` of the whole set's
        (rows, N, D) error array E, so a consumer puts each block in its
        place from the tuple alone.  This is the one error stream, behind
        every val loss and every evaluation.

        ``forecast_fn`` maps the (L, n*D) history block of a chunk to its
        (rows, n*D) forecast.  A sequence of k such callables splits the
        rows into k equal blocks of consecutive rows, the i-th callable
        giving the i-th; rows that do not split so raise ValueError.  Each
        chunk's history is gathered once, in one take, for every callable;
        each callable's label rows are gathered in a take of their own, and
        its forecast is subtracted from them in place and yielded: chunk by
        chunk, row block by row block.  So the pass holds one chunk's history
        and one block of its rows, never a block of the whole set, and each
        error is bitwise that of forecasting the whole set's history block
        at once.  A yielded block belongs to the caller until it asks for
        the next."""
        if len(self) == 0:
            raise ValueError("no windows to score")
        fns = forecast_fn if isinstance(forecast_fn, (list, tuple)) else (forecast_fn,)
        _, rows, _ = self._label_rows(_one_first_row(first), rows)
        if not fns or rows % len(fns):
            raise ValueError(f"label rows {first}..{first + rows - 1} do not split into "
                             f"{len(fns)} equal forecast blocks")
        return self._error_blocks(fns, first, rows // len(fns))

    def _error_blocks(self, fns, first: int, r: int) -> Iterator[tuple[int, slice, np.ndarray]]:
        """The blocks of :meth:`errors`, whose arguments it has checked."""
        d = self.series.shape[1]
        for part in self.chunks():
            chunk = self[part]
            history = chunk.history_block()
            for i, fn in enumerate(fns):
                a = first + i * r
                err = chunk.label_block(a, r)
                pred = np.asarray(fn(history), dtype=np.float64)
                if pred.shape != err.shape:
                    raise ValueError(f"forecast block shape {pred.shape} is not the {err.shape} "
                                     f"of label rows {a}..{a + r - 1} of "
                                     f"{part.stop - part.start} windows of {d} channels")
                np.subtract(pred, err, out=err)
                del pred  # dropped before the block is yielded
                yield a, part, err.reshape(r, -1, d)
                del err  # the caller's, dropped before the next block is gathered
            del history  # dropped before the next chunk is gathered

    def history_block(self) -> np.ndarray:
        """Histories as one contiguous (L, N*D) column block; column i*D + c
        is channel c of window i.  This is the layout every model consumes."""
        return self._gather(_window_rows(0, (0,), self.lookback), None)

    def label_block(self, first: int = 1, rows: int | None = None) -> np.ndarray:
        """The ``rows`` label rows from row ``first`` (1-based; by default
        through row T) as a contiguous (rows, N*D) block in the column order
        of :meth:`history_block`."""
        starts, rows, _ = self._label_rows(_one_first_row(first), rows)
        return self._gather(_window_rows(0, starts, rows), None)

    def blocks(self, first=1, rows=None) -> tuple[np.ndarray, np.ndarray]:
        """The history block and the block of the ``rows`` label rows from
        row ``first``, both from one take of the L history rows and then the
        label rows of every window.  With a sequence of K first rows, the
        windows are K equal groups one after another, group k takes ``rows``
        label rows from row first[k], and the blocks are views of one
        (K, L + rows, N/K*D) block, each group's rows contiguous."""
        starts, rows, groups = self._label_rows(first, rows)
        block = self._gather(_window_rows(self.lookback, starts, rows), groups)
        return block[..., : self.lookback, :], block[..., self.lookback :, :]

    def _label_rows(self, first, rows) -> tuple[tuple[int, ...], int, int | None]:
        """(starts, rows, groups) of the ``rows`` label rows from row
        ``first`` (1-based; by default through row T from the largest first
        row): the window row where each group's label rows start, counted
        from the first history row, the rows per group, and the number of
        groups, None for one int ``first`` and K for a sequence of K."""
        grouped = not isinstance(first, (int, np.integer))
        firsts = tuple(first) if grouped else (first,)
        rows = self.horizon + 1 - max(firsts, default=1) if rows is None else rows
        if not firsts or rows < 1 or min(firsts) < 1 or max(firsts) + rows - 1 > self.horizon:
            raise ValueError(f"{rows} label rows from row {first} outside 1..{self.horizon}")
        return tuple(self.lookback + a - 1 for a in firsts), rows, len(firsts) if grouped else None

    def _gather(self, offsets: np.ndarray, groups: int | None) -> np.ndarray:
        """Window rows ``offsets`` (see _window_rows) of every window as one
        contiguous (W, N*D) block, in one take of series rows.  With
        ``groups`` K the windows are K equal consecutive groups and the
        block is (K, W, N/K*D)."""
        k = 1 if groups is None else groups
        if k < 1 or len(self) % k:
            raise ValueError(f"{len(self)} windows do not split into {k} equal groups")
        block = self.series.take(self.starts.reshape(k, 1, -1) + offsets, axis=0)
        # block is (K, W, N/K, D)
        n_rows, width = block.shape[1], block.shape[2] * block.shape[3]
        return block.reshape(k, n_rows, width) if groups else block.reshape(n_rows, width)


def _one_first_row(first) -> int:
    """``first`` if it is one first row; a sequence, such as a (first, last)
    pair, raises the ValueError that names it."""
    if not isinstance(first, (int, np.integer)):
        raise ValueError(f"label rows from {first!r}: one first row expected, not a sequence")
    return first


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
    """Every window of ``split`` (origins from :func:`window_origins`) over
    the read-only run of ``ds.values`` rows they slide over; nothing is
    copied."""
    lo, hi = _origin_range(ds, lookback, horizon, split)
    series = ds.values[lo - lookback + 1 : hi + horizon + 1]
    series.flags.writeable = False
    return WindowSet(series=series, starts=np.arange(hi - lo + 1, dtype=np.intp),
                     series_start=lo - lookback + 1, lookback=lookback, horizon=horizon)
