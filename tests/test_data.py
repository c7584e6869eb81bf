import csv
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from mola import data, model


def write_csv(path, rows, header):
    lines = [",".join(header)]
    lines += [",".join(str(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def sine_spec(**over):
    base = dict(
        n_points=48,
        d_channels=1,
        components=(data.SynthComponent(kind="sine", amplitude=1.0, period=24.0, phase=0.3),),
        noise_std=0.0,
        seed=0,
    )
    base.update(over)
    return data.SynthSpec(**base)


# --- synthetic generation ---


def test_sine_periodicity():
    ds = data.generate_synthetic(sine_spec())
    assert ds.values.shape == (48, 1)
    assert ds.values[0, 0] == pytest.approx(math.sin(0.3), abs=1e-12)
    assert abs(ds.values[24, 0] - ds.values[0, 0]) <= 1e-12


def test_synthetic_determinism():
    spec = sine_spec(noise_std=0.5, d_channels=3, seed=9)
    a = data.generate_synthetic(spec)
    b = data.generate_synthetic(spec)
    assert np.array_equal(a.values, b.values)


def test_ar1_lag1_autocorrelation():
    # Monte-Carlo check against AR(1) theory: with coeff 0.9 and small
    # observation noise the sample lag-1 autocorrelation stays near 0.9.
    spec = data.SynthSpec(
        n_points=10_000,
        d_channels=1,
        components=(data.SynthComponent(kind="ar1", amplitude=1.0, ar_coeff=0.9),),
        noise_std=0.1,
        seed=4,
    )
    x = data.generate_synthetic(spec).values[:, 0]
    x = x - x.mean()
    rho = float((x[1:] @ x[:-1]) / (x @ x))
    assert 0.85 <= rho <= 0.95


def test_ar1_component_follows_its_recursion_exactly():
    # x[0] = e[0] / sqrt(1 - a^2) and x[i] = a * x[i-1] + e[i], each a
    # multiply then an add in IEEE double, on the draws of the spec's rng
    spec = data.SynthSpec(
        n_points=300,
        d_channels=3,
        components=(data.SynthComponent(kind="ar1", amplitude=0.3, ar_coeff=0.9),),
        noise_std=0.0,
        seed=11,
    )
    x = data.generate_synthetic(spec).values
    innov = np.random.default_rng(11).normal(size=(300, 3)) * 0.3
    assert np.array_equal(x[0], innov[0] / math.sqrt(1.0 - 0.9**2))
    assert np.array_equal(x[1:], 0.9 * x[:-1] + innov[1:])


def test_trend_component_is_monotone():
    spec = sine_spec(
        components=(data.SynthComponent(kind="trend", amplitude=2.0),), n_points=10
    )
    v = data.generate_synthetic(spec).values[:, 0]
    assert v[0] == 0.0
    assert v[-1] == pytest.approx(2.0)
    assert np.all(np.diff(v) > 0)


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        data.SynthSpec(n_points=0, d_channels=1, components=(), seed=0)
    with pytest.raises(ValueError):
        sine_spec(components=(data.SynthComponent(kind="sine", period=0.0),))
    with pytest.raises(ValueError):
        sine_spec(components=(data.SynthComponent(kind="ar1", ar_coeff=1.0),))
    with pytest.raises(ValueError):
        sine_spec(noise_std=-0.1)
    with pytest.raises(ValueError):
        sine_spec(components=(data.SynthComponent(kind="square"),))


def test_default_synth_spec_is_two_channel_mixed():
    spec = data.default_synth_spec()
    assert spec.d_channels == 2
    kinds = [c.kind for c in spec.components]
    assert kinds.count("sine") == 2 and "trend" in kinds
    assert spec.noise_std == 0.1
    ds = data.generate_synthetic(spec)
    assert ds.values.shape == (spec.n_points, 2)
    # channels must not be identical copies
    assert not np.allclose(ds.values[:, 0], ds.values[:, 1])


# --- csv loading ---


def test_load_csv_ratio_split(tmp_path):
    rows = [[f"t{i}", float(i), float(2 * i)] for i in range(10)]
    p = tmp_path / "small.csv"
    write_csv(p, rows, header=["date", "a", "b"])
    ds = data.load_csv(p, ratios=(0.7, 0.1, 0.2))
    assert ds.values.shape == (10, 2)
    assert ds.channel_names == ["a", "b"]
    assert ds.train_end == 7 and ds.val_end == 8
    assert ds.values[3, 1] == 6.0


def test_load_csv_explicit_counts(tmp_path):
    rows = [[f"t{i:02d}", float(i)] for i in range(20)]
    p = tmp_path / "counts.csv"
    write_csv(p, rows, header=["date", "a"])
    ds = data.load_csv(p, counts=(12, 3, 4))
    assert ds.values.shape == (19, 1)  # truncated to the requested total
    assert ds.train_end == 12 and ds.val_end == 15
    with pytest.raises(ValueError):
        data.load_csv(p, counts=(18, 2, 2))  # more rows than the file has


def test_load_csv_non_numeric_cell_names_row(tmp_path):
    rows = [[f"t{i}", float(i)] for i in range(10)]
    rows[4][1] = "oops"  # data row 5, 1-based
    p = tmp_path / "bad.csv"
    write_csv(p, rows, header=["date", "a"])
    with pytest.raises(ValueError, match="row 5"):
        data.load_csv(p, ratios=(0.7, 0.1, 0.2))


def test_load_csv_missing_value_is_hard_error(tmp_path):
    rows = [[f"t{i}", float(i), float(i)] for i in range(10)]
    rows[6][2] = ""
    p = tmp_path / "missing.csv"
    write_csv(p, rows, header=["date", "a", "b"])
    with pytest.raises(ValueError, match="row 7"):
        data.load_csv(p, ratios=(0.7, 0.1, 0.2))


def test_load_csv_non_monotone_timestamp_warns(tmp_path):
    rows = [[f"t{i}", float(i)] for i in range(10)]
    rows[3][0] = "t0"
    p = tmp_path / "swap.csv"
    write_csv(p, rows, header=["date", "a"])
    with pytest.warns(UserWarning, match="monoton"):
        data.load_csv(p, ratios=(0.7, 0.1, 0.2))


def test_load_csv_requires_exactly_one_split_mode(tmp_path):
    rows = [[f"t{i}", float(i)] for i in range(10)]
    p = tmp_path / "x.csv"
    write_csv(p, rows, header=["date", "a"])
    with pytest.raises(ValueError):
        data.load_csv(p)
    with pytest.raises(ValueError):
        data.load_csv(p, ratios=(0.7, 0.1, 0.2), counts=(7, 1, 2))


def _cells_as_float(path):
    """Every numeric cell of a CSV file as float(cell.strip()), by csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(cell.strip()) for cell in row[1:]] for row in rows])


def _count_scans(monkeypatch):
    scans = []
    real = data._scan_rows

    def counting(*args):
        scans.append(args[1])
        return real(*args)

    monkeypatch.setattr(data, "_scan_rows", counting)
    return scans


def test_load_csv_values_are_bitwise_float_of_each_cell(tmp_path, monkeypatch):
    rng = np.random.default_rng(4)
    doubles = rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, size=40)
    cells = [repr(float(x)) for x in doubles] + ["%.4f" % x for x in rng.normal(size=40) * 50]
    cells += ["5e-324", "2.225073858507201e-308", "-0.0", "0.0", " 1.25 ", "\t-3.5", "1e+22  "]
    stamps = [f"t{i:03d}" for i in range(len(cells) // 2)]
    lines = ["date,a,b"] + [f"{t},{cells[2 * i]},{cells[2 * i + 1]}" for i, t in enumerate(stamps)]
    plain = tmp_path / "plain.csv"
    plain.write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    quoted = tmp_path / "quoted.csv"
    quoted.write_text("\n".join(lines[:3] + ['t900,"2.5"," 7e-3 "', "t901,1_000,-0.0"]) + "\n",
                      encoding="utf-8")
    underscored = tmp_path / "underscored.csv"
    underscored.write_text("date,a\nt0,1_000\nt1,0.5\n", encoding="utf-8")
    scans = _count_scans(monkeypatch)
    for path, scanned in ((plain, False), (quoted, True), (underscored, True)):
        want = _cells_as_float(path)
        got = data.load_csv(path, counts=(1, 1, len(want) - 2)).values
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), path.name
        assert (path in scans) == scanned, path.name
    assert _cells_as_float(underscored)[0, 0] == 1000.0
    assert np.signbit(data.load_csv(quoted, counts=(1, 1, 2)).values[-1, 1])


@pytest.mark.parametrize("line, message", [
    ("t4,1.0,2.0,3.0", "row 5 has 4 fields, expected 3"),
    ("", "row 5 has 0 fields, expected 3"),
    ("# sensor reset", "row 5 has 1 fields, expected 3"),
    ("t4,nan,2.0", "non-finite value at row 5, column 'a'"),
    ("t4,1.0,-inf", "non-finite value at row 5, column 'b'"),
    ("t4,1.0,1e400", "non-finite value at row 5, column 'b'"),
])
def test_load_csv_bad_rows_keep_their_message_and_row(tmp_path, line, message):
    # the bad line is data row 5 of 9
    lines = ["date,a,b"] + [f"t{i},{i}.5,{-i}" for i in range(4)] + [line]
    lines += [f"t{i},{i}.5,{-i}" for i in range(5, 9)]
    p = tmp_path / "bad.csv"
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{p}: {message}")):
        data.load_csv(p, ratios=(0.7, 0.1, 0.2))


def test_load_csv_keeps_a_hash_prefixed_record(tmp_path):
    # '#' starts no comment: a full record whose timestamp begins with it is
    # a data row like any other
    p = tmp_path / "hash.csv"
    write_csv(p, [["#0", 1.0], ["#1", 2.0], ["#2", 3.0]], header=["date", "a"])
    ds = data.load_csv(p, counts=(1, 1, 1))
    assert ds.values[:, 0].tolist() == [1.0, 2.0, 3.0]


# --- standardization ---


def make_ds(n=50, d=2, seed=0):
    spec = data.SynthSpec(
        n_points=n,
        d_channels=d,
        components=(
            data.SynthComponent(kind="sine", amplitude=1.0, period=12.0),
            data.SynthComponent(kind="trend", amplitude=3.0),
        ),
        noise_std=0.2,
        seed=seed,
    )
    return data.generate_synthetic(spec)


def test_standardize_train_stats():
    ds = data.standardize(make_ds())
    train = ds.values[: ds.train_end]
    assert np.all(np.abs(train.mean(axis=0)) <= 1e-10)
    assert np.all(np.abs(train.std(axis=0) - 1.0) <= 1e-10)
    # stats come from the train split only, so val/test are generally off-center
    assert np.any(np.abs(ds.values[ds.train_end :].mean(axis=0)) > 1e-3)


def test_standardize_round_trip():
    raw = make_ds()
    ds = data.standardize(raw)
    back = ds.values * ds.norm_stats.std + ds.norm_stats.mean
    assert np.allclose(back, raw.values, atol=1e-10)


def test_standardize_rejects_constant_train_channel():
    raw = make_ds()
    vals = raw.values.copy()
    vals[: raw.train_end, 1] = 5.0
    ds = data.SeriesDataset(
        values=vals,
        channel_names=raw.channel_names,
        train_end=raw.train_end,
        val_end=raw.val_end,
    )
    with pytest.raises(ValueError, match="channel"):
        data.standardize(ds)


def test_standardize_twice_rejected():
    ds = data.standardize(make_ds())
    with pytest.raises(ValueError):
        data.standardize(ds)


# --- windows ---


def test_window_count_formula_train():
    ds = make_ds(n=143)  # floor(143*0.7) = 100 train rows
    assert ds.train_end == 100
    ws = data.windows(ds, lookback=96, horizon=4, split="train")
    assert len(ws) == 1
    assert ws[0].origin == 95


def test_windows_reconstruct_from_origin():
    ds = make_ds(n=80)
    for split in ("train", "val", "test"):
        for w in data.windows(ds, lookback=5, horizon=3, split=split):
            n = w.origin
            assert np.array_equal(w.history, ds.values[n - 4 : n + 1])
            assert np.array_equal(w.label, ds.values[n + 1 : n + 4])


def test_windows_case_study_setting():
    ds = data.generate_synthetic(data.default_synth_spec())
    ws = data.windows(ds, lookback=16, horizon=32, split="test")
    assert len(ws) > 0
    assert ws[0].history.shape == (16, 2) and ws[0].label.shape == (32, 2)


def test_windows_no_leakage():
    ds = make_ds(n=120)
    L, T = 8, 4
    for w in data.windows(ds, L, T, "val"):
        assert w.origin + 1 >= ds.train_end  # labels stay inside val
    for w in data.windows(ds, L, T, "test"):
        assert w.origin - L + 1 >= ds.val_end - L
        assert w.origin + 1 >= ds.val_end


def test_window_set_is_a_view_of_the_values():
    ds = make_ds(n=80, d=3)
    for split in ("train", "val", "test"):
        ws = data.windows(ds, lookback=6, horizon=4, split=split)
        assert np.shares_memory(ws.series, ds.values) and not ws.series.flags.writeable
        assert np.array_equal(ws.origin, data.window_origins(ds, 6, 4, split))
        first = ws[0]
        assert first.history.shape == (6, 3) and first.label.shape == (4, 3)
        assert np.shares_memory(first.history, ds.values)
        assert np.shares_memory(first.label, ds.values)


def test_window_set_indexing():
    ds = make_ds(n=80)
    ws = data.windows(ds, lookback=5, horizon=3, split="train")
    n = len(ws)
    one = ws[2]
    assert isinstance(one, data.WindowSample) and isinstance(one.origin, int)
    assert one.origin == ws.origin[2]
    assert np.shares_memory(one.history, ds.values)
    assert np.array_equal(one.history, ds.values[one.origin - 4 : one.origin + 1])
    assert ws[-1].origin == ws.origin[n - 1]
    with pytest.raises(IndexError):
        ws[n]
    part = ws[3:7]
    assert isinstance(part, data.WindowSet) and len(part) == 4
    assert part.series is ws.series
    assert [w.origin for w in part] == [w.origin for w in list(ws)[3:7]]
    idx = np.array([5, 0, 5, 9])
    picked = ws[idx]
    assert isinstance(picked, data.WindowSet)
    # a set of window rows picks starts over the same series; the arrays
    # read from it are copies
    assert picked.series is ws.series
    assert not np.shares_memory(picked.history_block(), ds.values)
    assert not np.shares_memory(picked.labels(), ds.values)
    assert [w.origin for w in picked] == [ws[int(i)].origin for i in idx]
    # origins derive from the starts, also through an index of an index
    assert picked.origin.dtype == np.int64
    assert picked[1:3].origin.tolist() == ws.origin[idx[1:3]].tolist()
    for w, i in zip(picked, idx):
        assert np.array_equal(w.history, ws[int(i)].history)
        assert np.array_equal(w.label, ws[int(i)].label)
    assert np.array_equal(picked.labels(), np.stack([w.label for w in picked]))


def test_indexed_batch_stacks_like_np_stack():
    # np.stack of the windows is the ground truth for a batch's blocks, for
    # one label slice and for K groups with a slice each
    ds = make_ds(n=120, d=3)
    ws = data.windows(ds, lookback=6, horizon=6, split="train")
    m = model.new_model(model.EncoderSpec(kind="linear", in_len=6), head_out=2, seed=0)
    idx = np.random.default_rng(0).permutation(len(ws))[:12]
    samples = [ws[int(i)] for i in idx]
    hist = np.stack([w.history for w in samples])
    lab = np.stack([w.label for w in samples])

    def cols(a):  # (n, rows, D) windows -> the (rows, n*D) column block
        return a.transpose(1, 0, 2).reshape(a.shape[1], -1)

    groups = [slice(4 * k, 4 * k + 4) for k in range(3)]
    cases = [
        ((3, 4), cols(hist), cols(lab[:, 2:4])),
        (((1, 2), (3, 4), (5, 6)), np.stack([cols(hist[g]) for g in groups]),
         np.stack([cols(lab[g, 2 * k : 2 * k + 2]) for k, g in enumerate(groups)])),
    ]
    batch = ws[idx]
    for target, want_x, want_y in cases:
        x, y = model._stack_batch(m, batch, target)
        assert x.tobytes() == want_x.tobytes() and x.shape == want_x.shape
        assert y.tobytes() == want_y.tobytes() and y.shape == want_y.shape
    assert batch.history_block().tobytes() == cols(hist).tobytes()
    assert batch.label_block(2, 5).tobytes() == cols(lab[:, 1:5]).tobytes()
    with pytest.raises(ValueError, match="empty batch"):
        model._stack_batch(m, ws[idx[:0]], None)


def test_grouped_blocks_stack_each_groups_block():
    # K equal groups of windows: block k is group k's own block, with its
    # own label rows
    ds = make_ds(n=120, d=3)
    ws = data.windows(ds, lookback=6, horizon=6, split="train")
    idx = np.random.default_rng(1).permutation(len(ws))[:12]
    batch, firsts, lasts = ws[idx], (1, 3, 5), (2, 4, 6)
    x, y = batch.blocks(firsts, lasts)
    assert x.shape == (3, 6, 4 * 3) and y.shape == (3, 2, 4 * 3)
    for k in range(3):
        group = ws[idx[4 * k : 4 * (k + 1)]]
        assert x[k].tobytes() == group.history_block().tobytes()
        assert y[k].tobytes() == group.label_block(firsts[k], lasts[k]).tobytes()
    with pytest.raises(ValueError, match="equal groups"):
        ws[idx[:11]].blocks(firsts, lasts)
    with pytest.raises(ValueError, match="differ in length"):
        batch.blocks((1, 3, 5), (2, 4, 5))
    with pytest.raises(ValueError, match="outside 1..6"):
        batch.blocks((1, 5), (3, 7))


def test_label_rows_outside_the_horizon_are_refused():
    # an int range of label rows is checked like the grouped ranges: rows
    # outside 1..T, or a range that runs backwards, raise instead of
    # giving a clipped or empty block
    ws = data.windows(make_ds(n=120, d=3), lookback=6, horizon=8, split="train")
    for first, last in ((0, 3), (7, 12), (9, None), (5, 4)):
        with pytest.raises(ValueError, match="outside 1..8"):
            ws.label_block(first, last)
        with pytest.raises(ValueError, match="outside 1..8"):
            ws.blocks(first, last)
    with pytest.raises(ValueError, match="outside 1..8"):
        ws[:4].blocks((3, 2), (2, 1))
    assert ws.label_block(8, 8).shape == (1, len(ws) * 3)
    assert ws.label_block(3).shape == (6, len(ws) * 3)


def test_labels_are_each_windows_label_rows():
    # labels(first, last) is the (N, rows, D) stack of label rows
    # first..last of every window, C-ordered, for the whole set, a slice and
    # a set of window rows alike
    ds = make_ds(n=120, d=3)
    ws = data.windows(ds, lookback=6, horizon=5, split="train")
    idx = np.array([7, 0, 7, 3, len(ws) - 1])
    for source in (ws, ws[2:9], ws[idx]):
        for first, last in ((1, None), (2, 4), (5, 5)):
            got = source.labels(first, last)
            stop = 5 if last is None else last
            want = np.stack([ds.values[n + first : n + stop + 1] for n in source.origin])
            assert got.shape == want.shape and got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()
    for first, last in ((0, 3), (4, 6), (6, None), (4, 3)):
        with pytest.raises(ValueError, match="outside 1..5"):
            ws.labels(first, last)


def test_batch_blocks_gather_history_and_labels_in_one_take():
    # blocks(first, last) is history_block() and label_block(first, last)
    # bitwise, for a whole window's labels and for one slice, as two views
    # of one take
    ds = make_ds(n=120, d=3)
    ws = data.windows(ds, lookback=6, horizon=6, split="train")
    idx = np.random.default_rng(4).permutation(len(ws))[:12]
    for source in (ws, ws[idx], ws[2:9]):
        for first, last in ((1, None), (3, 4)):
            x, y = source.blocks(first, last)
            want_x, want_y = source.history_block(), source.label_block(first, last)
            assert x.shape == want_x.shape and x.tobytes() == want_x.tobytes()
            assert y.shape == want_y.shape and y.tobytes() == want_y.tobytes()
            assert x.base is y.base and x.flags.c_contiguous and y.flags.c_contiguous


def test_batch_refuses_rows_that_are_not_integers():
    # window rows are 1-D integer indices in range: bools would pick
    # windows 1, 0, 1, floats fail only at the take, and a negative row
    # would wrap around
    ws = data.windows(make_ds(n=60), lookback=4, horizon=2, split="train")
    bad_rows = (np.array([True, False, True]), np.array([1.0, 0.0]), np.array([]),
                [0, len(ws)], [-1, 2], [[0, 1]])
    for bad in bad_rows:
        with pytest.raises(IndexError, match="window indices"):
            ws[bad]
    assert ws[[2, 0]].origin.tolist() == [ws[2].origin, ws[0].origin]
    assert len(ws[np.array([], dtype=np.int64)]) == 0


def test_windows_split_too_short():
    ds = make_ds(n=40)
    with pytest.raises(ValueError):
        data.windows(ds, lookback=16, horizon=32, split="val")
    with pytest.raises(ValueError):
        data.windows(ds, lookback=0, horizon=1, split="train")
    with pytest.raises(ValueError):
        data.windows(ds, lookback=2, horizon=2, split="middle")


@hyp_settings(max_examples=40)
@given(
    n=st.integers(40, 300),
    lookback=st.integers(1, 12),
    horizon=st.integers(1, 10),
    seed=st.integers(0, 100),
)
def test_window_counts_property(n, lookback, horizon, seed):
    ds = make_ds(n=n, seed=seed)
    train_len = ds.train_end
    val_len = ds.val_end - ds.train_end
    test_len = ds.values.shape[0] - ds.val_end
    expected = {
        "train": train_len - lookback - horizon + 1,
        "val": val_len - horizon + 1 if ds.train_end >= lookback else None,
        "test": test_len - horizon + 1 if ds.val_end >= lookback else None,
    }
    for split, want in expected.items():
        if want is None:
            continue
        if want <= 0:
            with pytest.raises(ValueError):
                data.windows(ds, lookback, horizon, split)
        else:
            assert len(data.windows(ds, lookback, horizon, split)) == want
