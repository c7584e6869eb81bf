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
        assert ws.history.shape == (len(ws), 6, 3) and ws.label.shape == (len(ws), 4, 3)
        assert np.shares_memory(ws.history, ds.values)
        assert np.shares_memory(ws.label, ds.values)
        assert np.array_equal(ws.origin, data.window_origins(ds, 6, 4, split))


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
    assert np.shares_memory(part.history, ds.values)
    assert [w.origin for w in part] == [w.origin for w in list(ws)[3:7]]
    idx = np.array([5, 0, 5, 9])
    picked = ws[idx]
    assert isinstance(picked, data.WindowSet)
    assert not np.shares_memory(picked.history, ds.values)
    assert [w.origin for w in picked] == [ws[int(i)].origin for i in idx]
    for w, i in zip(picked, idx):
        assert np.array_equal(w.history, ws[int(i)].history)
        assert np.array_equal(w.label, ws[int(i)].label)


def test_indexed_batch_stacks_like_np_stack():
    ds = make_ds(n=120, d=3)
    ws = data.windows(ds, lookback=6, horizon=5, split="train")
    m = model.new_model(model.EncoderSpec(kind="linear", in_len=6), head_out=3, seed=0)
    idx = np.random.default_rng(0).permutation(len(ws))[:7]
    samples = [ws[int(i)] for i in idx]
    hist = np.stack([w.history for w in samples])
    lab = np.stack([w.label[1:4] for w in samples])
    want_x = hist.transpose(1, 0, 2).reshape(6, 7 * 3)
    want_y = lab.transpose(1, 0, 2).reshape(3, 7 * 3)
    for batch in (ws[idx], samples):
        x, y = model._stack_batch(m, batch, (2, 4))
        assert x.tobytes() == want_x.tobytes() and x.shape == want_x.shape
        assert y.tobytes() == want_y.tobytes() and y.shape == want_y.shape


def test_grouped_blocks_stack_each_groups_block():
    # K equal groups of windows: block k is group k's own block, with its
    # own label rows
    ds = make_ds(n=120, d=3)
    ws = data.windows(ds, lookback=6, horizon=6, split="train")
    idx = np.random.default_rng(1).permutation(len(ws))[:12]
    batch, firsts, lasts = ws[idx], (1, 3, 5), (2, 4, 6)
    x, y = batch.history_block(3), batch.label_block(firsts, lasts)
    assert x.shape == (3, 6, 4 * 3) and y.shape == (3, 2, 4 * 3)
    for k in range(3):
        group = ws[idx[4 * k : 4 * (k + 1)]]
        assert x[k].tobytes() == group.history_block().tobytes()
        assert y[k].tobytes() == group.label_block(firsts[k], lasts[k]).tobytes()
    with pytest.raises(ValueError, match="equal groups"):
        ws[idx[:11]].history_block(3)
    with pytest.raises(ValueError, match="differ in length"):
        batch.label_block((1, 3, 5), (2, 4, 5))


def test_batch_gathers_the_blocks_of_the_indexed_set():
    # a Batch copies nothing until a block is asked for, then gathers just
    # the rows it needs, bitwise the blocks of the fancy-indexed WindowSet
    ds = make_ds(n=120, d=3)
    ws = data.windows(ds, lookback=6, horizon=6, split="train")
    idx = np.random.default_rng(2).permutation(len(ws))[:12]
    batch, picked = data.Batch(ws, idx), ws[idx]
    assert len(batch) == 12 and np.shares_memory(batch[3].history, ds.values)
    assert batch[3].origin == picked[3].origin and batch[0].history.shape == (6, 3)
    pairs = [
        (batch.history_block(), picked.history_block()),
        (batch.label_block(2, 4), picked.label_block(2, 4)),
        (batch.history_block(3), picked.history_block(3)),
        (batch.label_block((1, 3, 5), (2, 4, 6)), picked.label_block((1, 3, 5), (2, 4, 6))),
    ]
    for got, want in pairs:
        assert got.shape == want.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()
    m = model.new_model(model.EncoderSpec(kind="linear", in_len=6), head_out=2, seed=0)
    for target in ((3, 4), ((1, 2), (3, 4), (5, 6))):
        for got, want in zip(model._stack_batch(m, batch, target),
                             model._stack_batch(m, picked, target)):
            assert got.tobytes() == want.tobytes()
    # windows of data.windows are gathered from the series they slide over;
    # a fancy-indexed set has no series and takes one fancy index instead
    assert ws.series is not None and picked.series is None
    assert ws.series[4 : 4 + 6].tobytes() == ws.history[4].tobytes()
    assert ws.series[4 + 6 : 4 + 12].tobytes() == ws.label[4].tobytes()
    got = data.Batch(picked, [5, 1, 0, 2]).label_block((1, 4), (3, 6))
    assert got.tobytes() == data.Batch(ws, idx[[5, 1, 0, 2]]).label_block((1, 4), (3, 6)).tobytes()
    with pytest.raises(ValueError, match="equal groups"):
        batch.history_block(5)
    with pytest.raises(ValueError, match="outside 1..6"):
        batch.label_block((1, 5), (3, 7))
    for bad in ([0, len(ws)], [-1, 2], [[0, 1]]):
        with pytest.raises(IndexError):
            data.Batch(ws, np.array(bad))
    with pytest.raises(ValueError, match="empty batch"):
        model._stack_batch(m, data.Batch(ws, idx[:0]), None)


def test_batch_blocks_gather_history_and_labels_in_one_take():
    # blocks(first, last) is history_block(K) and label_block(first, last)
    # bitwise, for a whole window's labels, one slice and K slices; with a
    # series both come from one take, without one from two fancy indexes
    ds = make_ds(n=120, d=3)
    ws = data.windows(ds, lookback=6, horizon=6, split="train")
    idx = np.random.default_rng(4).permutation(len(ws))[:12]
    picked = ws[idx]
    cases = ((1, None, None), (3, 4, None), ((1, 3, 5), (2, 4, 6), 3))
    for source in (data.Batch(ws, idx), data.Batch(picked, np.arange(12)), picked):
        for first, last, groups in cases:
            x, y = source.blocks(first, last)
            want_x, want_y = picked.history_block(groups), picked.label_block(first, last)
            assert x.shape == want_x.shape and x.tobytes() == want_x.tobytes()
            assert y.shape == want_y.shape and y.tobytes() == want_y.tobytes()
    x, y = data.Batch(ws, idx).blocks(3, 4)
    assert x.base is y.base and x.flags.c_contiguous and y.flags.c_contiguous
    with pytest.raises(ValueError, match="equal groups"):
        data.Batch(ws, idx[:11]).blocks((1, 3, 5), (2, 4, 6))


def test_batch_refuses_rows_that_are_not_integers():
    # bools would gather windows 0 and 1, and floats fail only at the take
    ws = data.windows(make_ds(n=60), lookback=4, horizon=2, split="train")
    for bad in (np.array([True, False, True]), np.array([1.0, 0.0]), np.array([])):
        with pytest.raises(IndexError, match="window indices"):
            data.Batch(ws, bad)
    assert data.Batch(ws, [2, 0]).rows.tolist() == [2, 0]


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
