import json
import re

import numpy as np
import pytest

from mola import data, model


def make_batch(lookback, horizon, d, n, seed):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(lookback + horizon + n, d))
    ds = data.SeriesDataset(
        values=vals,
        channel_names=[f"c{i}" for i in range(d)],
        train_end=vals.shape[0] - 1,
        val_end=vals.shape[0],
    )
    return data.windows(ds, lookback, horizon, "train")


def one_window(history, label):
    """The WindowSet of one window with these history and label rows: the
    train split of a dataset that holds them and one row after them."""
    values = np.concatenate([history, label, np.zeros((1, history.shape[1]))])
    ds = data.SeriesDataset(values=values, channel_names=[f"c{i}" for i in range(history.shape[1])],
                            train_end=len(values) - 1, val_end=len(values))
    return data.windows(ds, len(history), len(label), "train")


def linear_spec(lookback, activation="relu"):
    return model.EncoderSpec(kind="linear", in_len=lookback, activation=activation)


def mlp_spec(lookback, h1=6, rep=3, activation="tanh"):
    return model.EncoderSpec(kind="mlp2", in_len=lookback, hidden=(h1, rep), activation=activation)


def forward_by_hand(m, history):
    """Independent recomputation: per-channel loops, no batched reshapes."""
    spec = m.encoder_spec
    acts = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh}[spec.activation]
    n_layers = 1 if spec.kind == "linear" else 2
    d = history.shape[1]
    rep = np.zeros((spec.rep_dim, d))
    for c in range(d):
        x = history[:, c]
        for i in range(n_layers):
            w = m.params.get(f"enc{i}.w")
            b = m.params.get(f"enc{i}.b")
            z = w @ x + b
            x = acts(z) if i < n_layers - 1 else z
        rep[:, c] = x
    wh, bh = m.params.get("head.w"), m.params.get("head.b")
    out = np.zeros((m.head_out, d))
    for c in range(d):
        out[:, c] = wh @ rep[:, c] + bh
    return rep, out


def fd_gradient(m, batch, first, name, h=1e-5):
    # None, as the acceptance tests pass it, is the default first row
    first = 1 if first is None else first
    arr = m.params.get(name)
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        keep = arr[idx]
        arr[idx] = keep + h
        up = model.mse_loss(m, batch, first)
        arr[idx] = keep - h
        down = model.mse_loss(m, batch, first)
        arr[idx] = keep
        grad[idx] = (up - down) / (2.0 * h)
    return grad


# --- specs and construction ---


def test_encoder_spec_validation():
    with pytest.raises(ValueError):
        model.EncoderSpec(kind="mlp2", in_len=8, hidden=(4,))
    with pytest.raises(ValueError):
        model.EncoderSpec(kind="linear", in_len=8, hidden=(4,))
    with pytest.raises(ValueError):
        model.EncoderSpec(kind="cnn", in_len=8)
    with pytest.raises(ValueError):
        model.EncoderSpec(kind="linear", in_len=0)
    with pytest.raises(ValueError):
        model.EncoderSpec(kind="linear", in_len=8, activation="gelu")
    assert mlp_spec(16, 16, 2).rep_dim == 2
    assert linear_spec(16).rep_dim == 16


def test_new_model_init_and_determinism():
    spec = mlp_spec(8, 6, 3)
    m = model.new_model(spec, head_out=4, seed=5)
    assert m.params.get("enc0.w").shape == (6, 8)
    assert m.params.get("enc1.w").shape == (3, 6)
    assert m.params.get("head.w").shape == (4, 3)
    for name in ("enc0.b", "enc1.b", "head.b"):
        assert np.all(m.params.get(name) == 0.0)
    for name, fan_in in (("enc0.w", 8), ("enc1.w", 6), ("head.w", 3)):
        assert np.all(np.abs(m.params.get(name)) <= 1.0 / np.sqrt(fan_in))
    m2 = model.new_model(spec, head_out=4, seed=5)
    for name in m.params:
        assert np.array_equal(m.params.get(name), m2.params.get(name))


# --- forward paths ---


def test_encode_identity_linear():
    m = model.new_model(linear_spec(5), head_out=2, seed=0)
    m.params.get("enc0.w")[:] = np.eye(5)
    m.params.get("enc0.b")[:] = 0.0
    hist = np.random.default_rng(1).normal(size=(5, 3))
    assert np.array_equal(model.encode(m, hist), hist)


def test_encode_mlp2_zero_final_weights():
    m = model.new_model(mlp_spec(6, 4, 2), head_out=1, seed=0)
    m.params.get("enc1.w")[:] = 0.0
    m.params.get("enc1.b")[:] = np.array([0.5, -1.5])
    hist = np.random.default_rng(2).normal(size=(6, 4))
    rep = model.encode(m, hist)
    assert rep.shape == (2, 4)
    assert np.allclose(rep, np.array([[0.5], [-1.5]]))


def test_forward_matches_independent_recomputation():
    for seed in range(4):
        for spec in (linear_spec(7), mlp_spec(7, 5, 3, "relu"), mlp_spec(7, 5, 3, "tanh")):
            m = model.new_model(spec, head_out=4, seed=seed)
            hist = np.random.default_rng(100 + seed).normal(size=(7, 3))
            rep_ref, out_ref = forward_by_hand(m, hist)
            assert np.allclose(model.encode(m, hist), rep_ref, atol=1e-12)
            assert np.allclose(model.forecast(m, hist), out_ref, atol=1e-12)


def test_decode_constant_head():
    m = model.new_model(linear_spec(4), head_out=3, seed=0)
    m.params.get("head.w")[:] = 0.0
    m.params.get("head.b")[:] = np.array([1.0, 2.0, 3.0])
    rep = np.random.default_rng(0).normal(size=(4, 2))
    out = model.decode(m, rep)
    assert np.allclose(out, np.array([[1.0], [2.0], [3.0]]) @ np.ones((1, 2)))


def test_single_output_head_shape():
    m = model.new_model(linear_spec(4), head_out=1, seed=0)
    out = model.forecast(m, np.zeros((4, 2)))
    assert out.shape == (1, 2)


def test_channel_permutation_equivariance():
    m = model.new_model(mlp_spec(6, 5, 2), head_out=3, seed=3)
    hist = np.random.default_rng(4).normal(size=(6, 4))
    perm = [2, 0, 3, 1]
    out = model.forecast(m, hist)
    out_perm = model.forecast(m, hist[:, perm])
    assert np.array_equal(out[:, perm], out_perm)


def test_forward_shape_errors():
    m = model.new_model(linear_spec(4), head_out=2, seed=0)
    with pytest.raises(ValueError):
        model.encode(m, np.zeros((5, 2)))
    with pytest.raises(ValueError):
        model.decode(m, np.zeros((3, 2)))


# --- loss and gradients ---


def test_loss_zero_at_perfect_fit():
    m = model.new_model(mlp_spec(5, 4, 2), head_out=3, seed=1)
    hist = np.random.default_rng(5).normal(size=(5, 2))
    label = model.forecast(m, hist)
    batch = one_window(hist, label)
    loss, grads = model.loss_and_grads(m, batch)
    assert loss == pytest.approx(0.0, abs=1e-24)
    for g in grads.values():
        assert np.allclose(g, 0.0, atol=1e-12)


def test_closed_form_single_linear_layer():
    # freeze the encoder at identity so the head is the only live layer
    m = model.new_model(linear_spec(3), head_out=2, seed=0)
    m.params.get("enc0.w")[:] = np.eye(3)
    m.params.get("enc0.b")[:] = 0.0
    m.freeze()
    rng = np.random.default_rng(6)
    hist = rng.normal(size=(3, 1))
    label = rng.normal(size=(2, 1))
    batch = one_window(hist, label)
    head = {name: m.params[name] for name in ("head.w", "head.b")}
    loss, grads = model.loss_and_grads(m, batch, overrides=head)
    pred = model.forecast(m, hist)
    norm = label.size
    assert set(grads) == {"head.w", "head.b"}
    assert np.allclose(grads["head.w"], 2.0 * (pred - label) @ hist.T / norm, atol=1e-12)
    assert np.allclose(grads["head.b"], (2.0 * (pred - label) / norm).sum(axis=1), atol=1e-12)


@pytest.mark.parametrize(
    "spec_fn",
    [
        lambda: linear_spec(6),
        lambda: mlp_spec(6, 5, 3, "tanh"),
        lambda: mlp_spec(6, 5, 3, "relu"),
    ],
)
def test_gradients_match_finite_differences(spec_fn):
    for seed in range(3):
        m = model.new_model(spec_fn(), head_out=4, seed=seed)
        batch = make_batch(6, 4, 2, n=5, seed=200 + seed)
        _, grads = model.loss_and_grads(m, batch)
        for name in m.params:
            fd = fd_gradient(m, batch, None, name)
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads[name])), 1e-8)
            assert np.max(np.abs(grads[name] - fd) / denom) <= 1e-5, name


def test_first_row_selects_steps():
    # the head's 2 outputs are scored on the 2 label rows from row first
    m = model.new_model(linear_spec(4), head_out=2, seed=2)
    batch = make_batch(4, 6, 1, n=3, seed=7)
    loss_a = model.mse_loss(m, batch, first=3)
    hand = []
    for w in batch:
        pred = model.forecast(m, w.history)
        hand.append((pred - w.label[2:4]) ** 2)
    assert loss_a == pytest.approx(float(np.mean(hand)), rel=1e-12)
    # label rows are checked where they are read
    for past in (6, 0):
        with pytest.raises(ValueError, match="outside 1..6"):
            model.mse_loss(m, batch, first=past)
    # an old (first, last) pair names its rows in a ValueError
    for pair in ((3, 4), [3, 4]):
        with pytest.raises(ValueError, match=r"label rows from \(3, 4\)|label rows from \[3, 4\]"):
            model.mse_loss(m, batch, pair)
    with pytest.raises(ValueError):
        model.loss_and_grads(m, batch[:0])


@pytest.mark.parametrize("spec_fn", [lambda: linear_spec(6), lambda: mlp_spec(6, activation="relu"),
                                     lambda: mlp_spec(6)])
def test_stacked_loss_and_grads_equal_per_group_calls_bitwise(spec_fn):
    # K groups of windows with one first row each, in one call, give the
    # K losses and gradients of K separate calls, bit for bit; for an
    # unfrozen model, and for a frozen one with (K, ...) weight overrides
    wins = make_batch(6, 12, 2, n=45, seed=4)
    k, b = 3, 15
    firsts = (1, 5, 9)
    groups = [wins[np.arange(i * b, (i + 1) * b)] for i in range(k)]
    m = model.new_model(spec_fn(), head_out=4, seed=2)
    loss, grads = model.loss_and_grads(m, wins, firsts)
    assert loss.shape == (k,) and set(grads) == set(m.params)
    for i in range(k):
        want_loss, want = model.loss_and_grads(m, groups[i], firsts[i])
        assert loss[i] == want_loss
        for name, g in want.items():
            assert grads[name][i].tobytes() == g.tobytes(), name
    m.freeze()
    rng = np.random.default_rng(9)
    stacks = {name: m.params[name] + 0.1 * rng.normal(size=(k, *m.params[name].shape))
              for name in m.params if name.endswith(".w")}
    loss, grads = model.loss_and_grads(m, wins, firsts, overrides=stacks)
    assert set(grads) == set(stacks)
    for i in range(k):
        want_loss, want = model.loss_and_grads(
            m, groups[i], firsts[i], overrides={n: w[i] for n, w in stacks.items()})
        assert loss[i] == want_loss
        for name, g in want.items():
            assert grads[name][i].tobytes() == g.tobytes(), name
    with pytest.raises(ValueError, match="equal groups"):
        model.loss_and_grads(m, wins[np.arange(44)], firsts, overrides=stacks)


@pytest.mark.parametrize("spec_fn", [lambda: linear_spec(6), lambda: mlp_spec(6, activation="relu"),
                                     lambda: mlp_spec(6, activation="tanh")])
def test_no_grad_passes_are_bitwise_the_cached_forward_and_write_only_their_own_arrays(spec_fn):
    # encode, decode, forecast and mse_loss compute in place; they must give
    # the bits of the training forward and leave every array they were
    # handed (input block, windows, parameters, overrides) as it was
    wins = make_batch(6, 4, 3, n=20, seed=12)
    m = model.new_model(spec_fn(), head_out=4, seed=5)
    rng = np.random.default_rng(3)
    for arr in m.params.values():  # nonzero biases, and some relu units off
        arr += 0.5 * rng.normal(size=arr.shape)
    x = wins.history_block()
    rows = rng.permutation(len(wins))[:7]
    batch = wins[rows]

    def snapshot(*extra):
        return [a.tobytes() for a in (x, wins.series, *m.params.values(), *extra)]

    before = snapshot()
    rep, _ = model._encode_cols(m, x, keep_cache=True)
    want = m.params["head.w"] @ rep + m.params["head.b"][:, None]
    rep_bytes = rep.tobytes()
    assert model.encode(m, x).tobytes() == rep_bytes
    assert model.decode(m, rep).tobytes() == want.tobytes()
    assert rep.tobytes() == rep_bytes
    assert model.forecast(m, x).tobytes() == want.tobytes()
    for b, first in ((wins, ()), (wins, (1,)), (batch, ())):
        assert model.mse_loss(m, b, *first) == model.loss_and_grads(m, b, *first)[0]
    # the batch's loss is that of the np.stack of its windows, bit for bit
    hist, lab = (np.stack([getattr(wins[int(i)], f) for i in rows]) for f in ("history", "label"))
    cols = [a.transpose(1, 0, 2).reshape(a.shape[1], -1) for a in (hist, lab)]
    err = model.forecast(m, cols[0]) - cols[1]
    assert model.mse_loss(m, batch) == float((err**2).mean())
    assert snapshot() == before
    m.freeze()
    overrides = {name: arr + 0.1 * rng.normal(size=(2, *arr.shape))
                 for name, arr in m.params.items() if name.endswith(".w")}
    before = snapshot(*overrides.values())
    loss, _ = model.loss_and_grads(m, wins[np.arange(20)], (1, 1), overrides=overrides)
    assert loss.shape == (2,)
    assert snapshot(*overrides.values()) == before


def test_frozen_entries_get_no_gradient_buffer():
    m = model.new_model(mlp_spec(5, 4, 2), head_out=2, seed=0)
    batch = make_batch(5, 2, 2, n=4, seed=8)
    _, grads = model.loss_and_grads(m, batch)
    assert list(grads) == ["head.w", "head.b", "enc1.w", "enc1.b", "enc0.w", "enc0.b"]
    m.freeze()
    assert model.loss_and_grads(m, batch)[1] == {}
    overrides = {"enc1.w": m.params["enc1.w"].copy()}
    _, frozen_grads = model.loss_and_grads(m, batch, overrides=overrides)
    assert list(frozen_grads) == ["enc1.w"]
    assert np.array_equal(frozen_grads["enc1.w"], grads["enc1.w"])


def test_loss_and_grads_deterministic():
    m = model.new_model(mlp_spec(5, 4, 2), head_out=2, seed=9)
    batch = make_batch(5, 2, 3, n=6, seed=9)
    l1, g1 = model.loss_and_grads(m, batch)
    l2, g2 = model.loss_and_grads(m, batch)
    assert l1 == l2
    for name in g1:
        assert np.array_equal(g1[name], g2[name])


# --- autoregressive roll-out ---


def persistence_model(lookback):
    m = model.new_model(linear_spec(lookback), head_out=1, seed=0)
    m.params.get("enc0.w")[:] = np.eye(lookback)
    m.params.get("enc0.b")[:] = 0.0
    m.params.get("head.w")[:] = 0.0
    m.params.get("head.w")[0, -1] = 1.0
    m.params.get("head.b")[:] = 0.0
    return m


def test_ar_f_persistence_fixed_point():
    m = persistence_model(4)
    hist = np.array([[0.0, 1.0], [1.0, 2.0], [2.0, 3.0], [5.0, -1.0]])
    out = model.ar_f_forecast(m, hist, horizon=6)
    assert out.shape == (6, 2)
    assert np.array_equal(out, np.tile(hist[-1], (6, 1)))


def test_ar_f_single_step_equals_decode():
    m = persistence_model(3)
    hist = np.random.default_rng(3).normal(size=(3, 2))
    assert np.array_equal(model.ar_f_forecast(m, hist, 1), model.forecast(m, hist))


def test_ar_f_requires_single_output_head():
    m = model.new_model(linear_spec(3), head_out=2, seed=0)
    with pytest.raises(ValueError):
        model.ar_f_forecast(m, np.zeros((3, 1)), 4)


def test_ar_f_exact_recursion_stays_exact_and_misfit_accumulates():
    # sin obeys x[n+1] = 2cos(w) x[n] - x[n-1]; a model implementing that
    # recursion rolls out with no error, while persistence drifts with t.
    period = 24.0
    spec = data.SynthSpec(
        n_points=400,
        d_channels=1,
        components=(data.SynthComponent(kind="sine", amplitude=1.0, period=period),),
        noise_std=0.0,
        seed=0,
    )
    ds = data.generate_synthetic(spec)
    exact = model.new_model(linear_spec(4), head_out=1, seed=0)
    exact.params.get("enc0.w")[:] = np.eye(4)
    exact.params.get("enc0.b")[:] = 0.0
    exact.params.get("head.w")[:] = np.array([[0.0, 0.0, -1.0, 2.0 * np.cos(2 * np.pi / period)]])
    exact.params.get("head.b")[:] = 0.0
    T = 8
    samples = data.windows(ds, 4, T, "test")[:20]
    for name, m in (("exact", exact), ("persistence", persistence_model(4))):
        errs = np.zeros(T)
        for w in samples:
            pred = model.ar_f_forecast(m, w.history, T)
            errs += ((pred - w.label) ** 2).mean(axis=1)
        errs /= len(samples)
        if name == "exact":
            assert np.all(errs <= 1e-16)
        else:
            assert errs[T - 1] > errs[0]


# --- checkpoints ---


def test_checkpoint_round_trip_exact(tmp_path):
    m = model.new_model(mlp_spec(9, 7, 4, "relu"), head_out=5, seed=42)
    m.freeze()
    path = tmp_path / "model.json"
    model.save_checkpoint(m, path)
    loaded = model.load_checkpoint(path)
    assert loaded.encoder_spec == m.encoder_spec
    assert loaded.head_out == m.head_out
    assert loaded.frozen
    assert list(loaded.params) == list(m.params)
    for name in m.params:
        assert np.array_equal(loaded.params.get(name), m.params.get(name))
    # a second save of the loaded model is byte-identical
    path2 = tmp_path / "model2.json"
    model.save_checkpoint(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_with_wrong_parameter_shape_is_rejected(tmp_path):
    m = model.new_model(mlp_spec(9, 7, 4, "relu"), head_out=5, seed=42)
    state = model.model_state(m)
    entry = next(e for e in state["params"] if e["name"] == "head.w")
    entry.update(shape=[5, 3], data=[0.0] * 15)  # rep_dim is 4
    with pytest.raises(ValueError, match=r"'head\.w' has shape \(5, 3\).*\(5, 4\)"):
        model.model_from_state(state)
    state["params"] = [e for e in state["params"] if e["name"] != "head.w"]
    with pytest.raises(ValueError, match="do not match"):
        model.model_from_state(state)


@pytest.mark.parametrize("key", ["encoder_spec", "head_out", "frozen", "params"])
def test_checkpoint_with_missing_key_is_rejected(key):
    state = model.model_state(model.new_model(mlp_spec(5, 4, 2), head_out=2, seed=0))
    del state[key]
    with pytest.raises(ValueError, match=f"model checkpoint is missing '{key}'"):
        model.model_from_state(state)


@pytest.mark.parametrize("where, key, value", [
    ((), "head_out", None),
    ((), "params", 5),
    (("encoder_spec",), "in_len", "5"),
    (("encoder_spec",), "hidden", 4),
    (("params", 0), "name", 3),
    (("params", 0), "shape", "3x5"),
    (("params", 0), "data", [None] * 15),
])
def test_checkpoint_with_wrong_json_types_is_rejected(where, key, value):
    # a malformed file is a ValueError naming the field (mola exits 1), not a TypeError
    state = model.model_state(model.new_model(mlp_spec(5, 3, 2), head_out=2, seed=0))
    obj = state
    for step in where:
        obj = obj[step]
    obj[key] = value
    with pytest.raises(ValueError, match=f"'{key}'"):
        model.model_from_state(state)


def test_checkpoint_load_errors_name_the_file(tmp_path):
    state = model.model_state(model.new_model(mlp_spec(5, 3, 2), head_out=2, seed=0))
    state["head_out"] = None
    path = tmp_path / "foundation.json"
    path.write_text(json.dumps(state))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*'head_out'"):
        model.load_checkpoint(path)


def test_checkpoint_with_malformed_entries_is_rejected():
    m = model.new_model(mlp_spec(5, 4, 2), head_out=2, seed=0)
    state = model.model_state(m)
    del state["params"][0]["data"]
    with pytest.raises(ValueError, match="missing 'data'"):
        model.model_from_state(state)
    state = model.model_state(m)
    del state["encoder_spec"]["activation"]
    with pytest.raises(ValueError, match="encoder_spec is missing 'activation'"):
        model.model_from_state(state)
    state = model.model_state(m)
    state["frozen"] = 0
    with pytest.raises(ValueError, match="'frozen' must be true or false"):
        model.model_from_state(state)
