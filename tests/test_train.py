import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import reference_lora
from mola import _io, adapt, analysis, cli, data, model, train


def sine_dataset(n_points=240, d=2, noise=0.0, seed=0, period=24.0):
    spec = data.SynthSpec(
        n_points=n_points,
        d_channels=d,
        components=(data.SynthComponent(kind="sine", amplitude=1.0, period=period),),
        noise_std=noise,
        seed=seed,
    )
    ds = data.generate_synthetic(spec)
    return data.standardize(ds)


def small_config(**kw):
    base = dict(learning_rate=1e-3, batch_size=8, max_epochs=2, patience=2, seed=0)
    base.update(kw)
    return train.TrainConfig(**base)


LIN8 = model.EncoderSpec(kind="linear", in_len=8)


# --- config ---


def test_config_validation():
    with pytest.raises(ValueError):
        train.TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        train.TrainConfig(patience=0)
    with pytest.raises(ValueError):
        train.TrainConfig(batch_size=0)


def test_pretrain_default_budget():
    base = train.TrainConfig()
    assert base.max_epochs == 10 and base.patience == 3
    assert base.learning_rate == 1e-3 and base.batch_size == 32
    assert (train.ADAM_BETA1, train.ADAM_BETA2, train.ADAM_EPS) == (0.9, 0.999, 1e-8)


# --- Adam ---


def test_adam_first_step_closed_form():
    w = np.array([1.0, -2.0, 0.5])
    g = np.array([0.3, -0.1, 0.0])
    params = {"w": w}
    state = train.init_adam(params)
    train.adam_step(params, {"w": g}, state, lr=0.01)
    # bias-corrected first step: -lr * g / (|g| + eps)
    want = np.array([1.0, -2.0, 0.5]) - 0.01 * g / (np.abs(g) + 1e-8)
    assert np.max(np.abs(w - want)) <= 1e-12
    assert state.t == 1


def test_adam_zero_grad_is_noop():
    w = np.array([[1.0, 2.0]])
    params = {"w": w}
    state = train.init_adam(params)
    train.adam_step(params, {"w": np.zeros_like(w)}, state, lr=0.5)
    assert np.array_equal(w, [[1.0, 2.0]])
    assert np.all(state.flat_m == 0.0) and np.all(state.flat_v == 0.0)


def test_adam_ignores_grads_for_untracked_entries():
    w = np.array([1.0])
    frozen = np.array([5.0])
    params = {"w": w}
    state = train.init_adam(params)
    train.adam_step(params, {"w": np.array([1.0]), "frozen": np.array([9.9])}, state, lr=0.1)
    assert frozen[0] == 5.0
    assert list(state.params) == ["w"] and state.flat_m.size == 1
    assert w[0] != 1.0


def test_flat_adam_matches_per_tensor_loop_bitwise():
    rng = np.random.default_rng(3)
    shapes = {"w": (4, 3), "b": (4,), "s": (2, 1, 5)}
    params = {k: rng.normal(size=shp) for k, shp in shapes.items()}
    ref = {k: v.copy() for k, v in params.items()}
    ref_m = {k: np.zeros_like(v) for k, v in ref.items()}
    ref_v = {k: np.zeros_like(v) for k, v in ref.items()}
    b1, b2, eps = 0.9, 0.999, 1e-8
    lr = 0.05
    frozen = np.ones(3)
    state = train.init_adam(params)
    for t in range(1, 21):
        grads = {k: rng.normal(size=shp) for k, shp in shapes.items()}
        train.adam_step(params, {**grads, "frozen": frozen}, state, lr)
        c1 = 1.0 - b1**t
        c2 = 1.0 - b2**t
        for k, g in grads.items():
            ref_m[k] *= b1
            ref_m[k] += (1.0 - b1) * g
            ref_v[k] *= b2
            ref_v[k] += (1.0 - b2) * (g * g)
            ref[k] -= lr * (ref_m[k] / c1) / (np.sqrt(ref_v[k] / c2) + eps)
    assert state.t == 20
    assert np.array_equal(frozen, np.ones(3))
    for k in shapes:
        assert params[k].tobytes() == ref[k].tobytes()
    # the flat moments hold each tensor's moments in registration order
    assert state.flat_m.tobytes() == np.concatenate([ref_m[k].ravel() for k in shapes]).tobytes()
    assert state.flat_v.tobytes() == np.concatenate([ref_v[k].ravel() for k in shapes]).tobytes()


def test_adam_missing_registered_grad_raises():
    params = {"w": np.ones(2), "b": np.zeros(1)}
    state = train.init_adam(params)
    with pytest.raises(ValueError, match="b"):
        train.adam_step(params, {"w": np.ones(2)}, state, lr=0.1)
    assert state.t == 0
    assert np.array_equal(params["w"], np.ones(2))


def scalar_adam_reference(w0, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    # independent recomputation, scalar formulas straight from the update rule
    w, m, v = w0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        w = w - lr * m_hat / (np.sqrt(v_hat) + eps)
    return w


def test_adam_multi_step_matches_scalar_reference():
    rng = np.random.default_rng(7)
    grads = rng.normal(size=5)
    w = np.array([0.3])
    params = {"w": w}
    state = train.init_adam(params)
    for g in grads:
        train.adam_step(params, {"w": np.array([g])}, state, lr=0.02)
    want = scalar_adam_reference(0.3, grads, lr=0.02)
    assert abs(w[0] - want) <= 1e-14


def test_adam_refuses_arrays_outside_a_c_contiguous_float64_buffer():
    # every model and adapter array is a view into one packed float64
    # buffer; anything else has no place in a memory run
    buffer = np.zeros(12)
    ok = {"a": buffer[:4], "b": buffer[4:]}
    assert len(train.init_adam(ok).runs) == 1
    for bad in (np.zeros((3, 4))[:, ::2], np.zeros(4, dtype=np.float32),
                np.zeros((3, 4), order="F")[:, 0]):
        with pytest.raises(ValueError, match="'b' is not a C-contiguous float64"):
            train.init_adam({"a": buffer[:4], "b": bad})


def test_adam_runs_follow_memory():
    # a packed model is one run, and arrays of one buffer merge only where
    # they lie back to back
    m = model.new_model(model.EncoderSpec(kind="mlp2", in_len=6, hidden=(5, 4)), 3, seed=0)
    buffer = m.params["enc0.w"].base
    assert all(p.base is buffer for p in m.params.values())
    state = train.init_adam(m.params)
    [(run, step)] = state.runs
    assert run.shape == buffer.shape and np.shares_memory(run, buffer)
    assert step.shape == buffer.shape and np.shares_memory(step, state.step)
    adjacent = {name: m.params[name] for name in ("enc0.w", "enc0.b", "enc1.w")}
    assert len(train.init_adam(adjacent).runs) == 1
    apart = {name: m.params[name] for name in ("enc0.w", "enc1.w", "head.b")}
    assert [run.shape for run, _ in train.init_adam(apart).runs] == [(5, 6), (4, 5), (3,)]
    backwards = {name: m.params[name] for name in ("enc0.b", "enc0.w")}
    assert len(train.init_adam(backwards).runs) == 2
    m.freeze()
    plan = adapt.make_segment_plan(6, 2, lookback=6)
    # an adapter's stacks share one buffer, layer by layer A then B: a soft
    # step's A and B of a layer are one run and its logits row another, and
    # a one-hot lockstep step's stacks are one run of the whole buffer
    soft = adapt.new_adapter(m, plan, n_experts=2, rank=2, seed=0)
    params = adapt.adaptation_params(soft, 1)
    runs = [run for run, _ in train.init_adam(params).runs]
    assert [run.size for run in runs] == [
        size for layer in soft.adapted_layers
        for size in (soft.a[layer].size + soft.b[layer].size, 2)]
    for run, layer in zip(runs[::2], soft.adapted_layers):
        assert np.shares_memory(run, soft.a[layer]) and np.shares_memory(run, soft.b[layer])
    assert runs[1] is params["enc0.w.logits.k1"]
    one_hot = adapt.new_adapter(m, plan, n_experts=2, rank=2, seed=0, routing="one-hot")
    buffer = one_hot.a["enc0.w"].base
    [(run, _)] = train.init_adam(adapt.adaptation_params(one_hot, None)).runs
    assert run.shape == buffer.shape and np.shares_memory(run, buffer)


def test_adam_step_refuses_another_params_dict():
    params = {"w": np.ones(2)}
    state = train.init_adam(params)
    with pytest.raises(ValueError, match="params dict"):
        train.adam_step(dict(params), {"w": np.ones(2)}, state, lr=0.1)
    assert state.t == 0


def separate_storage(m):
    """m with each array in a buffer of its own."""
    return model.FoundationModel(m.encoder_spec, m.head_out,
                                 {name: p.copy() for name, p in m.params.items()}, m.frozen)


def test_packed_storage_trains_bitwise_as_separate_arrays(monkeypatch):
    # the one-buffer layout of new_model changes the memory, not a bit of
    # any result: pretraining and both kinds of adaptation give the same
    # params and records on a model whose arrays are apart
    ds = data.standardize(data.generate_synthetic(data.default_synth_spec(n_points=300, seed=3)))
    spec = model.EncoderSpec(kind="mlp2", in_len=8, hidden=(8, 5), activation="tanh")
    cfg = small_config(learning_rate=1e-2, max_epochs=3, patience=3)
    real_new_model = model.new_model
    runs = {}

    def pretrain(separate):
        if separate:
            monkeypatch.setattr(model, "new_model",
                                lambda *a, **kw: separate_storage(real_new_model(*a, **kw)))
        real_init = train.init_adam
        monkeypatch.setattr(train, "init_adam",
                            lambda params: runs.setdefault(separate, real_init(params)))
        foundation, record = train.pretrain(ds, spec, 4, cfg)
        monkeypatch.undo()
        return foundation, train.run_summary(record)

    packed, packed_record = pretrain(False)
    apart, apart_record = pretrain(True)
    assert (len(runs[False].runs), len(runs[True].runs)) == (1, 6)
    assert packed_record == apart_record
    for name, p in packed.params.items():
        assert p.tobytes() == apart.params[name].tobytes()
    # the same for adapters, whose stacks share one buffer: the apart run
    # trains stacks of their own
    apart = separate_storage(packed)
    plan = adapt.make_segment_plan(16, 4, lookback=8)
    for routing in ("soft", "one-hot"):
        results = []
        for foundation in (packed, apart):
            adapter = adapt.new_adapter(foundation, plan, n_experts=4, rank=2, seed=5,
                                        routing=routing)
            if foundation is apart:
                adapter.a = {name: a.copy() for name, a in adapter.a.items()}
                adapter.b = {name: b.copy() for name, b in adapter.b.items()}
            adapter, records = train.adapt_all_segments(foundation, plan, adapter, ds, cfg)
            results.append((adapt.adapter_state(adapter), [train.run_summary(r) for r in records]))
        assert results[0] == results[1], routing


# --- early stopping on constructed traces ---


def test_early_stopper_plateau_trace():
    es = train.EarlyStopper(patience=3)
    trace = [5.0, 4.0, 4.0, 4.0, 4.0]
    stopped_at = None
    for epoch, val in enumerate(trace):
        es.update(epoch, val)
        if es.should_stop:
            stopped_at = epoch
            break
    assert stopped_at == 4  # bad epochs are 2,3,4
    assert es.best_epoch == 1 and es.best_val == 4.0


def test_early_stopper_improvement_resets_counter():
    es = train.EarlyStopper(patience=2)
    for epoch, val in enumerate([5.0, 4.9, 4.8, 4.8, 4.7]):
        es.update(epoch, val)
        assert not es.should_stop
    es.update(5, 4.7)
    es.update(6, 4.7)
    assert es.should_stop
    assert es.best_epoch == 4


def test_early_stopper_tie_is_not_improvement():
    es = train.EarlyStopper(patience=1)
    es.update(0, 2.0)
    es.update(1, 2.0)
    assert es.should_stop
    assert es.best_epoch == 0


def test_early_stopper_patience_validation():
    with pytest.raises(ValueError):
        train.EarlyStopper(patience=0)


# --- pretraining ---


def test_pretrain_reduces_val_loss_and_freezes():
    ds = sine_dataset()
    m, rec = train.pretrain(ds, LIN8, 2, small_config(max_epochs=4, learning_rate=1e-2))
    assert m.frozen
    assert m.head_out == 2
    assert rec.stage == "pretrain"
    assert rec.best_val < rec.initial_val
    assert len(rec.epochs) <= 4
    assert rec.stop_reason in ("early_stop", "max_epochs")


def test_untrained_stage_says_so():
    # at lr 1 both epochs are worse than the initialisation (val losses
    # about 31 and 77 against 0.69), but not by DIVERGENCE_FACTOR
    ds = sine_dataset(n_points=80)
    with pytest.warns(RuntimeWarning, match=r"pretrain: no epoch improved .* loss \d"):
        m, rec = train.pretrain(ds, LIN8, 2, small_config(learning_rate=1.0))
    assert rec.best_epoch == 0
    assert rec.stop_reason == "no_improvement"
    assert len(rec.epochs) == 2
    assert min(e.val_loss for e in rec.epochs) > rec.initial_val
    assert max(e.val_loss for e in rec.epochs) < train.DIVERGENCE_FACTOR * rec.initial_val


def test_diverged_stage_says_so():
    # at lr 1e3 the first epoch's val loss is about 6e13 against an
    # untrained 0.69: the stage stops there and keeps its initialisation
    ds = sine_dataset(n_points=80)
    init = model.new_model(LIN8, head_out=2, seed=0)
    with pytest.warns(RuntimeWarning, match=r"pretrain: diverged at epoch 1") as caught:
        m, rec = train.pretrain(ds, LIN8, 2, small_config(learning_rate=1e3, max_epochs=4))
    assert not any("no epoch improved" in str(w.message) for w in caught)
    assert rec.stop_reason == "diverged"
    assert rec.best_epoch == 0 and len(rec.epochs) == 1
    assert rec.epochs[0].val_loss > train.DIVERGENCE_FACTOR * rec.initial_val
    for name, arr in init.params.items():
        assert np.array_equal(m.params[name], arr)


def test_a_diverged_lockstep_segment_leaves_the_fit():
    # two stages share one step; stage "b" reports a non-finite val loss at
    # epoch 2 and stops there, while "a" runs its full budget
    windows = data.windows(sine_dataset(n_points=80), 8, 2, "train")
    params = {"w": np.zeros(2)}
    vals = {"a": iter([1.0, 0.9, 0.8, 0.7]), "b": iter([1.0, 0.5, float("nan")])}
    stages = [train.Stage(name, i, lambda name=name: next(vals[name]), {"w": params["w"][i:i + 1]})
              for i, name in enumerate("ab")]

    def loss_grads(batch):
        return np.zeros(2), {"w": np.ones(2)}

    cfg = small_config(max_epochs=3, patience=3)
    with pytest.warns(RuntimeWarning, match="b: diverged at epoch 2"):
        rec_a, rec_b = train.fit(stages, windows, loss_grads, cfg, params)
    assert (rec_a.stop_reason, len(rec_a.epochs)) == ("max_epochs", 3)
    assert (rec_b.stop_reason, len(rec_b.epochs), rec_b.best_epoch) == ("diverged", 2, 1)


def test_pretrain_restores_best_epoch_weights():
    ds = sine_dataset()
    m, rec = train.pretrain(ds, LIN8, 2, small_config(max_epochs=4, learning_rate=1e-2))
    val_windows = data.windows(ds, 8, 2, "val")
    assert model.mse_loss(m, val_windows) == rec.best_val


def test_pretrain_determinism():
    ds = sine_dataset()
    cfg = small_config(max_epochs=3, seed=5)
    m1, r1 = train.pretrain(ds, LIN8, 2, cfg)
    m2, r2 = train.pretrain(ds, LIN8, 2, cfg)
    for name in m1.params:
        assert np.array_equal(m1.params.get(name), m2.params.get(name))
    assert train.run_summary(r1) == train.run_summary(r2)


def test_pretrain_no_windows_error():
    ds = sine_dataset(n_points=40)  # train split 28 rows, lookback 32 impossible
    with pytest.raises(ValueError):
        train.pretrain(ds, model.EncoderSpec(kind="linear", in_len=32), 2, small_config())


# --- adaptation ---


def make_adapted(ds, segments=2, horizon=4, experts=2, rank=2, seed=0, cfg=None, pre_cfg=None,
                 routing="soft"):
    pre_cfg = pre_cfg or small_config(max_epochs=1, seed=seed)
    seg = horizon // segments
    foundation, _ = train.pretrain(ds, LIN8, seg, pre_cfg)
    plan = adapt.make_segment_plan(horizon, segments, lookback=8)
    adapter = adapt.new_adapter(foundation, plan, n_experts=experts, rank=rank, seed=seed + 1,
                                routing=routing)
    cfg = cfg or small_config(max_epochs=2, seed=seed)
    adapter, records = train.adapt_all_segments(foundation, plan, adapter, ds, cfg)
    return foundation, plan, adapter, records


def row_metrics(forecast_fn, ds, lookback, horizon, split, first, rows):
    """evaluate_forecaster's metrics of the rows label rows from row first
    alone, steps keeping their absolute index, as adapt_all_segments
    measures a segment: StepErrors over the split's error stream of those
    rows."""
    steps = train.StepErrors(first, rows)
    for row, _, err in data.windows(ds, lookback, horizon, split).errors(forecast_fn, first, rows):
        steps.add(row, err)
    return steps.metrics(split)


def test_adapt_zero_init_epoch0_val_matches_foundation():
    ds = sine_dataset()
    pre_cfg = small_config(max_epochs=1, seed=3)
    foundation, _ = train.pretrain(ds, LIN8, 2, pre_cfg)
    plan = adapt.make_segment_plan(4, 2, lookback=8)
    adapter = adapt.new_adapter(foundation, plan, n_experts=2, rank=2, seed=9)
    _, records = train.adapt_all_segments(foundation, plan, adapter, ds, small_config(max_epochs=1))
    val_windows = data.windows(ds, 8, 4, "val")
    want = model.mse_loss(foundation, val_windows, plan.first_rows[0])
    assert records[0].initial_val == want  # zero-init adapted view is the foundation


def test_adapt_freezes_logits_and_leaves_foundation_untouched():
    ds = sine_dataset()
    pre_cfg = small_config(max_epochs=1)
    foundation, _ = train.pretrain(ds, LIN8, 2, pre_cfg)
    before = {n: arr.copy() for n, arr in foundation.params.items()}
    plan = adapt.make_segment_plan(4, 2, lookback=8)
    adapter = adapt.new_adapter(foundation, plan, n_experts=2, rank=2, seed=1)
    logits = {name: table.copy() for name, table in adapter.logits.items()}
    adapter, records = train.adapt_all_segments(foundation, plan, adapter, ds, small_config())
    assert adapter.routing == "soft"
    assert all(not np.array_equal(logits[n], adapter.logits[n]) for n in logits)
    assert [r.stage for r in records] == ["segment-1", "segment-2"]
    for n, arr in before.items():
        assert np.array_equal(arr, foundation.params.get(n))


def test_adapt_plan_mismatch_errors():
    ds = sine_dataset()
    foundation, _ = train.pretrain(ds, LIN8, 2, small_config(max_epochs=1))
    plan = adapt.make_segment_plan(4, 2, lookback=8)
    adapter = adapt.new_adapter(foundation, plan, 2, 2, seed=0)
    other = adapt.make_segment_plan(8, 4, lookback=8)
    with pytest.raises(ValueError):
        train.adapt_all_segments(foundation, other, adapter, ds, small_config())


@pytest.mark.parametrize("routing", ["soft", "one-hot"])
def test_adapt_refuses_an_adapter_built_on_another_foundation(routing):
    # two frozen foundations of the same shapes but different values
    ds = sine_dataset()
    plan = adapt.make_segment_plan(4, 2, lookback=8)
    built_on, other = (model.new_model(LIN8, head_out=2, seed=seed) for seed in (0, 1))
    for foundation in (built_on, other):
        foundation.freeze()
    adapter = adapt.new_adapter(built_on, plan, n_experts=2, rank=2, seed=0, routing=routing)
    before = adapt.adapter_state(adapter)  # every array, bit for bit
    with pytest.raises(ValueError, match="fitted on another foundation"):
        train.adapt_all_segments(other, plan, adapter, ds, small_config())
    assert adapt.adapter_state(adapter) == before
    assert adapter.foundation_sha256 == adapt.foundation_digest(built_on)


def test_adapt_single_segment_and_forecast_identity():
    ds = sine_dataset()
    foundation, plan, adapter, records = None, None, None, None
    foundation, _ = train.pretrain(ds, LIN8, 4, small_config(max_epochs=1))
    plan = adapt.make_segment_plan(4, 1, lookback=8)
    hist = data.windows(ds, 8, 4, "test")[0].history
    # soft routing over two experts, and one-hot routing of one expert,
    # which is a lockstep fit of a single segment
    for routing, experts in (("soft", 2), ("one-hot", 1)):
        adapter = adapt.new_adapter(foundation, plan, n_experts=experts, rank=2, seed=2,
                                    routing=routing)
        assert adapter.routing == routing
        adapter, records = train.adapt_all_segments(foundation, plan, adapter, ds, small_config())
        assert len(records) == 1
        assert all(type(e.train_loss) is float for e in records[0].epochs)
        view = adapt.adapted_model(foundation, adapter, 1)
        assert np.array_equal(train.mola_forecast(foundation, adapter, hist),
                              model.forecast(view, hist))


def test_adapt_drift_matches_a_reloaded_adapter(tmp_path):
    ds = sine_dataset(noise=0.1)
    cfg = small_config(learning_rate=3e-2, max_epochs=4, patience=4)
    foundation, plan, adapter, records = make_adapted(ds, segments=3, horizon=6, cfg=cfg)
    path = tmp_path / "adapter.json"
    _io.write_json(path, adapt.adapter_state(adapter))
    loaded = adapt.load_adapter(path)
    for k, rec in enumerate(records, start=1):
        again = row_metrics(lambda h: model.forecast(adapt.adapted_model(foundation, loaded, k), h),
                            ds, 8, plan.horizon, "val", plan.first_rows[k - 1], plan.seg_len)
        drift = train.run_summary(rec)["drift"]
        assert drift == {"val_mse_at_freeze": rec.final_metrics["mse"],
                         "val_mse_final": again["mse"],
                         "val_mse_change": again["mse"] - rec.final_metrics["mse"]}
        assert all(np.isfinite(v) for v in drift.values())
    # later segments kept training the shared experts; the last one is as it froze
    assert records[0].drift["val_mse_change"] != 0.0
    assert records[-1].drift["val_mse_change"] == 0.0
    *_, rerun = make_adapted(ds, segments=3, horizon=6, cfg=cfg)
    assert [_io.canonical_dumps(train.run_summary(r)) for r in rerun] == [
        _io.canonical_dumps(train.run_summary(r)) for r in records]


def test_one_hot_adaptation_does_not_drift():
    ds = sine_dataset(noise=0.1)
    cfg = small_config(learning_rate=3e-2, max_epochs=4, patience=4)
    *_, records = make_adapted(ds, segments=3, horizon=6, experts=3, cfg=cfg, routing="one-hot")
    for rec in records:
        assert rec.drift["val_mse_final"] == rec.drift["val_mse_at_freeze"]
        assert rec.drift["val_mse_change"] == 0.0


@pytest.mark.parametrize("routing, experts, passes", [("soft", 2, 3 + 2), ("one-hot", 3, 3)])
def test_last_fit_validates_its_segments_once(monkeypatch, routing, experts, passes):
    # nothing changes the adapter after the last fit (segment K under soft
    # routing, the whole lockstep under one-hot), so its segments keep their
    # at-freeze val MSE as the final one instead of a second pass
    ds = sine_dataset(noise=0.1)
    foundation, _ = train.pretrain(ds, LIN8, 2, small_config(max_epochs=1))
    plan = adapt.make_segment_plan(6, 3, lookback=8)
    adapter = adapt.new_adapter(foundation, plan, n_experts=experts, rank=2, seed=1,
                                routing=routing)
    calls = []

    class Counting(train.StepErrors):  # one per validation pass
        def __init__(self, first, steps):
            calls.append((first, steps))
            super().__init__(first, steps)

    monkeypatch.setattr(train, "StepErrors", Counting)
    cfg = small_config(learning_rate=3e-2, max_epochs=3, patience=3)
    adapter, records = train.adapt_all_segments(foundation, plan, adapter, ds, cfg)
    assert len(calls) == passes and set(calls) == {(a, plan.seg_len) for a in plan.first_rows}
    monkeypatch.undo()
    for k, rec in enumerate(records, start=1):
        lo = plan.first_rows[k - 1]
        # a segment's steps keep their absolute index
        assert [r["step"] for r in rec.final_metrics["per_step"]] == list(range(lo, lo + plan.seg_len))
        again = row_metrics(lambda h: model.forecast(adapt.adapted_model(foundation, adapter, k), h),
                            ds, 8, plan.horizon, "val", lo, plan.seg_len)
        assert rec.drift == {"val_mse_at_freeze": rec.final_metrics["mse"],
                             "val_mse_final": again["mse"],
                             "val_mse_change": again["mse"] - rec.final_metrics["mse"]}


def test_one_hot_segments_fit_in_lockstep_as_if_alone(monkeypatch):
    # K=4 one-hot segments fitted in one lockstep fit match the independent
    # per-segment LoRA trainer bit for bit, also when they stop at
    # different epochs
    ds = data.standardize(data.generate_synthetic(data.default_synth_spec(n_points=400, seed=5)))
    spec = model.EncoderSpec(kind="mlp2", in_len=8, hidden=(8, 5))
    foundation, _ = train.pretrain(ds, spec, 4, small_config(learning_rate=1e-2, max_epochs=3))
    cfg = small_config(learning_rate=3e-2, max_epochs=12, patience=2, seed=11)
    plan = adapt.make_segment_plan(16, 4, lookback=8)
    adapter = adapt.new_adapter(foundation, plan, n_experts=4, rank=2, seed=11, routing="one-hot")
    steps = []
    real = adapt.segment_grads

    def recording(foundation, adapter, k, batch):
        steps.append(k)
        return real(foundation, adapter, k, batch)

    monkeypatch.setattr(adapt, "segment_grads", recording)
    adapter, records = train.adapt_all_segments(foundation, plan, adapter, ds, cfg)
    # one stacked step per batch for all four segments
    assert steps and all(k is None for k in steps)
    assert len({len(rec.epochs) for rec in records}) > 1

    ref = reference_lora.train_all_segments(foundation, ds, 16, 4, rank=2, seed=11, config=cfg)
    for k, (rec, (pairs, initial_val, epochs)) in enumerate(zip(records, ref), start=1):
        assert rec.initial_val == initial_val
        assert [(e.train_loss, e.val_loss) for e in rec.epochs] == epochs
        best_val, best_epoch, bad = initial_val, 0, 0
        for epoch, (_, val) in enumerate(epochs, start=1):
            if val < best_val:
                best_val, best_epoch, bad = val, epoch, 0
            else:
                bad += 1
        assert (rec.best_epoch, rec.best_val) == (best_epoch, best_val)
        want_reason = ("no_improvement" if best_epoch == 0
                       else "early_stop" if bad >= cfg.patience else "max_epochs")
        assert rec.stop_reason == want_reason
        for name in adapter.adapted_layers:
            expert = adapter.experts[name][k - 1]
            assert expert.b_mat.tobytes() == pairs[name]["b"].tobytes()
            assert expert.a_mat.tobytes() == pairs[name]["a"].tobytes()
    assert {rec.stop_reason for rec in records} >= {"early_stop"}
    # the segments of one fit share its wall time
    assert len({rec.wall_time_s for rec in records}) == 1


def test_soft_segments_still_train_one_after_another(monkeypatch):
    # soft routing couples the segments through the shared experts, so
    # segment 2 starts from the experts segment 1 left behind
    ds = sine_dataset(noise=0.1)
    foundation, _ = train.pretrain(ds, LIN8, 2, small_config(max_epochs=1))
    plan = adapt.make_segment_plan(4, 2, lookback=8)
    adapter = adapt.new_adapter(foundation, plan, n_experts=2, rank=2, seed=1)
    assert adapter.routing == "soft"

    def stacks():
        return {name: (adapter.a[name].copy(), adapter.b[name].copy())
                for name in adapter.adapted_layers}

    initial, first_step, after_fit = stacks(), {}, []
    real_grads, real_fit = adapt.segment_grads, train.fit

    def recording_grads(foundation, adapter, k, batch):
        first_step.setdefault(k, stacks())
        return real_grads(foundation, adapter, k, batch)

    def recording_fit(stages, *args, **kwargs):
        records = real_fit(stages, *args, **kwargs)
        after_fit.append(stacks())
        return records

    monkeypatch.setattr(adapt, "segment_grads", recording_grads)
    monkeypatch.setattr(train, "fit", recording_fit)
    train.adapt_all_segments(foundation, plan, adapter, ds,
                             small_config(learning_rate=3e-2, max_epochs=3, patience=3))
    assert sorted(first_step) == [1, 2] and len(after_fit) == 2
    for name, (a, b) in first_step[2].items():
        assert a.tobytes() == after_fit[0][name][0].tobytes()
        assert b.tobytes() == after_fit[0][name][1].tobytes()
        assert not np.array_equal(b, initial[name][1])


# --- concatenated inference ---


def test_mola_forecast_zero_init_repeats_foundation_segment():
    ds = sine_dataset()
    foundation, _ = train.pretrain(ds, LIN8, 2, small_config(max_epochs=1))
    plan = adapt.make_segment_plan(6, 3, lookback=8)
    adapter = adapt.new_adapter(foundation, plan, n_experts=2, rank=2, seed=4)
    hist = data.windows(ds, 8, 6, "test")[0].history
    out = train.mola_forecast(foundation, adapter, hist)
    base = model.forecast(foundation, hist)
    assert out.shape == (6, 2)
    for k in range(3):
        assert np.array_equal(out[2 * k : 2 * k + 2], base)


def test_mola_forecast_rows_come_from_their_segment():
    ds = sine_dataset()
    foundation, _ = train.pretrain(ds, LIN8, 2, small_config(max_epochs=1))
    plan = adapt.make_segment_plan(4, 2, lookback=8)
    adapter = adapt.new_adapter(foundation, plan, n_experts=2, rank=2, seed=5)
    adapt.freeze_one_hot_routing(adapter)
    rng = np.random.default_rng(6)
    for name in adapter.adapted_layers:  # give each expert its own signature
        for e in adapter.experts[name]:
            e.b_mat[:] = rng.normal(size=e.b_mat.shape)
    hist = data.windows(ds, 8, 4, "test")[0].history
    out = train.mola_forecast(foundation, adapter, hist)
    for k in (1, 2):
        view = adapt.adapted_model(foundation, adapter, k)
        lo = plan.first_rows[k - 1]
        assert np.array_equal(out[lo - 1 : lo - 1 + plan.seg_len], model.forecast(view, hist))
    assert not np.array_equal(out[0:2], out[2:4])


def random_mola(horizon, segments, routing, seed=0):
    """An untrained frozen linear foundation and an adapter whose experts
    (and, under soft routing, mixing rows) are random, so that every
    segment's rows come from a different view."""
    foundation = model.new_model(LIN8, head_out=horizon // segments, seed=seed)
    foundation.freeze()
    plan = adapt.make_segment_plan(horizon, segments, lookback=8)
    adapter = adapt.new_adapter(foundation, plan, n_experts=segments if routing == "one-hot" else 2,
                                rank=2, seed=seed, routing=routing)
    rng = np.random.default_rng(seed)
    for name in adapter.adapted_layers:
        adapter.b[name][:] = rng.normal(size=adapter.b[name].shape)
        if routing == "soft":
            adapter.logits[name][:] = rng.normal(size=adapter.logits[name].shape)
    return foundation, adapter


@pytest.mark.parametrize("segments", [1, 2, 4])
def test_mola_forecast_target_rows_are_rows_of_the_whole_forecast(segments):
    # segment k's forecast is bitwise its target rows, the seg_len rows from
    # row plan.first_rows[k - 1], of the stitched T-step forecast
    foundation, adapter = random_mola(8, segments, "soft")
    hist = data.windows(sine_dataset(), 8, 8, "test").history_block()
    whole = train.mola_forecast(foundation, adapter, hist)
    assert whole.shape == (8, hist.shape[1])
    for k, lo in enumerate(adapter.plan.first_rows, start=1):
        rows = train.mola_forecast(foundation, adapter, hist, k)
        assert rows.tobytes() == whole[lo - 1 : lo - 1 + adapter.plan.seg_len].tobytes()


@pytest.mark.parametrize("rows", [(0, 3), (1, 10), (2, 3), (3, 3), (1, 3), (5, 0), (3, 0)])
def test_mola_forecast_rejects_rows_that_are_not_whole_segments(rows):
    # a (first row, count) range reaches a mola model's forecasts only
    # through the error stream of its per-segment forecaster, which refuses
    # rows outside 1..T, no rows, and rows that do not split into one equal
    # block per segment
    foundation, adapter = random_mola(8, 4, "soft")
    ws = data.windows(sine_dataset(), 8, 8, "test")
    with pytest.raises(ValueError, match="label rows"):
        ws.errors(train.mola_forecaster(foundation, adapter), *rows)


@pytest.mark.parametrize("routing", ["soft", "one-hot"])
@pytest.mark.parametrize("k", [0, -1, 5])
def test_mola_forecast_rejects_a_segment_index_outside_the_plan(routing, k):
    foundation, adapter = random_mola(8, 4, routing)
    hist = data.windows(sine_dataset(), 8, 8, "test")[0].history
    with pytest.raises(ValueError, match="segment index"):
        train.mola_forecast(foundation, adapter, hist, k)


# --- baselines ---


def test_mtf_t1_coincides_with_s1_pretraining():
    ds = sine_dataset()
    cfg = small_config(max_epochs=3, seed=11)
    mtf, rec_m = train.mtf_train(ds, LIN8, 1, cfg)
    pre, rec_p = train.pretrain(ds, LIN8, 1, cfg)
    for name in mtf.params:
        assert np.array_equal(mtf.params.get(name), pre.params.get(name))
    assert [e.val_loss for e in rec_m.epochs] == [e.val_loss for e in rec_p.epochs]


@pytest.mark.parametrize("spec", [LIN8, model.EncoderSpec(kind="mlp2", in_len=8, hidden=(6, 4),
                                                          activation="tanh")],
                         ids=["linear", "mlp2"])
def test_pretrain_is_the_arf_and_mtf_fit_at_their_horizons(spec):
    # a sweep keeps one fit per horizon and uses it for arf (1), mtf (T) and
    # every foundation (T/K), so the three must be one fit byte for byte
    ds = sine_dataset()
    cfg = small_config(learning_rate=1e-2, max_epochs=3, seed=7)
    for horizon, (m, _) in [(1, train.arf_train(ds, spec, cfg)),
                            (6, train.mtf_train(ds, spec, 6, cfg))]:
        pre, _ = train.pretrain(ds, spec, horizon, cfg)
        assert list(pre.params) == list(m.params)
        for name in m.params:
            assert pre.params[name].tobytes() == m.params[name].tobytes(), (horizon, name)


def test_mtf_fits_noiseless_linear_recursion():
    # noise-free sine obeys an exact order-2 linear recursion, so a linear
    # encoder + head can drive val MSE to ~0; check training actually gets there
    ds = sine_dataset(n_points=300, noise=0.0)
    cfg = small_config(learning_rate=1e-2, max_epochs=60, patience=60, batch_size=8)
    m, rec = train.mtf_train(ds, LIN8, 2, cfg)
    assert rec.best_val <= 1e-3
    assert model.forecast(m, data.windows(ds, 8, 2, "test")[0].history).shape == (2, 2)


def test_arf_train_is_single_step_foundation():
    ds = sine_dataset()
    cfg = small_config(max_epochs=2, seed=13)
    m, rec = train.arf_train(ds, LIN8, cfg)
    assert m.head_out == 1
    assert rec.stage == "arf"


# --- evaluation ---


def test_evaluate_forecaster_per_step_shape_and_average():
    ds = sine_dataset()
    m = model.new_model(LIN8, head_out=3, seed=21)
    out = train.evaluate_forecaster(lambda h: model.forecast(m, h), ds, 8, 3, split="test")
    assert [row["step"] for row in out["per_step"]] == [1, 2, 3]
    assert out["mse"] == pytest.approx(np.mean([r["mse"] for r in out["per_step"]]), abs=1e-15)
    assert out["mae"] == pytest.approx(np.mean([r["mae"] for r in out["per_step"]]), abs=1e-15)
    wins = data.windows(ds, 8, 3, "test")
    preds = np.stack([model.forecast(m, w.history) for w in wins])
    labels = np.stack([w.label for w in wins])
    want = float(np.mean((preds[:, 0, :] - labels[:, 0, :]) ** 2))
    assert out["per_step"][0]["mse"] == pytest.approx(want, rel=1e-12)


def test_evaluate_forecaster_rejects_bad_shape():
    ds = sine_dataset()
    m = model.new_model(LIN8, head_out=2, seed=23)
    with pytest.raises(ValueError):
        train.evaluate_forecaster(lambda h: model.forecast(m, h), ds, 8, 3, split="test")


def row_blocks(forecast_fn, bounds):
    """A forecaster that hands the forecast of ``forecast_fn`` over as the
    row blocks (lo, hi) of ``bounds``, one callable per block."""
    return [lambda h, lo=lo, hi=hi: forecast_fn(h)[lo - 1 : hi] for lo, hi in bounds]


@pytest.mark.parametrize("routing", ["soft", "one-hot"])
@pytest.mark.parametrize("horizon, segments, d", [(8, 4, 2), (4, 4, 2), (6, 3, 1), (4, 4, 1)])
def test_block_scoring_is_bitwise_one_array_scoring(routing, horizon, segments, d):
    # segments of one row and single channels included: each step's mean
    # sums the same contiguous row of errors whichever block it is in
    ds = sine_dataset(d=d, noise=0.1)
    foundation, adapter = random_mola(horizon, segments, routing)
    def whole(h):
        return train.mola_forecast(foundation, adapter, h)

    blocks = train.mola_forecaster(foundation, adapter)
    for split in ("val", "test"):
        want = train.evaluate_forecaster(whole, ds, 8, horizon, split=split)
        got = train.evaluate_forecaster(blocks, ds, 8, horizon, split=split)
        assert _io.canonical_dumps(got) == _io.canonical_dumps(want)
        wins = data.windows(ds, 8, horizon, split)
        [(_, _, err)] = wins.errors(whole)
        parts = list(wins.errors(blocks))
        assert [(row, p.shape[0]) for row, _, p in parts] == [
            (a, horizon // segments) for a in adapter.plan.first_rows]
        assert np.concatenate([p for _, _, p in parts]).tobytes() == err.tobytes()
    # one segment's rows alone: its steps keep their absolute index and values
    seg_len = adapter.plan.seg_len
    for k, lo in enumerate(adapter.plan.first_rows, start=1):
        got = row_metrics(lambda h: train.mola_forecast(foundation, adapter, h, k), ds, 8,
                          horizon, "test", lo, seg_len)
        assert got["per_step"] == want["per_step"][lo - 1 : lo - 1 + seg_len]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_one_row_blocks_score_like_the_whole_forecast(d):
    ds = sine_dataset(d=d, noise=0.1)
    m = model.new_model(LIN8, head_out=7, seed=24)
    def whole(h):
        return model.forecast(m, h)

    want = train.evaluate_forecaster(whole, ds, 8, 7)
    # numpy's means over each step's row of the whole (T, N, D) error array
    [(_, _, err)] = data.windows(ds, 8, 7, "test").errors(whole)
    assert err.shape == (7, len(data.windows(ds, 8, 7, "test")), d) and err.flags.c_contiguous
    assert [r["mse"] for r in want["per_step"]] == (err * err).mean(axis=(1, 2)).tolist()
    assert [r["mae"] for r in want["per_step"]] == np.abs(err).mean(axis=(1, 2)).tolist()
    # seven one-row blocks, and a sequence of one block
    for bounds in ([(t, t) for t in range(1, 8)], [(1, 7)]):
        got = train.evaluate_forecaster(row_blocks(whole, bounds), ds, 8, 7)
        assert _io.canonical_dumps(got) == _io.canonical_dumps(want)


@pytest.mark.parametrize("bounds", [[(1, 2)], [(1, 2), (2, 4)], [(1, 3), (3, 4)], [(1, 4), (5, 4)],
                                    [(1, 1), (2, 4)], [(1, 1), (2, 2), (3, 4)]])
def test_evaluate_forecaster_rejects_blocks_that_miss_the_rows(bounds):
    # a sequence of n callables is n equal blocks of consecutive rows
    ds = sine_dataset()
    m = model.new_model(LIN8, head_out=4, seed=25)
    blocks = row_blocks(lambda h: model.forecast(m, h), bounds)
    with pytest.raises(ValueError, match="forecast block"):
        train.evaluate_forecaster(blocks, ds, 8, 4)


@pytest.mark.parametrize("rows", [[], [(3, 2)], [(3, 1), (4, 1)], [(4, 2)], [(3, 1), (5, 1)],
                                  [(3, 3), (3, 2)], [(3, 3), (5, 1)], [(3, 1), (4, 2), (4, 1)]])
def test_step_errors_refuse_blocks_that_miss_steps_first_to_last(rows):
    # steps 3..5: blocks of (first row, row count) that miss a step, or
    # score one step over more windows than another, yield no metrics
    steps = train.StepErrors(3, 3)
    for row, r in rows:
        steps.add(row, np.ones((r, 4, 2)))
    with pytest.raises(ValueError, match=r"steps 3..5 were scored over \[.*\] windows per step"):
        steps.metrics("test")


@pytest.mark.parametrize("row, r", [(2, 1), (1, 3), (6, 1), (5, 2), (4, 3)])
def test_step_errors_refuse_a_block_outside_their_steps(row, r):
    steps = train.StepErrors(3, 3)
    with pytest.raises(ValueError, match=rf"a block of steps {row}..{row + r - 1} is outside "
                                         "steps 3..5"):
        steps.add(row, np.ones((r, 4, 2)))


@pytest.mark.parametrize("target, n_windows", [((1, 48), 2690), ((49, 96), 592), ((3, 4), None)])
def test_val_loss_is_the_mean_of_the_evaluation_error_block(target, n_windows):
    # mse_loss and evaluation are one pass: the loss sums the squared
    # errors evaluation scores chunk by chunk, in chunk order, over their
    # count, which for one chunk is numpy's flat mean of the block
    if n_windows is None:
        ds, spec, lookback, horizon = sine_dataset(d=2, noise=0.1), LIN8, 8, 6
    else:
        ds, spec, lookback, horizon = etth_split(n_windows), ETTH_SPEC, 96, 192
    first, last = target
    m = model.new_model(spec, head_out=last - first + 1, seed=3)
    wins = data.windows(ds, lookback, horizon, "val")
    err = error_array(wins.errors(lambda h: model.forecast(m, h), first, m.head_out))
    want = float(chunk_order_sum(err * err, wins.chunks(), None) / err.size)
    assert model.mse_loss(m, wins, first).hex() == want.hex()
    flat_mean = float((err * err).mean())
    if len(wins.chunks()) == 1:
        assert want.hex() == flat_mean.hex()
    assert abs(want - flat_mean) <= 1e-15 * flat_mean


def test_passes_over_no_windows_raise():
    # a mean over no windows would be NaN: the pass refuses the empty set
    m = model.new_model(LIN8, head_out=2, seed=4)
    wins = data.windows(sine_dataset(), 8, 2, "val")[:0]
    with pytest.raises(ValueError, match="no windows"):
        model.mse_loss(m, wins)
    with pytest.raises(ValueError, match="no windows"):
        wins.errors(lambda h: model.forecast(m, h))


def test_scoring_segment_blocks_never_holds_a_whole_horizon_array():
    # T = 32 in K = 4 segments over 8 history rows: the forecast block and
    # the error array of the whole horizon are 32 rows each, while history,
    # one segment's forecast and its errors are 8 rows each
    ds = sine_dataset(n_points=20_000, d=4, noise=0.1)
    foundation, adapter = random_mola(32, 4, "one-hot")
    n = len(data.windows(ds, 8, 32, "test"))
    row = n * ds.d_channels * 8  # bytes of one float64 row of the (., N*D) blocks
    forecaster = train.mola_forecaster(foundation, adapter)
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        metrics = train.evaluate_forecaster(forecaster, ds, 8, 32)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert metrics["n_windows"] == n > 1000
    assert peak < 1.25 * (8 + 2 * 8) * row, f"peak {peak / row:.1f} rows"


# --- whole-split passes in window chunks ---


ETTH_SPEC = model.EncoderSpec(kind="mlp2", in_len=96, hidden=(32, 16), activation="relu")


def etth_split(n_windows, d=7, seed=0):
    """A standardized d-channel dataset whose val and test splits each hold
    exactly ``n_windows`` windows of lookback 96 and horizon 192."""
    rows, train_end = n_windows + 191, 96 + 192 + 32
    values = np.random.default_rng(seed).normal(size=(train_end + 2 * rows, d))
    return data.standardize(data.SeriesDataset(
        values=values, channel_names=[f"c{c}" for c in range(d)],
        train_end=train_end, val_end=train_end + rows))


def etth_mola(seed=0):
    """An untrained frozen foundation of etth_cli_soft's shapes (mlp2
    (32, 16) relu, lookback 96, 48-row head) and a soft adapter (K = P = 4,
    rank 4) with random experts and mixing rows."""
    foundation = model.new_model(ETTH_SPEC, head_out=48, seed=seed)
    foundation.freeze()
    adapter = adapt.new_adapter(foundation, adapt.make_segment_plan(192, 4), 4, 4, seed=seed)
    rng = np.random.default_rng(seed)
    for name in adapter.adapted_layers:
        adapter.b[name][:] = 0.1 * rng.normal(size=adapter.b[name].shape)
        adapter.logits[name][:] = rng.normal(size=adapter.logits[name].shape)
    return foundation, adapter


def error_array(stream):
    """The (rows, N, D) error array of the stream of ``WindowSet.errors``,
    each block written at its label rows and windows."""
    blocks = list(stream)
    first = min(row for row, _, _ in blocks)
    last = max(row + err.shape[0] - 1 for row, _, err in blocks)
    n = max(windows.stop for _, windows, _ in blocks)
    out = np.full((last - first + 1, n, blocks[0][2].shape[2]), np.nan)
    for row, windows, err in blocks:
        out[row - first : row - first + err.shape[0], windows] = err
    return out


def chunk_order_sum(values, chunks, axis):
    """np.add.reduce over ``axis`` of each window chunk of a (rows, N, D)
    array, as the C-contiguous block a pass holds, summed in chunk order:
    the reduction of mse_loss (axis None) and of StepErrors (axis (1, 2))."""
    total = 0.0
    for part in chunks:
        total = total + np.add.reduce(np.ascontiguousarray(values[:, part]), axis=axis)
    return total


def chunk_order_metrics(err, chunks, first, split):
    """evaluate_forecaster's metrics of a (rows, N, D) error array, reduced
    in ``chunks``."""
    count = err.shape[1] * err.shape[2]
    mse = chunk_order_sum(err * err, chunks, (1, 2)) / count
    mae = chunk_order_sum(np.abs(err), chunks, (1, 2)) / count
    return {"split": split, "n_windows": err.shape[1],
            "per_step": [{"step": first + j, "mse": float(a), "mae": float(b)}
                         for j, (a, b) in enumerate(zip(mse, mae))],
            "mse": float(np.mean(mse)), "mae": float(np.mean(mae))}


def whole_split_passes(ds, foundation, adapter):
    """Every no-gradient pass over a split: val losses; evaluation of one
    forecaster and of the mola forecaster, and the destandardized metrics
    of eval --destandardized (its second StepErrors); and as bytes, the
    mola forecaster's test error array, analyze variance's loss samples and
    the test windows' hash."""
    val, test = data.windows(ds, 96, 192, "val"), data.windows(ds, 96, 192, "test")
    firsts = adapter.plan.first_rows
    losses = [model.mse_loss(foundation, val), model.mse_loss(foundation, val, firsts[2]),
              *(adapt.segment_loss(foundation, adapter, k, val) for k in (1, 4))]
    forecaster = train.mola_forecaster(foundation, adapter)
    raw = train.StepErrors(1, 192)
    for row, _, err in test.errors(forecaster):
        raw.add(row, err * ds.norm_stats.std)
    metrics = [
        row_metrics(lambda h: model.forecast(foundation, h), ds, 96, 192, "val", firsts[1],
                    adapter.plan.seg_len),
        train.evaluate_forecaster(forecaster, ds, 96, 192),
        raw.metrics("test"),
    ]
    errors = error_array(test.errors(forecaster))
    arrays = [errors.tobytes(), cli._per_step_loss_samples(forecaster, ds, 96, 192, "test").tobytes(),
              analysis.window_set_hash(data.windows(ds, 96, 192, "test"))]
    return losses, metrics, arrays


def chunk_order_passes(ds, foundation, adapter):
    """The losses and metrics of whole_split_passes, reduced test side from
    the passes' error arrays in the window chunks of each split."""
    val_chunks = data.windows(ds, 96, 192, "val").chunks()
    test_chunks = data.windows(ds, 96, 192, "test").chunks()
    firsts = adapter.plan.first_rows

    def errors(m, split, first):
        return error_array(data.windows(ds, 96, 192, split).errors(
            lambda h: model.forecast(m, h), first, adapter.plan.seg_len))

    losses = []
    for m, first in [(foundation, firsts[0]), (foundation, firsts[2]),
                     *((adapt.adapted_model(foundation, adapter, k), firsts[k - 1]) for k in (1, 4))]:
        err = errors(m, "val", first)
        losses.append(float(chunk_order_sum(err * err, val_chunks, None) / err.size))
    test = error_array(data.windows(ds, 96, 192, "test").errors(
        train.mola_forecaster(foundation, adapter)))
    metrics = [chunk_order_metrics(errors(foundation, "val", firsts[1]), val_chunks, 49, "val"),
               chunk_order_metrics(test, test_chunks, 1, "test"),
               chunk_order_metrics(test * ds.norm_stats.std, test_chunks, 1, "test")]
    return losses, metrics


def metric_values(metrics):
    """Every float of a metrics dict."""
    return [*(r[key] for r in metrics["per_step"] for key in ("mse", "mae")),
            metrics["mse"], metrics["mae"]]


def check_chunked_passes(ds, foundation, adapter, one_chunk):
    """The contract of chunked whole-split passes, against the same passes
    after ``one_chunk()`` makes every split one chunk: error arrays, loss
    samples and window hashes bytewise equal; losses and metrics exactly
    the test-side chunk-order sums and within 1e-15 relative of one chunk,
    and bitwise equal where every split is one chunk anyway."""
    n_chunks = len(data.windows(ds, 96, 192, "test").chunks())
    losses, metrics, arrays = whole_split_passes(ds, foundation, adapter)
    want_losses, want_metrics = chunk_order_passes(ds, foundation, adapter)
    assert [x.hex() for x in losses] == [x.hex() for x in want_losses]
    assert [_io.canonical_dumps(m) for m in metrics] == [_io.canonical_dumps(m)
                                                         for m in want_metrics]
    one_chunk()
    assert len(data.windows(ds, 96, 192, "test").chunks()) == 1
    whole_losses, whole_metrics, whole_arrays = whole_split_passes(ds, foundation, adapter)
    assert arrays == whole_arrays
    got = losses + [x for m in metrics for x in metric_values(m)]
    want = whole_losses + [x for m in whole_metrics for x in metric_values(m)]
    gap = max(abs(a - b) / abs(b) for a, b in zip(got, want))
    assert gap <= 1e-15, f"chunked sums {gap:.3g} relative from one chunk's"
    if n_chunks == 1:
        assert (got, metrics) == (want, whole_metrics)


@pytest.mark.parametrize("n_windows, d, n_chunks", [
    (292, 7, 1),  # 2044 columns, below the 2048-column budget
    (256, 8, 1),  # 2048 columns, at it
    (293, 7, 1),  # 2051 columns, above it, but fewer than two chunks of 296 windows
    (592, 7, 2),  # two chunks of 296 windows
    (2690, 7, 9),  # etth_cli_soft's test split: eight of 296, the remainder merged into a ninth
])
def test_chunked_passes_are_bitwise_one_chunk_passes(monkeypatch, n_windows, d, n_chunks):
    # forecasts and errors keep their bits; losses and metrics differ from
    # one chunk's only by summation order
    ds = etth_split(n_windows, d)
    foundation, adapter = etth_mola()
    for split in ("val", "test"):
        assert len(data.windows(ds, 96, 192, split).chunks()) == n_chunks
    check_chunked_passes(ds, foundation, adapter,
                         lambda: monkeypatch.setattr(data, "_CHUNK_COLUMNS", 10**9))


def test_chunked_passes_are_bitwise_one_chunk_passes_on_one_blas_thread():
    # perfbench pins BLAS to one thread, where chunks too narrow for the
    # budget round differently while two threads still hide it (see
    # data._CHUNK_COLUMNS); run the 9-chunk case in processes of their own
    # on one BLAS thread and on two
    code = ("import test_train\n"
            "from mola import data\n"
            "ds, (f, a) = test_train.etth_split(2690), test_train.etth_mola()\n"
            "test_train.check_chunked_passes(ds, f, a,\n"
            "    lambda: setattr(data, '_CHUNK_COLUMNS', 10**9))\n")
    path = os.pathsep.join([str(Path(model.__file__).resolve().parents[1]),
                            str(Path(__file__).resolve().parent)])
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, f"{threads} BLAS threads: {out.stderr}"


def test_whole_split_passes_never_hold_the_split_history_block():
    # the (L, N*D) history block of all windows is what a pass of one chunk
    # gathers; passes over 9 chunks hold one chunk's blocks and activations
    ds = etth_split(2690)
    foundation, adapter = etth_mola()
    val = data.windows(ds, 96, 192, "val")
    assert len(val.chunks()) >= 3
    history_bytes = 96 * len(val) * ds.d_channels * 8
    passes = {
        "mse_loss": lambda: model.mse_loss(foundation, val),
        "segment_loss": lambda: adapt.segment_loss(foundation, adapter, 2, val),
        "forecast": lambda: row_metrics(
            lambda h: model.forecast(foundation, h), ds, 96, 192, "val", 1, 48),
        "mola": lambda: train.evaluate_forecaster(
            train.mola_forecaster(foundation, adapter), ds, 96, 192, "val"),
    }
    tracemalloc.start()
    try:
        for name, run in passes.items():
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            run()
            peak = tracemalloc.get_traced_memory()[1] - held
            assert peak < history_bytes, f"{name}: peak {peak / history_bytes:.2f} history blocks"
    finally:
        tracemalloc.stop()


def test_whole_split_pass_peaks_stay_level_as_the_split_grows():
    # 1184 and 4736 windows are 4 and 16 chunks of 296 at etth shapes: a
    # pass holds one chunk's rows, so its peak does not grow with the split,
    # where one (rows, N*D) block of the split would grow fourfold
    peaks = {}
    for n in (1184, 4736):
        ds = etth_split(n)
        foundation, adapter = etth_mola()
        val = data.windows(ds, 96, 192, "val")
        passes = {
            "mse_loss": lambda: model.mse_loss(foundation, val),
            "segment_loss": lambda: adapt.segment_loss(foundation, adapter, 2, val),
            "evaluate_forecaster": lambda: train.evaluate_forecaster(
                train.mola_forecaster(foundation, adapter), ds, 96, 192, "val"),
            "window_set_hash": lambda: analysis.window_set_hash(val),
        }
        tracemalloc.start()
        try:
            for name, run in passes.items():
                held = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                run()
                peaks[name, n] = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
    for name in passes:
        small, large = peaks[name, 1184], peaks[name, 4736]
        assert large < 1.05 * small, f"{name}: peak {small / 1e6:.2f} -> {large / 1e6:.2f} MB"


def test_step_errors_refuse_a_stream_that_skipped_one_chunk():
    # 600 test windows are chunks of 296 and 304, each scored in four
    # segment blocks: a stream without any one block scores its steps over
    # fewer windows, and one that swaps whole blocks of chunk 1 for blocks
    # of chunk 2 scores steps over different windows
    ds = etth_split(600)
    foundation, adapter = etth_mola()
    blocks = list(data.windows(ds, 96, 192, "test").errors(train.mola_forecaster(foundation,
                                                                                 adapter)))
    assert [(row, w, b.shape[:2]) for row, w, b in blocks] == [
        (row, w, (48, w.stop - w.start)) for w in (slice(0, 296), slice(296, 600))
        for row in (1, 49, 97, 145)]
    streams = [blocks[:i] + blocks[i + 1 :] for i in range(8)] + [[blocks[0], *blocks[5:]]]
    for stream in streams:
        steps = train.StepErrors(1, 192)
        for row, _, err in stream:
            steps.add(row, err.copy())
        with pytest.raises(ValueError, match=r"steps 1..192 were scored over \[.*\] windows per "
                                             "step"):
            steps.metrics("test")
    steps = train.StepErrors(1, 192)
    for row, _, err in blocks:
        steps.add(row, err.copy())
    assert steps.metrics("test")["n_windows"] == 600


@pytest.mark.parametrize("case", ["compare_onehot", "at_the_budget"])
def test_a_split_within_the_budget_is_one_block(monkeypatch, case):
    # compare_onehot's test split (726 columns) and one of exactly 2048
    # columns: each forecast callable is called once, on the history block
    # of the whole split, and so is mse_loss's forecast
    if case == "compare_onehot":
        ds = data.standardize(data.generate_synthetic(data.default_synth_spec()))
        spec, lookback, horizon = model.EncoderSpec("mlp2", 6, (16, 8), "tanh"), 6, 32
    else:
        ds, spec, lookback, horizon = etth_split(256, d=8), ETTH_SPEC, 96, 192
    m = model.new_model(spec, head_out=horizon // 4, seed=0)
    wins = data.windows(ds, lookback, horizon, "test")
    assert len(wins) * ds.d_channels <= data._CHUNK_COLUMNS
    calls = []

    def forecast(h):
        calls.append(h.tobytes())
        return model.forecast(m, h)

    train.evaluate_forecaster([forecast] * 4, ds, lookback, horizon)
    assert calls == [wins.history_block().tobytes()] * 4
    calls.clear()
    model_forecast = model.forecast
    monkeypatch.setattr(model, "forecast", lambda mdl, h: calls.append(h.tobytes())
                        or model_forecast(mdl, h))
    model.mse_loss(m, wins, 1)
    assert calls == [wins.history_block().tobytes()]


# --- records on disk ---


def test_run_record_jsonl_layout(tmp_path):
    ds = sine_dataset()
    _, rec = train.pretrain(ds, LIN8, 2, small_config(max_epochs=2))
    path = tmp_path / "record.jsonl"
    train.write_run_record(rec, path)
    lines = [json.loads(s) for s in path.read_text().splitlines()]
    assert lines[0]["epoch"] == 0 and "val_loss" in lines[0]
    for i, e in enumerate(rec.epochs, start=1):
        assert lines[i]["epoch"] == e.epoch
        assert lines[i]["train_loss"] == e.train_loss
    assert "summary" in lines[-1] and "wall_time_s" in lines[-1]
    assert "wall" not in json.dumps(lines[-1]["summary"])


def test_run_summary_has_final_metrics_and_no_wall_time():
    ds = sine_dataset()
    _, rec = train.pretrain(ds, LIN8, 2, small_config(max_epochs=1))
    summary = train.run_summary(rec)
    assert summary["stage"] == "pretrain"
    assert summary["final_metrics"]["per_step"][0]["step"] == 1
    assert "wall_time_s" not in json.dumps(summary)
    assert rec.wall_time_s > 0.0


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_write_json_refuses_non_finite_floats(tmp_path, bad):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError, match="report.json"):
        _io.write_json(path, {"loss": [1.0, bad]})
    assert not path.exists()


def test_run_record_with_infinite_best_val_is_not_written(tmp_path):
    # best_val keeps its initial inf when no validation loss ever compared below it
    rec = train.RunRecord(stage="pretrain", initial_val=1.0)
    path = tmp_path / "pretrain.jsonl"
    with pytest.raises(ValueError, match="pretrain.jsonl"):
        train.write_run_record(rec, path)
    assert not path.exists()
