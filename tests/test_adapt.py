import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from mola import _io, adapt, data, model


def make_foundation(kind="mlp2", lookback=8, head_out=4, seed=0):
    if kind == "mlp2":
        spec = model.EncoderSpec(kind="mlp2", in_len=lookback, hidden=(6, 3), activation="tanh")
    else:
        spec = model.EncoderSpec(kind="linear", in_len=lookback)
    return model.new_model(spec, head_out=head_out, seed=seed)


def make_batch(lookback, horizon, d=2, n=6, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(lookback + horizon + n, d))
    ds = data.SeriesDataset(
        values=vals,
        channel_names=[f"c{i}" for i in range(d)],
        train_end=vals.shape[0] - 1,
        val_end=vals.shape[0],
    )
    return data.windows(ds, lookback, horizon, "train")


# --- segment plans ---


def test_segment_plan_quarters():
    plan = adapt.make_segment_plan(96, 4)
    assert plan.seg_len == 24
    assert plan.first_rows == (1, 25, 49, 73)
    # the segment length and first rows follow from horizon and segments
    assert adapt.SegmentPlan(96, 4) == plan
    with pytest.raises(TypeError):
        adapt.SegmentPlan(horizon=32, segments=4, seg_len=5, first_rows=(1,))


def test_segment_plan_single():
    plan = adapt.make_segment_plan(5, 1)
    assert plan.first_rows == (1,)
    assert plan.seg_len == 5


def test_segment_plan_divisibility_error():
    with pytest.raises(ValueError, match="divide"):
        adapt.make_segment_plan(10, 3)
    with pytest.raises(ValueError, match="divide"):
        adapt.SegmentPlan(32, 5)
    with pytest.raises(ValueError):
        adapt.make_segment_plan(4, 8)
    with pytest.raises(ValueError):
        adapt.make_segment_plan(4, 0)


def test_segment_plan_warns_when_segment_exceeds_lookback_plus_one():
    with pytest.warns(UserWarning, match="lookback"):
        adapt.make_segment_plan(32, 2, lookback=8)  # S=16 > 9
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        adapt.make_segment_plan(32, 4, lookback=8)  # S=8 <= 9, no warning


# --- mixture weights ---


def test_normalize_weights_uniform():
    out = adapt.normalize_weights(np.zeros(4))
    assert np.allclose(out, 0.25)


def test_normalize_weights_one_hot_surrogate():
    logits = np.array([0.0, -1e6, -1e6])
    out = adapt.normalize_weights(logits)
    assert out[0] == 1.0 and out[1] == 0.0 and out[2] == 0.0


@hyp_settings(max_examples=40)
@given(seed=st.integers(0, 2**31), p=st.integers(1, 8), shift=st.floats(-50, 50))
def test_normalize_weights_simplex_and_shift_invariance(seed, p, shift):
    logits = np.random.default_rng(seed).normal(scale=3.0, size=p)
    out = adapt.normalize_weights(logits)
    assert np.all(out >= 0.0)
    assert abs(out.sum() - 1.0) <= 1e-12
    shifted = adapt.normalize_weights(logits + shift)
    assert np.max(np.abs(out - shifted)) <= 1e-12


# --- effective weights ---


def make_stacks(d_out, d_in, r, p, seed=0):
    """Random expert stacks a (p, r, d_in) and b (p, d_out, r)."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(p, r, d_in)), rng.normal(size=(p, d_out, r))


def reference_effective_weight(base, a, b, delta):
    """Scalar per-expert loop: base + sum_p delta_p B_p A_p, zero terms skipped."""
    out = base.copy()
    for w, a_p, b_p in zip(delta, a, b):
        if w != 0.0:
            out += w * (b_p @ a_p)
    return out


def test_effective_weight_zero_b_is_identity():
    base = np.random.default_rng(1).normal(size=(5, 7))
    a, b = make_stacks(5, 7, 2, 3, seed=2)
    b[:] = 0.0
    out = adapt.effective_weight(base, a, b, np.array([0.2, 0.3, 0.5]))
    assert np.array_equal(out, base)


def test_effective_weight_single_expert_full_weight():
    base = np.random.default_rng(3).normal(size=(4, 6))
    a, b = make_stacks(4, 6, 2, 1, seed=4)
    out = adapt.effective_weight(base, a, b, np.array([1.0]))
    assert np.array_equal(out, base + b[0] @ a[0])


def test_effective_weight_matches_term_expansion():
    base = np.random.default_rng(5).normal(size=(6, 5))
    a, b = make_stacks(6, 5, 3, 3, seed=6)
    delta = np.array([0.1, 0.6, 0.3])
    hand = reference_effective_weight(base, a, b, delta)
    out = adapt.effective_weight(base, a, b, delta)
    assert np.max(np.abs(out - hand)) <= 1e-12 * np.max(np.abs(hand))


# --- placement ---


def test_adapter_placement_defaults():
    plan = adapt.make_segment_plan(8, 2)
    for kind, layers in (("mlp2", ("enc0.w", "enc1.w")), ("linear", ("enc0.w",))):
        adapter = adapt.new_adapter(make_foundation(kind), plan, n_experts=2, rank=1, seed=0)
        assert adapter.adapted_layers == layers


# --- adapter construction ---


def test_new_adapter_shapes_and_init():
    f = make_foundation("mlp2", head_out=4)
    plan = adapt.make_segment_plan(8, 2, lookback=f.lookback)
    ad = adapt.new_adapter(f, plan, n_experts=3, rank=2, seed=11)
    assert ad.adapted_layers == ("enc0.w", "enc1.w")
    assert set(ad.experts) == {"enc0.w", "enc1.w"}
    for layer in ad.adapted_layers:
        d_out, d_in = f.params.get(layer).shape
        assert len(ad.experts[layer]) == 3
        for e in ad.experts[layer]:
            assert e.b_mat.shape == (d_out, 2) and np.all(e.b_mat == 0.0)
            assert e.a_mat.shape == (2, d_in) and np.any(e.a_mat != 0.0)
        assert ad.logits[layer].shape == (2, 3)
        assert np.all(ad.logits[layer] == 0.0)
    assert ad.routing == "soft"


def test_new_adapter_seed_determinism():
    f = make_foundation("mlp2")
    plan = adapt.make_segment_plan(8, 2, lookback=f.lookback)
    a1 = adapt.new_adapter(f, plan, 2, 2, seed=3)
    a2 = adapt.new_adapter(f, plan, 2, 2, seed=3)
    for layer in a1.adapted_layers:
        for e1, e2 in zip(a1.experts[layer], a2.experts[layer]):
            assert np.array_equal(e1.a_mat, e2.a_mat)


def test_new_adapter_rank_validation():
    f = make_foundation("mlp2")  # enc1.w is 3x6, so rank must be < 3
    plan = adapt.make_segment_plan(8, 2, lookback=f.lookback)
    with pytest.raises(ValueError, match="rank"):
        adapt.new_adapter(f, plan, n_experts=2, rank=3, seed=0)
    with pytest.raises(ValueError):
        adapt.new_adapter(f, plan, n_experts=2, rank=0, seed=0)
    with pytest.raises(ValueError):
        adapt.new_adapter(f, plan, n_experts=0, rank=1, seed=0)


def test_plan_head_mismatch_rejected():
    f = make_foundation("mlp2", head_out=4)
    plan = adapt.make_segment_plan(9, 3)  # seg_len 3 != head_out 4
    with pytest.raises(ValueError, match="head"):
        adapt.new_adapter(f, plan, 2, 2, seed=0)


def test_check_fits_is_the_whole_rule_for_an_adapter_on_its_foundation():
    f = make_foundation("mlp2", head_out=4, seed=0)
    ad = adapt.new_adapter(f, adapt.make_segment_plan(8, 2), 2, 2, seed=0)
    adapt.check_fits(ad, f)
    # a foundation of the same shapes and other values, one whose head
    # predicts another segment length, and one whose encoder weights are
    # wider than the adapter's stacks
    for other, match in ((make_foundation("mlp2", seed=1), "fitted on another foundation"),
                         (make_foundation("mlp2", head_out=2), "head"),
                         (make_foundation("mlp2", lookback=9),
                          r"'enc0.w' has A \(2, 2, 8\) and B \(2, 6, 2\), but the "
                          r"foundation's enc0.w is 6x9")):
        with pytest.raises(ValueError, match=match):
            adapt.check_fits(ad, other)


@pytest.mark.parametrize("routing", ["soft", "one-hot"])
def test_check_fits_refuses_an_adapter_that_leaves_an_encoder_weight_unadapted(routing):
    # a checkpoint that keeps only enc0.w loads, but its views would
    # forecast with the foundation's enc1.w as it is
    f = make_foundation("mlp2", head_out=4, seed=0)
    ad = adapt.new_adapter(f, adapt.make_segment_plan(8, 2), 2, 2, seed=0, routing=routing)
    state = adapt.adapter_state(ad)
    del state["layers"][1]
    loaded = adapt.adapter_from_state(state)
    assert loaded.adapted_layers == ("enc0.w",)
    with pytest.raises(ValueError, match=r"adapter layers \['enc0.w'\] are not the foundation's "
                                         r"encoder weight matrices \['enc0.w', 'enc1.w'\]"):
        adapt.check_fits(loaded, f)


# --- adapted views ---


def setup_adapter(seed=0, segments=2, head_out=4, experts=3, rank=2):
    f = make_foundation("mlp2", head_out=head_out, seed=seed)
    plan = adapt.make_segment_plan(head_out * segments, segments, lookback=f.lookback)
    ad = adapt.new_adapter(f, plan, n_experts=experts, rank=rank, seed=seed + 1)
    return f, plan, ad


def test_zero_init_adapted_forecasts_bit_identical():
    f, plan, ad = setup_adapter()
    rng = np.random.default_rng(12)
    for k in range(1, plan.segments + 1):
        view = adapt.adapted_model(f, ad, k)
        for _ in range(3):
            hist = rng.normal(size=(f.lookback, 2))
            assert np.array_equal(model.forecast(view, hist), model.forecast(f, hist))


def test_adapted_view_aliases_frozen_entries_and_trains_effective_weights():
    f, plan, ad = setup_adapter()
    view = adapt.adapted_model(f, ad, 1)
    assert view.params.get("enc0.b") is f.params.get("enc0.b")
    assert view.params.get("head.w") is f.params.get("head.w")
    assert view.params.get("enc0.w") is not f.params.get("enc0.w")
    with pytest.raises(ValueError):
        adapt.adapted_model(f, ad, 0)
    with pytest.raises(ValueError):
        adapt.adapted_model(f, ad, plan.segments + 1)


def test_mixing_shift_invariance_on_forecasts():
    f, plan, ad = setup_adapter()
    rng = np.random.default_rng(13)
    for layer in ad.adapted_layers:
        for e in ad.experts[layer]:
            e.b_mat[:] = rng.normal(size=e.b_mat.shape) * 0.1
        ad.logits[layer][:] = rng.normal(size=ad.logits[layer].shape)
    hist = rng.normal(size=(f.lookback, 2))
    base = model.forecast(adapt.adapted_model(f, ad, 1), hist)
    for layer in ad.adapted_layers:
        ad.logits[layer][0] += 7.5
    shifted = model.forecast(adapt.adapted_model(f, ad, 1), hist)
    assert np.max(np.abs(base - shifted)) <= 1e-12


def test_expert_sharing_across_segments():
    f, plan, ad = setup_adapter(experts=2, segments=2)
    # segment 1 routes only to expert 0; segment 2 mixes uniformly
    for layer in ad.adapted_layers:
        ad.logits[layer][0] = np.array([0.0, -1e6])
    before = {
        k: adapt.adapted_model(f, ad, k).params.get("enc0.w").copy() for k in (1, 2)
    }
    ad.experts["enc0.w"][1].b_mat[:] = 1.0  # mutate expert 1 only
    after = {k: adapt.adapted_model(f, ad, k).params.get("enc0.w") for k in (1, 2)}
    assert np.array_equal(before[1], after[1])  # delta = 0 on expert 1
    assert not np.array_equal(before[2], after[2])  # delta > 0 on expert 1


def test_one_hot_routing_requires_matching_counts():
    f, plan, ad = setup_adapter(experts=3, segments=2)
    with pytest.raises(ValueError, match="n_experts"):
        adapt.freeze_one_hot_routing(ad)
    assert ad.routing == "soft"
    f2, plan2, ad2 = setup_adapter(experts=2, segments=2)
    adapt.freeze_one_hot_routing(ad2)
    assert ad2.routing == "one-hot" and ad2.logits is None
    rng = np.random.default_rng(3)
    for layer in ad2.adapted_layers:
        ad2.b[layer][:] = rng.normal(size=ad2.b[layer].shape)
    for k in (1, 2):  # segment k is expert k alone, at weight 1.0
        view = adapt.adapted_model(f2, ad2, k)
        for layer in ad2.adapted_layers:
            want = f2.params[layer] + ad2.b[layer][k - 1] @ ad2.a[layer][k - 1]
            assert np.array_equal(view.params[layer], want)


def test_new_adapter_applies_routing():
    f, plan, manual = setup_adapter(experts=2, segments=2)
    adapt.freeze_one_hot_routing(manual)
    built = adapt.new_adapter(f, plan, n_experts=2, rank=2, seed=1, routing="one-hot")
    assert built.logits is None and manual.logits is None
    assert adapt.adapter_state(built) == adapt.adapter_state(manual)
    with pytest.raises(ValueError, match="routing"):
        adapt.new_adapter(f, plan, n_experts=2, rank=2, seed=1, routing="diag")


# --- gradients through the adapter ---


def segment_fd(f, ad, k, batch, arr, h=1e-5):
    g = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        keep = arr[idx]
        arr[idx] = keep + h
        up = adapt.segment_loss(f, ad, k, batch)
        arr[idx] = keep - h
        down = adapt.segment_loss(f, ad, k, batch)
        arr[idx] = keep
        g[idx] = (up - down) / (2.0 * h)
    return g


def test_segment_grads_match_finite_differences():
    f, plan, ad = setup_adapter(experts=2, segments=2, head_out=3)
    rng = np.random.default_rng(21)
    for layer in ad.adapted_layers:  # move B off zero so A gradients are live
        for e in ad.experts[layer]:
            e.b_mat[:] = rng.normal(size=e.b_mat.shape) * 0.2
        ad.logits[layer][:] = rng.normal(size=ad.logits[layer].shape) * 0.5
    batch = make_batch(f.lookback, plan.horizon, d=2, n=4, seed=22)
    k = 2
    loss, grads = adapt.segment_grads(f, ad, k, batch)
    assert loss == pytest.approx(adapt.segment_loss(f, ad, k, batch), rel=1e-12)
    for layer in ad.adapted_layers:
        for part, arr in (("a", ad.a[layer]), ("b", ad.b[layer])):
            fd = segment_fd(f, ad, k, batch, arr)
            ana = grads[f"{layer}.{part}"]
            assert ana.shape == arr.shape
            denom = np.maximum(np.maximum(np.abs(fd), np.abs(ana)), 1e-7)
            assert np.max(np.abs(ana - fd) / denom) <= 1e-4, (layer, part)
        fd = segment_fd(f, ad, k, batch, ad.logits[layer][k - 1])
        ana = grads[f"{layer}.logits.k{k}"]
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(ana)), 1e-7)
        assert np.max(np.abs(ana - fd) / denom) <= 1e-4, layer


def test_soft_routing_logit_gradient_is_inner_product_with_expert_update():
    f, plan, ad = setup_adapter(experts=3, segments=2, head_out=3)
    rng = np.random.default_rng(23)
    for layer in ad.adapted_layers:
        for e in ad.experts[layer]:
            e.b_mat[:] = rng.normal(size=e.b_mat.shape) * 0.2
        ad.logits[layer][:] = rng.normal(size=ad.logits[layer].shape) * 0.5
    batch = make_batch(f.lookback, plan.horizon, d=2, n=4, seed=24)
    k = 1
    sl = plan.first_rows[k - 1]
    _, grads = adapt.segment_grads(f, ad, k, batch)
    deltas = {layer: adapt.normalize_weights(ad.logits[layer][k - 1])
              for layer in ad.adapted_layers}
    eff = {
        layer: adapt.effective_weight(f.params.get(layer), ad.a[layer], ad.b[layer], delta)
        for layer, delta in deltas.items()
    }
    _, eff_grads = model.loss_and_grads(f, batch, sl, overrides=eff)
    for layer, delta in deltas.items():
        d_delta = np.array(
            [np.vdot(eff_grads[layer], e.b_mat @ e.a_mat) for e in ad.experts[layer]]
        )
        want = delta * (d_delta - float(delta @ d_delta))
        got = grads[f"{layer}.logits.k{k}"]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), layer


def test_adaptation_params_cover_experts_and_active_logits():
    f, plan, ad = setup_adapter(experts=2, segments=2)
    params = adapt.adaptation_params(ad, 1)
    assert set(params) == {f"{layer}.{part}" for layer in ad.adapted_layers
                           for part in ("a", "b", "logits.k1")}
    for layer in ad.adapted_layers:  # the whole stacks, sharing their memory
        for part, stack in (("a", ad.a[layer]), ("b", ad.b[layer])):
            view = params[f"{layer}.{part}"]
            assert view.shape == stack.shape and np.shares_memory(view, stack)
    assert params["enc0.w.logits.k1"].base is ad.logits["enc0.w"]
    adapt.freeze_one_hot_routing(ad)
    assert "enc0.w.logits.k1" not in adapt.adaptation_params(ad, 1)


def test_frozen_one_hot_routing_trains_only_the_segment_expert():
    f, plan, ad = setup_adapter(experts=2, segments=2)
    adapt.freeze_one_hot_routing(ad)
    batch = make_batch(f.lookback, plan.horizon, d=2, n=4, seed=3)
    for k in (1, 2):
        want = {f"{layer}.{part}" for layer in ad.adapted_layers for part in "ab"}
        params = adapt.adaptation_params(ad, k)
        assert set(params) == want
        for layer in ad.adapted_layers:  # the basic slice [k-1:k] of each stack
            for part, stack in (("a", ad.a[layer]), ("b", ad.b[layer])):
                view = params[f"{layer}.{part}"]
                assert view.shape == (1, *stack.shape[1:])
                assert np.shares_memory(view, stack[k - 1])
                assert not np.shares_memory(view, stack[2 - k])
        _, grads = adapt.segment_grads(f, ad, k, batch)
        assert {name: g.shape for name, g in grads.items()} == {
            name: v.shape for name, v in params.items()}
    # k=None: all segments at once, on the whole stacks
    params = adapt.adaptation_params(ad, None)
    assert set(params) == want
    for layer in ad.adapted_layers:
        for part, stack in (("a", ad.a[layer]), ("b", ad.b[layer])):
            view = params[f"{layer}.{part}"]
            assert view.shape == stack.shape and np.shares_memory(view, stack)
    rows = np.concatenate([np.arange(3)] * plan.segments)
    _, grads = adapt.segment_grads(f, ad, None, batch[rows])
    assert {name: g.shape for name, g in grads.items()} == {
        name: v.shape for name, v in params.items()}
    soft = setup_adapter(experts=2, segments=2)[2]
    with pytest.raises(ValueError, match="one-hot"):
        adapt.adaptation_params(soft, None)


def test_soft_routing_still_produces_logit_gradients():
    f, plan, ad = setup_adapter(experts=3, segments=2)
    batch = make_batch(f.lookback, plan.horizon, d=2, n=4, seed=4)
    _, grads = adapt.segment_grads(f, ad, 1, batch)
    assert set(grads) == set(adapt.adaptation_params(ad, 1))
    for layer in ad.adapted_layers:
        assert grads[f"{layer}.logits.k1"].shape == (3,)
        assert grads[f"{layer}.a"].shape == ad.a[layer].shape
        assert grads[f"{layer}.b"].shape == ad.b[layer].shape


def mixture_weights(ad, layer, k):
    """Segment k's weights over the experts: the softmax of its logits row
    under soft routing, expert k alone under one-hot routing."""
    if ad.routing == "one-hot":
        return np.eye(ad.n_experts)[k - 1]
    return adapt.normalize_weights(ad.logits[layer][k - 1])


def reference_segment_grads(f, ad, k, batch, sl):
    """Scalar per-expert loop over every expert with a trained weight: loss
    and gradients keyed (layer, p, part), plus the logit gradient."""
    deltas = {layer: mixture_weights(ad, layer, k) for layer in ad.adapted_layers}
    eff = {layer: reference_effective_weight(f.params.get(layer), ad.a[layer], ad.b[layer], d)
           for layer, d in deltas.items()}
    loss, eff_grads = model.loss_and_grads(f, batch, sl, overrides=eff)
    grads = {}
    for layer, delta in deltas.items():
        g = eff_grads[layer]
        d_delta = np.zeros(ad.n_experts)
        for p, e in enumerate(ad.experts[layer]):
            grads[(layer, p, "a")] = delta[p] * (e.b_mat.T @ g)
            grads[(layer, p, "b")] = delta[p] * (g @ e.a_mat.T)
            d_delta[p] = np.vdot(g, e.b_mat @ e.a_mat)
        grads[(layer, "logits")] = delta * (d_delta - float(delta @ d_delta))
    return loss, grads


@pytest.mark.parametrize("routing", ["soft", "one-hot"])
def test_stacked_weights_and_grads_match_per_expert_loop(routing):
    f, plan, ad = setup_adapter(experts=3, segments=3, head_out=2)
    rng = np.random.default_rng(25)
    for layer in ad.adapted_layers:
        ad.b[layer][:] = rng.normal(size=ad.b[layer].shape) * 0.3
        if routing == "soft":
            ad.logits[layer][:] = rng.normal(size=ad.logits[layer].shape)
    if routing == "one-hot":
        adapt.freeze_one_hot_routing(ad)
    batch = make_batch(f.lookback, plan.horizon, d=2, n=5, seed=26)

    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    for k in range(1, plan.segments + 1):
        sl = plan.first_rows[k - 1]
        view = adapt.adapted_model(f, ad, k)
        for layer in ad.adapted_layers:
            want = reference_effective_weight(f.params.get(layer), ad.a[layer], ad.b[layer],
                                              mixture_weights(ad, layer, k))
            if routing == "one-hot":  # one expert of weight 1: W + B_k A_k exactly
                assert np.array_equal(view.params.get(layer), want)
            assert close(view.params.get(layer), want), (k, layer)
        loss, grads = adapt.segment_grads(f, ad, k, batch)
        ref_loss, ref = reference_segment_grads(f, ad, k, batch, sl)
        assert abs(loss - ref_loss) <= 1e-12 * ref_loss
        for layer in ad.adapted_layers:
            trained = range(ad.n_experts) if routing == "soft" else [k - 1]
            for part in "ab":
                got = grads[f"{layer}.{part}"]
                assert got.shape[0] == len(trained)
                for i, p in enumerate(trained):
                    assert close(got[i], ref[(layer, p, part)]), (k, layer, p, part)
            if routing == "soft":
                assert close(grads[f"{layer}.logits.k{k}"], ref[(layer, "logits")])
            else:
                assert f"{layer}.logits.k{k}" not in grads


def weight_one_grads(f, ad, k, batch, sl):
    """One-hot segment_grads as the soft formula forms them, each expert at
    mixture weight 1.0 multiplied in: on (1, ...) slices for segment k, and
    for k None on (K, 1, ...) stacks of one expert per segment."""
    if k is None:
        stacks = {layer: (ad.a[layer][:, None], ad.b[layer][:, None],
                          np.ones((ad.plan.segments, 1))) for layer in ad.adapted_layers}
    else:
        stacks = {layer: (ad.a[layer][k - 1 : k], ad.b[layer][k - 1 : k], np.ones(1))
                  for layer in ad.adapted_layers}
    eff = {layer: adapt.effective_weight(f.params[layer], a, b, w)
           for layer, (a, b, w) in stacks.items()}
    loss, eff_grads = model.loss_and_grads(f, batch, sl, overrides=eff)
    grads = {}
    for layer, (a, b, w) in stacks.items():
        g, weight = eff_grads[layer][..., None, :, :], w[..., None, None]
        grads[f"{layer}.a"] = (weight * (b.swapaxes(-1, -2) @ g)).reshape(-1, *a.shape[-2:])
        grads[f"{layer}.b"] = (weight * (g @ a.swapaxes(-1, -2))).reshape(-1, *b.shape[-2:])
    return loss, grads


def test_one_hot_segment_grads_are_the_weight_one_formula_bitwise():
    # one-hot steps form W + B A, B^T G and G A^T without the weight 1.0;
    # x * 1.0 is exact, so every loss and gradient keeps its bits
    f, plan, ad = setup_adapter(experts=3, segments=3, head_out=2)
    adapt.freeze_one_hot_routing(ad)
    rng = np.random.default_rng(27)
    for layer in ad.adapted_layers:
        ad.b[layer][:] = rng.normal(size=ad.b[layer].shape) * 0.3
    ws = make_batch(f.lookback, plan.horizon, d=2, n=5, seed=28)
    lockstep = ws[np.concatenate([rng.permutation(len(ws))[:4] for _ in range(3)])]
    cases = [(k, ws, plan.first_rows[k - 1]) for k in (1, 2, 3)]
    for k, batch, sl in cases + [(None, lockstep, plan.first_rows)]:
        loss, grads = adapt.segment_grads(f, ad, k, batch)
        want_loss, want = weight_one_grads(f, ad, k, batch, sl)
        assert np.asarray(loss).tobytes() == np.asarray(want_loss).tobytes()
        assert grads.keys() == want.keys()
        for name, g in grads.items():
            assert g.shape == want[name].shape and g.tobytes() == want[name].tobytes(), (k, name)
    with pytest.raises(ValueError, match="segment index"):
        adapt.segment_grads(f, ad, 4, ws)


def soft_grads(f, ad, k, batch, sl):
    """Soft segment_grads formed from model.loss_and_grads on the label rows
    from row sl: the chain rule through the W_eff of segment k's mixing
    weights."""
    deltas = {layer: adapt.normalize_weights(ad.logits[layer][k - 1])
              for layer in ad.adapted_layers}
    eff = {layer: adapt.effective_weight(f.params[layer], ad.a[layer], ad.b[layer], d)
           for layer, d in deltas.items()}
    loss, eff_grads = model.loss_and_grads(f, batch, sl, overrides=eff)
    grads = {}
    for layer, delta in deltas.items():
        a, b, g, weight = ad.a[layer], ad.b[layer], eff_grads[layer], delta[:, None, None]
        bt_g = b.swapaxes(-1, -2) @ g
        grads[f"{layer}.a"] = weight * bt_g
        grads[f"{layer}.b"] = weight * (g @ a.swapaxes(-1, -2))
        d_delta = np.einsum("prd,prd->p", bt_g, a)
        grads[f"{layer}.logits.k{k}"] = delta * (d_delta - float(delta @ d_delta))
    return loss, grads


@pytest.mark.parametrize("routing", ["soft", "one-hot"])
def test_a_segment_index_names_its_label_rows(routing):
    # segment k's loss and step read its seg_len label rows from row
    # plan.first_rows[k - 1] and no others: bitwise model.mse_loss and
    # model.loss_and_grads on those rows, and not on the next segment's
    f, plan, ad = setup_adapter(experts=3, segments=3, head_out=2)
    rng = np.random.default_rng(29)
    for layer in ad.adapted_layers:
        ad.b[layer][:] = rng.normal(size=ad.b[layer].shape) * 0.3
        ad.logits[layer][:] = rng.normal(size=ad.logits[layer].shape)
    if routing == "one-hot":
        adapt.freeze_one_hot_routing(ad)
    formula = soft_grads if routing == "soft" else weight_one_grads
    ws = make_batch(f.lookback, plan.horizon, d=2, n=5, seed=30)
    for k in range(1, plan.segments + 1):
        rows = plan.first_rows[k - 1]
        loss = adapt.segment_loss(f, ad, k, ws)
        assert loss.hex() == model.mse_loss(adapt.adapted_model(f, ad, k), ws, rows).hex()
        step_loss, grads = adapt.segment_grads(f, ad, k, ws)
        for sl, same in ((rows, True), (plan.first_rows[k % plan.segments], False)):
            want_loss, want = formula(f, ad, k, ws, sl)
            assert grads.keys() == want.keys()
            assert (step_loss == want_loss) is same, (k, sl)
            for name, g in grads.items():
                assert (g.tobytes() == want[name].tobytes()) is same, (k, sl, name)
    if routing == "one-hot":
        # the lockstep of all K segments scores segment k's batch on segment
        # k's rows (bitwise: the weight-one test above), not on shuffled rows
        lockstep = ws[np.concatenate([rng.permutation(len(ws))[:4] for _ in range(3)])]
        loss, _ = adapt.segment_grads(f, ad, None, lockstep)
        shuffled, _ = weight_one_grads(f, ad, None, lockstep, plan.first_rows[::-1])
        assert loss.shape == (plan.segments,) and not np.array_equal(loss, shuffled)


@pytest.mark.parametrize("k", [None, True, 1.0, 0, "K+1"])
@pytest.mark.parametrize("routing", ["soft", "one-hot"])
def test_a_view_takes_one_int_segment_index(routing, k):
    # an adapted view is one segment's, named by an int in 1..K under either
    # routing: None (the one-hot lockstep's k), a bool and a float are not
    # segment indices, so adapted_model, segment_loss and a segment's
    # mola_forecast raise the ValueError that names the index instead of
    # failing in the mixture, picking segment 1 or raising IndexError
    from mola import train

    f, plan, ad = setup_adapter(experts=4, segments=4, head_out=2)
    if routing == "one-hot":
        adapt.freeze_one_hot_routing(ad)
    k = plan.segments + 1 if k == "K+1" else k
    ws = make_batch(f.lookback, plan.horizon, d=2, n=4, seed=31)
    with pytest.raises(ValueError, match="segment index"):
        adapt.adapted_model(f, ad, k)
    with pytest.raises(ValueError, match="segment index"):
        adapt.segment_loss(f, ad, k, ws)
    if k is not None:  # mola_forecast's k None is the whole-horizon stitch
        with pytest.raises(ValueError, match="segment index"):
            train.mola_forecast(f, ad, ws[0].history, k)
        with pytest.raises(ValueError, match="segment index"):
            adapt.segment_grads(f, ad, k, ws)


def test_adapt_all_segments_one_hot_leaves_other_experts_bitwise():
    # under one-hot routing segment 1's fit does not depend on expert 2:
    # re-drawing expert 2 leaves segment 1's expert and record bitwise as
    # they were, while expert 2 itself ends elsewhere
    from mola import train

    spec = data.SynthSpec(
        n_points=200, d_channels=2, noise_std=0.05, seed=5,
        components=(data.SynthComponent(kind="sine", amplitude=1.0, period=12.0),),
    )
    ds = data.standardize(data.generate_synthetic(spec))
    cfg = train.TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=3, patience=3)

    def fit(redraw):
        f, plan, ad = setup_adapter(experts=2, segments=2, head_out=2)
        adapt.freeze_one_hot_routing(ad)
        if redraw:
            for layer in ad.adapted_layers:
                ad.a[layer][1] = np.random.default_rng(99).normal(size=ad.a[layer][1].shape)
        _, records = train.adapt_all_segments(f, plan, ad, ds, cfg)
        return ad, records

    (ad, records), (again, records_again) = fit(False), fit(True)
    assert train.run_summary(records[0]) == train.run_summary(records_again[0])
    for layer in ad.adapted_layers:
        assert ad.a[layer][0].tobytes() == again.a[layer][0].tobytes()
        assert ad.b[layer][0].tobytes() == again.b[layer][0].tobytes()
        assert not np.array_equal(ad.b[layer][1], again.b[layer][1])


# --- checkpoints ---


def test_adapter_checkpoint_round_trip(tmp_path):
    f, plan, ad = setup_adapter(experts=3, segments=2)
    rng = np.random.default_rng(31)
    for layer in ad.adapted_layers:
        for e in ad.experts[layer]:
            e.b_mat[:] = rng.normal(size=e.b_mat.shape)
        ad.logits[layer][:] = rng.normal(size=ad.logits[layer].shape)
    path = tmp_path / "adapter.json"
    _io.write_json(path, adapt.adapter_state(ad))
    loaded = adapt.load_adapter(path)
    assert loaded.plan == ad.plan
    assert loaded.adapted_layers == ad.adapted_layers
    assert loaded.n_experts == ad.n_experts and loaded.rank == ad.rank
    assert loaded.routing == ad.routing == "soft"
    assert loaded.foundation_sha256 == ad.foundation_sha256 == adapt.foundation_digest(f)
    for layer in ad.adapted_layers:
        assert np.array_equal(loaded.logits[layer], ad.logits[layer])
        for e1, e2 in zip(loaded.experts[layer], ad.experts[layer]):
            assert np.array_equal(e1.a_mat, e2.a_mat)
            assert np.array_equal(e1.b_mat, e2.b_mat)
    path2 = tmp_path / "again.json"
    _io.write_json(path2, adapt.adapter_state(loaded))
    assert path.read_bytes() == path2.read_bytes()


def test_one_hot_adapter_checkpoint_round_trip(tmp_path):
    f, plan, ad = setup_adapter(experts=2, segments=2)
    adapt.freeze_one_hot_routing(ad)
    path = tmp_path / "adapter.json"
    _io.write_json(path, adapt.adapter_state(ad))
    assert all("logits" not in entry for entry in adapt.adapter_state(ad)["layers"])
    loaded = adapt.load_adapter(path)
    assert loaded.routing == "one-hot" and loaded.logits is None
    assert adapt.adapter_state(loaded) == adapt.adapter_state(ad)


def test_adapter_stacks_are_views_into_one_buffer():
    # new_adapter and adapter_from_state lay the stacks out back to back,
    # layer by layer A then B; expert and adaptation_params views write
    # into them, and the checkpoint holds the bytes of separate stacks
    f, plan, ad = setup_adapter(experts=2, segments=2)
    adapt.freeze_one_hot_routing(ad)
    separate = adapt.adapter_state(dataclasses.replace(
        ad, a={k: v.copy() for k, v in ad.a.items()}, b={k: v.copy() for k, v in ad.b.items()}))
    assert _io.canonical_dumps(adapt.adapter_state(ad)) == _io.canonical_dumps(separate)
    for adapter in (ad, adapt.adapter_from_state(separate)):
        buffer, offset = adapter.a["enc0.w"].base, 0
        for layer in adapter.adapted_layers:
            for stack in (adapter.a[layer], adapter.b[layer]):
                assert stack.base is buffer and stack.flags.c_contiguous
                assert np.shares_memory(stack, buffer[offset : offset + stack.size])
                offset += stack.size
        assert offset == buffer.size
    before = ad.a["enc0.w"][0].copy()
    ad.experts["enc1.w"][1].b_mat[:] = 2.0
    adapt.adaptation_params(ad, None)["enc0.w.a"][0] += 1.0
    assert (ad.b["enc1.w"][1] == 2.0).all()
    assert np.array_equal(ad.a["enc0.w"][0], before + 1.0)


@pytest.mark.parametrize("routing", ["soft", "one-hot"])
def test_adapter_state_round_trips_byte_equal(routing):
    f, plan, ad = setup_adapter(experts=2, segments=2)
    if routing == "one-hot":
        adapt.freeze_one_hot_routing(ad)
    state = _io.canonical_dumps(adapt.adapter_state(ad))
    again = adapt.adapter_state(adapt.adapter_from_state(json.loads(state)))
    assert _io.canonical_dumps(again) == state
    assert not {"adapted_layers", "n_experts", "rank", "routing"} & set(json.loads(state))


def test_format_4_adapter_is_rejected():
    # format 4 also stored the adapter's shape and routing next to its arrays
    f, plan, ad = setup_adapter(experts=2, segments=2)
    state = adapt.adapter_state(ad)
    assert state["format_version"] == 5
    state.update(format_version=4, adapted_layers=list(ad.adapted_layers),
                 n_experts=ad.n_experts, rank=ad.rank, routing=ad.routing)
    with pytest.raises(ValueError, match="unsupported adapter format version 4"):
        adapt.adapter_from_state(state)


def test_format_2_adapter_is_rejected():
    f, plan, ad = setup_adapter(experts=2, segments=2)
    state = adapt.adapter_state(ad)
    state["format_version"] = 2  # per-expert factor lists
    for entry in state["layers"]:
        entry["experts"] = [{"a": entry.pop("a"), "b": entry.pop("b")}]
    with pytest.raises(ValueError, match="unsupported adapter format version 2"):
        adapt.adapter_from_state(state)


def test_adapter_with_inconsistent_stacks_is_rejected():
    f, plan, ad = setup_adapter(experts=2, segments=2)
    state = adapt.adapter_state(ad)
    n, d_out, rank = ad.b["enc0.w"].shape
    state["layers"][0]["b"] = _io.encode_array(np.zeros((n, d_out, rank + 1)))
    with pytest.raises(ValueError, match="enc0.w"):
        adapt.adapter_from_state(state)


def _drop_logits(layers):
    for entry in layers:
        del entry["logits"]


@pytest.mark.parametrize("change, match", [
    (lambda layers: layers[1].update(a=_io.encode_array(np.zeros((4, 2, 6)))), "'enc1.w'"),
    (lambda layers: layers[1].update(a=_io.encode_array(np.zeros((3, 1, 6)))), "'enc1.w'"),
    (lambda layers: layers[1].update(logits=_io.encode_array(np.zeros((2, 4)))), "'enc1.w'"),
    (lambda layers: layers[1].pop("logits"), r"\['enc1.w'\] have no logits"),
    (_drop_logits, "one-hot routing requires n_experts == segments, got 3 experts for 2"),
    (lambda layers: layers.append(dict(layers[0])), "'enc0.w' appears twice"),
    (lambda layers: layers.clear(), "at least one layer"),
    (lambda layers: layers[1].update(a=_io.encode_array(np.zeros((2, 6)))), "'enc1.w'"),
])
def test_adapter_whose_layers_do_not_hold_together_is_rejected(change, match):
    # a second layer of another P, another r, or logits of another P; soft
    # logits on some layers only; one-hot (no logits) with 3 experts for 2
    # segments; a layer named twice; no layers at all; a 2-D A stack
    f, plan, ad = setup_adapter(experts=3, segments=2)
    state = adapt.adapter_state(ad)
    change(state["layers"])
    with pytest.raises(ValueError, match=match):
        adapt.adapter_from_state(state)


@pytest.mark.parametrize("routing, n_experts, rank, match", [
    ("soft", 0, 2, "n_experts must be >= 1"),
    ("soft", 2, 0, "rank must satisfy"),
    ("one-hot", 2, 0, "rank must satisfy"),
])
def test_check_fits_refuses_a_loaded_adapter_of_no_experts_or_rank_0(routing, n_experts, rank,
                                                                     match):
    # adapter_from_state reads P and r off the stacks; check_fits applies
    # new_adapter's rule to them
    f, plan, ad = setup_adapter(experts=2, segments=2)
    if routing == "one-hot":
        adapt.freeze_one_hot_routing(ad)
    state = adapt.adapter_state(ad)
    for entry in state["layers"]:
        d_out, d_in = f.params[entry["name"]].shape
        entry["a"] = _io.encode_array(np.zeros((n_experts, rank, d_in)))
        entry["b"] = _io.encode_array(np.zeros((n_experts, d_out, rank)))
        if routing == "soft":
            entry["logits"] = _io.encode_array(np.zeros((plan.segments, n_experts)))
    loaded = adapt.adapter_from_state(state)
    with pytest.raises(ValueError, match=match):
        adapt.check_fits(loaded, f)


@pytest.mark.parametrize("key", ["plan", "foundation_sha256", "layers"])
def test_adapter_with_missing_key_is_rejected(key):
    f, plan, ad = setup_adapter(experts=2, segments=2)
    state = adapt.adapter_state(ad)
    del state[key]
    with pytest.raises(ValueError, match=f"adapter checkpoint is missing '{key}'"):
        adapt.adapter_from_state(state)


@pytest.mark.parametrize("where, key, value", [
    (("plan",), "segments", "2"),
    (("layers", 0, "a"), "shape", 5),
    (("layers", 0, "b"), "data", 5),
    ((), "layers", 5),
    (("layers", 1, "logits"), "shape", None),
    ((), "foundation_sha256", 7),
    (("plan",), "horizon", None),
    (("layers", 0), "name", 5),
    (("layers", 0, "a"), "data", [True]),
    (("layers", 0, "b"), "data", ["1"]),
    (("layers", 1, "logits"), "shape", [-1, 2]),
])
def test_adapter_with_wrong_json_types_is_rejected(where, key, value):
    # a malformed file is a ValueError naming the field (mola exits 1), not a TypeError
    f, plan, ad = setup_adapter(experts=2, segments=2)
    state = adapt.adapter_state(ad)
    obj = state
    for step in where:
        obj = obj[step]
    obj[key] = value
    with pytest.raises(ValueError, match=f"'{key}' must be"):
        adapt.adapter_from_state(state)
