import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from mola import analysis, data, linalg, model, train


def sine_ds(n_points=200, d=2, noise=0.05, seed=0):
    spec = data.SynthSpec(
        n_points=n_points,
        d_channels=d,
        components=(data.SynthComponent(kind="sine", amplitude=1.0, period=24.0),),
        noise_std=noise,
        seed=seed,
    )
    return data.standardize(data.generate_synthetic(spec))


# --- expressiveness bottleneck ---


def random_case(seed, force_deficient=False):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(2, 13))
    lookback = int(rng.integers(1, 9))
    d = int(rng.integers(1, 4))
    w = rng.normal(size=(t, lookback))
    b = rng.normal(size=t)
    if force_deficient and t >= 3:
        w[t - 1] = w[0]  # duplicated row makes [W b] rank-deficient
        b[t - 1] = b[0]
    y = rng.normal(size=(t, d))
    return w, b, y


def test_bottleneck_zero_when_wide_and_full_rank():
    rng = np.random.default_rng(0)
    w = rng.normal(size=(3, 4))
    rep = analysis.min_attainable_error(w, rng.normal(size=3), rng.normal(size=(3, 2)))
    assert rep.rank == 3
    assert rep.min_error_sq == 0.0
    assert rep.ls_residual_sq <= 1e-10
    assert rep.per_direction_energy == []


def test_bottleneck_zero_for_labels_in_range():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(6, 2))
    b = rng.normal(size=6)
    wbar = linalg.append_bias_column(w, b)
    y = wbar @ rng.normal(size=(3, 2))  # inside col(wbar) by construction
    rep = analysis.min_attainable_error(w, b, y)
    assert rep.min_error_sq <= 1e-10
    assert rep.ls_residual_sq <= 1e-10


def test_bottleneck_strictly_positive_when_tall():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(8, 3))
    rep = analysis.min_attainable_error(w, rng.normal(size=8), rng.normal(size=(8, 2)))
    assert rep.rank == 4
    assert rep.min_error_sq > 0.1  # generic labels always leave energy outside a 4-d range
    assert len(rep.per_direction_energy) == 8 - 4


def test_bottleneck_formula_matches_projection_oracle_50_draws():
    for seed in range(50):
        w, b, y = random_case(seed, force_deficient=(seed % 3 == 0))
        rep = analysis.min_attainable_error(w, b, y)
        assert abs(rep.min_error_sq - rep.ls_residual_sq) <= 1e-8 * max(1.0, rep.ls_residual_sq)


def test_bottleneck_energy_recomputation_and_fields():
    w, b, y = random_case(7)
    rep = analysis.min_attainable_error(w, b, y)
    t = rep.wbar.shape[0]
    total = 0.0
    for i in range(rep.rank, t):
        total += float(np.sum((rep.svd.u[:, i] @ y) ** 2))
    assert abs(rep.min_error_sq - total) <= 1e-10 * max(1.0, total)
    assert abs(rep.min_error_sq - sum(rep.per_direction_energy)) <= 1e-12


def test_bottleneck_scaling_by_two_is_exact():
    w, b, y = random_case(11)
    base = analysis.min_attainable_error(w, b, y).min_error_sq
    scaled = analysis.min_attainable_error(w, b, 2.0 * y).min_error_sq
    assert scaled == 4.0 * base
    c = 1.7
    scaled2 = analysis.min_attainable_error(w, b, c * y).min_error_sq
    assert scaled2 == pytest.approx(c * c * base, rel=1e-12)


@hyp_settings(max_examples=30)
@given(seed=st.integers(0, 2**31))
def test_bottleneck_appending_output_row_never_decreases(seed):
    rng = np.random.default_rng(seed)
    t = int(rng.integers(2, 9))
    lookback = int(rng.integers(1, 6))
    w = rng.normal(size=(t, lookback))
    b = rng.normal(size=t)
    y = rng.normal(size=(t, 2))
    base = analysis.min_attainable_error(w, b, y).min_error_sq
    w2 = np.vstack([w, rng.normal(size=(1, lookback))])
    b2 = np.append(b, rng.normal())
    y2 = np.vstack([y, rng.normal(size=(1, 2))])
    grown = analysis.min_attainable_error(w2, b2, y2).min_error_sq
    assert grown >= base - 1e-8 * max(1.0, base)


def test_bottleneck_accepts_column_bias_and_1d_labels():
    w, b, y = random_case(13)
    a = analysis.min_attainable_error(w, b[:, None], y[:, 0])
    c = analysis.min_attainable_error(w, b, y[:, :1])
    assert a.min_error_sq == pytest.approx(c.min_error_sq, rel=1e-12)


def test_dataset_bottleneck_matches_per_window_average():
    ds = sine_ds()
    spec = model.EncoderSpec(kind="linear", in_len=6)
    m = model.new_model(spec, head_out=8, seed=3)  # 8 > 6+1 so the floor is active
    out = analysis.dataset_bottleneck(m, ds, split="test")
    wins = data.windows(ds, 6, 8, "test")
    per_window = []
    w_map, b_map = analysis.linear_forecast_map(m)
    for wnd in wins:
        per_window.append(analysis.min_attainable_error(w_map, b_map, wnd.label).min_error_sq)
    assert out["n_windows"] == len(wins)
    assert out["mean_min_error_sq"] == pytest.approx(np.mean(per_window), rel=1e-10)
    assert out["mean_min_error_per_element"] == pytest.approx(
        out["mean_min_error_sq"] / (8 * 2), rel=1e-12
    )
    # fresh models have zero biases, so the bias column adds nothing to the rank
    assert out["rank"] == 6
    assert out["mean_min_error_sq"] > 0.0


def test_dataset_bottleneck_requires_linear_encoder():
    ds = sine_ds()
    spec = model.EncoderSpec(kind="mlp2", in_len=6, hidden=(4, 3), activation="tanh")
    m = model.new_model(spec, head_out=8, seed=0)
    with pytest.raises(ValueError, match="linear"):
        analysis.dataset_bottleneck(m, ds)


# --- parameter counts ---


def test_param_counts_reference_configuration():
    pc = analysis.param_counts(n_layers=6, d_model=512, d_ff=1024, rank=8, n_experts=4, segments=6)
    assert pc.n_mola == 590112
    assert pc.n_backbone == 12595200
    assert pc.ratio == pc.n_mola / pc.n_backbone
    assert abs(pc.ratio - 0.047) < 0.001


def test_param_counts_zero_rank_degenerates_to_routing_only():
    pc = analysis.param_counts(n_layers=3, d_model=64, d_ff=128, rank=0, n_experts=5, segments=4)
    assert pc.n_mola == 3 * 2 * 5 * 4


def test_param_counts_linear_in_experts():
    a = analysis.param_counts(2, 32, 64, 4, 3, 6)
    b = analysis.param_counts(2, 32, 64, 4, 6, 6)
    assert b.n_mola == 2 * a.n_mola


def test_param_counts_exact_integers_and_validation():
    pc = analysis.param_counts(1, 8, 16, 2, 2, 2)
    assert isinstance(pc.n_mola, int) and isinstance(pc.n_backbone, int)
    assert pc.n_mola == 1 * 2 * ((8 * 2 + 2 * 16) * 2 + 2 * 2)
    assert pc.n_backbone == 1 * (4 * 64 + 2 * 8 * 16 + 4 * 8)
    with pytest.raises(ValueError):
        analysis.param_counts(0, 8, 16, 2, 2, 2)
    with pytest.raises(ValueError):
        analysis.param_counts(1, 8, 16, -1, 2, 2)


# --- variance decomposition ---


@hyp_settings(max_examples=40)
@given(
    seed=st.integers(0, 2**31),
    n=st.integers(2, 40),
    t=st.integers(1, 12),
    scale=st.floats(1e-3, 1e3),
)
def test_variance_identity_on_random_samples(seed, n, t, scale):
    samples = np.random.default_rng(seed).normal(scale=scale, size=(n, t))
    rep = analysis.variance_report(samples)
    assert rep.identity_gap <= 1e-10 * max(1.0, rep.var_total)


def test_variance_identity_components():
    samples = np.random.default_rng(5).normal(size=(30, 4))
    rep = analysis.variance_report(samples)
    cov = np.cov(samples, rowvar=False, ddof=1)
    assert np.allclose(rep.var_terms, np.diag(cov), atol=1e-12)
    want_cov_sum = (cov.sum() - np.trace(cov)) / 2.0
    assert rep.cov_sum == pytest.approx(want_cov_sum, rel=1e-12)
    want_total = np.var(samples.mean(axis=1), ddof=1)
    assert rep.var_total == pytest.approx(want_total, rel=1e-12)


def test_variance_all_identical_samples():
    samples = np.tile([1.5, -2.0, 0.25], (10, 1))
    rep = analysis.variance_report(samples)
    assert np.all(rep.var_terms == 0.0)
    assert rep.cov_sum == 0.0
    # the row-mean route can leave a one-ulp rounding residue, nothing more
    assert rep.var_total <= 1e-30
    assert rep.identity_gap <= 1e-30


def test_variance_independent_steps_have_small_cov_sum():
    samples = np.random.default_rng(9).normal(size=(4000, 6))
    rep = analysis.variance_report(samples)
    assert abs(rep.cov_sum) < 0.2
    assert rep.identity_gap <= 1e-10


def test_variance_report_input_validation():
    with pytest.raises(ValueError):
        analysis.variance_report(np.ones((1, 3)))  # need >= 2 samples
    with pytest.raises(ValueError):
        analysis.variance_report(np.ones(5))


def test_variance_compare_reports_delta():
    rng = np.random.default_rng(10)
    base = rng.normal(size=(200, 4))
    correlated = rng.normal(size=(200, 1)) + 0.1 * rng.normal(size=(200, 4))
    out = analysis.variance_compare(correlated, base, label_a="arf", label_b="mola")
    assert out["a"]["label"] == "arf" and out["b"]["label"] == "mola"
    assert out["delta_cov_sum"] == pytest.approx(
        out["a"]["cov_sum"] - out["b"]["cov_sum"], rel=1e-12
    )
    assert out["lower_variance"] in ("arf", "mola")
    assert out["lower_variance"] == "mola"  # shared component inflates arf covariance


# --- representation probe ---


def test_cloud_disparity_invariant_to_rotation_scale_shift():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(60, 2)) @ np.array([[2.0, 0.3], [0.1, 0.5]])
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    y = 3.0 * (x @ rot) + np.array([5.0, -2.0])
    assert analysis.cloud_disparity(x, y) <= 1e-8
    assert analysis.cloud_disparity(x, x) <= 1e-10


def test_cloud_disparity_detects_different_shapes():
    rng = np.random.default_rng(12)
    roundish = rng.normal(size=(200, 2))
    two_lobes = np.vstack(
        [rng.normal(size=(100, 2)) * 0.1 + [3, 0], rng.normal(size=(100, 2)) * 0.1 - [3, 0]]
    )
    assert analysis.cloud_disparity(roundish, two_lobes) > 0.3


def test_per_step_probe_structure():
    ds = sine_ds(n_points=160)
    cfg = train.TrainConfig(max_epochs=1, batch_size=16, seed=7)
    out = analysis.per_step_probe(ds, lookback=16, steps=[1, 2], config=cfg)
    assert out["steps"] == [1, 2]
    assert out["seeds"] == [7, 8]
    n_test = len(data.windows(ds, 16, 2, "test"))
    for cloud in out["clouds"]:
        assert cloud.shape == (n_test, 2)
    assert len(out["pairwise"]) == 1
    pair = out["pairwise"][0]
    assert pair["step_i"] == 1 and pair["step_j"] == 2
    assert np.isfinite(pair["disparity"]) and pair["disparity"] >= 0.0
    assert not np.array_equal(out["clouds"][0], out["clouds"][1])


def test_per_step_probe_same_step_pairs_use_fresh_seeds():
    ds = sine_ds(n_points=160)
    cfg = train.TrainConfig(max_epochs=1, batch_size=16, seed=0)
    out = analysis.per_step_probe(ds, lookback=16, steps=[1, 1], config=cfg)
    assert out["same_step_mean"] is not None
    assert out["cross_step_mean"] is None
    assert not np.array_equal(out["clouds"][0], out["clouds"][1])


# --- paradigm comparison ---


def test_paradigm_compare_structure_and_shared_eval_windows():
    ds = sine_ds(n_points=220)
    spec = model.EncoderSpec(kind="linear", in_len=8)
    cfg = train.TrainConfig(max_epochs=1, batch_size=16, seed=3)
    out = analysis.paradigm_compare(ds, spec, horizon=4, segments=2, config=cfg)
    assert set(out["paradigms"]) == {"arf", "mtf", "mola"}
    hashes = {p["window_hash"] for p in out["paradigms"].values()}
    assert len(hashes) == 1
    for name, res in out["paradigms"].items():
        assert [r["step"] for r in res["metrics"]["per_step"]] == [1, 2, 3, 4]
        assert np.isfinite(res["metrics"]["mse"])
    mola = out["paradigms"]["mola"]["metrics"]["mse"]
    for base in ("arf", "mtf"):
        want = 100.0 * (out["paradigms"][base]["metrics"]["mse"] - mola) / out["paradigms"][base]["metrics"]["mse"]
        assert out["delta"][f"mola_vs_{base}_mse_pct"] == pytest.approx(want, rel=1e-12)


def test_paradigm_compare_one_hot_routing():
    ds = sine_ds(n_points=220)
    spec = model.EncoderSpec(kind="linear", in_len=8)
    cfg = train.TrainConfig(max_epochs=1, batch_size=16, seed=3)
    out = analysis.paradigm_compare(
        ds, spec, horizon=4, segments=2, config=cfg, n_experts=2, routing="one-hot"
    )
    assert out["inputs"]["routing"] == "one-hot"
    assert set(out["paradigms"]) == {"arf", "mtf", "mola"}
    # one-hot needs square routing: expert count must equal segment count
    with pytest.raises(ValueError):
        analysis.paradigm_compare(
            ds, spec, horizon=4, segments=2, config=cfg, n_experts=3, routing="one-hot"
        )
    with pytest.raises(ValueError):
        analysis.paradigm_compare(ds, spec, horizon=4, segments=2, config=cfg, routing="diag")


@pytest.mark.parametrize(
    "settings",
    [dict(n_experts=3, routing="one-hot"), dict(routing="diag"), dict(rank=0)],
)
def test_paradigm_compare_refuses_bad_adapter_settings_before_training(monkeypatch, settings):
    def no_training(*args, **kwargs):
        raise AssertionError("trained before the adapter settings were checked")

    monkeypatch.setattr(train, "arf_train", no_training)
    ds = sine_ds(n_points=220)
    spec = model.EncoderSpec(kind="linear", in_len=8)
    with pytest.raises(ValueError):
        analysis.paradigm_compare(ds, spec, horizon=4, segments=2, **settings)


def test_window_set_hash_sensitivity():
    ds = sine_ds(n_points=220)
    a = analysis.window_set_hash(data.windows(ds, 8, 4, "test"))
    b = analysis.window_set_hash(data.windows(ds, 8, 4, "test"))
    c = analysis.window_set_hash(data.windows(ds, 8, 4, "val"))
    assert a == b
    assert a != c

