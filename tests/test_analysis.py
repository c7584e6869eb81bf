import hashlib
import runpy
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from mola import analysis, data, linalg, model, train

# an overflow or invalid value inside a kernel is a bug, not a warning
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
    assert rep.svd.u.shape[0] - rep.rank == 0


def test_bottleneck_zero_for_labels_in_range():
    rng = np.random.default_rng(1)
    w = rng.normal(size=(6, 2))
    b = rng.normal(size=6)
    wbar = linalg.append_bias_column(w, b)
    y = wbar @ rng.normal(size=(3, 2))  # inside col(wbar) by construction
    rep = analysis.min_attainable_error(w, b, y)
    assert rep.min_error_sq <= 1e-10
    assert rep.ls_residual_sq <= 1e-10


def test_bottleneck_decomposes_each_map_once(monkeypatch):
    calls = []
    real = linalg.svd

    def counting(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(linalg, "svd", counting)
    w, b, y = random_case(3, force_deficient=True)
    rep = analysis.min_attainable_error(w, b, y)
    assert calls == [(w.shape[0], w.shape[1] + 1)]
    assert abs(rep.min_error_sq - rep.ls_residual_sq) <= 1e-8 * max(1.0, rep.ls_residual_sq)


def test_bottleneck_strictly_positive_when_tall():
    rng = np.random.default_rng(2)
    w = rng.normal(size=(8, 3))
    rep = analysis.min_attainable_error(w, rng.normal(size=8), rng.normal(size=(8, 2)))
    assert rep.rank == 4
    assert rep.min_error_sq > 0.1  # generic labels always leave energy outside a 4-d range
    assert rep.svd.u.shape[0] - rep.rank == 8 - 4


def test_bottleneck_formula_matches_projection_oracle_50_draws():
    for seed in range(50):
        w, b, y = random_case(seed, force_deficient=(seed % 3 == 0))
        rep = analysis.min_attainable_error(w, b, y)
        assert abs(rep.min_error_sq - rep.ls_residual_sq) <= 1e-8 * max(1.0, rep.ls_residual_sq)


def test_bottleneck_refuses_a_map_whose_singular_values_overflow():
    # [W b] is finite, but its sigma_1 is not; a floor from an infinite
    # sigma would be garbage (both the floor and the residual are 0 here)
    with pytest.raises(ValueError, match="4x4 matrix exceeds the float64 range"):
        analysis.min_attainable_error(np.full((4, 3), 1e308), np.zeros(4), np.ones((4, 2)))


def test_bottleneck_energy_recomputation_and_fields():
    w, b, y = random_case(7)
    rep = analysis.min_attainable_error(w, b, y)
    t = w.shape[0]
    total = 0.0
    for i in range(rep.rank, t):
        total += float(np.sum((rep.svd.u[:, i] @ y) ** 2))
    assert abs(rep.min_error_sq - total) <= 1e-10 * max(1.0, total)


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


def test_bottleneck_takes_a_bias_vector_and_label_columns():
    w, b, y = random_case(13)
    with pytest.raises(ValueError, match="one entry per row"):
        analysis.min_attainable_error(w, b[:, None], y)
    with pytest.raises(ValueError, match="2-D"):
        analysis.min_attainable_error(w, b, y[:, 0])


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


def test_dataset_bottleneck_forms_its_residual_in_place():
    # floor_svd's largest floor: the label block of (L, T) = (96, 336), then
    # the residual beside it, formed in place, plus x and U^T y of 97 rows
    ds = data.standardize(data.generate_synthetic(data.default_synth_spec(n_points=4000, seed=0)))
    m = model.new_model(model.EncoderSpec(kind="linear", in_len=96), head_out=336, seed=0)
    block = 336 * len(data.windows(ds, 96, 336, "test")) * ds.d_channels * 8
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        analysis.dataset_bottleneck(m, ds, "test")
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 3.3 * block, f"peak {peak / block:.2f} label blocks"


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


def comparison_script():
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_paradigm_comparison.py"
    return runpy.run_path(str(script))["main"]


def test_comparison_script_checks_expert_count_before_training(monkeypatch, capsys):
    main = comparison_script()
    fitted, adapters = [], []

    def untrained(ds, spec, horizon, cfg):
        fitted.append(horizon)
        return model.new_model(spec, head_out=horizon, seed=cfg.seed), None

    def recorded(foundation, plan, adapter, ds, cfg):
        adapters.append((adapter.n_experts, adapter.routing))
        return adapter, []

    monkeypatch.setattr(train, "pretrain", untrained)
    monkeypatch.setattr(train, "adapt_all_segments", recorded)
    for argv, message in [
        (["--experts", "2"], "one-hot routing requires n_experts == segments"),
        # every cell is checked before the first one trains
        (["--horizon", "32", "12", "--segments", "8"], "segments must divide horizon"),
    ]:
        monkeypatch.setattr(sys, "argv", ["run_paradigm_comparison.py", *argv])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2 and fitted == []
        assert message in capsys.readouterr().err
    monkeypatch.setattr(sys, "argv", ["run_paradigm_comparison.py", "--seeds", "1",
                                      "--n-points", "400", "--experts", "2", "--routing", "soft"])
    main()
    assert adapters == [(2, "soft")]


@pytest.mark.filterwarnings("ignore:segment length")
@pytest.mark.parametrize("encoder", [[], ["--hidden"]], ids=["mlp2", "linear"])
def test_comparison_grid_fits_each_horizon_once_and_scores_as_paradigm_compare(
        monkeypatch, capsys, encoder):
    main = comparison_script()
    fitted = []
    pretrain = train.pretrain

    def counted(ds, spec, horizon, cfg):
        fitted.append(horizon)
        return pretrain(ds, spec, horizon, cfg)

    monkeypatch.setattr(train, "pretrain", counted)
    monkeypatch.setattr(sys, "argv", ["run_paradigm_comparison.py", "--seeds", "1",
                                      "--n-points", "400", "--max-epochs", "3", *encoder,
                                      "--horizon", "8", "16", "--segments", "2", "4"])
    results = main()
    monkeypatch.undo()
    # arf, mtf and foundations at T/K: five fits where four compares make twelve
    assert sorted(fitted) == [1, 2, 4, 8, 16]
    out = capsys.readouterr().out
    ds = data.standardize(data.generate_synthetic(data.default_synth_spec(n_points=400)))
    spec = (model.EncoderSpec(kind="linear", in_len=6, activation="tanh") if encoder
            else model.EncoderSpec(kind="mlp2", in_len=6, hidden=(16, 8), activation="tanh"))
    cfg = train.TrainConfig(learning_rate=1e-2, max_epochs=3, patience=30, seed=0)
    assert list(results) == [(8, 2), (8, 4), (16, 2), (16, 4)]
    for (horizon, segments), [row] in results.items():
        want = analysis.paradigm_compare(ds, spec, horizon, segments, config=cfg, rank=5,
                                         routing="one-hot")["paradigms"]
        for name in ("arf", "mtf", "mola"):
            assert row[name]["mse"] == want[name]["metrics"]["mse"], (horizon, segments, name)
        assert f"seed  0  T={horizon} K={segments}  arf={row['arf']['mse']:.4f}" in out
        if encoder:
            mtf, _ = train.mtf_train(ds, spec, horizon, cfg)
            assert row["floor"] == analysis.dataset_bottleneck(mtf, ds, "test")
            assert f"rank={row['floor']['rank']} floor/elem=" in out
        else:
            assert "floor" not in row


def test_window_set_hash_sensitivity():
    ds = sine_ds(n_points=220)
    wins = data.windows(ds, 8, 4, "test")
    a = analysis.window_set_hash(wins)
    b = analysis.window_set_hash(data.windows(ds, 8, 4, "test"))
    c = analysis.window_set_hash(data.windows(ds, 8, 4, "val"))
    # the digest hashes each window's int64 origin, history and label in
    # native byte order, one window after another
    origins = data.window_origins(ds, 8, 4, "test")
    want = hashlib.sha256(b"".join(
        np.int64(n).tobytes() + ds.values[n - 7 : n + 1].tobytes()
        + ds.values[n + 1 : n + 5].tobytes() for n in origins)).hexdigest()
    assert a == b == want
    assert a != c
    picked = np.array([3, 0, 3])
    want = hashlib.sha256(b"".join(
        np.int64(w.origin).tobytes() + w.history.tobytes() + w.label.tobytes()
        for w in (wins[int(i)] for i in picked))).hexdigest()
    assert analysis.window_set_hash(wins[picked]) == want


def test_window_set_hash_is_pinned():
    # digests of exactly representable values: how window rows are read
    # must not change them, or reports hashed before and after such a
    # change stop comparing equal
    values = np.arange(60 * 3, dtype=np.float64).reshape(60, 3) / 4 - 7
    ds = data.SeriesDataset(values=values, channel_names=["a", "b", "c"],
                            train_end=30, val_end=42)
    ws = data.windows(ds, 5, 3, "test")
    assert len(ws) == 16
    assert analysis.window_set_hash(ws) == (
        "c9c0d8a6c4f9a14b78149d7f44ddb5e887a89c01c01ac3f2b678aa0b561c67c8")
    assert analysis.window_set_hash(ws[np.array([4, 0, 4, 2])]) == (
        "57cb48c2dd600336dc2bc7288a285bcbc5f9ce569be5f160eaa9aeb567818882")
    assert analysis.window_set_hash(ws[2:6]) == (
        "d86575a6bfc0100f451c8d3ce503ead52d9f226895a67c37e6fa9b1510ab5447")

