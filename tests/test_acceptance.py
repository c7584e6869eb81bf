"""End-to-end gate: the ten properties this package promises, one test each.

Each test states its tolerance and runtime envelope inline and fails loudly
if either is violated.  Heavier artifacts (the two-sine case-study corpus)
are shared at module scope; training inside these tests is deterministic,
so every number asserted here is reproducible bit for bit.
"""

import time
import warnings

import numpy as np
import pytest

import reference_lora
from test_model import fd_gradient, make_batch

from mola import _io, adapt, analysis, data, linalg, model, train


@pytest.fixture(scope="module")
def case_ds():
    return data.standardize(data.generate_synthetic(data.default_synth_spec()))


def small_ds(n_points=260, seed=0):
    spec = data.SynthSpec(
        n_points=n_points,
        d_channels=2,
        components=(data.SynthComponent(kind="sine", amplitude=1.0, period=24.0),),
        noise_std=0.05,
        seed=seed,
    )
    return data.standardize(data.generate_synthetic(spec))


def test_bottleneck_formula_matches_least_squares_on_240_instances():
    # SVD-based minimum error vs. two least-squares routes (the module's own
    # and numpy's lstsq), rel err <= 1e-8 over 240 random instances with
    # T <= 12, L <= 8, D <= 4, a third of them forced rank-deficient; wide
    # full-rank systems (T <= L+1) must come out <= 1e-10.  Budget: 5 s.
    t0 = time.perf_counter()
    n_deficient = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        t = int(rng.integers(2, 13))
        lookback = int(rng.integers(1, 9))
        d = int(rng.integers(1, 5))
        w = rng.normal(size=(t, lookback))
        b = rng.normal(size=t)
        if seed % 3 == 0 and t >= 3:
            w[t - 1] = w[0]  # duplicated row forces rank deficiency
            b[t - 1] = b[0]
            n_deficient += 1
        y = rng.normal(size=(t, d))
        rep = analysis.min_attainable_error(w, b, y)
        assert abs(rep.min_error_sq - rep.ls_residual_sq) <= 1e-8 * max(1.0, rep.ls_residual_sq)
        wbar = linalg.append_bias_column(w, b)
        x = np.linalg.lstsq(wbar, y, rcond=None)[0]
        oracle = float(((y - wbar @ x) ** 2).sum())
        assert abs(rep.min_error_sq - oracle) <= 1e-8 * max(1.0, oracle)
    assert n_deficient >= 50
    for seed in range(40):
        rng = np.random.default_rng(10_000 + seed)
        lookback = int(rng.integers(1, 9))
        t = int(rng.integers(2, lookback + 2))  # T <= L+1: no bottleneck
        rep = analysis.min_attainable_error(
            rng.normal(size=(t, lookback)), rng.normal(size=t), rng.normal(size=(t, 3))
        )
        assert rep.rank == t
        assert rep.min_error_sq <= 1e-10
    assert time.perf_counter() - t0 < 5.0


def test_analytic_gradients_match_central_differences():
    # 10 seeded (model, batch) draws per encoder kind; every trainable
    # parameter checked entrywise against central differences at h=1e-5,
    # rel err <= 1e-5.  Budget: 30 s.
    t0 = time.perf_counter()
    specs = {
        "linear": model.EncoderSpec(kind="linear", in_len=6),
        "mlp2": model.EncoderSpec(kind="mlp2", in_len=6, hidden=(6, 3), activation="tanh"),
    }
    for kind, spec in specs.items():
        for seed in range(10):
            m = model.new_model(spec, head_out=4, seed=seed)
            batch = make_batch(6, 4, 2, n=5, seed=1000 + seed)
            _, grads = model.loss_and_grads(m, batch)
            for name in m.params:
                fd = fd_gradient(m, batch, None, name, h=1e-5)
                denom = np.maximum(np.maximum(np.abs(fd), np.abs(grads[name])), 1e-8)
                assert np.max(np.abs(grads[name] - fd) / denom) <= 1e-5, (kind, seed, name)
    assert time.perf_counter() - t0 < 30.0


def test_zero_init_adapter_forecasts_bit_identical_to_foundation():
    # A freshly built adapter has B = 0, so every segment view and the
    # concatenated forecast must equal the frozen foundation bit for bit,
    # across seeds and encoder kinds.
    ds = small_ds()
    specs = [
        model.EncoderSpec(kind="linear", in_len=8),
        model.EncoderSpec(kind="mlp2", in_len=8, hidden=(8, 5)),
    ]
    for spec in specs:
        for seed in range(3):
            cfg = train.TrainConfig(max_epochs=1, patience=1, seed=seed)
            foundation, _ = train.pretrain(ds, spec, 2, cfg)
            plan = adapt.make_segment_plan(8, 4, lookback=8)
            adapter = adapt.new_adapter(foundation, plan, n_experts=3, rank=2, seed=seed)
            test_w = data.windows(ds, 8, 8, "test")[:4]
            for w in test_w:
                base = model.forecast(foundation, w.history)
                for k in range(1, 5):
                    view = adapt.adapted_model(foundation, adapter, k)
                    assert np.array_equal(model.forecast(view, w.history), base)
                stitched = train.mola_forecast(foundation, adapter, w.history)
                assert np.array_equal(stitched, np.tile(base, (4, 1)))


def test_adaptation_leaves_foundation_checkpoint_bytes_unchanged(case_ds, tmp_path):
    # Full sequential adaptation (all segments, soft routing) must not move a
    # single byte of the frozen foundation checkpoint.
    spec = model.EncoderSpec(kind="mlp2", in_len=16, hidden=(16, 8))
    foundation, _ = train.pretrain(
        case_ds, spec, 8, train.TrainConfig(max_epochs=1, patience=1, seed=3)
    )
    before = tmp_path / "before.json"
    model.save_checkpoint(foundation, before)
    plan = adapt.make_segment_plan(32, 4, lookback=16)
    adapter = adapt.new_adapter(foundation, plan, n_experts=3, rank=4, seed=3)
    train.adapt_all_segments(
        foundation, plan, adapter, case_ds, train.TrainConfig(max_epochs=2, patience=2, seed=3)
    )
    after = tmp_path / "after.json"
    model.save_checkpoint(foundation, after)
    assert before.read_bytes() == after.read_bytes()


def test_one_hot_mixture_training_equals_standalone_lora_step_for_step():
    # With one expert per segment and frozen one-hot routing, the mixture
    # must reproduce an independently written per-segment single-LoRA
    # trainer: same initial validation, same per-epoch losses, bitwise-equal
    # expert matrices, final forecasts within 1e-12.
    ds = data.standardize(data.generate_synthetic(data.default_synth_spec(n_points=400, seed=5)))
    spec = model.EncoderSpec(kind="mlp2", in_len=8, hidden=(8, 5))
    pre_cfg = train.TrainConfig(learning_rate=1e-2, max_epochs=3, patience=2, seed=11)
    foundation, _ = train.pretrain(ds, spec, 4, pre_cfg)
    cfg = train.TrainConfig(learning_rate=1e-2, max_epochs=6, patience=2, seed=11)
    plan = adapt.make_segment_plan(8, 2, lookback=8)
    adapter = adapt.new_adapter(foundation, plan, n_experts=2, rank=2, seed=11)
    adapt.freeze_one_hot_routing(adapter)
    adapter, records = train.adapt_all_segments(foundation, plan, adapter, ds, cfg)

    ref = reference_lora.train_all_segments(foundation, ds, 8, 2, rank=2, seed=11, config=cfg)

    stop_reasons = set()
    for k, (rec, (pairs, init_val, epochs)) in enumerate(zip(records, ref), start=1):
        assert rec.initial_val == init_val
        assert len(rec.epochs) == len(epochs)
        for stat, (train_loss, val_loss) in zip(rec.epochs, epochs):
            assert stat.train_loss == train_loss
            assert stat.val_loss == val_loss
        for name in adapter.adapted_layers:
            expert = adapter.experts[name][k - 1]
            assert np.array_equal(expert.b_mat, pairs[name]["b"])
            assert np.array_equal(expert.a_mat, pairs[name]["a"])
        stop_reasons.add(rec.stop_reason)
    assert "early_stop" in stop_reasons  # the comparison covers the stop path too

    ref_pairs = [p for p, _, _ in ref]
    for w in data.windows(ds, 8, 8, "test"):
        got = train.mola_forecast(foundation, adapter, w.history)
        want = reference_lora.forecast(foundation, ref_pairs, w.history)
        assert np.max(np.abs(got - want)) <= 1e-12


def test_adapter_parameter_count_ratio_is_47_per_mille():
    # d_model 512, d_ff 1024, rank 8, 4 experts, 6 segments: adapter-to-
    # backbone ratio 0.047 +- 0.001, independent of depth.
    for n_layers in (1, 6, 24):
        pc = analysis.param_counts(n_layers, 512, 1024, 8, 4, 6)
        assert abs(pc.ratio - 0.047) <= 0.001
        assert pc.ratio == pc.n_mola / pc.n_backbone
    pc = analysis.param_counts(6, 512, 1024, 8, 4, 6)
    assert pc.n_mola == 590_112
    assert pc.n_backbone == 12_595_200


def test_variance_of_mean_loss_identity_to_1e10():
    # Var(mean of per-step losses) equals (1/T^2)(sum Var + 2 sum Cov) on any
    # sample matrix, gap <= 1e-10 * max(1, Var); the covariance-difference
    # comparison stays a reported diagnostic, nothing asserts its sign.
    rng = np.random.default_rng(17)
    cases = [
        rng.normal(size=(50, 1)),
        rng.normal(size=(200, 4)) * 1e6,
        rng.normal(size=(3, 7)) * 1e-6,
        rng.lognormal(sigma=3.0, size=(1000, 2)),
        np.full((40, 5), 2.5),
    ]
    for samples in cases:
        rep = analysis.variance_report(samples)
        assert rep.identity_gap <= 1e-10 * max(1.0, rep.var_total)
    cmp = analysis.variance_compare(cases[1], rng.normal(size=(200, 4)))
    assert "delta_cov_sum" in cmp and "lower_variance" in cmp


def test_step_specific_representations_differ_beyond_seed_noise(case_ds):
    # Probing steps {1, 16, 32} with the narrow two-layer encoder: disparity
    # between different-step clouds must exceed the same-step different-seed
    # baseline by >= 2x, averaged over 5 base seeds.  Budget: 2 min.
    t0 = time.perf_counter()
    sames, crosses = [], []
    for base in (0, 100, 200, 300, 400):
        cfg = train.TrainConfig(learning_rate=1e-2, max_epochs=300, patience=30, seed=base)
        out = analysis.per_step_probe(case_ds, 16, [1, 1, 16, 16, 32, 32], config=cfg)
        sames.append(out["same_step_mean"])
        crosses.append(out["cross_step_mean"])
        for cloud in out["clouds"]:
            assert cloud.shape == (cloud.shape[0], 2)
    ratio = float(np.mean(crosses)) / float(np.mean(sames))
    assert ratio >= 2.0, f"cross/same disparity ratio {ratio:.3f} below 2"
    assert time.perf_counter() - t0 < 120.0


def test_segment_adapted_model_orders_below_both_baselines(case_ds):
    # Horizon 32, 4 segments, 10 seeds on the case-study corpus: mean test
    # MSE must order mixture <= direct multi-step <= recursive one-step, and
    # the recursive baseline must accumulate error (step-32 MSE > step-1).
    # Budget: 5 min.
    t0 = time.perf_counter()
    spec = model.EncoderSpec(kind="mlp2", in_len=6, hidden=(16, 8), activation="tanh")
    mses = {"arf": [], "mtf": [], "mola": []}
    arf_t1, arf_t32 = [], []
    for seed in range(10):
        cfg = train.TrainConfig(learning_rate=1e-2, max_epochs=300, patience=30, seed=seed)
        with warnings.catch_warnings():
            # lookback 6 < segment length 8 is intentional here
            warnings.filterwarnings("ignore", message="segment length")
            out = analysis.paradigm_compare(
                case_ds, spec, horizon=32, segments=4, config=cfg,
                n_experts=4, rank=5, routing="one-hot", pretrain_config=cfg,
            )
        hashes = {p["window_hash"] for p in out["paradigms"].values()}
        assert len(hashes) == 1  # identical evaluation windows across paradigms
        for name in mses:
            mses[name].append(out["paradigms"][name]["metrics"]["mse"])
        per_step = out["paradigms"]["arf"]["metrics"]["per_step"]
        arf_t1.append(per_step[0]["mse"])
        arf_t32.append(per_step[-1]["mse"])
    mean = {name: float(np.mean(v)) for name, v in mses.items()}
    assert mean["mola"] <= mean["mtf"] <= mean["arf"], mean
    assert float(np.mean(arf_t32)) > float(np.mean(arf_t1))
    assert time.perf_counter() - t0 < 300.0


def test_training_protocol_early_stop_split_counts_and_determinism(tmp_path):
    # Early stopping fires after exactly `patience` non-improving epochs and
    # an improvement resets the counter.
    stopper = train.EarlyStopper(patience=2)
    stopper.update(0, 1.0)
    assert stopper.update(1, 0.9) and not stopper.should_stop
    assert not stopper.update(2, 0.9) and not stopper.should_stop  # tie is not improvement
    assert not stopper.update(3, 0.9) and stopper.should_stop
    stopper = train.EarlyStopper(patience=2)
    for epoch, val in enumerate([1.0, 0.9, 0.95, 0.85, 0.9]):
        stopper.update(epoch, val)
        assert not stopper.should_stop
    stopper.update(5, 0.9)
    assert stopper.should_stop

    # Hourly-energy-style CSV: explicit split counts truncate the file and
    # place the boundaries exactly.
    rng = np.random.default_rng(4)
    rows = 17_420
    path = tmp_path / "etth.csv"
    channels = ["HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT"]
    with open(path, "w") as fh:
        fh.write("date," + ",".join(channels) + "\n")
        for i in range(rows):
            vals = ",".join(f"{x:.3f}" for x in rng.normal(size=len(channels)))
            fh.write(f"2016-07-01 {i:05d},{vals}\n")
    ds = data.load_csv(path, counts=(8545, 2881, 2881))
    assert ds.values.shape == (14_307, 7)
    assert ds.train_end == 8545
    assert ds.val_end == 11_426

    # Fixed seeds give byte-identical run summaries.
    small = small_ds()
    spec = model.EncoderSpec(kind="linear", in_len=8)
    cfg = train.TrainConfig(max_epochs=3, patience=2, seed=9)
    _, rec_a = train.mtf_train(small, spec, 4, cfg)
    _, rec_b = train.mtf_train(small, spec, 4, cfg)
    assert _io.canonical_dumps(train.run_summary(rec_a)) == _io.canonical_dumps(
        train.run_summary(rec_b)
    )
    _, pre_a = train.pretrain(small, spec, 2, cfg)
    _, pre_b = train.pretrain(small, spec, 2, cfg)
    assert _io.canonical_dumps(train.run_summary(pre_a)) == _io.canonical_dumps(
        train.run_summary(pre_b)
    )
