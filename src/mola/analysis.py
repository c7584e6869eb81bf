"""Numerical certification and comparison tools.

Four independent checks live here:

* the linear-readout error floor (SVD null-space energy, cross-checked
  against a least-squares projection residual computed by a separate route),
* closed-form adapter/backbone parameter counts,
* the exact variance decomposition of a mean of per-step losses,
* the per-step representation probe and the three-paradigm comparison
  harness.

Everything is a pure function over immutable inputs; reports are plain
dicts ready for JSON/CSV serialization.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from . import adapt, data, linalg, model, train


# --- linear-readout error floor ---


@dataclass
class BottleneckReport:
    """Error floor of predicting labels y through a fixed affine map.

    ``min_error_sq`` comes from the null-space energy formula
    sum_{t > rank} ||u_t^T y||^2; ``ls_residual_sq`` is the independent
    oracle: the squared residual of least-squares projecting y onto
    col([W b]).  Both are kept so the agreement stays checkable.
    """

    wbar: np.ndarray
    svd: linalg.SvdResult
    rank: int
    min_error_sq: float
    ls_residual_sq: float
    per_direction_energy: list[float]


def min_attainable_error(w, b, y) -> BottleneckReport:
    """Best-case squared error of y ~ W r + b over ALL inputs r.

    The relaxation treats the bias coordinate as free (r ranges over the
    full L+1 dimensional space).  ``[W b]`` is decomposed once: the floor is
    the energy of y along the null directions of its left singular basis,
    and ``ls_residual_sq``, the residual of the pseudoinverse solution built
    from the same decomposition, checks that formula by another route.
    """
    w = linalg.as_matrix(w)
    y = linalg.as_matrix(y)
    wbar = linalg.append_bias_column(w, b)
    if y.shape[0] != wbar.shape[0]:
        raise ValueError(f"labels have {y.shape[0]} rows, map has {wbar.shape[0]} outputs")
    res = linalg.svd(wbar)
    outside = res.u[:, res.rank:].T @ y  # coordinates of y along each null direction
    energies = np.einsum("ij,ij->i", outside, outside).tolist()
    del outside  # as large as y, and not needed while least squares runs
    x = linalg.least_squares(wbar, y, res)
    # formed in place, so the floor holds one label-sized array beside y
    resid = wbar @ x
    resid -= y
    np.multiply(resid, resid, out=resid)
    return BottleneckReport(
        wbar=wbar,
        svd=res,
        rank=res.rank,
        min_error_sq=float(sum(energies)),
        ls_residual_sq=float(np.sum(resid)),
        per_direction_energy=energies,
    )


def linear_forecast_map(m: model.FoundationModel) -> tuple[np.ndarray, np.ndarray]:
    """Collapse a linear-encoder model into one affine map history -> forecast."""
    if m.encoder_spec.kind != "linear":
        raise ValueError(
            f"error-floor analysis needs a linear model, got encoder kind "
            f"{m.encoder_spec.kind!r}"
        )
    p = m.params
    return p["head.w"] @ p["enc0.w"], p["head.w"] @ p["enc0.b"] + p["head.b"]


def dataset_bottleneck(m: model.FoundationModel, ds: data.SeriesDataset,
                       split: str = "test") -> dict:
    """Mean over a split's windows of the per-window error floor.

    Channels and windows decouple (the floor minimizes per label column), so
    stacking all label columns gives totals whose mean over windows equals
    averaging per-window reports.
    """
    w, b = linear_forecast_map(m)
    wins = data.windows(ds, m.lookback, m.head_out, split)
    y_all = wins.label_block()  # (T, N*D), window-major columns
    rep = min_attainable_error(w, b, y_all)
    n = len(wins)
    d = ds.values.shape[1]
    return {
        "split": split,
        "n_windows": n,
        "lookback": m.lookback,
        "horizon": m.head_out,
        "rank": rep.rank,
        "total_min_error_sq": rep.min_error_sq,
        "total_ls_residual_sq": rep.ls_residual_sq,
        "mean_min_error_sq": rep.min_error_sq / n,
        "mean_ls_residual_sq": rep.ls_residual_sq / n,
        "mean_min_error_per_element": rep.min_error_sq / (n * m.head_out * d),
    }


# --- parameter counts ---


@dataclass(frozen=True)
class ParamCount:
    n_mola: int
    n_backbone: int
    ratio: float


def param_counts(n_layers: int, d_model: int, d_ff: int, rank: int,
                 n_experts: int, segments: int) -> ParamCount:
    """Exact integer parameter counts for adapters vs. the backbone they ride.

    Adapters: per layer, both adapted matrices (d_model x d_ff up and down)
    carry P rank-r factor pairs plus a K x P routing table.  Backbone: the
    standard attention + feed-forward weight count.  rank 0 is allowed and
    leaves only the routing tables.
    """
    vals = dict(n_layers=n_layers, d_model=d_model, d_ff=d_ff,
                n_experts=n_experts, segments=segments)
    for name, v in vals.items():
        if int(v) != v or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v}")
    if int(rank) != rank or rank < 0:
        raise ValueError(f"rank must be a non-negative integer, got {rank}")
    n_layers, d_model, d_ff, rank, n_experts, segments = (
        int(n_layers), int(d_model), int(d_ff), int(rank), int(n_experts), int(segments))
    n_mola = n_layers * 2 * ((d_model * rank + rank * d_ff) * n_experts + n_experts * segments)
    n_backbone = n_layers * (4 * d_model * d_model + 2 * d_model * d_ff + 4 * d_model)
    return ParamCount(
        n_mola=n_mola,
        n_backbone=n_backbone,
        ratio=n_mola / n_backbone,
    )


# --- variance decomposition ---


@dataclass
class VarianceReport:
    """Empirical decomposition of Var(mean_t L_t) into per-step variances
    and pairwise covariances; identity_gap measures how far the two sides
    of the exact identity drift apart (should be ~machine precision)."""

    var_total: float
    var_terms: np.ndarray
    cov_sum: float
    identity_gap: float

    def summary(self) -> dict:
        """The report's scalars as reports carry them."""
        return {"var_total": self.var_total, "var_sum": float(self.var_terms.sum()),
                "cov_sum": self.cov_sum, "identity_gap": self.identity_gap}


def variance_report(per_step_losses) -> VarianceReport:
    s = linalg.as_matrix(per_step_losses)
    if s.shape[0] < 2:
        raise ValueError(f"need at least 2 loss samples, got {s.shape[0]}")
    t = s.shape[1]
    cov = np.atleast_2d(np.cov(s, rowvar=False, ddof=1))
    var_terms = np.diag(cov).copy()
    cov_sum = float((cov.sum() - np.trace(cov)) / 2.0)
    var_total = float(np.var(s.mean(axis=1), ddof=1))
    decomposed = (float(var_terms.sum()) + 2.0 * cov_sum) / (t * t)
    return VarianceReport(
        var_total=var_total,
        var_terms=var_terms,
        cov_sum=cov_sum,
        identity_gap=abs(var_total - decomposed),
    )


def variance_compare(samples_a, samples_b, label_a: str = "a", label_b: str = "b") -> dict:
    """Side-by-side variance decomposition of two paradigms' loss samples.

    delta_cov_sum > 0 means the first paradigm's per-step losses co-vary
    more.  This is a diagnostic: whether the covariance gap favors one
    paradigm is an empirical question, so nothing here is an assertion.
    """
    ra = variance_report(samples_a)
    rb = variance_report(samples_b)
    return {
        "a": {"label": label_a, **ra.summary()},
        "b": {"label": label_b, **rb.summary()},
        "delta_var_total": ra.var_total - rb.var_total,
        "delta_cov_sum": ra.cov_sum - rb.cov_sum,
        "lower_variance": label_a if ra.var_total <= rb.var_total else label_b,
    }


# --- representation probe ---


def cloud_disparity(a, b) -> float:
    """Procrustes disparity between two point clouds with row correspondence:
    center both, scale each to unit Frobenius norm, optimally rotate/reflect
    and rescale the second onto the first, return the summed squared residual
    (equivalently 1 - s^2 for the optimal scale s; range [0, 1]).

    Normalizing total spread rather than whitening per axis keeps each
    cloud's own proportions, so a direction the model barely varies
    contributes in proportion to its actual spread instead of being inflated
    to unit variance."""
    x = linalg.as_matrix(a)
    y = linalg.as_matrix(b)
    if x.shape != y.shape:
        raise ValueError(f"cloud shapes differ: {x.shape} vs {y.shape}")
    if x.shape[0] < 2:
        raise ValueError("disparity needs at least 2 points")
    x = x - x.mean(axis=0)
    y = y - y.mean(axis=0)
    nx = np.sqrt((x**2).sum())
    ny = np.sqrt((y**2).sum())
    if nx == 0.0 or ny == 0.0:
        raise ValueError("degenerate cloud: all points identical")
    x /= nx
    y /= ny
    res = linalg.svd(y.T @ x)
    rot = res.u @ res.vt
    scale = float(res.sigma.sum())
    return float(((x - scale * (y @ rot)) ** 2).sum())


def per_step_probe(ds: data.SeriesDataset, lookback: int, steps,
                   config: train.TrainConfig | None = None) -> dict:
    """Train one single-output model per requested step and compare the
    representation clouds they form on the common test windows.

    Entry i trains with seed config.seed + i, so repeating a step measures
    the within-seed disparity baseline.  All entries share the same windows
    (horizon = max(steps)) and differ only in which label row they fit.
    """
    steps = [int(t) for t in steps]
    if not steps or min(steps) < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    config = config or train.TrainConfig()
    horizon = max(steps)
    # a 2-D representation: each cloud is written out as (x0, x1) points
    spec = model.EncoderSpec(kind="mlp2", in_len=lookback, hidden=(16, 2), activation="tanh")
    train_w = data.windows(ds, lookback, horizon, "train")
    val_w = data.windows(ds, lookback, horizon, "val")
    test_w = data.windows(ds, lookback, horizon, "test")
    n_test, d = len(test_w), test_w.series.shape[1]
    clouds, seeds, val_losses = [], [], []
    for i, t in enumerate(steps):
        seed = config.seed + i
        m = model.new_model(spec, head_out=1, seed=seed)
        [record] = train.fit(
            [train.Stage(f"probe-step-{t}", 0, lambda: model.mse_loss(m, val_w, t),
                         m.params)],
            train_w,
            lambda batch: model.loss_and_grads(m, batch, t),
            replace(config, seed=seed),
        )
        seeds.append(seed)
        val_losses.append(record.best_val)
        # one point per test window: its representation averaged over channels
        rep = model.encode(m, test_w.history_block())
        clouds.append(rep.reshape(-1, n_test, d).mean(axis=2).T)
    pairwise, same, cross = [], [], []
    for i in range(len(steps)):
        for j in range(i + 1, len(steps)):
            d = cloud_disparity(clouds[i], clouds[j])
            pairwise.append(
                {"i": i, "j": j, "step_i": steps[i], "step_j": steps[j], "disparity": d}
            )
            (same if steps[i] == steps[j] else cross).append(d)
    return {
        "lookback": lookback,
        "horizon": horizon,
        "steps": steps,
        "seeds": seeds,
        "val_losses": val_losses,
        "clouds": clouds,
        "pairwise": pairwise,
        "same_step_mean": float(np.mean(same)) if same else None,
        "cross_step_mean": float(np.mean(cross)) if cross else None,
    }


# --- paradigm comparison ---


def window_set_hash(ws: data.WindowSet) -> str:
    """Order-sensitive content hash of a window set; lets reports prove that
    paradigms were evaluated on identical data."""
    # one row per window: origin (int64), history, label, all in native byte
    # order, so the digest equals hashing the windows one after another;
    # fed one window chunk at a time
    digest, lookback, d = hashlib.sha256(), ws.lookback, ws.series.shape[1]
    for part in ws.chunks():
        chunk = ws[part]
        history, label = chunk.blocks()  # (L, n*D) and (T, n*D)
        n = len(chunk)
        rows = np.empty((n, 1 + (lookback + ws.horizon) * d))
        rows.view(np.int64)[:, 0] = chunk.origin
        windows = rows[:, 1:].reshape(n, -1, d)  # (n, L + T, D) view
        windows[:, :lookback] = history.reshape(lookback, n, d).transpose(1, 0, 2)
        windows[:, lookback:] = label.reshape(-1, n, d).transpose(1, 0, 2)
        digest.update(rows)
        del history, label, rows, windows  # dropped before the next chunk is gathered
    return digest.hexdigest()


def paradigm_compare(ds: data.SeriesDataset, encoder_spec: model.EncoderSpec,
                     horizon: int, segments: int,
                     config: train.TrainConfig | None = None,
                     n_experts: int | None = None, rank: int = 1,
                     routing: str = "soft",
                     pretrain_config: train.TrainConfig | None = None) -> dict:
    """Train the recursive single-step baseline, the direct multi-step
    baseline, and the segment-adapted model on identical data and evaluate
    all three on the same test windows.

    ``routing`` becomes the adapter's routing.  "one-hot" pins segment k to
    expert k (requires one expert per segment).  Under soft mixing segments
    train one after another on shared experts, so later segments repurpose
    experts that earlier segments' mixing weights still point at; one-hot
    routing keeps the per-segment fits independent, which matters when
    adaptations are large, and trains all segments in one lockstep fit (see
    train.adapt_all_segments).  Adapter
    settings are checked before anything trains; the foundation trains with
    ``pretrain_config``, by default ``config``.
    """
    n_experts = segments if n_experts is None else n_experts
    adapt.check_settings(encoder_spec, horizon, segments, n_experts, rank, routing=routing)
    config = config or train.TrainConfig()
    lookback = encoder_spec.in_len
    plan = adapt.make_segment_plan(horizon, segments, lookback=lookback)
    paradigms: dict[str, dict] = {}
    # every evaluate_forecaster call scores these same test windows
    test_hash = window_set_hash(data.windows(ds, lookback, horizon, "test"))

    def eval_with_audit(forecast_fn):
        return {
            "metrics": train.evaluate_forecaster(forecast_fn, ds, lookback, horizon, split="test"),
            "window_hash": test_hash,
        }

    arf_m, arf_rec = train.arf_train(ds, encoder_spec, config)
    paradigms["arf"] = eval_with_audit(lambda h: model.ar_f_forecast(arf_m, h, horizon))
    paradigms["arf"]["records"] = [train.run_summary(arf_rec)]

    mtf_m, mtf_rec = train.mtf_train(ds, encoder_spec, horizon, config)
    paradigms["mtf"] = eval_with_audit(lambda h: model.forecast(mtf_m, h))
    paradigms["mtf"]["records"] = [train.run_summary(mtf_rec)]

    foundation, pre_rec = train.pretrain(ds, encoder_spec, plan.seg_len,
                                         pretrain_config or config)
    adapter = adapt.new_adapter(foundation, plan, n_experts, rank, seed=config.seed,
                                routing=routing)
    adapter, seg_recs = train.adapt_all_segments(foundation, plan, adapter, ds, config)
    paradigms["mola"] = eval_with_audit(train.mola_forecaster(foundation, adapter))
    paradigms["mola"]["records"] = [train.run_summary(pre_rec)] + [
        train.run_summary(r) for r in seg_recs
    ]

    mola_metrics = paradigms["mola"]["metrics"]
    delta = {}
    for base in ("arf", "mtf"):
        for met in ("mse", "mae"):
            bval = paradigms[base]["metrics"][met]
            delta[f"mola_vs_{base}_{met}_pct"] = float(
                100.0 * (bval - mola_metrics[met]) / bval
            )
    return {
        "inputs": {
            "lookback": lookback,
            "horizon": horizon,
            "segments": segments,
            "n_experts": n_experts,
            "rank": rank,
            "routing": routing,
            "encoder": encoder_spec.to_dict(),
            "seed": config.seed,
        },
        "paradigms": paradigms,
        "delta": delta,
    }
