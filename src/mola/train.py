"""Training loops: Adam, early stopping, pre-training, per-segment
adaptation, baselines, and forecast evaluation.

All stochasticity is keyed off the run seed.  Batch order for a stage draws
from default_rng([seed, stage_key]) with stage_key 0 for whole-model
training and k for adaptation of segment k, so stages can be reproduced in
isolation.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from . import _io, adapt, data, model


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 10
    patience: int = 3
    seed: int = 0
    adam: tuple = (0.9, 0.999, 1e-8)

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        b1, b2, eps = self.adam
        if not (0 < b1 < 1 and 0 < b2 < 1 and eps > 0):
            raise ValueError(f"adam moments must satisfy 0 < beta < 1, eps > 0, got {self.adam}")


# --- optimizer ---


@dataclass
class AdamState:
    """Adam moments of a fixed set of named tensors, kept as two flat
    vectors.  ``m[name]`` and ``v[name]`` are shaped views into them, and
    ``spans[name]`` is the (start, stop) of that tensor in the flat layout."""

    spans: dict[str, tuple[int, int]]
    flat_m: np.ndarray
    flat_v: np.ndarray
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0


def init_adam(params: dict[str, np.ndarray]) -> AdamState:
    spans, offset = {}, 0
    for name, p in params.items():
        spans[name] = (offset, offset + p.size)
        offset += p.size
    state = AdamState(spans=spans, flat_m=np.zeros(offset), flat_v=np.zeros(offset), m={}, v={})
    for name, (a, b) in spans.items():
        state.m[name] = state.flat_m[a:b].reshape(params[name].shape)
        state.v[name] = state.flat_v[a:b].reshape(params[name].shape)
    return state


def adam_step(params, grads, state: AdamState, lr: float, adam=(0.9, 0.999, 1e-8)) -> None:
    """In-place Adam update with bias correction, one vectorised update over
    all registered tensors.  Gradient entries whose name was not registered
    at init time are ignored: that is the frozen mask contract, untracked
    parameters never move.  Every registered name needs a gradient."""
    missing = [name for name in state.spans if name not in grads]
    if missing:
        raise ValueError(f"no gradient for registered parameters {missing}")
    b1, b2, eps = adam
    g = np.concatenate([grads[name].ravel() for name in state.spans])
    state.t += 1
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    m, v = state.flat_m, state.flat_v
    # in place, but each product, sum and quotient of
    # lr * (m / c1) / (sqrt(v / c2) + eps) is formed as written, so the
    # result is the textbook update bit for bit
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    g *= g
    g *= 1.0 - b2
    v += g
    step = m / c1
    step *= lr
    den = v / c2
    np.sqrt(den, out=den)
    den += eps
    step /= den
    for name, (a, b) in state.spans.items():
        p = params[name]
        p -= step[a:b].reshape(p.shape)


# --- early stopping ---


class EarlyStopper:
    """Stop after `patience` consecutive epochs without strict val-loss
    improvement.  Ties keep the earlier epoch as best."""

    def __init__(self, patience: int):
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.patience = patience
        self.best_val = float("inf")
        self.best_epoch = -1
        self.bad_epochs = 0

    def update(self, epoch: int, val_loss: float) -> bool:
        if val_loss < self.best_val:
            self.best_val = val_loss
            self.best_epoch = epoch
            self.bad_epochs = 0
            return True
        self.bad_epochs += 1
        return False

    @property
    def should_stop(self) -> bool:
        return self.bad_epochs >= self.patience


# --- records ---


@dataclass
class EpochStat:
    epoch: int
    train_loss: float
    val_loss: float


@dataclass
class RunRecord:
    stage: str
    initial_val: float
    epochs: list[EpochStat] = field(default_factory=list)
    best_epoch: int = 0
    best_val: float = float("inf")
    stop_reason: str = "max_epochs"
    wall_time_s: float = 0.0
    final_metrics: dict | None = None
    drift: dict | None = None  # adaptation segments: val MSE at freeze vs final adapter


def run_summary(record: RunRecord) -> dict:
    """Summary dict for reports.  Deliberately excludes wall time so that
    fixed-seed reruns serialize byte-identically."""
    return {
        "stage": record.stage,
        "initial_val_loss": record.initial_val,
        "epochs": [
            {"epoch": e.epoch, "train_loss": e.train_loss, "val_loss": e.val_loss}
            for e in record.epochs
        ],
        "best_epoch": record.best_epoch,
        "best_val_loss": record.best_val,
        "stop_reason": record.stop_reason,
        "final_metrics": record.final_metrics,
        "drift": record.drift,
    }


def write_run_record(record: RunRecord, path) -> None:
    """Line-delimited JSON: epoch 0 is the untrained validation loss, one
    line per trained epoch, final line carries the summary plus wall time.
    A non-finite loss raises ValueError and nothing is written."""
    lines = [{"stage": record.stage, "epoch": 0, "val_loss": record.initial_val}]
    lines += [
        {"stage": record.stage, "epoch": e.epoch,
         "train_loss": e.train_loss, "val_loss": e.val_loss}
        for e in record.epochs
    ]
    lines.append({"summary": run_summary(record), "wall_time_s": record.wall_time_s})
    try:
        text = "".join(_io.canonical_dumps(line) for line in lines)
    except ValueError as e:
        raise ValueError(f"cannot write {path}: {e}") from None
    Path(path).write_text(text, encoding="utf-8")


# --- generic fit loop ---


def fit(stage: str, train_windows: data.WindowSet, params, loss_grads_fn, val_fn,
        config: TrainConfig, stage_key: int) -> RunRecord:
    """Minimize via Adam with best-epoch snapshotting.  Returns the stage's
    RunRecord, without final metrics or wall time, and leaves `params`
    holding the best-validation snapshot.  When no epoch beats the
    untrained validation loss, the stop reason is ``no_improvement`` and a
    RuntimeWarning names the stage."""
    n = len(train_windows)
    if n == 0:
        raise ValueError("no training windows")
    rng = np.random.default_rng([config.seed, stage_key])
    state = init_adam(params)
    stopper = EarlyStopper(config.patience)
    record = RunRecord(stage=stage, initial_val=float(val_fn()))
    stopper.update(0, record.initial_val)
    best = {k: v.copy() for k, v in params.items()}
    for epoch in range(1, config.max_epochs + 1):
        perm = rng.permutation(n)
        total = 0.0
        for i in range(0, n, config.batch_size):
            batch = train_windows[perm[i : i + config.batch_size]]
            loss, grads = loss_grads_fn(batch)
            adam_step(params, grads, state, config.learning_rate, config.adam)
            total += loss * len(batch)
        val = float(val_fn())
        record.epochs.append(EpochStat(epoch=epoch, train_loss=total / n, val_loss=val))
        if stopper.update(epoch, val):
            best = {k: v.copy() for k, v in params.items()}
        if stopper.should_stop:
            record.stop_reason = "early_stop"
            break
    for k, v in params.items():
        np.copyto(v, best[k])
    record.best_epoch, record.best_val = stopper.best_epoch, stopper.best_val
    if record.best_epoch == 0:
        record.stop_reason = "no_improvement"
        trained_best = min(e.val_loss for e in record.epochs)
        warnings.warn(
            f"{stage}: no epoch improved on the untrained validation loss "
            f"{record.initial_val:.6g} (best trained epoch: {trained_best:.6g}); "
            "keeping the initialisation",
            RuntimeWarning,
        )
    return record


def _train_model(ds: data.SeriesDataset, encoder_spec: model.EncoderSpec, horizon: int,
                 config: TrainConfig, stage: str):
    t0 = perf_counter()
    lookback = encoder_spec.in_len
    train_w = data.windows(ds, lookback, horizon, "train")
    val_w = data.windows(ds, lookback, horizon, "val")
    m = model.new_model(encoder_spec, head_out=horizon, seed=config.seed)
    params = {name: m.params.get(name) for name in m.params.trainable_names()}
    record = fit(
        stage,
        train_w,
        params,
        lambda batch: model.loss_and_grads(m, batch),
        lambda: model.mse_loss(m, val_w),
        config,
        stage_key=0,
    )
    record.final_metrics = evaluate_forecaster(
        lambda h: model.forecast(m, h), ds, lookback, horizon, split="val"
    )
    record.wall_time_s = perf_counter() - t0
    return m, record


# --- stages ---


def pretrain(ds: data.SeriesDataset, encoder_spec: model.EncoderSpec, s_steps: int,
             config: TrainConfig | None = None):
    """Train the S-step foundation model; returned frozen at its best epoch."""
    m, record = _train_model(ds, encoder_spec, s_steps, config or TrainConfig(), stage="pretrain")
    m.freeze()
    return m, record


def mtf_train(ds, encoder_spec, horizon: int, config: TrainConfig | None = None):
    """Multi-target baseline: one model emitting all T steps at once."""
    return _train_model(ds, encoder_spec, horizon, config or TrainConfig(), stage="mtf")


def arf_train(ds, encoder_spec, config: TrainConfig | None = None):
    """Autoregressive baseline: a 1-step model, rolled out recursively at
    inference time via ar_f_forecast."""
    return _train_model(ds, encoder_spec, 1, config or TrainConfig(), stage="arf")


def adapt_all_segments(foundation: model.FoundationModel, plan: adapt.SegmentPlan,
                       adapter: adapt.MolaAdapter, ds: data.SeriesDataset,
                       config: TrainConfig | None = None):
    """Sequentially fit segments 1..K: each segment trains the shared experts
    plus its own routing row on its slice of the horizon-T labels, restores
    its best-validation snapshot, then freezes the routing row.

    A segment's final metrics are its val metrics at freeze.  Later segments
    keep training the shared experts, so after the last segment every
    segment's val MSE is measured again with the final adapter; ``drift``
    holds both values and their difference (final minus at freeze)."""
    config = config or TrainConfig()
    if adapter.plan != plan:
        raise ValueError("adapter was built for a different segment plan")
    if not foundation.frozen:
        raise ValueError("foundation must be frozen before adaptation")
    if plan.seg_len != foundation.head_out:
        raise ValueError(
            f"plan segment length {plan.seg_len} != foundation head_out {foundation.head_out}"
        )
    lookback = foundation.lookback
    train_w = data.windows(ds, lookback, plan.horizon, "train")
    val_w = data.windows(ds, lookback, plan.horizon, "val")

    def val_metrics(k: int) -> dict:
        return evaluate_forecaster(
            lambda h: model.forecast(adapt.adapted_model(foundation, adapter, k), h),
            ds, lookback, plan.horizon, split="val", target_rows=plan.boundaries[k - 1],
        )

    records: list[RunRecord] = []
    for k in range(1, plan.segments + 1):
        t0 = perf_counter()
        target = plan.boundaries[k - 1]
        params = adapt.adaptation_params(adapter, k)
        record = fit(
            f"segment-{k}",
            train_w,
            params,
            lambda batch, k=k, target=target: adapt.segment_grads(
                foundation, adapter, k, batch, target),
            lambda k=k, target=target: adapt.segment_loss(
                foundation, adapter, k, val_w, target),
            config,
            stage_key=k,
        )
        adapter.frozen_logits[k - 1] = True
        record.final_metrics = val_metrics(k)
        record.wall_time_s = perf_counter() - t0
        records.append(record)
    for k, record in enumerate(records, start=1):
        at_freeze, final = record.final_metrics["mse"], val_metrics(k)["mse"]
        record.drift = {"val_mse_at_freeze": at_freeze, "val_mse_final": final,
                        "val_mse_change": final - at_freeze}
    return adapter, records


def mola_forecast(foundation: model.FoundationModel, adapter: adapt.MolaAdapter,
                  history: np.ndarray) -> np.ndarray:
    """Concatenated inference: segment k's adapted view fills rows
    boundaries[k] of the T-step forecast."""
    history = np.asarray(history, dtype=np.float64)
    out = np.empty((adapter.plan.horizon, history.shape[1]))
    for k, (lo, hi) in enumerate(adapter.plan.boundaries, start=1):
        view = adapt.adapted_model(foundation, adapter, k)
        out[lo - 1 : hi] = model.forecast(view, history)
    return out


# --- evaluation ---


def forecast_windows(forecast_fn, wins: data.WindowSet, rows: int) -> np.ndarray:
    """Forecasts of all windows from one ``forecast_fn`` call on their
    (L, N*D) history block; returned as an (N, rows, D) view of the
    (rows, N*D) result."""
    n, _, d = wins.history.shape
    pred = np.asarray(forecast_fn(wins.history_block()), dtype=np.float64)
    if pred.shape != (rows, n * d):
        raise ValueError(f"forecast block shape {pred.shape} != ({rows}, {n * d}): "
                         f"{rows} label rows for {n} windows of {d} channels")
    return pred.reshape(rows, n, d).transpose(1, 0, 2)


def evaluate_forecaster(forecast_fn, ds: data.SeriesDataset, lookback: int, horizon: int,
                        split: str = "test", target_rows: tuple[int, int] | None = None) -> dict:
    """Per-step and step-averaged MSE/MAE of `forecast_fn` over a split.

    `forecast_fn` is called once, on the (L, N*D) history block of all N
    windows (column i*D + c is channel c of window i), and must return the
    (rows, N*D) forecast block.  The averaged row is defined as the mean of
    the per-step values.  With target_rows=(first, last), forecast_fn must
    return just those label rows (used for per-segment evaluation) and steps
    keep their absolute index.
    """
    wins = data.windows(ds, lookback, horizon, split)
    if target_rows is None:
        first, last = 1, horizon
    else:
        first, last = target_rows
        if not 1 <= first <= last <= horizon:
            raise ValueError(f"target rows {target_rows} out of range 1..{horizon}")
    preds = forecast_windows(forecast_fn, wins, last - first + 1)
    # a C-ordered (N, rows, D) error array keeps the summation order of the
    # means below the same as for stacked per-window forecasts
    err = np.subtract(preds, wins.label[:, first - 1 : last], order="C")
    mse_steps = (err**2).mean(axis=(0, 2))
    mae_steps = np.abs(err).mean(axis=(0, 2))
    per_step = [
        {"step": s, "mse": float(mse_steps[j]), "mae": float(mae_steps[j])}
        for j, s in enumerate(range(first, last + 1))
    ]
    return {
        "split": split,
        "n_windows": len(wins),
        "per_step": per_step,
        "mse": float(np.mean(mse_steps)),
        "mae": float(np.mean(mae_steps)),
    }
