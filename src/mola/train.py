"""Training loops: Adam, early stopping, pre-training, per-segment
adaptation, baselines, and forecast evaluation.

All stochasticity is keyed off the run seed.  Batch order for a stage draws
from default_rng([seed, stage_key]) with stage_key 0 for whole-model
training and k for adaptation of segment k, so stages can be reproduced in
isolation, also when independent segments train in one lockstep fit.

Losses and metrics read ``rows`` label rows from row ``first`` of the
window set they score: segment k's are the seg_len rows from
``plan.first_rows[k - 1]``, an evaluation's by default all T from row 1, and
a :class:`StepErrors` counts its steps the same way.  Every scorer takes the
``data.WindowSet`` it scores, so one set can be scored at any of its label
rows, and the metrics name the set's split and window count.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable
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

    def __post_init__(self):
        if not self.learning_rate > 0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.patience < 1:
            raise ValueError(f"patience must be >= 1, got {self.patience}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


# --- optimizer ---


# Adam's moment decay rates and denominator epsilon, the textbook defaults
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam moments of a fixed set of named tensors, kept as two flat
    vectors in the order of ``params``, the dict the state was made for.

    ``runs`` pairs each run of registered arrays that lie back to back in
    one buffer (a whole packed model is one run) with its slice of the flat
    ``step`` buffer, both as views made once; ``grad`` is the flat gradient
    buffer."""

    params: dict[str, np.ndarray]
    flat_m: np.ndarray
    flat_v: np.ndarray
    grad: np.ndarray
    step: np.ndarray
    runs: list[tuple[np.ndarray, np.ndarray]]
    t: int = 0


def _memory_runs(params: dict[str, np.ndarray]) -> list[tuple[np.ndarray, int]]:
    """(view, size) of each run of consecutive ``params`` that lie back to
    back in one C-contiguous float64 buffer: the array itself for a run of
    one, else a flat view of the run's memory.  Any other array is refused."""
    runs: list[list] = []  # [first array, buffer, start, size]
    for name, p in params.items():
        root = p
        while isinstance(root.base, np.ndarray):
            root = root.base
        if not (p.flags.c_contiguous and root.flags.c_contiguous
                and p.dtype == root.dtype == np.float64):
            raise ValueError(f"parameter {name!r} is not a C-contiguous float64 array "
                             "in a C-contiguous float64 buffer")
        start = (p.__array_interface__["data"][0] - root.__array_interface__["data"][0]) // 8
        if runs and runs[-1][1] is root and runs[-1][2] + runs[-1][3] == start:
            runs[-1][3] += p.size
        else:
            runs.append([p, root, start, p.size])
    return [(p if size == p.size else root.reshape(-1)[start : start + size], size)
            for p, root, start, size in runs]


def init_adam(params: dict[str, np.ndarray]) -> AdamState:
    total = sum(p.size for p in params.values())
    state = AdamState(params=params, flat_m=np.zeros(total), flat_v=np.zeros(total),
                      grad=np.empty(total), step=np.empty(total), runs=[])
    offset = 0
    for view, size in _memory_runs(params):
        state.runs.append((view, state.step[offset : offset + size].reshape(view.shape)))
        offset += size
    return state


def adam_step(params, grads, state: AdamState, lr: float) -> None:
    """In-place Adam update with bias correction (ADAM_BETA1, ADAM_BETA2,
    ADAM_EPS), one vectorised update over all registered tensors and one
    subtraction per run of them in memory.  ``params`` must be the dict
    given to init_adam.  Gradient entries whose name was not registered at
    init time are ignored: that is the frozen mask contract, untracked
    parameters never move.  Every registered name needs a gradient."""
    if params is not state.params:
        raise ValueError("adam_step needs the params dict its state was made for")
    if not grads.keys() >= params.keys():
        missing = [name for name in params if name not in grads]
        raise ValueError(f"no gradient for registered parameters {missing}")
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    g, step = state.grad, state.step
    np.concatenate([grads[name].ravel() for name in params], out=g)
    state.t += 1
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    m, v = state.flat_m, state.flat_v
    # in place, but each product, sum and quotient of
    # lr * (m / c1) / (sqrt(v / c2) + eps) is formed as written, so the
    # result is the textbook update bit for bit
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=step)
    v *= b2
    g *= g
    g *= 1.0 - b2
    v += g
    np.divide(m, c1, out=step)
    step *= lr
    den = np.divide(v, c2, out=g)
    np.sqrt(den, out=den)
    den += eps
    step /= den
    for run, run_step in state.runs:
        run -= run_step


# --- early stopping ---


# A stage diverged when its val loss is non-finite or above this many times
# its untrained val loss.
DIVERGENCE_FACTOR = 1e6


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


def _json_loss(loss: float) -> float | None:
    """An epoch's loss as JSON: a non-finite one, as a diverged epoch has,
    is null, since JSON has no NaN or infinity."""
    return loss if np.isfinite(loss) else None


def run_summary(record: RunRecord) -> dict:
    """Summary dict for reports.  Deliberately excludes wall time so that
    fixed-seed reruns serialize byte-identically.  Non-finite epoch losses
    are null."""
    return {
        "stage": record.stage,
        "initial_val_loss": record.initial_val,
        "epochs": [
            {"epoch": e.epoch, "train_loss": _json_loss(e.train_loss),
             "val_loss": _json_loss(e.val_loss)}
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
    A non-finite epoch loss is written as null; any other non-finite value
    (the untrained or best validation loss) raises ValueError and nothing
    is written."""
    summary = run_summary(record)
    lines = [{"stage": record.stage, "epoch": 0, "val_loss": record.initial_val}]
    lines += [{"stage": record.stage, **epoch} for epoch in summary["epochs"]]
    lines.append({"summary": summary, "wall_time_s": record.wall_time_s})
    try:
        text = "".join(_io.canonical_dumps(line) for line in lines)
    except ValueError as e:
        raise ValueError(f"cannot write {path}: {e}") from None
    Path(path).write_text(text, encoding="utf-8")


# --- generic fit loop ---


@dataclass
class Stage:
    """One fit of ``train.fit``: its record's name, the key of its batch
    order, its validation loss, and the arrays it snapshots at its best
    epoch and restores at the end."""

    name: str
    key: int
    val_fn: Callable[[], float]
    params: dict[str, np.ndarray]


def fit(stages: list[Stage], train_windows: data.WindowSet, loss_grads_fn,
        config: TrainConfig, params=None) -> list[RunRecord]:
    """Minimize via Adam with best-epoch snapshotting, one RunRecord per
    stage, without final metrics or wall time.

    Stages train in lockstep.  Each draws its batches from
    default_rng([config.seed, stage.key]) and keeps its own early stopper;
    a step hands ``loss_grads_fn`` one batch per stage, in stage order, as
    one WindowSet ``train_windows[rows]``, which the model gathers straight
    into its blocks.  ``loss_grads_fn`` returns the loss of each stage (a scalar
    or a (K,) array) and the gradients of ``params``, by default the only
    stage's arrays, which one Adam step updates.  A stopped stage is no longer validated,
    and its arrays end at its best snapshot, so stages that share nothing
    but the step see exactly their own fit.  A stage stops at the first
    epoch whose val loss is non-finite or above DIVERGENCE_FACTOR times its
    untrained val loss, with stop reason ``diverged``.  Otherwise, when no
    epoch beats its untrained val loss, its stop reason is
    ``no_improvement``.  Either way a RuntimeWarning names the stage."""
    n = len(train_windows)
    if n == 0:
        raise ValueError("no training windows")
    if params is None:
        if len(stages) != 1:
            raise ValueError(f"{len(stages)} stages need the params they step together")
        params = stages[0].params
    rngs = [np.random.default_rng([config.seed, s.key]) for s in stages]
    state = init_adam(params)
    stoppers = [EarlyStopper(config.patience) for _ in stages]
    records = [RunRecord(stage=s.name, initial_val=float(s.val_fn())) for s in stages]
    for stopper, record in zip(stoppers, records):
        stopper.update(0, record.initial_val)
    best = [{k: v.copy() for k, v in s.params.items()} for s in stages]
    active = list(range(len(stages)))
    k, size = len(stages), config.batch_size
    whole = n - n % size  # windows in full batches
    for epoch in range(1, config.max_epochs + 1):
        perms = np.stack([rng.permutation(n) for rng in rngs])
        # every step's K batches one after another, in step order, checked
        # as one set of window rows; step i's batch is then one slice of it
        order = np.concatenate([perms[:, :whole].reshape(k, -1, size).swapaxes(0, 1).ravel(),
                                perms[:, whole:].ravel()])
        epoch_batch = train_windows[order]
        totals = np.zeros(k)
        for i in range(0, n, size):
            stop = min(i + size, n)
            loss, grads = loss_grads_fn(epoch_batch[k * i : k * stop])
            adam_step(params, grads, state, config.learning_rate)
            totals += loss * (stop - i)
        for j in list(active):
            val = float(stages[j].val_fn())
            records[j].epochs.append(
                EpochStat(epoch=epoch, train_loss=float(totals[j] / n), val_loss=val))
            if stoppers[j].update(epoch, val):
                best[j] = {k: v.copy() for k, v in stages[j].params.items()}
            if not np.isfinite(val) or val > DIVERGENCE_FACTOR * records[j].initial_val:
                records[j].stop_reason = "diverged"
                active.remove(j)
            elif stoppers[j].should_stop:
                records[j].stop_reason = "early_stop"
                active.remove(j)
        if not active:
            break
    for stage, snapshot, stopper, record in zip(stages, best, stoppers, records):
        for k, v in stage.params.items():
            np.copyto(v, snapshot[k])
        record.best_epoch, record.best_val = stopper.best_epoch, stopper.best_val
        if record.stop_reason == "diverged":
            warnings.warn(
                f"{stage.name}: diverged at epoch {len(record.epochs)}: validation loss "
                f"{record.epochs[-1].val_loss:.6g} against {record.initial_val:.6g} untrained; "
                f"keeping epoch {record.best_epoch}",
                RuntimeWarning,
            )
        elif record.best_epoch == 0:
            record.stop_reason = "no_improvement"
            trained_best = min(e.val_loss for e in record.epochs)
            warnings.warn(
                f"{stage.name}: no epoch improved on the untrained validation loss "
                f"{record.initial_val:.6g} (best trained epoch: {trained_best:.6g}); "
                "keeping the initialisation",
                RuntimeWarning,
            )
    return records


def _train_model(ds: data.SeriesDataset, encoder_spec: model.EncoderSpec, horizon: int,
                 config: TrainConfig, stage: str):
    t0 = perf_counter()
    lookback = encoder_spec.in_len
    train_w = data.windows(ds, lookback, horizon, "train")
    val_w = data.windows(ds, lookback, horizon, "val")
    m = model.new_model(encoder_spec, head_out=horizon, seed=config.seed)
    [record] = fit(
        [Stage(stage, 0, lambda: model.mse_loss(m, val_w), m.params)],
        train_w,
        lambda batch: model.loss_and_grads(m, batch),
        config,
    )
    record.final_metrics = evaluate_forecaster(lambda h: model.forecast(m, h), val_w)
    record.wall_time_s = perf_counter() - t0
    return m, record


# --- stages ---


def pretrain(ds: data.SeriesDataset, encoder_spec: model.EncoderSpec, s_steps: int,
             config: TrainConfig | None = None):
    """Train the S-step foundation model, returned at its best epoch.  It
    is mtf_train at horizon S under another stage name: adaptation never
    writes into it (see adapt.check_fits)."""
    return _train_model(ds, encoder_spec, s_steps, config or TrainConfig(), stage="pretrain")


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
    """Fit segments 1..K on their slices of the horizon-T labels, each
    restored to its best-validation snapshot.  ``adapter.routing`` picks the
    fit:

    - soft: segments fit one after another.  Each trains every expert and
      its own routing row, and later segments keep training the experts
      earlier ones use.
    - one-hot: the segments share nothing but the frozen foundation, so one
      lockstep fit trains all K: a step stacks the K segments' batches,
      W_eff and gradients, and makes one Adam step.  Each segment keeps its
      own batch order, early stopping and snapshot, so its record and
      expert are bitwise those of fitting it alone.

    A segment's final metrics are its val metrics at freeze.  After the last
    fit every segment's val MSE is measured again with the final adapter;
    ``drift`` holds both values and their difference (final minus at
    freeze), exactly 0 under one-hot routing.  Nothing changes the adapter
    after the last fit, so its segments (all K under one-hot routing,
    segment K otherwise) reuse their at-freeze value instead of a second
    pass.  Segments of one lockstep fit share its wall time, which covers
    the fit and their final validation.

    An adapter that does not fit the foundation (adapt.check_fits, which
    includes being built on it) raises a ValueError before anything trains."""
    config = config or TrainConfig()
    if adapter.plan != plan:
        raise ValueError("adapter was built for a different segment plan")
    # a fit changes values in place, never shapes, so one check covers every step
    adapt.check_fits(adapter, foundation)
    lookback = foundation.lookback
    train_w = data.windows(ds, lookback, plan.horizon, "train")
    val_w = data.windows(ds, lookback, plan.horizon, "val")

    def val_metrics(k: int) -> dict:
        return evaluate_forecaster(lambda h: mola_forecast(foundation, adapter, h, k), val_w,
                                   plan.first_rows[k - 1], plan.seg_len)

    def stage(k: int) -> Stage:
        return Stage(f"segment-{k}", k, lambda: adapt.segment_loss(foundation, adapter, k, val_w),
                     adapt.adaptation_params(adapter, k))

    segments = list(range(1, plan.segments + 1))
    groups = [(segments, None)] if adapter.routing == "one-hot" else [([k], k) for k in segments]
    records: list[RunRecord] = []
    for group, step in groups:
        t0 = perf_counter()
        group_records = fit(
            [stage(k) for k in group], train_w,
            lambda batch: adapt.segment_grads(foundation, adapter, step, batch),
            config, adapt.adaptation_params(adapter, step),
        )
        for k, record in zip(group, group_records):
            record.final_metrics = val_metrics(k)
        wall_time = perf_counter() - t0
        for record in group_records:
            record.wall_time_s = wall_time
        records += group_records
    last_fit = groups[-1][0]
    for k, record in enumerate(records, start=1):
        at_freeze = record.final_metrics["mse"]
        final = at_freeze if k in last_fit else val_metrics(k)["mse"]
        record.drift = {"val_mse_at_freeze": at_freeze, "val_mse_final": final,
                        "val_mse_change": final - at_freeze}
    return adapter, records


def mola_forecast(foundation: model.FoundationModel, adapter: adapt.MolaAdapter,
                  history: np.ndarray, k: int | None = None) -> np.ndarray:
    """Segment k's forecast: its adapted view's forecast of the seg_len label
    rows from row ``plan.first_rows[k - 1]``, the view's output itself, not
    a copy.  With
    k None, concatenated inference: segment k's rows of the T-step forecast
    come from its view, for every k.  A k outside 1..K raises the ValueError
    that names the segment index."""
    history = np.asarray(history, dtype=np.float64)
    segments = range(1, adapter.plan.segments + 1) if k is None else (k,)
    pieces = [model.forecast(adapt.adapted_model(foundation, adapter, j), history)
              for j in segments]
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def mola_forecaster(foundation: model.FoundationModel, adapter: adapt.MolaAdapter):
    """The forecast_fn of :func:`evaluate_forecaster` for a mola model: one
    callable per segment, each the :func:`mola_forecast` of that segment,
    so scoring holds one segment's errors at a time."""
    return tuple(lambda history, k=k: mola_forecast(foundation, adapter, history, k)
                 for k in range(1, adapter.plan.segments + 1))


# --- evaluation ---


def evaluate_forecaster(forecast_fn, wins: data.WindowSet, first: int = 1,
                        rows: int | None = None) -> dict:
    """Per-step and step-averaged MSE/MAE of `forecast_fn` over the ``rows``
    label rows from row ``first`` (1-based; by default through row T) of
    the windows ``wins``, steps keeping their absolute index.

    `forecast_fn` is what ``WindowSet.errors``, the one error stream, takes:
    it maps the (L, n*D) history block of n windows (column i*D + c is
    channel c of window i) to their (rows, n*D) forecast block, or is a
    sequence of callables that give equal consecutive row blocks of it, as
    :func:`mola_forecaster`'s one per segment.  Each is called once per
    window chunk of the set.  Each error block is reduced into the steps
    its label row names and dropped before the next is made, so scoring
    holds one chunk's rows and forecast.  The averaged row is defined as
    the mean of the per-step values.
    """
    blocks = wins.errors(forecast_fn, first, rows)  # checks the rows before they size the steps
    steps = StepErrors(wins, first, rows)
    for row, _, err in blocks:
        steps.add(row, err)
        del err  # dropped before the next block is made
    return steps.metrics()


class StepErrors:
    """Per-step MSE and MAE of the ``rows`` label rows from row ``first``
    (by default through row T) over the windows ``wins``, summed one
    (r, n, D) error block at a time, so that one stream of blocks can feed
    more than one set of metrics.

    Each block names its first step, as ``WindowSet.errors``, the one error
    stream, yields it with its label row.  Every step needs the set's N
    windows, so a step's MSE and MAE are the sums of its blocks' sums of
    e**2 and |e|, in the order added, over N*D; with one block per step
    that is bitwise numpy's mean of the step's row."""

    def __init__(self, wins: data.WindowSet, first: int = 1, rows: int | None = None):
        if len(wins) == 0:
            raise ValueError("no windows to score")
        rows = wins.horizon + 1 - first if rows is None else rows
        self.first, self.split = first, wins.split
        self.n, self.d = len(wins), wins.series.shape[1]
        self.sq_sum, self.abs_sum = np.zeros(rows), np.zeros(rows)
        self.windows = np.zeros(rows, dtype=np.int64)  # windows added per step

    def add(self, row: int, err: np.ndarray) -> None:
        """Sum a block of errors of steps ``row`` .. ``row + r - 1`` into
        those steps, overwriting ``err``; a block outside the steps, or of
        another channel count than the set's, raises ValueError."""
        r, n, d = err.shape
        j = row - self.first
        if j < 0 or j + r > len(self.windows):
            raise ValueError(f"a block of steps {row}..{row + r - 1} is outside steps "
                             f"{self.first}..{self.first + len(self.windows) - 1}")
        if d != self.d:
            raise ValueError(f"a block of {d} channels, not the {self.d} of the windows scored")
        # |err| and then |err|**2, which is bitwise err**2, are formed in place
        self.abs_sum[j : j + r] += np.add.reduce(np.abs(err, out=err), axis=(1, 2))
        self.sq_sum[j : j + r] += np.add.reduce(np.multiply(err, err, out=err), axis=(1, 2))
        self.windows[j : j + r] += n

    def metrics(self) -> dict:
        """The metrics dict of evaluate_forecaster for the blocks added;
        ValueError unless every step was scored over exactly the set's N
        windows."""
        if (self.windows != self.n).any():
            raise ValueError(f"steps {self.first}..{self.first + len(self.windows) - 1} were "
                             f"scored over {sorted(set(self.windows.tolist()))} windows per "
                             f"step; every step needs the {self.n} windows of the set")
        count = self.n * self.d
        mse, mae = self.sq_sum / count, self.abs_sum / count
        per_step = [{"step": self.first + j, "mse": float(a), "mae": float(b)}
                    for j, (a, b) in enumerate(zip(mse, mae))]
        return {"split": self.split, "n_windows": self.n, "per_step": per_step,
                "mse": float(np.mean(mse)), "mae": float(np.mean(mae))}
