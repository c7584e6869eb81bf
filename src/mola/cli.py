"""Command-line front end.

One executable, one command per invocation.  Configuration comes from an
INI file with sections [dataset], [model], [paradigm], [train], [output],
[analysis]; values resolve with precedence

    built-in defaults < config file < --set section.key=value < --seed/--run-dir

Artifacts land in a run directory (checkpoints/, records/, reports/,
manifest.json), made with the first file a command writes.  Every JSON/CSV
report embeds the tool version and a hash of the fully resolved config, so
any file can be traced to the exact settings that produced it.

Exit codes: 0 success, 1 user/config error, 2 internal error.
"""

from __future__ import annotations

import argparse
import configparser
import copy
import hashlib
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, _io, adapt, analysis, data, model, train


class UserError(Exception):
    """Bad input from the user: config, flags, or missing files."""


DEFAULTS = {
    "dataset": {
        "source": "synth",
        "csv_path": "",
        "n_points": 2000,
        "d_channels": 2,
        "noise_std": 0.1,
        "synth_seed": 0,
        "lookback": 16,
        "horizon": 32,
        "split": "0.7,0.1,0.2",
    },
    "model": {"kind": "linear", "hidden": "", "activation": "relu"},
    "paradigm": {
        "kind": "mtf",
        "segments": 4,
        "experts": 4,
        "rank": 1,
        "routing": "soft",
    },
    "train": {
        "learning_rate": 1e-3,
        "batch_size": 32,
        "max_epochs": 10,
        "patience": 3,
        "seed": 0,
        "pretrain_max_epochs": 5,
        "pretrain_patience": 2,
    },
    "output": {"run_dir": ""},
    "analysis": {"probe_steps": "1,16,32"},
}

# paradigm.kind -> its checkpoints (checkpoints/<name>.json) -> the command that writes each
CHECKPOINTS = {
    "arf": {"arf": "train-baseline"},
    "mtf": {"mtf": "train-baseline"},
    "mola": {"foundation": "pretrain", "adapter": "adapt"},
}
# command -> the paradigm kinds whose checkpoints it writes
_KINDS = {cmd: tuple(pk for pk, writers in CHECKPOINTS.items() if cmd in writers.values())
          for ckpts in CHECKPOINTS.values() for cmd in ckpts.values()}

# the paper's reference configuration, whose closed-form counts `analyze params` reports
_REFERENCE_COUNTS = {"n_layers": 6, "d_model": 512, "d_ff": 1024, "rank": 8, "experts": 4,
                     "segments": 6}


# --- config resolution ---


def _convert(section: str, key: str, raw: str):
    proto = DEFAULTS[section][key]
    try:
        if isinstance(proto, int):
            return int(raw)
        if isinstance(proto, float):
            return float(raw)
    except ValueError:
        want = "an integer" if isinstance(proto, int) else "a number"
        raise UserError(f"config value {section}.{key}={raw!r} is not {want}") from None
    return str(raw)


def _apply(cfg, user_set, section, key, raw):
    if section not in cfg:
        raise UserError(f"unknown config section [{section}]")
    if key not in cfg[section]:
        raise UserError(
            f"unknown config key {section}.{key}; valid keys: {sorted(cfg[section])}"
        )
    cfg[section][key] = _convert(section, key, raw)
    user_set.add(f"{section}.{key}")


def resolve_config(args) -> tuple[dict, str]:
    cfg = copy.deepcopy(DEFAULTS)
    user_set: set[str] = set()
    if args.config:
        cp = configparser.ConfigParser()
        cp.optionxform = str
        if not cp.read(args.config):
            raise UserError(f"config file not found: {args.config}")
        for section in cp.sections():
            for key, raw in cp[section].items():
                _apply(cfg, user_set, section, key, raw)
    for item in args.set or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise UserError(f"--set expects SECTION.KEY=VALUE, got {item!r}")
        path, raw = item.split("=", 1)
        section, key = path.split(".", 1)
        _apply(cfg, user_set, section, key, raw)
    if args.seed is not None:
        cfg["train"]["seed"] = int(args.seed)
        user_set.add("train.seed")
    if args.run_dir is not None:
        cfg["output"]["run_dir"] = str(args.run_dir)
        user_set.add("output.run_dir")
    _validate(cfg, user_set)
    cfg_hash = hashlib.sha256(_io.canonical_dumps(cfg).encode("utf-8")).hexdigest()
    return cfg, cfg_hash


_SYNTH_ONLY = ("n_points", "d_channels", "noise_std", "synth_seed")
_MOLA_ONLY = ("segments", "experts", "rank", "routing")


def _validate(cfg: dict, user_set: set[str]) -> None:
    ds = cfg["dataset"]
    if ds["source"] not in ("synth", "csv"):
        raise UserError(f"dataset.source must be synth or csv, got {ds['source']!r}")
    if ds["source"] == "csv":
        if not ds["csv_path"]:
            raise UserError("dataset.csv_path is required when dataset.source=csv")
        for key in _SYNTH_ONLY:
            if f"dataset.{key}" in user_set:
                raise UserError(f"dataset.{key} only applies to dataset.source=synth")
    elif "dataset.csv_path" in user_set and ds["csv_path"]:
        raise UserError("dataset.csv_path only applies to dataset.source=csv")
    if ds["lookback"] < 1 or ds["horizon"] < 1:
        raise UserError("dataset.lookback and dataset.horizon must be >= 1")
    mode, _ = _parse_split(ds["split"])
    if mode == "counts" and ds["source"] == "synth":
        raise UserError("a counts split requires dataset.source=csv; use ratios for synth")
    pk = cfg["paradigm"]["kind"]
    if pk not in CHECKPOINTS:
        raise UserError(f"paradigm.kind must be one of {', '.join(CHECKPOINTS)}, got {pk!r}")
    if pk != "mola":
        for key in _MOLA_ONLY:
            if f"paradigm.{key}" in user_set:
                raise UserError(f"paradigm.{key} only applies to paradigm.kind=mola")
    # build what the commands build, so a bad value fails before the run directory exists
    if ds["source"] == "synth":
        _synth_spec(cfg)
    spec = _encoder_spec(cfg)
    for stage in ("pretrain", "baseline"):
        _train_config(cfg, stage)
    _int_list(cfg, "analysis", "probe_steps")
    if pk == "mola":
        p = cfg["paradigm"]
        adapt.check_settings(spec, ds["horizon"], p["segments"], p["experts"], p["rank"],
                             routing=p["routing"])


def _parse_split(raw: str):
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3 or not all(parts):
        raise UserError(f"dataset.split needs three comma-separated values, got {raw!r}")
    try:
        if any("." in p for p in parts):
            return "ratios", tuple(float(p) for p in parts)
        return "counts", tuple(int(p) for p in parts)
    except ValueError:
        raise UserError(f"unparseable dataset.split: {raw!r}") from None


# --- config -> domain objects ---


def _synth_spec(cfg: dict) -> data.SynthSpec:
    ds = cfg["dataset"]
    return data.SynthSpec(
        n_points=ds["n_points"],
        d_channels=ds["d_channels"],
        components=data.default_synth_spec().components,
        noise_std=ds["noise_std"],
        seed=ds["synth_seed"],
    )


def _dataset(cfg: dict) -> data.SeriesDataset:
    ds_cfg = cfg["dataset"]
    mode, vals = _parse_split(ds_cfg["split"])
    if ds_cfg["source"] == "synth":
        raw = data.generate_synthetic(_synth_spec(cfg), split=vals)
    else:
        raw = data.load_csv(
            ds_cfg["csv_path"],
            ratios=vals if mode == "ratios" else None,
            counts=vals if mode == "counts" else None,
        )
    return data.standardize(raw)


def _int_list(cfg: dict, section: str, key: str) -> list[int]:
    raw = cfg[section][key]
    try:
        return [int(x) for x in raw.split(",") if x.strip()]
    except ValueError:
        raise UserError(
            f"config value {section}.{key}={raw!r} is not a comma-separated list of integers"
        ) from None


def _encoder_spec(cfg: dict) -> model.EncoderSpec:
    return model.EncoderSpec(
        kind=cfg["model"]["kind"],
        in_len=cfg["dataset"]["lookback"],
        hidden=tuple(_int_list(cfg, "model", "hidden")),
        activation=cfg["model"]["activation"],
    )


def _train_config(cfg: dict, stage: str) -> train.TrainConfig:
    t = cfg["train"]
    # pretraining has its own epoch budget; every other stage shares one
    prefix = "pretrain_" if stage == "pretrain" else ""
    return train.TrainConfig(
        learning_rate=t["learning_rate"],
        batch_size=t["batch_size"],
        max_epochs=t[f"{prefix}max_epochs"],
        patience=t[f"{prefix}patience"],
        seed=t["seed"],
    )


# --- run directory plumbing ---


def _run_dir_path(cfg: dict, cfg_hash: str) -> Path:
    if cfg["output"]["run_dir"]:
        return Path(cfg["output"]["run_dir"])
    root = Path(os.environ.get("MOLA_RUN_ROOT", "runs"))
    return root / f"run-{cfg_hash[:8]}"


def _prepare_run_dir(args, cfg: dict, cfg_hash: str) -> Path:
    rd = _run_dir_path(cfg, cfg_hash)
    if rd.exists():
        if args.fail_if_exists:
            raise UserError(f"run directory already exists: {rd}")
        print(f"warning: run directory exists, overwriting artifacts: {rd}", file=sys.stderr)
    return rd


def _artifact(rd: Path, *parts: str) -> Path:
    """``rd/parts``, with its folder made, so that folders appear with their first file."""
    path = rd.joinpath(*parts)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_report(rd: Path, name: str, cfg_hash: str, payload: dict) -> None:
    path = _artifact(rd, "reports", name)
    _io.write_json(path, {"tool_version": __version__, "config_hash": cfg_hash, **payload})
    print(f"wrote {path}")


def _write_report_csv(rd: Path, name: str, rows: list[dict], cfg_hash: str) -> None:
    """reports/<name>: rows of equal keys, under a header of the first row's
    keys, after two comment lines naming the tool version and config hash."""
    path = _artifact(rd, "reports", name)
    header = list(rows[0])
    _io.write_csv(path, header, ([row[k] for k in header] for row in rows),
                  preamble=(f"# tool_version={__version__}", f"# config_hash={cfg_hash}"))
    print(f"wrote {path}")


def _step_rows(metrics: dict, **fixed) -> list[dict]:
    """CSV rows of an evaluation: one per step, then the averaged row, each
    led by the ``fixed`` columns."""
    rows = [
        {**fixed, "step": str(r["step"]), "mse": r["mse"], "mae": r["mae"]}
        for r in metrics["per_step"]
    ]
    rows.append({**fixed, "step": "avg", "mse": metrics["mse"], "mae": metrics["mae"]})
    return rows


def _save_stages(rd: Path, cfg_hash: str, checkpoint: str, state: dict, records) -> None:
    """Write records/<stage>.jsonl for each run record, then
    checkpoints/<checkpoint>.json tagged with the config hash, so that no
    checkpoint is written without its records; print one line per stage."""
    for rec in records:
        train.write_run_record(rec, _artifact(rd, "records", f"{rec.stage}.jsonl"))
    state["config_hash"] = cfg_hash
    _io.write_json(_artifact(rd, "checkpoints", f"{checkpoint}.json"), state)
    for rec in records:
        print(f"{rec.stage}: best_val={rec.best_val:.6g} stop={rec.stop_reason}")


def _checkpoint(rd: Path, pk: str, name: str) -> Path:
    """checkpoints/<name>.json of paradigm ``pk``, or a UserError naming the
    command that writes it."""
    path = rd / "checkpoints" / f"{name}.json"
    if not path.exists():
        raise UserError(f"missing checkpoint {path}; run {CHECKPOINTS[pk][name]} first")
    return path


def _refuse_mismatch(path: Path, section: str, pairs) -> None:
    """Raise a UserError naming the first ``(key, checkpoint value, config
    value)`` of ``pairs`` whose values differ."""
    for key, saved, configured in pairs:
        if saved != configured:
            raise UserError(
                f"{path} was trained with {section}.{key}={saved}, "
                f"but {section}.{key}={configured}"
            )


def _load_model(path: Path, spec: model.EncoderSpec, head_out: int) -> model.FoundationModel:
    """The checkpoint at ``path``, refused unless the config's encoder
    ``spec`` describes its encoder and its head predicts ``head_out`` steps."""
    m = model.load_checkpoint(path)
    if m.lookback != spec.in_len:
        raise UserError(
            f"{path} was trained with lookback {m.lookback}, but dataset.lookback={spec.in_len}"
        )
    saved = m.encoder_spec
    pairs = [("kind", saved.kind, spec.kind),
             ("hidden", ",".join(map(str, saved.hidden)), ",".join(map(str, spec.hidden)))]
    # a linear encoder applies no activation
    if spec.kind == "mlp2":
        pairs.append(("activation", saved.activation, spec.activation))
    _refuse_mismatch(path, "model", pairs)
    if m.head_out != head_out:
        raise UserError(f"{path} predicts {m.head_out} steps, but this command needs {head_out}")
    return m


# --- commands ---


def cmd_synth(args, cfg: dict, cfg_hash: str, rd: Path) -> int:
    if cfg["dataset"]["source"] != "synth":
        raise UserError("the synth command requires dataset.source=synth")
    spec = _synth_spec(cfg)
    mode, vals = _parse_split(cfg["dataset"]["split"])
    ds = data.generate_synthetic(spec, split=vals)
    # the dataset format load_csv reads back: no report preamble
    path = _artifact(rd, "data.csv")
    _io.write_csv(path, ["timestamp", *ds.channel_names],
                  ([i, *[repr(float(v)) for v in row]] for i, row in enumerate(ds.values)))
    print(f"wrote {path} ({ds.values.shape[0]} rows, {ds.values.shape[1]} channels)")
    return 0


def cmd_pretrain(args, cfg: dict, cfg_hash: str, rd: Path) -> int:
    ds = _dataset(cfg)
    plan = adapt.make_segment_plan(cfg["dataset"]["horizon"], cfg["paradigm"]["segments"])
    foundation, rec = train.pretrain(ds, _encoder_spec(cfg), plan.seg_len,
                                     _train_config(cfg, "pretrain"))
    _save_stages(rd, cfg_hash, "foundation", model.model_state(foundation), [rec])
    _write_report(rd, "pretrain_summary.json", cfg_hash, {"summary": train.run_summary(rec)})
    return 0


def cmd_adapt(args, cfg: dict, cfg_hash: str, rd: Path) -> int:
    ds = _dataset(cfg)
    p = cfg["paradigm"]
    path = _checkpoint(rd, "mola", "foundation")
    plan = adapt.make_segment_plan(cfg["dataset"]["horizon"], p["segments"],
                                   lookback=cfg["dataset"]["lookback"])
    foundation = _load_model(path, _encoder_spec(cfg), plan.seg_len)
    adapter = adapt.new_adapter(foundation, plan, n_experts=p["experts"], rank=p["rank"],
                                seed=cfg["train"]["seed"], routing=p["routing"])
    adapter, records = train.adapt_all_segments(foundation, plan, adapter, ds,
                                                _train_config(cfg, "adapt"))
    _save_stages(rd, cfg_hash, "adapter", adapt.adapter_state(adapter), records)
    _write_report(
        rd, "adapt_summary.json", cfg_hash,
        {"summaries": [train.run_summary(r) for r in records]},
    )
    return 0


def cmd_train_baseline(args, cfg: dict, cfg_hash: str, rd: Path) -> int:
    pk = cfg["paradigm"]["kind"]
    ds = _dataset(cfg)
    spec = _encoder_spec(cfg)
    tc = _train_config(cfg, "baseline")
    if pk == "arf":
        m, rec = train.arf_train(ds, spec, tc)
    else:
        m, rec = train.mtf_train(ds, spec, cfg["dataset"]["horizon"], tc)
    _save_stages(rd, cfg_hash, pk, model.model_state(m), [rec])
    _write_report(rd, f"{pk}_summary.json", cfg_hash, {"summary": train.run_summary(rec)})
    return 0


def _forecaster_from_checkpoints(pk: str, rd: Path, cfg: dict):
    """The forecaster of paradigm ``pk``'s checkpoints, refused unless the
    config describes them."""
    path = {name: _checkpoint(rd, pk, name) for name in CHECKPOINTS[pk]}
    spec = _encoder_spec(cfg)
    horizon = cfg["dataset"]["horizon"]
    if pk == "arf":
        m = _load_model(path["arf"], spec, 1)
        return lambda h: model.ar_f_forecast(m, h, horizon)
    if pk == "mtf":
        m = _load_model(path["mtf"], spec, horizon)
        return lambda h: model.forecast(m, h)
    foundation_path, adapter_path = path["foundation"], path["adapter"]
    adapter = adapt.load_adapter(adapter_path)
    foundation = _load_model(foundation_path, spec, adapter.plan.seg_len)
    try:
        adapt.check_fits(adapter, foundation)
    except ValueError as e:
        raise UserError(f"{adapter_path} does not fit {foundation_path}: {e}; "
                        "re-run adapt") from None
    _refuse_mismatch(adapter_path, "dataset", [("horizon", adapter.plan.horizon, horizon)])
    # only a kind = mola config sets the paradigm keys; another kind holds defaults
    p = cfg["paradigm"]
    if p["kind"] == "mola":
        _refuse_mismatch(adapter_path, "paradigm", [
            ("segments", adapter.plan.segments, p["segments"]),
            ("experts", adapter.n_experts, p["experts"]),
            ("rank", adapter.rank, p["rank"]),
            ("routing", adapter.routing, p["routing"]),
        ])
    return train.mola_forecaster(foundation, adapter)


def cmd_eval(args, cfg: dict, cfg_hash: str, rd: Path) -> int:
    pk = cfg["paradigm"]["kind"]
    ds = _dataset(cfg)
    horizon = cfg["dataset"]["horizon"]
    forecast_fn = _forecaster_from_checkpoints(pk, rd, cfg)
    steps = train.StepErrors(1, horizon)
    raw = train.StepErrors(1, horizon) if args.destandardized else None
    wins = data.windows(ds, cfg["dataset"]["lookback"], horizon, args.split)
    for row, _, err in wins.errors(forecast_fn):
        if raw is not None:
            # the per-channel mean cancels: a raw error is the standardized one times the std
            raw.add(row, err * ds.norm_stats.std)
        steps.add(row, err)  # overwrites err, so it comes last
        del err  # dropped before the next block is made
    metrics = steps.metrics(args.split)
    payload = {"paradigm": pk, "split": args.split, "metrics": metrics}
    if raw is not None:
        payload["destandardized_metrics"] = raw.metrics(args.split)
    _write_report(rd, f"eval_{pk}_{args.split}.json", cfg_hash, payload)
    _write_report_csv(rd, f"eval_{pk}_{args.split}.csv", _step_rows(metrics), cfg_hash)
    print(f"{pk} {args.split}: mse={metrics['mse']:.6g} mae={metrics['mae']:.6g}")
    return 0


def _per_step_loss_samples(forecast_fn, ds, lookback, horizon, split):
    """(N, T) per-window squared error of each step, averaged over channels,
    filled one forecast block at a time, each at its windows' rows and its
    label rows' columns."""
    wins = data.windows(ds, lookback, horizon, split)
    samples = np.empty((len(wins), horizon))
    for row, windows, err in wins.errors(forecast_fn):
        samples[windows, row - 1 : row - 1 + err.shape[0]] = np.square(err, out=err).mean(axis=2).T
        del err  # dropped before the next block is made
    return samples


def cmd_params(args, cfg: dict, cfg_hash: str, rd: Path) -> int:
    ref = _REFERENCE_COUNTS
    pc = analysis.param_counts(ref["n_layers"], ref["d_model"], ref["d_ff"], ref["rank"],
                               ref["experts"], ref["segments"])
    _write_report(rd, "params.json", cfg_hash,
                  {"n_mola": pc.n_mola, "n_backbone": pc.n_backbone, "ratio": pc.ratio,
                   "inputs": ref})
    print(f"n_mola={pc.n_mola} n_backbone={pc.n_backbone} ratio={pc.ratio:.3f}")
    return 0


def cmd_bottleneck(args, cfg: dict, cfg_hash: str, rd: Path) -> int:
    m = _load_model(_checkpoint(rd, "mtf", "mtf"), _encoder_spec(cfg), cfg["dataset"]["horizon"])
    rep = analysis.dataset_bottleneck(m, _dataset(cfg), split="test")
    _write_report(rd, "bottleneck.json", cfg_hash, rep)
    print(
        f"mean_min_error_sq={rep['mean_min_error_sq']:.6g} "
        f"(rank {rep['rank']}, {rep['n_windows']} windows)"
    )
    return 0


def cmd_variance(args, cfg: dict, cfg_hash: str, rd: Path) -> int:
    ds = _dataset(cfg)
    lookback = cfg["dataset"]["lookback"]
    horizon = cfg["dataset"]["horizon"]
    # a paradigm with a checkpoint not yet written is skipped
    samples = {
        pk: _per_step_loss_samples(_forecaster_from_checkpoints(pk, rd, cfg), ds, lookback,
                                   horizon, "test")
        for pk, names in CHECKPOINTS.items()
        if all((rd / "checkpoints" / f"{name}.json").exists() for name in names)
    }
    if not samples:
        raise UserError("no usable checkpoints in this run directory; train a paradigm first")
    blocks = {}
    for name, arr in samples.items():
        blocks[name] = {"n_samples": int(arr.shape[0]),
                        **analysis.variance_report(arr).summary()}
    names = list(samples)
    comparisons = [
        analysis.variance_compare(samples[a], samples[b], label_a=a, label_b=b)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    ]
    _write_report(
        rd, "variance.json", cfg_hash,
        {"split": "test", "horizon": horizon, "paradigms": blocks,
         "comparisons": comparisons},
    )
    for name, block in blocks.items():
        print(f"{name}: var_total={block['var_total']:.6g} cov_sum={block['cov_sum']:.6g}")
    return 0


def cmd_probe(args, cfg: dict, cfg_hash: str, rd: Path) -> int:
    steps = _int_list(cfg, "analysis", "probe_steps")
    ds = _dataset(cfg)
    rep = analysis.per_step_probe(
        ds, cfg["dataset"]["lookback"], steps, config=_train_config(cfg, "baseline")
    )
    payload = {k: v for k, v in rep.items() if k != "clouds"}
    _write_report(rd, "probe.json", cfg_hash, payload)
    rows = []
    for e, cloud in enumerate(rep["clouds"]):
        for widx, (x0, x1) in enumerate(cloud):
            rows.append(
                {"entry": e, "step": rep["steps"][e], "seed": rep["seeds"][e],
                 "window": widx, "x0": float(x0), "x1": float(x1)}
            )
    _write_report_csv(rd, "probe_points.csv", rows, cfg_hash)
    for pair in rep["pairwise"]:
        print(
            f"steps {pair['step_i']} vs {pair['step_j']}: "
            f"disparity={pair['disparity']:.4f}"
        )
    return 0


def cmd_compare(args, cfg: dict, cfg_hash: str, rd: Path) -> int:
    ds = _dataset(cfg)
    rep = analysis.paradigm_compare(
        ds,
        _encoder_spec(cfg),
        horizon=cfg["dataset"]["horizon"],
        segments=cfg["paradigm"]["segments"],
        config=_train_config(cfg, "baseline"),
        n_experts=cfg["paradigm"]["experts"],
        rank=cfg["paradigm"]["rank"],
        routing=cfg["paradigm"]["routing"],
        pretrain_config=_train_config(cfg, "pretrain"),
    )
    _write_report(rd, "compare.json", cfg_hash, rep)
    rows = [
        row
        for name in CHECKPOINTS
        for row in _step_rows(rep["paradigms"][name]["metrics"], paradigm=name)
    ]
    _write_report_csv(rd, "compare.csv", rows, cfg_hash)
    for key, val in rep["delta"].items():
        print(f"{key}: {val:+.2f}%")
    return 0


def cmd_analyze(args, cfg: dict, cfg_hash: str, rd: Path) -> int:
    return ANALYSES[args.kind](args, cfg, cfg_hash, rd)


ANALYSES = {
    "bottleneck": cmd_bottleneck,
    "params": cmd_params,
    "variance": cmd_variance,
    "probe": cmd_probe,
}

# name -> (help, handler, the paradigm.kind values it accepts or None for any)
COMMANDS = {
    "synth": ("generate a synthetic dataset CSV", cmd_synth, None),
    "pretrain": ("train the frozen per-segment foundation model", cmd_pretrain, _KINDS["pretrain"]),
    "adapt": ("fit a mixture of low-rank experts per forecast segment", cmd_adapt, _KINDS["adapt"]),
    "train-baseline": ("train the arf or mtf baseline", cmd_train_baseline,
                       _KINDS["train-baseline"]),
    "eval": ("evaluate the configured paradigm's checkpoints", cmd_eval, None),
    "analyze": ("run a numerical analysis over run artifacts", cmd_analyze, None),
    "compare": ("train and compare all three paradigms", cmd_compare, ("mola",)),
}


# --- entry point ---


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UserError(f"{message}\n{self.format_usage()}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mola",
        description="Segment-adapted low-rank forecasting workbench",
    )
    sub = parser.add_subparsers(dest="command")
    commands = {}
    for name, (help_, _, _) in COMMANDS.items():
        p = commands[name] = sub.add_parser(name, help=help_)
        p.add_argument("--config", help="INI config file")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override one config value (repeatable)")
        p.add_argument("--run-dir", help="run directory (default $MOLA_RUN_ROOT/run-<hash>)")
        p.add_argument("--seed", type=int, help="override train.seed")
        p.add_argument("--fail-if-exists", action="store_true",
                       help="refuse to write into an existing run directory")
    commands["eval"].add_argument("--split", choices=["train", "val", "test"], default="test")
    commands["eval"].add_argument("--destandardized", action="store_true",
                                  help="also report metrics on the original data scale")
    commands["analyze"].add_argument("kind", choices=list(ANALYSES))
    return parser


def _dispatch(args) -> int:
    cfg, cfg_hash = resolve_config(args)
    _, handler, kinds = COMMANDS[args.command]
    pk = cfg["paradigm"]["kind"]
    if kinds is not None and pk not in kinds:
        raise UserError(
            f"mola {args.command} needs paradigm.kind={' or '.join(kinds)}, "
            f"but paradigm.kind={pk}"
        )
    rd = _prepare_run_dir(args, cfg, cfg_hash)
    status = handler(args, cfg, cfg_hash, rd)
    # written on success only, so it always describes the last command that worked
    if status == 0:
        _io.write_json(_artifact(rd, "manifest.json"), {
            "tool_version": __version__, "config_hash": cfg_hash, "command": args.command,
            "config": cfg})
    return status


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required", file=sys.stderr)
            return 1
        return _dispatch(args)
    except (UserError, ValueError, OSError, configparser.Error) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # anything else is a bug, not a usage problem
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
