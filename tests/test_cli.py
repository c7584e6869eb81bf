import configparser
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mola import cli


def write_ini(path, **sections):
    cp = configparser.ConfigParser()
    cp.optionxform = str
    for name, kv in sections.items():
        cp[name] = {k: str(v) for k, v in kv.items()}
    with open(path, "w") as fh:
        cp.write(fh)
    return str(path)


def base_sections(**over):
    sections = {
        "dataset": {
            "source": "synth",
            "n_points": 300,
            "d_channels": 2,
            "noise_std": 0.05,
            "synth_seed": 1,
            "lookback": 8,
            "horizon": 8,
        },
        "model": {"kind": "linear"},
        "paradigm": {"kind": "mola", "segments": 4, "experts": 2, "rank": 2},
        "train": {
            "max_epochs": 1,
            "pretrain_max_epochs": 1,
            "batch_size": 16,
            "seed": 0,
        },
    }
    for name, kv in over.items():
        sections.setdefault(name, {}).update(kv)
    return sections


@pytest.fixture()
def ws(tmp_path, monkeypatch):
    monkeypatch.setenv("MOLA_RUN_ROOT", str(tmp_path / "runs"))
    return tmp_path


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["--help"])
    assert e.value.code == 0
    out = capsys.readouterr().out
    for name in cli.COMMANDS:
        assert name in out


def test_module_entry_point_runs():
    # the child imports the same package as this test, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-m", "mola.cli", "--help"], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": path})
    assert out.returncode == 0
    assert "synth" in out.stdout and "analyze" in out.stdout


# --- synth ---


def test_synth_writes_csv_and_manifest_round_trip(ws):
    cfg = write_ini(ws / "cfg.ini", **base_sections())
    rd1, rd2 = ws / "r1", ws / "r2"
    assert cli.main(["synth", "--config", cfg, "--run-dir", str(rd1)]) == 0
    csv_text = (rd1 / "data.csv").read_bytes()
    assert len(csv_text.decode().splitlines()) == 300 + 1
    manifest = json.loads((rd1 / "manifest.json").read_text())
    assert manifest["config"]["dataset"]["synth_seed"] == 1
    assert "tool_version" in manifest and "config_hash" in manifest
    assert cli.main(["synth", "--config", cfg, "--run-dir", str(rd2)]) == 0
    assert (rd2 / "data.csv").read_bytes() == csv_text


def test_synth_invalid_component_is_user_error(ws, capsys):
    cfg = write_ini(
        ws / "cfg.ini", **base_sections(dataset={"noise_std": -1})
    )
    assert cli.main(["synth", "--config", cfg, "--run-dir", str(ws / "r")]) == 1
    assert "noise_std" in capsys.readouterr().err


# --- pretrain / adapt ---


def test_pretrain_then_adapt_produces_segment_records(ws):
    cfg = write_ini(ws / "cfg.ini", **base_sections())
    rd = ws / "run"
    assert cli.main(["pretrain", "--config", cfg, "--run-dir", str(rd)]) == 0
    assert (rd / "checkpoints" / "foundation.json").exists()
    assert (rd / "records" / "pretrain.jsonl").exists()
    assert cli.main(["adapt", "--config", cfg, "--run-dir", str(rd)]) == 0
    for k in (1, 2, 3, 4):
        assert (rd / "records" / f"segment-{k}.jsonl").exists()
    assert (rd / "checkpoints" / "adapter.json").exists()
    summary = json.loads((rd / "reports" / "adapt_summary.json").read_text())
    assert len(summary["summaries"]) == 4
    assert summary["config_hash"] == json.loads((rd / "manifest.json").read_text())["config_hash"]


def test_adapt_without_foundation_is_user_error(ws, capsys):
    cfg = write_ini(ws / "cfg.ini", **base_sections())
    assert cli.main(["adapt", "--config", cfg, "--run-dir", str(ws / "empty")]) == 1
    assert "pretrain" in capsys.readouterr().err


def test_adapt_head_mismatch_names_both_values(ws, capsys):
    cfg = write_ini(ws / "cfg.ini", **base_sections())
    rd = ws / "run"
    assert cli.main(["pretrain", "--config", cfg, "--run-dir", str(rd)]) == 0
    # same run dir, but a horizon that implies a different per-segment width
    assert (
        cli.main(
            ["adapt", "--config", cfg, "--run-dir", str(rd), "--set", "dataset.horizon=12"]
        )
        == 1
    )
    err = capsys.readouterr().err
    assert "2" in err and "3" in err


def test_pretrain_rerun_summary_is_byte_identical(ws):
    cfg = write_ini(ws / "cfg.ini", **base_sections())
    rd = ws / "run"
    assert cli.main(["pretrain", "--config", cfg, "--run-dir", str(rd)]) == 0
    first = (rd / "reports" / "pretrain_summary.json").read_bytes()
    assert cli.main(["pretrain", "--config", cfg, "--run-dir", str(rd)]) == 0
    assert (rd / "reports" / "pretrain_summary.json").read_bytes() == first


def test_diverged_pretrain_records_its_nan_epoch_as_null(ws):
    # a stage whose val loss turns NaN still writes its record, and no file
    # of the run holds the NaN or an Infinity
    cfg = write_ini(ws / "cfg.ini", **base_sections(train={"learning_rate": 1e300}))
    rd = ws / "run"
    with pytest.warns(RuntimeWarning, match="pretrain: diverged at epoch 1"):
        assert cli.main(["pretrain", "--config", cfg, "--run-dir", str(rd)]) == 0
    lines = [json.loads(line)
             for line in (rd / "records" / "pretrain.jsonl").read_text().splitlines()]
    assert lines[1] == {"stage": "pretrain", "epoch": 1, "train_loss": None, "val_loss": None}
    assert lines[-1]["summary"]["stop_reason"] == "diverged"
    assert lines[-1]["summary"]["best_epoch"] == 0
    assert (rd / "checkpoints" / "foundation.json").exists()
    files = [p for p in rd.rglob("*") if p.is_file()]
    assert len(files) >= 4
    for path in files:
        text = path.read_text(encoding="utf-8")
        assert "NaN" not in text and "Infinity" not in text, path


def test_fail_if_exists_flag(ws, capsys):
    cfg = write_ini(ws / "cfg.ini", **base_sections())
    rd = ws / "run"
    assert cli.main(["synth", "--config", cfg, "--run-dir", str(rd)]) == 0
    assert (
        cli.main(["synth", "--config", cfg, "--run-dir", str(rd), "--fail-if-exists"]) == 1
    )
    assert "exists" in capsys.readouterr().err


# --- baselines and eval ---


def mtf_sections(**over):
    s = base_sections(**over)
    s["paradigm"] = {"kind": "mtf"}
    return s


def test_train_baseline_eval_matches_run_record(ws):
    cfg = write_ini(ws / "cfg.ini", **mtf_sections())
    rd = ws / "run"
    assert cli.main(["train-baseline", "--config", cfg, "--run-dir", str(rd)]) == 0
    summary = json.loads((rd / "reports" / "mtf_summary.json").read_text())
    assert cli.main(["eval", "--config", cfg, "--run-dir", str(rd), "--split", "val"]) == 0
    ev = json.loads((rd / "reports" / "eval_mtf_val.json").read_text())
    assert ev["metrics"] == summary["summary"]["final_metrics"]

    csv_lines = (rd / "reports" / "eval_mtf_val.csv").read_text().splitlines()
    body = [line for line in csv_lines if not line.startswith("#")]
    assert body[0] == "step,mse,mae"
    assert len(body) == 1 + 8 + 1  # header, one row per step, averaged row
    rows = [line.split(",") for line in body[1:]]
    assert rows[-1][0] == "avg"
    per_step_mse = [float(r[1]) for r in rows[:-1]]
    assert float(rows[-1][1]) == pytest.approx(np.mean(per_step_mse), abs=1e-12)


def test_eval_missing_checkpoint_is_user_error(ws, capsys):
    cfg = write_ini(ws / "cfg.ini", **mtf_sections())
    assert cli.main(["eval", "--config", cfg, "--run-dir", str(ws / "none")]) == 1
    assert "checkpoint" in capsys.readouterr().err


def test_eval_mola_paradigm(ws):
    cfg = write_ini(ws / "cfg.ini", **base_sections())
    rd = ws / "run"
    assert cli.main(["pretrain", "--config", cfg, "--run-dir", str(rd)]) == 0
    assert cli.main(["adapt", "--config", cfg, "--run-dir", str(rd)]) == 0
    assert cli.main(["eval", "--config", cfg, "--run-dir", str(rd)]) == 0
    ev = json.loads((rd / "reports" / "eval_mola_test.json").read_text())
    assert len(ev["metrics"]["per_step"]) == 8


def test_eval_destandardized_matches_per_window_metrics(ws):
    from mola import adapt, data, model, train

    synth_cfg = write_ini(ws / "s.ini", **base_sections())
    src = ws / "data"
    assert cli.main(["synth", "--config", synth_cfg, "--run-dir", str(src)]) == 0
    sections = base_sections()
    sections["dataset"] = {
        "source": "csv", "csv_path": str(src / "data.csv"),
        "lookback": 8, "horizon": 8, "split": "200,50,50",
    }
    cfg = write_ini(ws / "c.ini", **sections)
    rd = ws / "run"
    for cmd in ("pretrain", "adapt"):
        assert cli.main([cmd, "--config", cfg, "--run-dir", str(rd)]) == 0
    assert cli.main(["eval", "--config", cfg, "--run-dir", str(rd), "--destandardized"]) == 0
    report = json.loads((rd / "reports" / "eval_mola_test.json").read_text())
    got = report["destandardized_metrics"]

    raw = data.load_csv(src / "data.csv", counts=(200, 50, 50))
    stats = data.standardize(raw).norm_stats
    foundation = model.load_checkpoint(rd / "checkpoints" / "foundation.json")
    adapter = adapt.load_adapter(rd / "checkpoints" / "adapter.json")
    wins = list(data.windows(raw, 8, 8, "test"))
    errs = []
    for w in wins:
        pred = train.mola_forecast(foundation, adapter, (w.history - stats.mean) / stats.std)
        errs.append(pred * stats.std + stats.mean - w.label)
    errs = np.array(errs)  # (N, T, D) in raw units
    assert got["n_windows"] == len(wins)
    for j, row in enumerate(got["per_step"]):
        assert row["step"] == j + 1
        assert row["mse"] == pytest.approx(float((errs[:, j] ** 2).mean()), rel=1e-12)
        assert row["mae"] == pytest.approx(float(np.abs(errs[:, j]).mean()), rel=1e-12)
    assert got["mse"] != pytest.approx(report["metrics"]["mse"], rel=1e-3)


def test_eval_destandardized_forecasts_the_split_once(ws, monkeypatch):
    # both metric sets come from one forecast: K mola_forecast calls, one
    # per segment, with or without --destandardized, and the same metrics
    from mola import train

    cfg = write_ini(ws / "cfg.ini", **base_sections())
    rd = ws / "run"
    for cmd in ("pretrain", "adapt"):
        assert cli.main([cmd, "--config", cfg, "--run-dir", str(rd)]) == 0
    calls = []
    forecast = train.mola_forecast
    monkeypatch.setattr(train, "mola_forecast",
                        lambda *a, **kw: calls.append(kw) or forecast(*a, **kw))
    reports = []
    for flags in ([], ["--destandardized"]):
        calls.clear()
        assert cli.main(["eval", "--config", cfg, "--run-dir", str(rd), *flags]) == 0
        assert len(calls) == 4
        reports.append(json.loads((rd / "reports" / "eval_mola_test.json").read_text()))
    assert reports[1]["metrics"] == reports[0]["metrics"]
    assert "destandardized_metrics" in reports[1]


@pytest.mark.parametrize("horizon, segments", [(8, 4), (4, 4)])
def test_destandardized_and_loss_samples_of_segment_blocks_match_the_whole_forecast(
        ws, horizon, segments):
    # eval --destandardized and analyze variance score the mola forecast one
    # segment at a time; both must give bitwise what the whole (T, N, D)
    # error array gives, also for segments of one row
    from mola import _io, adapt, data, model, train

    # the dataset of the config below
    ds = data.standardize(data.generate_synthetic(data.default_synth_spec(n_points=400, seed=3)))
    foundation = model.new_model(model.EncoderSpec(kind="linear", in_len=8),
                                 head_out=horizon // segments, seed=1)
    foundation.freeze()
    adapter = adapt.new_adapter(foundation, adapt.make_segment_plan(horizon, segments),
                                n_experts=2, rank=2, seed=1)
    rng = np.random.default_rng(1)
    for name in adapter.adapted_layers:
        adapter.b[name][:] = rng.normal(size=adapter.b[name].shape)
        adapter.logits[name][:] = rng.normal(size=adapter.logits[name].shape)
    blocks = train.mola_forecaster(foundation, adapter)
    [(_, _, err)] = data.windows(ds, 8, horizon, "test").errors(
        lambda h: train.mola_forecast(foundation, adapter, h))
    want_samples = (err ** 2).mean(axis=2).T  # (N, T)
    raw = err * ds.norm_stats.std
    want_mse, want_mae = (raw * raw).mean(axis=(1, 2)), np.abs(raw).mean(axis=(1, 2))

    rd = ws / "run"
    (rd / "checkpoints").mkdir(parents=True)
    model.save_checkpoint(foundation, rd / "checkpoints" / "foundation.json")
    _io.write_json(rd / "checkpoints" / "adapter.json", adapt.adapter_state(adapter))
    cfg = write_ini(ws / "cfg.ini", **base_sections(
        dataset={"n_points": 400, "synth_seed": 3, "noise_std": 0.1, "horizon": horizon},
        paradigm={"segments": segments}))
    assert cli.main(["eval", "--config", cfg, "--run-dir", str(rd), "--destandardized"]) == 0
    report = json.loads((rd / "reports" / "eval_mola_test.json").read_text())
    # JSON floats round-trip exactly, so these compare bits
    assert report["metrics"] == train.evaluate_forecaster(blocks, ds, 8, horizon, "test")
    got = report["destandardized_metrics"]
    assert got["n_windows"] == err.shape[1]
    assert [r["step"] for r in got["per_step"]] == list(range(1, horizon + 1))
    assert [r["mse"] for r in got["per_step"]] == want_mse.tolist()
    assert [r["mae"] for r in got["per_step"]] == want_mae.tolist()
    assert (got["mse"], got["mae"]) == (float(np.mean(want_mse)), float(np.mean(want_mae)))
    samples = cli._per_step_loss_samples(blocks, ds, 8, horizon, "test")
    assert samples.shape == want_samples.shape and samples.flags.c_contiguous
    assert samples.tobytes() == want_samples.tobytes()


def test_arf_checkpoint_of_several_steps_is_refused_naming_it(ws, capsys):
    # an mtf checkpoint of horizon 2 put where the arf checkpoint belongs
    cfg = write_ini(ws / "cfg.ini", **mtf_sections(dataset={"horizon": 2}))
    rd = ws / "run"
    assert cli.main(["train-baseline", "--config", cfg, "--run-dir", str(rd)]) == 0
    shutil.copy(rd / "checkpoints" / "mtf.json", rd / "checkpoints" / "arf.json")
    argv = ["eval", "--config", cfg, "--run-dir", str(rd), "--set", "paradigm.kind=arf"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "arf.json" in err and "predicts 2 steps" in err and "needs 1" in err


def test_failed_command_leaves_the_manifest_as_it_was(ws):
    cfg = write_ini(ws / "cfg.ini", **mtf_sections())
    rd = ws / "run"
    assert cli.main(["train-baseline", "--config", cfg, "--run-dir", str(rd)]) == 0
    manifest = (rd / "manifest.json").read_bytes()
    argv = ["eval", "--config", cfg, "--run-dir", str(rd), "--set", "dataset.lookback=4"]
    assert cli.main(argv) == 1
    assert (rd / "manifest.json").read_bytes() == manifest
    # a failed first command in a new directory writes none
    assert cli.main(["eval", "--config", cfg, "--run-dir", str(ws / "new")]) == 1
    assert not (ws / "new" / "manifest.json").exists()


def test_failed_first_command_leaves_no_run_dir(ws, capsys):
    rd = ws / "r"
    # no checkpoint to evaluate: the command fails before it writes a file
    assert cli.main(["eval", "--set", "paradigm.kind=mtf", "--run-dir", str(rd)]) == 1
    assert "train-baseline" in capsys.readouterr().err
    assert not rd.exists()
    assert cli.main(["synth", "--run-dir", str(rd), "--fail-if-exists"]) == 0
    assert sorted(p.name for p in rd.iterdir()) == ["data.csv", "manifest.json"]


def test_train_baseline_rejects_mola(ws, capsys):
    cfg = write_ini(ws / "cfg.ini", **base_sections())
    assert cli.main(["train-baseline", "--config", cfg, "--run-dir", str(ws / "r")]) == 1


KIND_LIMITED = [name for name, (_, _, kinds) in cli.COMMANDS.items() if kinds is not None]


@pytest.mark.parametrize("command", KIND_LIMITED)
def test_command_rejects_other_paradigms_before_creating_run_dir(ws, capsys, command):
    # the kinds of the checkpoint writers come from cli.CHECKPOINTS: none may drop out
    assert KIND_LIMITED == ["pretrain", "adapt", "train-baseline", "compare"]
    kinds = cli.COMMANDS[command][2]
    wrong = next(k for k in ("arf", "mtf", "mola") if k not in kinds)
    sections = base_sections() if wrong == "mola" else mtf_sections()
    sections["paradigm"]["kind"] = wrong
    cfg = write_ini(ws / "cfg.ini", **sections)
    rd = ws / "r"
    assert cli.main([command, "--config", cfg, "--run-dir", str(rd)]) == 1
    err = capsys.readouterr().err
    assert command in err and f"paradigm.kind={wrong}" in err
    assert not rd.exists()


def test_version_1_checkpoint_is_rejected(ws, capsys):
    cfg = write_ini(ws / "cfg.ini", **base_sections())
    rd = ws / "run"
    assert cli.main(["pretrain", "--config", cfg, "--run-dir", str(rd)]) == 0
    path = rd / "checkpoints" / "foundation.json"
    state = json.loads(path.read_text())
    assert state["format_version"] == 3
    for version in (1, 2):
        state["format_version"] = version
        path.write_text(json.dumps(state))
        assert cli.main(["adapt", "--config", cfg, "--run-dir", str(rd)]) == 1
        assert f"unsupported checkpoint format_version {version}" in capsys.readouterr().err


# --- config handling ---


def test_flag_precedence_over_set_over_file(ws):
    cfg = write_ini(ws / "cfg.ini", **mtf_sections(train={"seed": 1}))
    rd = ws / "run"
    assert (
        cli.main(
            ["synth", "--config", cfg, "--run-dir", str(rd), "--set", "train.seed=2", "--seed", "3"]
        )
        == 0
    )
    manifest = json.loads((rd / "manifest.json").read_text())
    assert manifest["config"]["train"]["seed"] == 3
    rd2 = ws / "run2"
    assert cli.main(["synth", "--config", cfg, "--run-dir", str(rd2), "--set", "train.seed=2"]) == 0
    assert json.loads((rd2 / "manifest.json").read_text())["config"]["train"]["seed"] == 2


def test_unknown_config_key_is_user_error(ws, capsys):
    cfg = write_ini(ws / "cfg.ini", **mtf_sections(extra={"bogus": 1}))
    assert cli.main(["synth", "--config", cfg, "--run-dir", str(ws / "r")]) == 1
    cfg2 = write_ini(ws / "cfg2.ini", **mtf_sections())
    assert (
        cli.main(["synth", "--config", cfg2, "--run-dir", str(ws / "r2"), "--set", "train.bogus=1"])
        == 1
    )
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key",
    ["output.formats", "dataset.components", "paradigm.placement",
     "train.adaptation_learning_rate", "analysis.n_layers", "analysis.d_model",
     "analysis.d_ff", "analysis.rank", "analysis.experts", "analysis.segments"],
)
def test_output_formats_is_not_a_config_key(ws, capsys, key):
    cfg = write_ini(ws / "cfg.ini", **mtf_sections())
    argv = ["synth", "--config", cfg, "--run-dir", str(ws / "r"), "--set", f"{key}=1"]
    assert cli.main(argv) == 1
    assert f"unknown config key {key}" in capsys.readouterr().err


def test_paradigm_specific_keys_rejected_for_baselines(ws, capsys):
    sections = mtf_sections()
    sections["paradigm"]["segments"] = 4
    cfg = write_ini(ws / "cfg.ini", **sections)
    assert cli.main(["synth", "--config", cfg, "--run-dir", str(ws / "r")]) == 1
    assert "segments" in capsys.readouterr().err


def test_mola_requires_divisible_horizon(ws, capsys):
    sections = base_sections()
    sections["paradigm"]["segments"] = 3
    cfg = write_ini(ws / "cfg.ini", **sections)
    assert cli.main(["pretrain", "--config", cfg, "--run-dir", str(ws / "r")]) == 1
    err = capsys.readouterr().err
    assert "3" in err and "8" in err


def test_one_hot_routing_needs_square_expert_count(ws, capsys):
    sections = base_sections()
    sections["paradigm"]["routing"] = "one-hot"
    cfg = write_ini(ws / "cfg.ini", **sections)  # experts=2, segments=4
    assert cli.main(["pretrain", "--config", cfg, "--run-dir", str(ws / "r")]) == 1
    err = capsys.readouterr().err
    assert "one-hot" in err
    sections["paradigm"]["routing"] = "banana"
    cfg2 = write_ini(ws / "cfg2.ini", **sections)
    assert cli.main(["pretrain", "--config", cfg2, "--run-dir", str(ws / "r2")]) == 1
    assert "routing" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, needle",
    [
        (["paradigm.rank=0"], "rank"),
        (["paradigm.experts=0"], "n_experts"),
        (["paradigm.segments=0"], "segments must be >= 1"),
        (["paradigm.routing=banana"], "routing"),
        (["model.kind=mlp2", "model.hidden=16"], "hidden"),
        (["model.activation=gelu"], "activation"),
        (["train.batch_size=0"], "batch_size"),
        (["train.learning_rate=-1"], "learning_rate"),
        (["model.kind=mlp2", "model.hidden=16,x"], "model.hidden='16,x'"),
        (["train.seed=-1"], "seed must be >= 0, got -1"),
        (["dataset.synth_seed=-1"], "seed must be >= 0, got -1"),
        (["dataset.n_points=0"], "n_points must be >= 1"),
    ],
)
def test_pretrain_refuses_unbuildable_settings_before_creating_run_dir(
    ws, capsys, overrides, needle
):
    cfg = write_ini(ws / "cfg.ini", **base_sections())
    rd = ws / "r"
    argv = ["pretrain", "--config", cfg, "--run-dir", str(rd)]
    for item in overrides:
        argv += ["--set", item]
    assert cli.main(argv) == 1
    assert needle in capsys.readouterr().err
    assert not rd.exists()


def test_probe_steps_must_be_integers(ws, capsys):
    cfg = write_ini(ws / "cfg.ini", **mtf_sections())
    rd = ws / "r"
    argv = ["analyze", "probe", "--config", cfg, "--run-dir", str(rd),
            "--set", "analysis.probe_steps=1,a"]
    assert cli.main(argv) == 1
    assert "analysis.probe_steps='1,a'" in capsys.readouterr().err
    assert not rd.exists()


def test_eval_refuses_adapter_of_another_foundation(ws, capsys):
    cfg = write_ini(ws / "cfg.ini", **base_sections())
    rd = ws / "run"
    for argv in (["pretrain"], ["adapt"], ["pretrain"], ["eval"]):
        assert cli.main([*argv, "--config", cfg, "--run-dir", str(rd)]) == 0
    # a different foundation in the same run directory: the adapter is stale
    assert cli.main(["pretrain", "--config", cfg, "--run-dir", str(rd), "--seed", "5"]) == 0
    assert cli.main(["eval", "--config", cfg, "--run-dir", str(rd)]) == 1
    err = capsys.readouterr().err
    assert "adapter.json" in err and "foundation.json" in err and "re-run adapt" in err
    # variance skips paradigms that were never trained, not a stale pairing
    assert cli.main(["analyze", "variance", "--config", cfg, "--run-dir", str(rd)]) == 1
    assert "re-run adapt" in capsys.readouterr().err


def test_eval_refuses_adapter_of_another_horizon_naming_it(ws, capsys):
    cfg = write_ini(ws / "cfg.ini", **base_sections())
    rd = ws / "run"
    for argv in (["pretrain"], ["adapt"]):
        assert cli.main([*argv, "--config", cfg, "--run-dir", str(rd)]) == 0
    argv = ["eval", "--config", cfg, "--run-dir", str(rd), "--set", "dataset.horizon=16"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "adapter.json" in err and "dataset.horizon=8" in err and "dataset.horizon=16" in err
    assert not (rd / "reports" / "eval_mola_test.json").exists()


@pytest.mark.parametrize("kind", ["mola", "mtf", "arf"])
def test_eval_refuses_checkpoint_of_another_lookback(ws, capsys, kind):
    sections = base_sections()
    if kind != "mola":
        sections["paradigm"] = {"kind": kind}
    cfg = write_ini(ws / "cfg.ini", **sections)
    rd = ws / "run"
    steps = [["pretrain"], ["adapt"]] if kind == "mola" else [["train-baseline"]]
    for argv in steps:
        assert cli.main([*argv, "--config", cfg, "--run-dir", str(rd)]) == 0
    argv = ["eval", "--config", cfg, "--run-dir", str(rd), "--set", "dataset.lookback=4"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    ckpt = "foundation.json" if kind == "mola" else f"{kind}.json"
    assert ckpt in err and "lookback 8" in err and "dataset.lookback=4" in err


@pytest.fixture(scope="module")
def mlp2_mola_run(tmp_path_factory):
    """A run directory with a foundation and an adapter: mlp2 (8, 4), four
    segments, four experts, rank 2, soft routing."""
    root = tmp_path_factory.mktemp("mlp2_mola")
    sections = base_sections(model={"kind": "mlp2", "hidden": "8,4", "activation": "tanh"},
                             paradigm={"experts": 4, "rank": 2, "routing": "soft"})
    cfg = write_ini(root / "cfg.ini", **sections)
    rd = root / "run"
    for argv in (["pretrain"], ["adapt"]):
        assert cli.main([*argv, "--config", cfg, "--run-dir", str(rd)]) == 0
    return cfg, rd


@pytest.mark.parametrize("items, saved, configured", [
    (["model.kind=linear", "model.hidden="], "model.kind=mlp2", "model.kind=linear"),
    (["model.hidden=16,4"], "model.hidden=8,4", "model.hidden=16,4"),
    (["model.activation=relu"], "model.activation=tanh", "model.activation=relu"),
    (["paradigm.segments=8"], "paradigm.segments=4", "paradigm.segments=8"),
    (["paradigm.experts=2"], "paradigm.experts=4", "paradigm.experts=2"),
    (["paradigm.rank=1"], "paradigm.rank=2", "paradigm.rank=1"),
    (["paradigm.routing=one-hot"], "paradigm.routing=soft", "paradigm.routing=one-hot"),
])
def test_eval_refuses_checkpoints_the_config_does_not_describe(
        mlp2_mola_run, tmp_path, capsys, items, saved, configured):
    cfg, trained = mlp2_mola_run
    rd = tmp_path / "run"
    shutil.copytree(trained, rd)
    argv = ["eval", "--config", cfg, "--run-dir", str(rd)]
    for item in items:
        argv += ["--set", item]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    ckpt = "adapter.json" if saved.startswith("paradigm") else "foundation.json"
    assert ckpt in err and saved in err and configured in err
    assert not (rd / "reports" / "eval_mola_test.json").exists()


def test_eval_leaves_train_only_keys_free(mlp2_mola_run, tmp_path):
    cfg, trained = mlp2_mola_run
    rd = tmp_path / "run"
    shutil.copytree(trained, rd)
    argv = ["eval", "--config", cfg, "--run-dir", str(rd),
            "--set", "train.learning_rate=0.5", "--set", "train.max_epochs=3"]
    assert cli.main(argv) == 0
    assert (rd / "reports" / "eval_mola_test.json").exists()


def test_version_1_adapter_is_rejected(ws, capsys):
    cfg = write_ini(ws / "cfg.ini", **base_sections())
    rd = ws / "run"
    for argv in (["pretrain"], ["adapt"]):
        assert cli.main([*argv, "--config", cfg, "--run-dir", str(rd)]) == 0
    path = rd / "checkpoints" / "adapter.json"
    state = json.loads(path.read_text())
    assert state["format_version"] == 5
    state["format_version"] = 1
    del state["foundation_sha256"]
    path.write_text(json.dumps(state))
    assert cli.main(["eval", "--config", cfg, "--run-dir", str(rd)]) == 1
    assert "unsupported adapter format version 1" in capsys.readouterr().err


def test_malformed_adapter_exits_1_naming_the_field(ws, capsys):
    cfg = write_ini(ws / "cfg.ini", **base_sections())
    rd = ws / "run"
    for argv in (["pretrain"], ["adapt"]):
        assert cli.main([*argv, "--config", cfg, "--run-dir", str(rd)]) == 0
    path = rd / "checkpoints" / "adapter.json"
    good = json.loads(path.read_text())
    for field, value in (("foundation_sha256", None), ("layers", "enc0.w"), ("plan", None)):
        state = dict(good)
        if value is None:
            del state[field]
        else:
            state[field] = value
        path.write_text(json.dumps(state))
        capsys.readouterr()
        assert cli.main(["eval", "--config", cfg, "--run-dir", str(rd)]) == 1, field
        assert field in capsys.readouterr().err


def test_adapt_writes_the_routing(ws):
    # soft by default, one-hot when paradigm.routing says so
    for routing, paradigm in (("soft", {}), ("one-hot", {"routing": "one-hot", "experts": 4})):
        cfg = write_ini(ws / f"{routing}.ini", **base_sections(paradigm=paradigm))
        rd = ws / routing
        for argv in (["pretrain"], ["adapt"]):
            assert cli.main([*argv, "--config", cfg, "--run-dir", str(rd)]) == 0
        state = json.loads((rd / "checkpoints" / "adapter.json").read_text())
        # soft routing stores every layer's logits, one-hot routing none
        assert {"logits" in entry for entry in state["layers"]} == {routing == "soft"}
        assert "routing" not in state and "frozen_logits" not in state


def _drop_logits(state, layers=slice(None)):
    for entry in state["layers"][layers]:
        del entry["logits"]


def test_eval_refuses_an_adapter_whose_routing_does_not_hold(ws, capsys):
    # one-hot (no logits) with 2 experts for 4 segments, logits on one of
    # two layers only, and format 3
    runs = {}
    for experts in (4, 2):
        cfg = write_ini(ws / f"e{experts}.ini", **base_sections(
            model={"kind": "mlp2", "hidden": "6,3"}, paradigm={"experts": experts}))
        rd = ws / f"e{experts}"
        for argv in (["pretrain"], ["adapt"]):
            assert cli.main([*argv, "--config", cfg, "--run-dir", str(rd)]) == 0
        runs[experts] = cfg, rd
    for experts, change, want in (
        (2, _drop_logits, "one-hot routing requires n_experts == segments"),
        (4, lambda state: _drop_logits(state, slice(1)), "have no logits"),
        (4, lambda state: state.update(format_version=3, frozen_logits=[True] * 4),
         "format version 3"),
    ):
        cfg, rd = runs[experts]
        path = rd / "checkpoints" / "adapter.json"
        good = path.read_text()
        state = json.loads(good)
        change(state)
        path.write_text(json.dumps(state))
        capsys.readouterr()
        assert cli.main(["eval", "--config", cfg, "--run-dir", str(rd)]) == 1, change
        err = capsys.readouterr().err
        assert "adapter.json" in err and want in err, (change, err)
        path.write_text(good)
        assert cli.main(["eval", "--config", cfg, "--run-dir", str(rd)]) == 0


def test_eval_refuses_adapter_layers_the_foundation_lacks(ws, capsys):
    cfg = write_ini(ws / "cfg.ini", **base_sections(model={"kind": "mlp2", "hidden": "6,3"}))
    rd = ws / "run"
    for argv in (["pretrain"], ["adapt"]):
        assert cli.main([*argv, "--config", cfg, "--run-dir", str(rd)]) == 0
    path = rd / "checkpoints" / "adapter.json"
    good = json.loads(path.read_text())
    assert [entry["name"] for entry in good["layers"]] == ["enc0.w", "enc1.w"]
    # an unknown layer, the head, two encoder layers whose stacks are
    # swapped, and enc0.w alone, which would forecast with enc1.w unadapted
    for names in (["enc9.w", "enc1.w"], ["head.w", "enc1.w"], ["enc1.w", "enc0.w"], ["enc0.w"]):
        state = json.loads(json.dumps(good))
        del state["layers"][len(names) :]
        for entry, name in zip(state["layers"], names):
            entry["name"] = name
        path.write_text(json.dumps(state))
        capsys.readouterr()
        assert cli.main(["eval", "--config", cfg, "--run-dir", str(rd)]) == 1, names
        err = capsys.readouterr().err
        assert "adapter.json" in err and repr(names[0]) in err, err


@pytest.mark.parametrize("n_experts, rank, want", [(0, 2, "n_experts must be >= 1"),
                                                   (2, 0, "rank must satisfy")])
def test_eval_refuses_an_adapter_of_no_experts_or_rank_0(ws, capsys, n_experts, rank, want):
    # the stacks say P and r; eval holds them to the rule adapt builds by
    cfg = write_ini(ws / "cfg.ini", **base_sections())
    rd = ws / "run"
    for argv in (["pretrain"], ["adapt"]):
        assert cli.main([*argv, "--config", cfg, "--run-dir", str(rd)]) == 0
    path = rd / "checkpoints" / "adapter.json"
    state = json.loads(path.read_text())
    for entry in state["layers"]:
        (_, _, d_in), (_, d_out, _) = entry["a"]["shape"], entry["b"]["shape"]
        entry["a"] = {"shape": [n_experts, rank, d_in], "data": []}
        entry["b"] = {"shape": [n_experts, d_out, rank], "data": []}
        entry["logits"] = {"shape": [4, n_experts], "data": [0.0] * (4 * n_experts)}
    path.write_text(json.dumps(state))
    capsys.readouterr()
    assert cli.main(["eval", "--config", cfg, "--run-dir", str(rd)]) == 1
    err = capsys.readouterr().err
    assert "adapter.json" in err and want in err, err
    assert not (rd / "reports" / "eval_mola_test.json").exists()


def test_malformed_adapter_error_names_the_file(ws, capsys):
    cfg = write_ini(ws / "cfg.ini", **base_sections())
    rd = ws / "run"
    for argv in (["pretrain"], ["adapt"]):
        assert cli.main([*argv, "--config", cfg, "--run-dir", str(rd)]) == 0
    path = rd / "checkpoints" / "adapter.json"
    state = json.loads(path.read_text())
    del state["foundation_sha256"]
    path.write_text(json.dumps(state))
    capsys.readouterr()
    assert cli.main(["eval", "--config", cfg, "--run-dir", str(rd)]) == 1
    err = capsys.readouterr().err
    assert str(path) in err and "'foundation_sha256'" in err


def test_internal_errors_exit_2(ws, monkeypatch, capsys):
    cfg = write_ini(ws / "cfg.ini", **base_sections())

    def boom(*a, **k):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli.train, "pretrain", boom)
    assert cli.main(["pretrain", "--config", cfg, "--run-dir", str(ws / "r")]) == 2
    assert "internal" in capsys.readouterr().err


def test_default_run_dir_uses_env_root(ws):
    cfg = write_ini(ws / "cfg.ini", **mtf_sections())
    assert cli.main(["synth", "--config", cfg]) == 0
    runs = list((ws / "runs").iterdir())
    assert len(runs) == 1
    assert (runs[0] / "data.csv").exists()


# --- analyze ---


def test_analyze_params_prints_reference_ratio(ws, capsys):
    cfg = write_ini(ws / "cfg.ini", **mtf_sections())
    rd = ws / "run"
    assert cli.main(["analyze", "params", "--config", cfg, "--run-dir", str(rd)]) == 0
    out = capsys.readouterr().out
    assert "0.047" in out
    rep = json.loads((rd / "reports" / "params.json").read_text())
    assert rep["n_mola"] == 590112  # the paper's reference configuration
    assert rep["n_backbone"] == 12595200
    assert rep["inputs"] == {"n_layers": 6, "d_model": 512, "d_ff": 1024, "rank": 8,
                             "experts": 4, "segments": 6}


def test_analyze_unknown_kind_is_usage_error(ws, capsys):
    cfg = write_ini(ws / "cfg.ini", **mtf_sections())
    assert cli.main(["analyze", "nonsense", "--config", cfg, "--run-dir", str(ws / "r")]) == 1


def test_compare_is_not_an_analysis(ws, capsys):
    cfg = write_ini(ws / "cfg.ini", **base_sections())
    assert cli.main(["analyze", "compare", "--config", cfg, "--run-dir", str(ws / "r")]) == 1
    assert "invalid choice: 'compare'" in capsys.readouterr().err


def test_analyze_bottleneck_on_mtf_checkpoint(ws, capsys):
    cfg = write_ini(ws / "cfg.ini", **mtf_sections())
    rd = ws / "run"
    assert cli.main(["train-baseline", "--config", cfg, "--run-dir", str(rd)]) == 0
    assert cli.main(["analyze", "bottleneck", "--config", cfg, "--run-dir", str(rd)]) == 0
    rep = json.loads((rd / "reports" / "bottleneck.json").read_text())
    assert rep["mean_min_error_sq"] >= 0.0
    assert np.isfinite(rep["mean_min_error_sq"])
    assert "mean_min_error_sq" in capsys.readouterr().out
    # the checks of eval: no report of another lookback or horizon than the
    # config it is stamped with
    for item, needle in (("dataset.lookback=4", "lookback 8"), ("dataset.horizon=4", "predicts 8")):
        argv = ["analyze", "bottleneck", "--config", cfg, "--run-dir", str(rd), "--set", item]
        assert cli.main(argv) == 1
        assert needle in capsys.readouterr().err
    assert json.loads((rd / "reports" / "bottleneck.json").read_text()) == rep


def test_analyze_bottleneck_requires_checkpoint(ws, capsys):
    cfg = write_ini(ws / "cfg.ini", **mtf_sections())
    assert cli.main(["analyze", "bottleneck", "--config", cfg, "--run-dir", str(ws / "r")]) == 1


def test_analyze_bottleneck_reports_an_svd_that_does_not_converge(ws, capsys, monkeypatch):
    cfg = write_ini(ws / "cfg.ini", **mtf_sections())
    rd = ws / "run"
    assert cli.main(["train-baseline", "--config", cfg, "--run-dir", str(rd)]) == 0
    capsys.readouterr()

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    assert cli.main(["analyze", "bottleneck", "--config", cfg, "--run-dir", str(rd)]) == 1
    # [W b] of a lookback-8, horizon-8 map
    assert "error: the SVD of a 8x9 matrix did not converge" in capsys.readouterr().err
    assert not (rd / "reports" / "bottleneck.json").exists()


def test_analyze_variance_compares_paradigms(ws):
    rd = ws / "run"
    cfg_mtf = write_ini(ws / "m.ini", **mtf_sections())
    arf_sections = mtf_sections()
    arf_sections["paradigm"] = {"kind": "arf"}
    cfg_arf = write_ini(ws / "a.ini", **arf_sections)
    assert cli.main(["train-baseline", "--config", cfg_mtf, "--run-dir", str(rd)]) == 0
    assert cli.main(["train-baseline", "--config", cfg_arf, "--run-dir", str(rd)]) == 0
    assert cli.main(["analyze", "variance", "--config", cfg_mtf, "--run-dir", str(rd)]) == 0
    rep = json.loads((rd / "reports" / "variance.json").read_text())
    assert set(rep["paradigms"]) == {"arf", "mtf"}
    for block in rep["paradigms"].values():
        assert block["identity_gap"] <= 1e-10 * max(1.0, block["var_total"])
    assert len(rep["comparisons"]) == 1
    assert "delta_cov_sum" in rep["comparisons"][0]


def test_analyze_probe_writes_points_and_pairs(ws):
    sections = mtf_sections(
        dataset={"n_points": 160, "lookback": 16, "horizon": 2},
        analysis={"probe_steps": "1,2"},
    )
    cfg = write_ini(ws / "cfg.ini", **sections)
    rd = ws / "run"
    assert cli.main(["analyze", "probe", "--config", cfg, "--run-dir", str(rd)]) == 0
    rep = json.loads((rd / "reports" / "probe.json").read_text())
    assert rep["steps"] == [1, 2]
    assert len(rep["pairwise"]) == 1
    pts = (rd / "reports" / "probe_points.csv").read_text().splitlines()
    body = [line for line in pts if not line.startswith("#")]
    assert body[0] == "entry,step,seed,window,x0,x1"
    assert len(body) > 1


def test_compare_subcommand_runs_all_paradigms(ws):
    sections = base_sections(dataset={"horizon": 4}, paradigm={"segments": 2, "rank": 2})
    cfg = write_ini(ws / "cfg.ini", **sections)
    rd = ws / "run"
    assert cli.main(["compare", "--config", cfg, "--run-dir", str(rd)]) == 0
    rep = json.loads((rd / "reports" / "compare.json").read_text())
    assert set(rep["paradigms"]) == {"arf", "mtf", "mola"}
    assert len({p["window_hash"] for p in rep["paradigms"].values()}) == 1
    csv_body = [
        line
        for line in (rd / "reports" / "compare.csv").read_text().splitlines()
        if not line.startswith("#")
    ]
    assert csv_body[0] == "paradigm,step,mse,mae"
    assert len(csv_body) == 1 + 3 * (4 + 1)  # header + per paradigm: 4 steps + avg


def test_csv_dataset_source_with_counts_split(ws):
    synth_cfg = write_ini(ws / "s.ini", **mtf_sections(dataset={"n_points": 120}))
    src = ws / "data"
    assert cli.main(["synth", "--config", synth_cfg, "--run-dir", str(src)]) == 0
    sections = {
        "dataset": {
            "source": "csv",
            "csv_path": str(src / "data.csv"),
            "lookback": 8,
            "horizon": 4,
            "split": "80,20,20",
        },
        "model": {"kind": "linear"},
        "paradigm": {"kind": "mtf"},
        "train": {"max_epochs": 1, "batch_size": 16},
    }
    cfg = write_ini(ws / "c.ini", **sections)
    rd = ws / "run"
    assert cli.main(["train-baseline", "--config", cfg, "--run-dir", str(rd)]) == 0
    assert cli.main(["eval", "--config", cfg, "--run-dir", str(rd)]) == 0


# --- the README's walkthrough ---


# command -> the files it writes into its run directory, besides manifest.json
WALKTHROUGH_FILES = {
    "synth": ["data.csv"],
    "pretrain": ["checkpoints/foundation.json", "records/pretrain.jsonl",
                 "reports/pretrain_summary.json"],
    "adapt": ["checkpoints/adapter.json", "records/segment-1.jsonl", "reports/adapt_summary.json"],
    "eval": ["reports/eval_mola_test.json", "reports/eval_mola_test.csv"],
    "compare": ["reports/compare.json", "reports/compare.csv"],
    "analyze": ["reports/params.json"],
}


def test_readme_walkthrough_runs(tmp_path, monkeypatch):
    # the ini block and the `mola ...` command block of the README's CLI
    # walkthrough: each command runs at a tiny size in the directories it names
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## CLI walkthrough", 1)[1].split("\n## ", 1)[0]
    ini = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    block = re.search(r"```\n(mola .*?)```", section, re.S).group(1)
    commands = [shlex.split(line)[1:] for line in block.splitlines()]
    assert [argv[0] for argv in commands] == list(WALKTHROUGH_FILES)
    monkeypatch.chdir(tmp_path)
    small = ["--set", "dataset.n_points=400", "--set", "train.max_epochs=1",
             "--set", "train.pretrain_max_epochs=1"]
    for argv in commands:
        (tmp_path / argv[argv.index("--config") + 1]).write_text(ini, encoding="utf-8")
        assert cli.main([*argv, *small]) == 0, argv
        rd = tmp_path / argv[argv.index("--run-dir") + 1]
        for name in ["manifest.json", *WALKTHROUGH_FILES[argv[0]]]:
            assert (rd / name).is_file(), (argv, name)
            assert f"`{name}`" in readme, name
