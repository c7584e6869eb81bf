"""The three benchmark workloads: inputs, timed phases and correctness checks.

Every workload is driven from outside through mola's public functions or
its CLI.  ``setup`` builds the inputs from the workload seed (corpus, CSV,
config, models); one iteration runs the ``phases`` in order; ``check`` turns
an iteration's outputs into a result fingerprint and a list of problems.

Training budgets use patience == max_epochs, so every stage runs the same
number of epochs for every seed.  With early stopping left on, the
epochs run -- and so the time of one iteration -- vary twofold from seed
to seed, which would hide any real change behind the choice of seed.
"""

from __future__ import annotations

import contextlib
import datetime
import hashlib
import io
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np

from mola import analysis, cli, data, model, train


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def finite_positive(x) -> bool:
    return isinstance(x, float) and math.isfinite(x) and x > 0.0


class Fingerprint:
    """``values`` must agree with the reference to a relative 1e-12,
    ``exact`` entries must be equal, and ``digests`` (bytes of whole
    artifacts) only report drift: a change within the tolerance still shows."""

    def __init__(self):
        self.values: dict[str, float] = {}
        self.exact: dict[str, object] = {}
        self.digests: dict[str, str] = {}

    def to_dict(self) -> dict:
        return {"values": self.values, "exact": self.exact, "digests": self.digests}


class CompareOneHot:
    """One seed of analysis.paradigm_compare on the case-study corpus, with
    the model of the paradigm-ordering acceptance test."""

    name = "compare_onehot"

    def __init__(self, tiny: bool):
        self.n_points = 500 if tiny else 2000
        self.epochs = 2 if tiny else 20
        self.lookback, self.horizon, self.segments = 6, 32, 4

    def setup(self, seed: int, workdir: Path) -> None:
        self.ds = data.standardize(
            data.generate_synthetic(data.default_synth_spec(n_points=self.n_points, seed=seed))
        )
        self.spec = model.EncoderSpec(kind="mlp2", in_len=self.lookback, hidden=(16, 8),
                                      activation="tanh")
        self.config = train.TrainConfig(learning_rate=1e-2, max_epochs=self.epochs,
                                        patience=self.epochs, seed=seed)
        seg_len = self.horizon // self.segments
        n_train = {h: len(data.window_origins(self.ds, self.lookback, h, "train"))
                   for h in (1, seg_len, self.horizon)}
        # train windows behind each run record, in paradigm_compare's order
        self.stage_windows = {
            "arf": [n_train[1]],
            "mtf": [n_train[self.horizon]],
            "mola": [n_train[seg_len]] + [n_train[self.horizon]] * self.segments,
        }

    def phases(self):
        return [("paradigm_compare", self._compare)]

    def _compare(self):
        with warnings.catch_warnings():
            # lookback 6 < segment length 8 is deliberate in this config
            warnings.filterwarnings("ignore", message="segment length")
            return analysis.paradigm_compare(
                self.ds, self.spec, horizon=self.horizon, segments=self.segments,
                config=self.config, n_experts=4, rank=5, routing="one-hot",
                pretrain_config=self.config,
            )

    def check(self, outputs: dict) -> tuple[Fingerprint, list[str]]:
        rep = outputs["paradigm_compare"]
        fp, problems = Fingerprint(), []
        hashes = {p["window_hash"] for p in rep["paradigms"].values()}
        if len(hashes) != 1:
            problems.append(f"paradigms were evaluated on different windows: {sorted(hashes)}")
        fp.exact["window_hash"] = sorted(hashes)[0]
        all_records = []
        for name, want in self.stage_windows.items():
            par = rep["paradigms"][name]
            for met in ("mse", "mae"):
                fp.values[f"{name}.{met}"] = par["metrics"][met]
                if not finite_positive(par["metrics"][met]):
                    problems.append(f"{name} test {met} is {par['metrics'][met]!r}")
            if len(par["records"]) != len(want):
                problems.append(f"{name}: {len(par['records'])} run records, expected {len(want)}")
            for rec in par["records"]:
                key = f"{name}.{rec['stage']}"
                fp.values[f"{key}.best_val_loss"] = rec["best_val_loss"]
                fp.values[f"{key}.final_val_mse"] = rec["final_metrics"]["mse"]
                fp.exact[f"{key}.best_epoch"] = rec["best_epoch"]
                if len(rec["epochs"]) != self.epochs:
                    problems.append(f"{key} ran {len(rec['epochs'])} epochs, expected {self.epochs}")
                all_records.append(rec)
        fp.digests["records_sha256"] = hashlib.sha256(canonical(all_records)).hexdigest()
        return fp, problems

    def reported(self, outputs: dict, phase_s: dict) -> dict:
        passes = untrained = 0
        rep = outputs["paradigm_compare"]
        for name, windows in self.stage_windows.items():
            for rec, n in zip(rep["paradigms"][name]["records"], windows):
                passes += len(rec["epochs"]) * n
                untrained += rec["best_epoch"] == 0
        return {
            "train_windows_per_s": (passes / phase_s["paradigm_compare"], "1/s"),
            "untrained_stages": (untrained, "count"),
        }


ETT_CHANNELS = ("HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT")


class EtthCliSoft:
    """pretrain -> adapt -> eval through cli.main on an ETTh-shaped CSV."""

    name = "etth_cli_soft"

    def __init__(self, tiny: bool):
        if tiny:
            self.counts, self.lookback, self.horizon = (800, 300, 300), 24, 48
            self.hidden, self.rank, self.epochs = (8, 4), 2, 1
        else:
            self.counts, self.lookback, self.horizon = (8545, 2881, 2881), 96, 192
            self.hidden, self.rank, self.epochs = (32, 16), 4, 5
        self.segments = 4

    def setup(self, seed: int, workdir: Path) -> None:
        rows = sum(self.counts)
        spec = data.SynthSpec(
            n_points=rows,
            d_channels=len(ETT_CHANNELS),
            components=(
                data.SynthComponent(kind="sine", amplitude=1.0, period=24.0),
                data.SynthComponent(kind="sine", amplitude=0.5, period=168.0, phase=0.3),
                data.SynthComponent(kind="trend", amplitude=1.0),
                data.SynthComponent(kind="ar1", amplitude=0.3, ar_coeff=0.9),
            ),
            noise_std=0.1,
            seed=seed,
        )
        values = data.generate_synthetic(spec).values
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.csv_path = workdir / "etth.csv"
        start = datetime.datetime(2016, 7, 1)
        hour = datetime.timedelta(hours=1)
        lines = ["date," + ",".join(ETT_CHANNELS)]
        for i, row in enumerate(values):
            stamp = (start + i * hour).strftime("%Y-%m-%d %H:%M:%S")
            lines.append(stamp + "," + ",".join("%.4f" % x for x in row))
        self.csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        e = self.epochs
        self.config_path = workdir / "etth.ini"
        self.config_path.write_text(
            "[dataset]\nsource = csv\n"
            f"csv_path = {self.csv_path.name}\n"
            f"lookback = {self.lookback}\nhorizon = {self.horizon}\n"
            "split = " + ",".join(str(c) for c in self.counts) + "\n"
            "[model]\nkind = mlp2\n"
            "hidden = " + ",".join(str(h) for h in self.hidden) + "\nactivation = relu\n"
            f"[paradigm]\nkind = mola\nsegments = {self.segments}\nexperts = 4\n"
            f"rank = {self.rank}\n"
            f"[train]\nmax_epochs = {e}\npatience = {e}\n"
            f"pretrain_max_epochs = {e}\npretrain_patience = {e}\nseed = {seed}\n",
            encoding="utf-8",
        )
        self.run_dir = workdir / "run"
        # the window counts the CLI will see, by mola's own window rule
        a, b, _ = self.counts
        split = data.SeriesDataset(values=values, channel_names=list(ETT_CHANNELS),
                                   train_end=a, val_end=a + b)
        seg_len = self.horizon // self.segments
        self.n_pretrain = len(data.window_origins(split, self.lookback, seg_len, "train"))
        self.n_adapt = len(data.window_origins(split, self.lookback, self.horizon, "train"))
        self.n_test = len(data.window_origins(split, self.lookback, self.horizon, "test"))

    def phases(self):
        return [
            ("pretrain", lambda: self._cli("pretrain")),
            ("adapt", lambda: self._cli("adapt")),
            ("eval", lambda: self._cli("eval", "--split", "test")),
        ]

    def _cli(self, *argv):
        # Paths are given relative to the work directory: the resolved
        # config, paths included, is hashed into every checkpoint, and the
        # checkpoint digests must not depend on where the checkout lies.
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main([*argv, "--config", self.config_path.name,
                                 "--run-dir", self.run_dir.name])
        finally:
            os.chdir(cwd)
        if code != 0:
            raise RuntimeError(f"mola {argv[0]} exited {code}: {err.getvalue().strip()}")
        return code

    def _summaries(self) -> list[dict]:
        names = ["pretrain"] + [f"segment-{k}" for k in range(1, self.segments + 1)]
        out = []
        for stage in names:
            lines = (self.run_dir / "records" / f"{stage}.jsonl").read_text().splitlines()
            out.append(json.loads(lines[-1])["summary"])
        return out

    def check(self, outputs: dict) -> tuple[Fingerprint, list[str]]:
        fp, problems = Fingerprint(), []
        report = json.loads((self.run_dir / "reports" / "eval_mola_test.json").read_text())
        metrics = report["metrics"]
        for met in ("mse", "mae"):
            fp.values[f"eval.{met}"] = metrics[met]
            if not finite_positive(metrics[met]):
                problems.append(f"test {met} is {metrics[met]!r}")
        fp.exact["eval.n_windows"] = metrics["n_windows"]
        if metrics["n_windows"] != self.n_test:
            problems.append(f"eval used {metrics['n_windows']} windows, expected {self.n_test}")
        for rec in self._summaries():
            fp.values[f"{rec['stage']}.best_val_loss"] = rec["best_val_loss"]
            fp.values[f"{rec['stage']}.final_val_mse"] = rec["final_metrics"]["mse"]
            fp.exact[f"{rec['stage']}.best_epoch"] = rec["best_epoch"]
            if len(rec["epochs"]) != self.epochs:
                problems.append(f"{rec['stage']} ran {len(rec['epochs'])} epochs, expected {self.epochs}")
        for ckpt in ("foundation", "adapter"):
            fp.digests[f"{ckpt}_sha256"] = sha256_file(self.run_dir / "checkpoints" / f"{ckpt}.json")
        return fp, problems

    def reported(self, outputs: dict, phase_s: dict) -> dict:
        summaries = self._summaries()
        pre_passes = len(summaries[0]["epochs"]) * self.n_pretrain
        adapt_passes = sum(len(r["epochs"]) for r in summaries[1:]) * self.n_adapt
        train_s = phase_s["pretrain"] + phase_s["adapt"]
        return {
            "train_windows_per_s": ((pre_passes + adapt_passes) / train_s, "1/s"),
            "adapt_windows_per_s": (adapt_passes / phase_s["adapt"], "1/s"),
            "forecast_windows_per_s": (self.n_test / phase_s["eval"], "1/s"),
            "untrained_stages": (sum(r["best_epoch"] == 0 for r in summaries), "count"),
        }


class FloorSvd:
    """Error floors of seeded linear models at the paper's lookback/horizon
    scale, plus floors of seeded rank-deficient systems."""

    name = "floor_svd"

    def __init__(self, tiny: bool):
        if tiny:
            self.n_points, self.shapes = 600, ((8, 16), (12, 24), (12, 40))
            self.n_instances, self.inst = 2, (12, 6, 3, 8)
        else:
            self.n_points, self.shapes = 4000, ((48, 96), (96, 192), (96, 336))
            self.n_instances, self.inst = 6, (48, 24, 12, 64)
        self._numpy_floors = None

    def setup(self, seed: int, workdir: Path) -> None:
        self.ds = data.standardize(
            data.generate_synthetic(data.default_synth_spec(n_points=self.n_points, seed=seed))
        )
        self.models = [
            model.new_model(model.EncoderSpec(kind="linear", in_len=lb), head_out=t, seed=seed)
            for lb, t in self.shapes
        ]
        # rank-deficient maps: W = G H with inner rank r < L
        t, lb, r, cols = self.inst
        rng = np.random.default_rng([seed, 1])
        self.instances = [
            (rng.normal(size=(t, r)) @ rng.normal(size=(r, lb)), rng.normal(size=t),
             rng.normal(size=(t, cols)))
            for _ in range(self.n_instances)
        ]
        self._numpy_floors = None

    def phases(self):
        out = [(f"bottleneck_L{lb}_T{t}", lambda m=m: analysis.dataset_bottleneck(m, self.ds, "test"))
               for (lb, t), m in zip(self.shapes, self.models)]
        out.append(("min_attainable_error",
                    lambda: [analysis.min_attainable_error(w, b, y) for w, b, y in self.instances]))
        return out

    def _reference_floors(self) -> list[tuple[int, float]]:
        """(rank, floor) of each linear model's test split, from numpy's SVD."""
        if self._numpy_floors is None:
            self._numpy_floors = []
            for (lb, t), m in zip(self.shapes, self.models):
                w, b = analysis.linear_forecast_map(m)
                wbar = np.hstack([w, b[:, None]])
                origins = data.window_origins(self.ds, lb, t, "test")
                y = np.hstack([self.ds.values[n + 1 : n + 1 + t] for n in origins])
                u, s, _ = np.linalg.svd(wbar)
                rank = int((s > s[0] * max(wbar.shape) * 1e-12).sum())
                proj = u[:, :rank].T @ y
                self._numpy_floors.append((rank, float((y * y).sum() - (proj * proj).sum())))
        return self._numpy_floors

    def check(self, outputs: dict) -> tuple[Fingerprint, list[str]]:
        fp, problems = Fingerprint(), []
        for ((lb, t), (np_rank, np_floor)) in zip(self.shapes, self._reference_floors()):
            key = f"bottleneck_L{lb}_T{t}"
            rep = outputs[key]
            floor, resid = rep["total_min_error_sq"], rep["total_ls_residual_sq"]
            fp.values[f"{key}.total_min_error_sq"] = floor
            fp.values[f"{key}.total_ls_residual_sq"] = resid
            fp.exact[f"{key}.rank"] = rep["rank"]
            fp.exact[f"{key}.n_windows"] = rep["n_windows"]
            if not finite_positive(floor):
                problems.append(f"{key}: floor is {floor!r}")
            if rel_diff(floor, resid) > 1e-8:
                problems.append(f"{key}: floor {floor!r} != least-squares residual {resid!r}")
            if rep["rank"] != np_rank or rel_diff(floor, np_floor) > 1e-8:
                problems.append(f"{key}: rank {rep['rank']}, floor {floor!r}; "
                                f"numpy gives rank {np_rank}, floor {np_floor!r}")
        for i, ((w, b, _), rep) in enumerate(zip(self.instances, outputs["min_attainable_error"])):
            key = f"instance{i}"
            fp.values[f"{key}.min_error_sq"] = rep.min_error_sq
            fp.values[f"{key}.ls_residual_sq"] = rep.ls_residual_sq
            fp.exact[f"{key}.rank"] = rep.rank
            sigma = np.linalg.svd(np.hstack([w, b[:, None]]), compute_uv=False)
            err = float(np.max(np.abs(rep.svd.sigma - sigma)))
            if err > 1e-12 * sigma[0]:
                problems.append(f"{key}: singular values off numpy's by {err:.3e}")
            if rel_diff(rep.min_error_sq, rep.ls_residual_sq) > 1e-8:
                problems.append(f"{key}: floor {rep.min_error_sq!r} != least-squares "
                                f"residual {rep.ls_residual_sq!r}")
        return fp, problems

    def reported(self, outputs: dict, phase_s: dict) -> dict:
        windows = sum(outputs[f"bottleneck_L{lb}_T{t}"]["n_windows"] for lb, t in self.shapes)
        bottleneck_s = sum(s for name, s in phase_s.items() if name.startswith("bottleneck"))
        return {"floor_windows_per_s": (windows / bottleneck_s, "1/s")}


def rel_diff(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


WORKLOADS = {w.name: w for w in (CompareOneHot, EtthCliSoft, FloorSvd)}


def compare_fingerprint(fp: Fingerprint, ref: dict | None, tol: float = 1e-12):
    """Problems (counted as failures), drift notes, and the largest relative
    difference of any value, against the reference fingerprint."""
    if ref is None:
        return [], ["no reference fingerprint for these inputs"], 0.0
    problems, notes, worst = [], [], 0.0
    for group in ("values", "exact"):
        if set(fp.to_dict()[group]) != set(ref[group]):
            problems.append(f"fingerprint {group} keys differ from the reference")
    for key, val in fp.values.items():
        if key in ref["values"]:
            d = rel_diff(val, ref["values"][key])
            worst = max(worst, d)
            if not d <= tol:
                problems.append(f"{key} = {val!r}, reference {ref['values'][key]!r} "
                                f"(relative {d:.3e} > {tol:g})")
    for key, val in fp.exact.items():
        if key in ref["exact"] and val != ref["exact"][key]:
            problems.append(f"{key} = {val!r}, reference {ref['exact'][key]!r}")
    for key, val in fp.digests.items():
        if ref["digests"].get(key) != val:
            notes.append(f"{key} differs from the reference (bitwise drift)")
    return problems, notes, worst
