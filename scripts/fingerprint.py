#!/usr/bin/env python3
"""Print one ``name sha256`` line per artifact of a fixed set of runs, so
that two checkouts can be compared bit for bit:

    python3 scripts/fingerprint.py > a.txt     # in one checkout
    python3 scripts/fingerprint.py > b.txt     # in the other
    diff a.txt b.txt

The runs reuse the inputs of the benchmark workloads (perfbench/workloads.py,
loaded from its file) at their full size, on input seeds 0 and 7:

- compare_onehot: the canonical-JSON ``analysis.paradigm_compare`` report
  on the workload's corpus, model and training config, with one-hot
  routing and 4 experts (the workload itself), and with soft routing and
  2 experts;
- etth_cli_soft: every file of the run directory after ``mola pretrain``,
  ``adapt`` and ``eval`` (the workload itself), then ``mola eval --split
  val --destandardized`` and ``mola analyze variance``, all through the
  workload's ``cli.main`` call, in a temporary directory.  The last line
  of each ``records/*.jsonl`` is hashed without its ``wall_time_s``, the
  one value that changes from run to run.
- floor_svd: each phase of the workload run once: the canonical-JSON
  ``analysis.dataset_bottleneck`` report of each linear model, and for
  the ``min_attainable_error`` instances each one's rank, the ``repr`` of
  its ``min_error_sq`` and ``ls_residual_sq`` and the bytes of its
  ``svd.sigma``, one line for all of them.

OpenBLAS is pinned to one thread before numpy loads, since the thread
count can change the order of floating-point sums.  The script takes no
options; it imports mola from the ``src`` directory of its own checkout.
"""

import hashlib
import importlib.util
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads, with mola below
ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from mola import analysis  # noqa: E402

SEEDS = (0, 7)


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def compare_reports(workloads, seed: int, workdir: Path):
    wl = workloads.CompareOneHot(tiny=False)
    wl.setup(seed, workdir)
    yield "one-hot-P4", wl.phases()[0][1]()
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="segment length")
        yield "soft-P2", analysis.paradigm_compare(
            wl.ds, wl.spec, horizon=wl.horizon, segments=wl.segments, config=wl.config,
            n_experts=2, rank=5, routing="soft", pretrain_config=wl.config)


def cli_run_files(workloads, seed: int, workdir: Path):
    wl = workloads.EtthCliSoft(tiny=False)
    wl.setup(seed, workdir)
    for _, phase in wl.phases():
        phase()
    wl._cli("eval", "--split", "val", "--destandardized")
    wl._cli("analyze", "variance")
    for path in sorted(p for p in wl.run_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.parent.name == "records" and path.suffix == ".jsonl":
            *lines, last = data.decode("utf-8").splitlines()
            last = json.loads(last)
            del last["wall_time_s"]
            data = "\n".join([*lines, workloads.canonical(last).decode("utf-8")]).encode("utf-8")
        yield path.relative_to(wl.run_dir).as_posix(), data


def floor_reports(workloads, seed: int, workdir: Path):
    wl = workloads.FloorSvd(tiny=False)
    wl.setup(seed, workdir)
    for name, phase in wl.phases():
        out = phase()
        if name == "min_attainable_error":
            yield name, b"".join(
                f"{rep.rank} {rep.min_error_sq!r} {rep.ls_residual_sq!r} ".encode("utf-8")
                + rep.svd.sigma.tobytes() for rep in out)
        else:
            yield name, workloads.canonical(out)


def main() -> int:
    workloads = load_workloads()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            workdir = Path(tmp) / f"compare-{seed}"
            for name, report in compare_reports(workloads, seed, workdir):
                print(f"compare_onehot/seed{seed}/{name} {sha256(workloads.canonical(report))}")
        for seed in SEEDS:
            workdir = Path(tmp) / f"etth-{seed}"
            for name, data in cli_run_files(workloads, seed, workdir):
                print(f"etth_cli_soft/seed{seed}/{name} {sha256(data)}")
        for seed in SEEDS:
            workdir = Path(tmp) / f"floor-{seed}"
            for name, data in floor_reports(workloads, seed, workdir):
                print(f"floor_svd/seed{seed}/{name} {sha256(data)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
