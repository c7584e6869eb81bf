"""Run one mola benchmark workload and print its metrics.

    python3 perfbench/run.py --workload compare_onehot --seed 0 --seconds 30 --trace 0

Run it from the repository root: it imports mola from ``./src`` and writes
only under ``./.perfbench_out``.  ``--workload all`` runs every workload,
each in its own process.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` they are its per-layer metrics, taken from a run with
spans recorded around mola's public functions (see tracing.py).

One iteration runs timed set-ups (at least three, for at least 50 ms),
then the workload's phases in order.  Iterations repeat for ``--seconds`` seconds, and a new one starts
only if it is expected to end within the budget.  Every set-up block and
phase is timed while hostspeed.Sampler samples the host's speed, and its
time is converted to the time at a fixed reference speed: wall_s is the sum
over the phases of the median converted phase time, setup_s the median
converted set-up time.  Measured times are printed beside them and kept in
the results file.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Inputs come from seed % REFERENCE_SEEDS, so every run can be checked
# against a fingerprint recorded for its inputs (see record_reference.py).
REFERENCE_SEEDS = 32
# Before each iteration the inputs are set up at least SETUP_REPEATS times
# and for at least SETUP_MIN_S, so that even a sub-millisecond set-up is
# timed over several host-speed probes; the last set-up's inputs are used.
SETUP_REPEATS = 3
SETUP_MIN_S = 0.05
OUT_DIR = ".perfbench_out"
HERE = Path(__file__).resolve().parent


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small inputs for a quick check of the harness itself")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# --- provenance ---


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _steal_ticks():
    try:
        fields = Path("/proc/stat").read_text().splitlines()[0].split()
        return int(fields[8])
    except (OSError, IndexError, ValueError):
        return None


def _openblas():
    """(config string, live thread count) of the OpenBLAS numpy loaded."""
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "")):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                return get_config().decode(), get_threads()
    return "unknown", None


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(root: Path, seed: int, input_seed: int) -> dict:
    import numpy as np

    blas_config, blas_threads = _openblas()
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "git_commit": _git_commit(root),
        "seed": seed,
        "input_seed": input_seed,
        "loadavg_1m": os.getloadavg()[0],
    }


# --- measurement ---


def run_iterations(wl, seconds, seed, workdir, reference, tracer=None) -> list[dict]:
    """Set up and iterate the workload's phases for about `seconds` seconds.
    Always runs one iteration; starts another only if the slowest so far
    would still end within the budget.  Set-ups are spread over the run like
    the iterations, so that both meet the same mix of host speeds.  Every
    set-up block and phase is timed under a host-speed sampler."""
    from hostspeed import Sampler, at_reference
    from workloads import compare_fingerprint

    sampler = Sampler()
    out = []
    begin = perf_counter()
    slowest = 0.0
    while not out or perf_counter() - begin + slowest <= seconds:
        start = perf_counter()
        it = {"setup_s": [], "setup_ref_s": [], "phase_s": {}, "phase_ref_s": {},
              "probes": [], "problems": [], "notes": [], "traced": tracer is not None}
        try:
            with sampler:
                while len(it["setup_s"]) < SETUP_REPEATS or sum(it["setup_s"]) < SETUP_MIN_S:
                    t0 = perf_counter()
                    wl.setup(seed, workdir)
                    it["setup_s"].append(perf_counter() - t0)
            block = sum(it["setup_s"])
            block_ref = at_reference(block, sampler)
            it["setup_ref_s"] = [t / block * block_ref for t in it["setup_s"]]
            it["probes"] += sampler.samples
            if tracer is not None:
                it["spans"] = [tracer.mark(), None]
            outputs = {}
            for name, fn in wl.phases():
                with sampler:
                    t0 = perf_counter()
                    outputs[name] = fn()
                    t = perf_counter() - t0
                it["phase_s"][name] = t
                it["phase_ref_s"][name] = at_reference(t, sampler)
                it["probes"] += sampler.samples
            if tracer is not None:
                it["spans"][1] = tracer.mark()
            fp, problems = wl.check(outputs)
            ref_problems, notes, drift = compare_fingerprint(fp, reference)
            it["problems"] = problems + ref_problems
            it["notes"] = notes
            it["max_relative_drift"] = drift
            it["fingerprint"] = fp.to_dict()
            it["outputs"] = outputs
        except Exception:  # noqa: BLE001 - a failed iteration is counted, not fatal
            it["problems"].append("raised:\n" + traceback.format_exc())
        it["ok"] = not it["problems"]
        if it["ok"]:  # only the latest outputs are kept, for wl.reported
            for prev in out:
                prev.pop("outputs", None)
        for p in it["problems"]:
            print(f"FAIL iteration {len(out) + 1}: {p}", file=sys.stderr)
        out.append(it)
        slowest = max(slowest, perf_counter() - start)
    return out


def phase_ref_medians(iterations) -> dict:
    """Per phase, the median over passed iterations of its reference-speed time."""
    ok = [it for it in iterations if it["ok"]]
    return {name: statistics.median(it["phase_ref_s"][name] for it in ok)
            for name in (ok[0]["phase_ref_s"] if ok else ())}


def wall(iterations) -> float | None:
    """One iteration at the reference host speed: the sum over the phases
    of the median reference-speed phase time."""
    medians = phase_ref_medians(iterations)
    return sum(medians.values()) if medians else None


def setup_time(iterations) -> float:
    """Median reference-speed time of one set-up, over the run."""
    return statistics.median(t for it in iterations if it["ok"] for t in it["setup_ref_s"])


def phase_table(iterations) -> dict:
    ok = [it for it in iterations if it["ok"]]
    medians = phase_ref_medians(iterations)
    table = {}
    for name, ref in medians.items():
        measured = [it["phase_s"][name] for it in ok]
        table[name] = {"n": len(measured), "fastest_s": min(measured),
                       "median_s": statistics.median(measured), "reference_median_s": ref}
    return table


def trace_metrics(tracer, traced, untraced_wall, traced_wall, names) -> tuple[dict, list[str]]:
    """Per-layer metrics (lower median over traced iterations, so counts stay
    whole) and trace problems.  Span times are converted to the reference
    host speed with the iteration's own conversion factor."""
    per_iter, problems = [], []
    for n, it in enumerate(traced, start=1):
        if not it["ok"]:
            continue
        lo, hi = it["spans"]
        agg = tracer.aggregate(lo, hi)
        measured = sum(it["phase_s"].values())
        self_sum = sum(agg["self"].values())
        problems += [f"iteration {n}: {e}" for e in tracer.nesting_errors(lo, hi)[:5]]
        if self_sum > measured:
            problems.append(f"iteration {n}: self times sum to {self_sum:.6f} s "
                            f"> iteration {measured:.6f} s")
        scale = sum(it["phase_ref_s"].values()) / measured
        for key in ("total", "self"):
            agg[key] = {k: v * scale for k, v in agg[key].items()}
        recs = agg["records"]
        epochs = sum(e for e, _ in recs)
        extra = {
            "train.epochs_run": epochs,
            "train.useful_epoch_ratio": sum(b for _, b in recs) / epochs if epochs else 0.0,
            "train.untrained_stages": sum(b == 0 for _, b in recs),
            "trace.spans": hi - lo,
            "trace.unattributed_s": (measured - self_sum) * scale,
        }
        per_iter.append({name: layer_metric(name, agg, extra) for name in names
                         if not name.startswith("trace.overhead")})
    metrics = {name: statistics.median_low(v[name] for v in per_iter) for name in per_iter[0]} \
        if per_iter else {}
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    return metrics, problems


def layer_metric(name: str, agg: dict, extra: dict):
    """Value of one per-layer metric named <function>.<stat> or <module>.self_s."""
    if name in extra:
        return extra[name]
    func, stat = name.rsplit(".", 1)
    if "." not in func and stat == "self_s":
        return sum(v for k, v in agg["self"].items() if k.split(".")[0] == func)
    calls = agg["calls"].get(func, 0)
    self_s = agg["self"].get(func, 0.0)
    work = agg["work"].get(func, 0)
    if stat == "calls":
        return calls
    if stat == "s":
        return agg["total"].get(func, 0.0)
    if stat == "self_s":
        return self_s
    if stat in ("self_us", "self_ms"):
        return self_s / calls * (1e6 if stat == "self_us" else 1e3) if calls else 0.0
    if stat.endswith("_per_call"):
        return work / calls if calls else 0.0
    if stat in ("windows", "bytes"):
        return work
    if stat == "rows_per_s":
        return work / self_s if self_s else 0.0
    raise KeyError(f"no rule for per-layer metric {name!r}")


def coverage_problems(tracer, traced, workload: str, usage: dict) -> list[str]:
    """Every function predicted to run on this workload was called; no other was."""
    calls: dict[str, int] = {}
    for it in traced:
        if it["ok"]:
            for name, n in tracer.aggregate(*it["spans"])["calls"].items():
                calls[name] = calls.get(name, 0) + n
    problems = []
    for name in sorted(set(usage) | set(calls)):
        predicted = workload in usage.get(name, ())
        n = calls.get(name, 0)
        if predicted and n == 0:
            problems.append(f"coverage: {name} predicted on {workload} but never called")
        if not predicted and n:
            problems.append(f"coverage: {name} called {n} times, predicted unused on {workload}")
    return problems


# --- entry points ---


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    bench = json.loads(Path("BENCHMARK.json").read_text())
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in bench["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{w['name']}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not ((root / "src" / "mola" / "__init__.py").is_file()
            and (root / "BENCHMARK.json").is_file()):
        print("error: run from the repository root (needs src/mola and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # pin BLAS to one thread before numpy is first imported
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    import mola

    if Path(mola.__file__).resolve().parent != (root / "src" / "mola").resolve():
        print(f"error: imported mola from {mola.__file__}, not from ./src", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    bench = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    input_seed = args.seed % REFERENCE_SEEDS
    reference = None
    if not args.tiny:
        refs = json.loads((HERE / "reference.json").read_text())
        reference = refs["fingerprints"][args.workload].get(str(input_seed))
    out_dir = root / OUT_DIR
    workdir = out_dir / "work" / f"{args.workload}-{os.getpid()}"
    try:
        return measure(args, root, bench, WORKLOADS[args.workload](args.tiny), input_seed,
                       reference, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, root, bench, wl, input_seed, reference, out_dir, workdir) -> int:
    from hostspeed import REFERENCE_PROBE_S, slow_share, speed

    prov = provenance(root, args.seed, input_seed)
    print(f"perfbench: workload={wl.name} seed={args.seed} (inputs from seed {input_seed}) "
          f"seconds={args.seconds:g} trace={args.trace}" + (" tiny" if args.tiny else ""))
    steal0 = _steal_ticks()
    result = {"workload": wl.name, "provenance": prov}
    problems = []
    values = {}
    if args.trace:
        from tracing import Tracer

        untraced = run_iterations(wl, args.seconds / 2, input_seed, workdir, reference)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_iterations(wl, args.seconds / 2, input_seed, workdir, reference, tracer)
        finally:
            tracer.uninstall()
        iterations = untraced + traced
        untraced_wall, traced_wall = wall(untraced), wall(traced)
        group = "per_layer"
        predictions = json.loads((HERE / "predictions.json").read_text())
        if untraced_wall and traced_wall:
            values, problems = trace_metrics(tracer, traced, untraced_wall, traced_wall,
                                             [m["name"] for m in bench[group]])
            problems += coverage_problems(tracer, traced, wl.name, predictions["usage"])
        for p in problems:
            print(f"FAIL trace: {p}", file=sys.stderr)
        result["trace_problems"] = problems
        result["phases_untraced"] = phase_table(untraced)
        result["phases"] = phase_table(traced)
        # one span file per workload, overwritten by its next traced run
        spans_path = out_dir / f"{wl.name}.spans.json"
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(spans_path)
        result["spans_file"] = str(spans_path.relative_to(root))
    else:
        iterations = run_iterations(wl, args.seconds, input_seed, workdir, reference)
        group = "end_to_end"
        if any(it["ok"] for it in iterations):
            values = {
                "setup_s": setup_time(iterations),
                "wall_s": wall(iterations),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        result["phases"] = phase_table(iterations)
    names = [m["name"] for m in bench[group]]
    units = {m["name"]: m["unit"] for m in bench[group]}

    steal1 = _steal_ticks()
    probes = [p for it in iterations for p in it["probes"]]
    prov.update(
        steal_ticks=None if steal0 is None or steal1 is None else steal1 - steal0,
        clock_ticks_per_s=os.sysconf("SC_CLK_TCK"),
        probe_reference_us=1e6 * REFERENCE_PROBE_S,
        probe_fastest_us=1e6 * min(probes),
        host_speed=speed(probes),
        slow_share=slow_share(probes),
    )
    attempted = len(iterations)
    failed = sum(not it["ok"] for it in iterations)
    ok = [it for it in iterations if it["ok"]]

    # rates and counts the workload reports besides the gated metrics
    reported = {}
    if ok and not args.trace:
        reported = wl.reported(ok[-1]["outputs"], phase_ref_medians(iterations))
    result.update(
        iterations=[{k: it.get(k) for k in ("setup_s", "setup_ref_s", "phase_s", "phase_ref_s",
                                            "traced", "ok", "problems", "notes",
                                            "max_relative_drift")}
                    for it in iterations],
        fingerprint=ok[-1]["fingerprint"] if ok else None,
        reported=reported,
    )

    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, row in result["phases"].items():
        print(f"phase {name}: n={row['n']} measured fastest={row['fastest_s']:.4f} s "
              f"median={row['median_s']:.4f} s; at reference speed median="
              f"{row['reference_median_s']:.4f} s")
    notes = sorted({n for it in ok for n in it["notes"]})
    drift = max((it["max_relative_drift"] for it in ok), default=0.0)
    print(f"fingerprint: {'checked against reference' if reference else 'no reference'}; "
          f"largest relative difference {drift:.3e}" + "".join(f"; {n}" for n in notes))
    print(f"fail_ratio = {failed / attempted:.4f} ({failed} of {attempted} iterations failed)")
    for name, (value, unit) in reported.items():
        print(f"reported {name} = {value:.6g} {unit}")

    missing = [n for n in names if n not in values]
    correct = failed == 0 and not problems and not missing
    metrics = {n: {"value": values[n], "unit": units[n]} for n in names if n in values}
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    print(f"correct: {correct}")

    result.update(correct=correct, metrics=metrics)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str) + "\n")
    if missing:
        print(f"error: no value for {missing}: every iteration failed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
