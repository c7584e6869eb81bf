"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Run from the repository root.  Checks, in about half a minute:

* span accounting on a known call tree: children nest in their parents and
  self times add up to the top-level durations;
* the host-speed sampler probes while open and converts a measured time
  to a time between its slowest and fastest probe's conversion;
* the three workloads at tiny sizes, untraced and traced: every iteration
  passes its correctness check, every metric of BENCHMARK.json is printed,
  the wrapper-coverage check passes, and in the dumped spans every child
  lies inside its parent and the self times sum to at most wall_s;
* BENCHMARK.json, predictions.json and tracing.WRAPPED name the same things;
* in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  non-zero without printing a result.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hostspeed import REFERENCE_PROBE_S, Sampler, at_reference  # noqa: E402
from tracing import STAGES, WRAPPED, Tracer  # noqa: E402

OUT = Path(".perfbench_out")
failures: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        failures.append(what)


def busy(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def check_accounting() -> None:
    tracer = Tracer()
    leaf = tracer._wrap("leaf", lambda: busy(0.002), None)

    def mid_body():
        busy(0.001)
        leaf()
        leaf()

    mid = tracer._wrap("mid", mid_body, None)
    top = tracer._wrap("top", lambda: (mid(), leaf()), None)
    top()
    lo, hi = 0, tracer.mark()
    expect(hi == 5, "known call tree records 5 spans")
    expect(not tracer.nesting_errors(lo, hi), "known call tree: children nest in parents")
    own = tracer.self_times(lo, hi)
    top_span = tracer.spans[0]
    expect(abs(sum(own) - (top_span[2] - top_span[1])) < 1e-9,
           "known call tree: self times add up to the top-level duration")
    agg = tracer.aggregate(lo, hi)
    expect(agg["calls"] == {"top": 1, "mid": 1, "leaf": 3}, "known call tree: call counts")
    expect(agg["self"]["leaf"] >= 0.006 and agg["self"]["mid"] >= 0.001,
           "known call tree: self times cover the busy time")


def check_sampler() -> None:
    sampler = Sampler()
    with sampler:
        t0 = perf_counter()
        busy(0.05)
        measured = perf_counter() - t0
    expect(len(sampler.samples) >= 6, f"sampler took {len(sampler.samples)} probes in 50 ms")
    expect(0.0 < sampler.overhead < 0.25 * measured,
           f"probes took {sampler.overhead / measured:.1%} of the interval")
    ref = at_reference(measured, sampler)
    speeds = [REFERENCE_PROBE_S / p for p in sampler.samples]
    expect(min(speeds) * (measured - sampler.overhead) <= ref
           <= max(speeds) * (measured - sampler.overhead),
           "reference-speed time lies between the slowest and fastest conversion")


def spans_check(path: Path, wall_by_iter: list[float]) -> None:
    """Re-derive nesting and self time from the dumped spans alone."""
    dump = json.loads(path.read_text())
    spans = dump["spans"]
    own = [end - start for _, start, end, _ in spans]
    bad = 0
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            _, p_start, p_end, _ = spans[parent]
            bad += not (parent < i and p_start <= start and end <= p_end)
            own[parent] -= end - start
    expect(bad == 0, f"{path.name}: every dumped span lies inside its parent")
    expect(min(own, default=0.0) >= -1e-6, f"{path.name}: no negative self time")
    expect(sum(own) <= sum(wall_by_iter) + 1e-6,
           f"{path.name}: self times sum to at most the traced wall time")


def run(workload: str, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=False)


def check_workloads(bench: dict) -> None:
    for w in (w["name"] for w in bench["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(w, trace)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{w} trace={trace}: result line ({proc.stderr.strip()[-300:]})")
                continue
            expect(proc.returncode == 0 and result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{w} trace={trace}: correct, {result['attempted']} iterations "
                   f"{proc.stderr.strip()[-300:]}")
            want = [m["name"] for m in bench[group]]
            expect(list(result["metrics"]) == want, f"{w} trace={trace}: prints every {group} metric")
            if trace:
                detail = json.loads((OUT / f"{w}-seed3-trace1.json").read_text())
                expect(not detail["trace_problems"], f"{w}: coverage and accounting checks pass")
                walls = [sum(it["phase_s"].values()) for it in detail["iterations"]
                         if it["traced"]]
                spans_check(Path(detail["spans_file"]), walls)


def check_names(bench: dict) -> None:
    pred = json.loads((HERE / "predictions.json").read_text())
    layer_metrics = [m for row in pred["layers"] for m in row["metrics"]]
    expect(layer_metrics == [m["name"] for m in bench["per_layer"]],
           "predictions.json lists the per-layer metrics of BENCHMARK.json, in order")
    wrapped = {name for name, _, _ in WRAPPED if name != "cli.main"}
    used = set(pred["usage"])
    expect(wrapped <= used and {n for n in used - wrapped if not n.startswith("cli.main.")} == set(),
           "predictions.json usage covers exactly the wrapped functions")
    expect(all(s in wrapped for s in STAGES), "stage spans are wrapped")
    workloads = {w["name"] for w in bench["workloads"]}
    expect(all(set(ws) <= workloads for ws in pred["usage"].values()),
           "predictions.json names only benchmark workloads")


def check_bare_directory() -> None:
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy("BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "floor_svd",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=170, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and "{" not in proc.stdout,
           f"without src/mola run.py exits {proc.returncode} and prints no result")


def main() -> int:
    if not Path("BENCHMARK.json").is_file():
        print("run from the repository root", file=sys.stderr)
        return 2
    bench = json.loads(Path("BENCHMARK.json").read_text())
    check_accounting()
    check_sampler()
    check_names(bench)
    check_workloads(bench)
    check_bare_directory()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
