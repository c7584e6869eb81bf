"""Record the reference result fingerprints every benchmark run is checked against.

    python3 perfbench/record_reference.py

Run from the repository root, at the commit whose results are the
reference.  For each workload and each input seed 0..REFERENCE_SEEDS-1 it
sets the inputs up, runs one iteration, and stores the fingerprint in
perfbench/reference.json together with the commit it came from.  BLAS is
pinned to one thread, as in run.py, because the thread count can change
the order of floating-point sums.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    if not (root / "src" / "mola" / "__init__.py").is_file():
        print("error: run from the repository root", file=sys.stderr)
        return 2
    import run

    for var in run.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(root / "src"))
    from workloads import WORKLOADS

    ref = {"fingerprints": {}}
    workdir = root / run.OUT_DIR / "work" / f"reference-{os.getpid()}"
    try:
        for name, workload in WORKLOADS.items():
            wl = workload(tiny=False)
            table = ref["fingerprints"][name] = {}
            for seed in range(run.REFERENCE_SEEDS):
                wl.setup(seed, workdir)
                outputs = {phase: fn() for phase, fn in wl.phases()}
                fp, problems = wl.check(outputs)
                if problems:
                    print(f"error: {name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                table[str(seed)] = fp.to_dict()
                print(f"{name} seed {seed}: {len(fp.values)} values", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref["commit"] = run._git_commit(root)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
