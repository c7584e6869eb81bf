#!/usr/bin/env python3
"""Per-step representation probe on the built-in two-sine corpus.

Trains one narrow two-layer model per forecast step, twice per step with
different seeds, then compares the 2-d representation clouds: disparity
between different-step models vs the same-step different-seed baseline.
A ratio well above 1 means the steps genuinely want different
representations. Optionally dumps the clouds for plotting.
"""

import argparse

import numpy as np

from mola import _io, analysis, data, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, nargs="+", default=[1, 16, 32])
    ap.add_argument("--base-seeds", type=int, nargs="+", default=[0, 100, 200, 300, 400])
    ap.add_argument("--lookback", type=int, default=16)
    ap.add_argument("--n-points", type=int, default=2000)
    ap.add_argument("--lr", type=float, default=1e-2)
    ap.add_argument("--max-epochs", type=int, default=300)
    ap.add_argument("--patience", type=int, default=30)
    ap.add_argument("--dump-clouds", metavar="PATH.csv", default=None)
    args = ap.parse_args()

    ds = data.standardize(
        data.generate_synthetic(data.default_synth_spec(n_points=args.n_points))
    )
    probe_steps = [t for t in args.steps for _ in range(2)]  # each step twice
    sames, crosses = [], []
    rows = []
    for base in args.base_seeds:
        cfg = train.TrainConfig(
            learning_rate=args.lr, max_epochs=args.max_epochs,
            patience=args.patience, seed=base,
        )
        out = analysis.per_step_probe(ds, args.lookback, probe_steps, config=cfg)
        sames.append(out["same_step_mean"])
        crosses.append(out["cross_step_mean"])
        print(
            f"base seed {base:>4}: same-step {out['same_step_mean']:.4f}  "
            f"cross-step {out['cross_step_mean']:.4f}  "
            f"val losses {[round(v, 3) for v in out['val_losses']]}"
        )
        if args.dump_clouds:
            for entry, (step, seed, cloud) in enumerate(
                zip(out["steps"], out["seeds"], out["clouds"])
            ):
                for w, (x0, x1) in enumerate(cloud):
                    rows.append([base, entry, step, seed, w, repr(x0), repr(x1)])
    same, cross = float(np.mean(sames)), float(np.mean(crosses))
    print("-" * 56)
    print(f"mean same-step {same:.4f}   mean cross-step {cross:.4f}")
    print(f"cross/same ratio {cross / same:.2f}")
    if args.dump_clouds:
        _io.write_csv(args.dump_clouds,
                      ["base_seed", "entry", "step", "seed", "window", "x0", "x1"], rows)
        print(f"clouds written to {args.dump_clouds}")


if __name__ == "__main__":
    main()
