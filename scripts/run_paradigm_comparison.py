#!/usr/bin/env python3
"""Multi-seed comparison of the three forecasting paradigms on the built-in
two-sine corpus: recursive one-step (arf), direct multi-step (mtf), and the
segment-adapted mixture (mola).  Prints per-seed test MSE, the seed means,
and the recursive baseline's first/last-step errors so accumulation is
visible.

``--experts`` sets the experts per adapted layer (default: one per
segment); fewer experts than segments is the shared mixture, which needs
``--routing soft``.  Invalid adapter settings stop the script before any
training.
"""

import argparse
import time
import warnings

import numpy as np

from mola import adapt, analysis, data, model, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10, help="number of seeds (0..n-1)")
    ap.add_argument("--n-points", type=int, default=2000)
    ap.add_argument("--lookback", type=int, default=6)
    ap.add_argument("--horizon", type=int, default=32)
    ap.add_argument("--segments", type=int, default=4)
    ap.add_argument("--experts", type=int, default=None,
                    help="experts per adapted layer (default: --segments)")
    ap.add_argument("--rank", type=int, default=5)
    ap.add_argument("--hidden", type=int, nargs=2, default=(16, 8))
    ap.add_argument("--activation", default="tanh", choices=("relu", "tanh"))
    ap.add_argument("--routing", default="one-hot", choices=("soft", "one-hot"))
    ap.add_argument("--lr", type=float, default=1e-2)
    ap.add_argument("--max-epochs", type=int, default=300)
    ap.add_argument("--patience", type=int, default=30)
    args = ap.parse_args()
    n_experts = args.segments if args.experts is None else args.experts

    ds = data.standardize(
        data.generate_synthetic(data.default_synth_spec(n_points=args.n_points))
    )
    spec = model.EncoderSpec(
        kind="mlp2", in_len=args.lookback, hidden=tuple(args.hidden),
        activation=args.activation,
    )
    try:
        adapt.check_settings(spec, args.horizon, args.segments, n_experts, args.rank,
                             routing=args.routing)
    except ValueError as e:
        ap.error(str(e))
    names = ("arf", "mtf", "mola")
    mses = {n: [] for n in names}
    arf_first, arf_last = [], []
    t0 = time.time()
    for seed in range(args.seeds):
        cfg = train.TrainConfig(
            learning_rate=args.lr, max_epochs=args.max_epochs,
            patience=args.patience, seed=seed,
        )
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", message="segment length")
            out = analysis.paradigm_compare(
                ds, spec, horizon=args.horizon, segments=args.segments,
                config=cfg, n_experts=n_experts, rank=args.rank,
                routing=args.routing, pretrain_config=cfg,
            )
        for n in names:
            mses[n].append(out["paradigms"][n]["metrics"]["mse"])
        steps = out["paradigms"]["arf"]["metrics"]["per_step"]
        arf_first.append(steps[0]["mse"])
        arf_last.append(steps[-1]["mse"])
        print(
            f"seed {seed:>2}  "
            + "  ".join(f"{n}={mses[n][-1]:.4f}" for n in names)
            + f"  arf t1={steps[0]['mse']:.4f} t{args.horizon}={steps[-1]['mse']:.4f}"
        )
    print("-" * 72)
    means = {n: float(np.mean(v)) for n, v in mses.items()}
    print("mean    " + "  ".join(f"{n}={means[n]:.4f}" for n in names))
    for base in ("arf", "mtf"):
        pct = 100.0 * (means[base] - means["mola"]) / means[base]
        print(f"mola vs {base}: {pct:+.1f}% mean test MSE")
    print(
        f"arf accumulation: t1={np.mean(arf_first):.4f} -> "
        f"t{args.horizon}={np.mean(arf_last):.4f}"
    )
    print(f"elapsed {time.time() - t0:.0f}s")


if __name__ == "__main__":
    main()
