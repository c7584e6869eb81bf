#!/usr/bin/env python3
"""Multi-seed comparison of the three forecasting paradigms on the built-in
two-sine corpus: recursive one-step (arf), direct multi-step (mtf), and the
segment-adapted mixture (mola).  Prints per-seed test MSE, the seed means,
and the recursive baseline's first/last-step errors so accumulation is
visible.

``--horizon`` and ``--segments`` take one or more values, and every (T, K)
pair of them is a cell; with more than one cell each line names its cell.
arf, mtf and the foundation are one whole-model fit each, at horizons 1, T
and S = T/K, so per seed every distinct horizon is fitted once and the
cells share it: at S = 1 the foundation is arf's model, at K = 1 mtf's.

``--hidden`` with no widths selects the linear encoder.  Each row then also
prints the rank of mtf's forecast map and its error floor per label element
(analysis.dataset_bottleneck): the test error no shared representation of
the history can go below.

``--experts`` sets the experts per adapted layer (default: one per
segment); fewer experts than segments is the shared mixture, which needs
``--routing soft``.  Invalid settings in any cell stop the script before
any training.
"""

import argparse
import functools
import itertools
import time

import numpy as np

from mola import adapt, analysis, data, model, train

NAMES = ("arf", "mtf", "mola")


def score_cell(ds, spec, horizon, segments, n_experts, rank, routing, cfg, whole_model):
    """Test metrics of arf, mtf and mola on one (T, K) cell, and mtf's
    bottleneck report under the linear encoder; ``whole_model(h)`` returns
    the seed's whole-model fit at horizon h."""
    arf, mtf = whole_model(1), whole_model(horizon)
    plan = adapt.make_segment_plan(horizon, segments)
    foundation = whole_model(plan.seg_len)
    adapter = adapt.new_adapter(foundation, plan, n_experts, rank, seed=cfg.seed, routing=routing)
    adapter, _ = train.adapt_all_segments(foundation, plan, adapter, ds, cfg)
    forecasters = {
        "arf": lambda h: model.ar_f_forecast(arf, h, horizon),
        "mtf": lambda h: model.forecast(mtf, h),
        "mola": train.mola_forecaster(foundation, adapter),
    }
    row = {n: train.evaluate_forecaster(f, ds, spec.in_len, horizon, split="test")
           for n, f in forecasters.items()}
    if spec.kind == "linear":
        row["floor"] = analysis.dataset_bottleneck(mtf, ds, "test")
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seeds", type=int, default=10, help="number of seeds (0..n-1)")
    ap.add_argument("--n-points", type=int, default=2000)
    ap.add_argument("--lookback", type=int, default=6)
    ap.add_argument("--horizon", type=int, nargs="+", default=[32])
    ap.add_argument("--segments", type=int, nargs="+", default=[4])
    ap.add_argument("--experts", type=int, default=None,
                    help="experts per adapted layer (default: --segments)")
    ap.add_argument("--rank", type=int, default=5)
    ap.add_argument("--hidden", type=int, nargs="*", default=[16, 8],
                    help="the two mlp2 widths; none selects the linear encoder")
    ap.add_argument("--activation", default="tanh", choices=("relu", "tanh"))
    ap.add_argument("--routing", default="one-hot", choices=("soft", "one-hot"))
    ap.add_argument("--lr", type=float, default=1e-2)
    ap.add_argument("--max-epochs", type=int, default=300)
    ap.add_argument("--patience", type=int, default=30)
    args = ap.parse_args()
    cells = list(itertools.product(args.horizon, args.segments))

    def n_experts(segments):
        return segments if args.experts is None else args.experts

    def tag(horizon, segments):
        return "" if len(cells) == 1 else f"T={horizon} K={segments}  "

    ds = data.standardize(
        data.generate_synthetic(data.default_synth_spec(n_points=args.n_points))
    )
    try:
        spec = model.EncoderSpec(
            kind="mlp2" if args.hidden else "linear", in_len=args.lookback,
            hidden=args.hidden, activation=args.activation,
        )
        for horizon, segments in cells:
            adapt.check_settings(spec, horizon, segments, n_experts(segments), args.rank,
                                 routing=args.routing)
    except ValueError as e:
        ap.error(str(e))
    results = {cell: [] for cell in cells}
    t0 = time.time()
    for seed in range(args.seeds):
        cfg = train.TrainConfig(
            learning_rate=args.lr, max_epochs=args.max_epochs,
            patience=args.patience, seed=seed,
        )
        # arf, mtf and every foundation are this one fit at their horizon
        whole_model = functools.cache(lambda h: train.pretrain(ds, spec, h, cfg)[0])
        for horizon, segments in cells:
            row = score_cell(ds, spec, horizon, segments, n_experts(segments), args.rank,
                             args.routing, cfg, whole_model)
            results[horizon, segments].append(row)
            steps = row["arf"]["per_step"]
            line = (
                f"seed {seed:>2}  {tag(horizon, segments)}"
                + "  ".join(f"{n}={row[n]['mse']:.4f}" for n in NAMES)
                + f"  arf t1={steps[0]['mse']:.4f} t{horizon}={steps[-1]['mse']:.4f}"
            )
            if "floor" in row:
                line += (f"  rank={row['floor']['rank']}"
                         f" floor/elem={row['floor']['mean_min_error_per_element']:.6f}")
            print(line)
    print("-" * 72)
    for (horizon, segments), rows in results.items():
        head = tag(horizon, segments)
        means = {n: float(np.mean([r[n]["mse"] for r in rows])) for n in NAMES}
        print(f"{head}mean    " + "  ".join(f"{n}={means[n]:.4f}" for n in NAMES))
        for base in ("arf", "mtf"):
            pct = 100.0 * (means[base] - means["mola"]) / means[base]
            print(f"{head}mola vs {base}: {pct:+.1f}% mean test MSE")
        first = np.mean([r["arf"]["per_step"][0]["mse"] for r in rows])
        last = np.mean([r["arf"]["per_step"][-1]["mse"] for r in rows])
        print(f"{head}arf accumulation: t1={first:.4f} -> t{horizon}={last:.4f}")
    print(f"elapsed {time.time() - t0:.0f}s")
    return results


if __name__ == "__main__":
    main()
