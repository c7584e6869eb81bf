"""Independent per-segment single-LoRA trainer.

No mixture, no routing, no freezing machinery: each segment gets one plain
(B, A) pair per encoder weight, composed as W + B @ A, trained with a
locally written Adam loop and strict early stopping.  Hard one-hot routing
in the main package is supposed to collapse to exactly this, so the
acceptance suite compares the two step for step.

Shares only the substrate with the package: window extraction, the model
forward/backward (itself finite-difference checked), and numpy.
"""

import numpy as np

from mola import data, model


def segment_layers(foundation):
    # default adaptation placement: every encoder weight matrix, in
    # parameter order
    return [n for n in foundation.params if n.startswith("enc") and n.endswith(".w")]


def lora_init(foundation, rank, seed, expert_index, layers):
    """One (B, A) pair per layer; A uses the stream the mixture assigns to
    expert `expert_index` of that layer, B starts at zero."""
    pairs = {}
    for i, name in enumerate(layers):
        d_out, d_in = foundation.params.get(name).shape
        rng = np.random.default_rng([seed, i, expert_index])
        pairs[name] = {
            "b": np.zeros((d_out, rank)),
            "a": rng.normal(0.0, np.sqrt(1.0 / rank), size=(rank, d_in)),
        }
    return pairs


def compose(foundation, pairs):
    """Model whose adapted weights are W + B @ A; the rest aliases the
    frozen foundation."""
    ps = {}
    for name, arr in foundation.params.items():
        if name in pairs:
            eff = arr.copy()
            eff += pairs[name]["b"] @ pairs[name]["a"]
            ps[name] = eff
        else:
            ps[name] = arr
    return model.FoundationModel(ps, foundation.activation)


def train_segment(foundation, pairs, train_w, val_w, target, config, stage_key):
    """Adam with bias correction + strict-improvement early stopping on one
    segment's label rows.  Leaves `pairs` at the best-validation snapshot
    and returns (initial_val, [(train_loss, val_loss) per epoch])."""
    b1, b2, eps = 0.9, 0.999, 1e-8  # the textbook Adam constants
    flat = {}
    for name, pair in pairs.items():
        flat[f"{name}.b"] = pair["b"]
        flat[f"{name}.a"] = pair["a"]
    m_state = {k: np.zeros_like(v) for k, v in flat.items()}
    v_state = {k: np.zeros_like(v) for k, v in flat.items()}
    t = 0
    rng = np.random.default_rng([config.seed, stage_key])
    n = len(train_w)

    def val_loss():
        return float(model.mse_loss(compose(foundation, pairs), val_w, target))

    initial_val = val_loss()
    best_val = initial_val
    best = {k: v.copy() for k, v in flat.items()}
    bad = 0
    epochs = []
    for _ in range(config.max_epochs):
        perm = rng.permutation(n)
        total = 0.0
        for i in range(0, n, config.batch_size):
            batch = train_w[perm[i : i + config.batch_size]]
            view = compose(foundation, pairs)
            loss, g_view = model.loss_and_grads(view, batch, target)
            total += loss * len(batch)
            grads = {}
            for name, pair in pairs.items():
                g_eff = g_view[name]
                grads[f"{name}.b"] = g_eff @ pair["a"].T
                grads[f"{name}.a"] = pair["b"].T @ g_eff
            t += 1
            c1 = 1.0 - b1**t
            c2 = 1.0 - b2**t
            for key, g in grads.items():
                m = m_state[key]
                v = v_state[key]
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * (g * g)
                flat[key] -= config.learning_rate * (m / c1) / (np.sqrt(v / c2) + eps)
        val = val_loss()
        epochs.append((total / n, val))
        if val < best_val:
            best_val = val
            best = {k: v.copy() for k, v in flat.items()}
            bad = 0
        else:
            bad += 1
        if bad >= config.patience:
            break
    for key, arr in flat.items():
        np.copyto(arr, best[key])
    return initial_val, epochs


def train_all_segments(foundation, ds, horizon, segments, rank, seed, config):
    """Fit segment k on label rows ((k-1)S+1 .. kS) with expert stream k-1
    and batch stream k.  Returns [(pairs, initial_val, epochs)] per segment."""
    layers = segment_layers(foundation)
    seg_len = horizon // segments
    train_w = data.windows(ds, foundation.lookback, horizon, "train")
    val_w = data.windows(ds, foundation.lookback, horizon, "val")
    out = []
    for k in range(1, segments + 1):
        pairs = lora_init(foundation, rank, seed, k - 1, layers)
        target = (k - 1) * seg_len + 1  # segment k's first label row
        initial_val, epochs = train_segment(
            foundation, pairs, train_w, val_w, target, config, stage_key=k
        )
        out.append((pairs, initial_val, epochs))
    return out


def forecast(foundation, segment_pairs, history):
    """Concatenate the per-segment views over the full horizon."""
    seg_len = foundation.head_out
    horizon = seg_len * len(segment_pairs)
    history = np.asarray(history, dtype=np.float64)
    out = np.empty((horizon, history.shape[1]))
    for k, pairs in enumerate(segment_pairs, start=1):
        view = compose(foundation, pairs)
        out[(k - 1) * seg_len : k * seg_len] = model.forecast(view, history)
    return out
