"""Per-segment low-rank adaptation of a frozen forecasting model.

A foundation model that predicts one segment of S steps is specialized to
each horizon segment k by adding a mixture of rank-r expert updates to
every encoder weight matrix:

    W_eff(k) = W + sum_p delta[k, p] * B_p @ A_p,   delta[k] = softmax(logits[k])

Each adapted layer stores its P experts as two stacks, ``a[layer]`` of shape
(P, r, d_in) and ``b[layer]`` of shape (P, d_out, r), next to its (K, P)
routing logits; ``experts[layer][p]`` gives expert p's factors as views into
the stacks.  The stacks of all layers are views into one buffer, layer by
layer A then B, so the arrays one step trains lie back to back and Adam
updates them as one run of memory.  A training step works on whole stacks:
W_eff is one product of the concatenated factors, and the expert gradients
are stacked matmuls, one gradient per stack.

An adapter's ``routing`` says how segments use the experts.  Under soft
routing segment k uses every expert at softmax(logits[k]) and trains its
routing row with them; the experts are shared, so segments fit one after
another.  Under one-hot routing (P == K) segment k uses expert k alone at
weight 1.0, which is what the softmax of its one-hot row gives, and no row
trains.  A step then forms W + B_k @ A_k and the expert gradients B_k^T G
and G A_k^T with no weight at all, since multiplying by 1.0 changes no bit.
The segments share nothing but the frozen foundation, and one step trains
all K at once on the whole stacks with a K axis: their W_eff form one
(K, d_out, d_in) array.  Biases and the prediction head are never adapted.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _io, model, __version__

ADAPTER_FORMAT_VERSION = 4

ROUTINGS = ("soft", "one-hot")

# Off-entry logit for hard routing.  exp(-1e6) underflows to exactly 0.0,
# so the resulting mixture weights are an exact one-hot vector.
ONE_HOT_OFF_LOGIT = -1e6


@dataclass(frozen=True)
class SegmentPlan:
    """Partition of a forecast horizon into equal consecutive segments."""

    horizon: int
    segments: int
    seg_len: int
    boundaries: tuple[tuple[int, int], ...]  # 1-based inclusive (start, end)


def make_segment_plan(horizon: int, segments: int, lookback: int | None = None) -> SegmentPlan:
    if segments < 1:
        raise ValueError(f"segments must be >= 1, got {segments}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if horizon % segments != 0:
        raise ValueError(
            f"segments must divide horizon exactly: horizon={horizon}, segments={segments}"
        )
    seg_len = horizon // segments
    if lookback is not None and seg_len > lookback + 1:
        warnings.warn(
            f"segment length {seg_len} exceeds lookback+1 = {lookback + 1}; "
            "a single linear readout of the history cannot fit every step of "
            "such a segment exactly, so some residual error is unavoidable",
            UserWarning,
            stacklevel=2,
        )
    bounds = tuple((k * seg_len + 1, (k + 1) * seg_len) for k in range(segments))
    return SegmentPlan(horizon=horizon, segments=segments, seg_len=seg_len, boundaries=bounds)


def normalize_weights(logits: np.ndarray) -> np.ndarray:
    """Stable softmax over a 1-D logit vector."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 1 or logits.size == 0:
        raise ValueError(f"expected non-empty 1-D logits, got shape {logits.shape}")
    shifted = np.exp(logits - logits.max())
    return shifted / shifted.sum()


class LoraExpert(NamedTuple):
    """Expert p of one layer: views ``b[layer][p]`` and ``a[layer][p]`` into
    the adapter's stacks, so writes into them land in the adapter."""

    b_mat: np.ndarray  # (d_out, r)
    a_mat: np.ndarray  # (r, d_in)


def effective_weight(base: np.ndarray, a: np.ndarray, b: np.ndarray,
                     delta: np.ndarray) -> np.ndarray:
    """base + sum_p delta[p] * b[p] @ a[p] for the expert stacks a (P, r, d_in)
    and b (P, d_out, r), as one product of the concatenated factors
    [delta_1 B_1 ... delta_P B_P] (d_out, P*r) and [A_1; ...; A_P] (P*r, d_in).
    A zero weight zeroes its expert's columns exactly.  For one expert of
    weight 1 this is exactly W + B @ A.  Leading axes of a, b and delta
    (K segments, say) carry over to the result: (K, d_out, d_in)."""
    base = np.asarray(base, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if a.ndim < 3 or b.ndim != a.ndim or delta.ndim != a.ndim - 2:
        raise ValueError(f"expected (..., P, r, d_in) and (..., P, d_out, r) stacks and "
                         f"(..., P) weights, got {a.shape}, {b.shape} and {delta.shape}")
    lead, (n, d_out, rank), d_in = b.shape[:-3], b.shape[-3:], a.shape[-1]
    if a.shape[:-1] != lead + (n, rank) or delta.shape != lead + (n,):
        raise ValueError(f"expert stacks {a.shape} and {b.shape} do not match mixture "
                         f"weights {delta.shape} of rank-{rank} experts")
    if (d_out, d_in) != base.shape:
        raise ValueError(
            f"expert update is {d_out}x{d_in}, base weight is {base.shape[0]}x{base.shape[1]}"
        )
    return _effective_weight(base, a, b, delta)


def _effective_weight(base, a, b, delta):
    """effective_weight without its checks, for inputs check_fits passed."""
    *lead, n, d_out, rank = b.shape
    b_cat = (b.swapaxes(-3, -2) * delta[..., None, :, None]).reshape(*lead, d_out, n * rank)
    return base + b_cat @ a.reshape(*lead, n * rank, a.shape[-1])


def _encoder_weights(foundation: model.FoundationModel) -> tuple[str, ...]:
    """The weight matrices an adapter adapts: every encoder weight matrix.
    The head stays frozen by design (it is the shared readout the segments
    have in common) and biases are never adapted."""
    return tuple(n for n in foundation.params if n.startswith("enc") and n.endswith(".w"))


@dataclass
class MolaAdapter:
    """Mixture-of-experts low-rank adapter state for one foundation model."""

    plan: SegmentPlan
    adapted_layers: tuple[str, ...]
    n_experts: int
    rank: int
    a: dict[str, np.ndarray]  # per layer, shape (n_experts, rank, d_in)
    b: dict[str, np.ndarray]  # per layer, shape (n_experts, d_out, rank)
    logits: dict[str, np.ndarray]  # per layer, shape (segments, n_experts)
    foundation_sha256: str  # foundation_digest of the model the adapter was fitted on
    routing: str = "soft"  # one of ROUTINGS

    @property
    def experts(self) -> dict[str, list[LoraExpert]]:
        """Per layer, one (B_p, A_p) view pair per expert."""
        return {
            name: [LoraExpert(b_mat=b_p, a_mat=a_p) for b_p, a_p in zip(self.b[name], self.a[name])]
            for name in self.adapted_layers
        }


def foundation_digest(foundation: model.FoundationModel) -> str:
    """sha256 over the foundation's parameter names, shapes and values."""
    h = hashlib.sha256()
    for name, arr in foundation.params.items():
        arr = np.ascontiguousarray(arr, dtype="<f8")
        h.update(f"{name}:{arr.shape};".encode("utf-8"))
        h.update(arr.tobytes())
    return h.hexdigest()


def new_adapter(
    foundation: model.FoundationModel,
    plan: SegmentPlan,
    n_experts: int,
    rank: int,
    seed: int,
    routing: str = "soft",
) -> MolaAdapter:
    """B starts at zero (adapted model == foundation on step one), A is
    Gaussian with variance 1/rank.  Expert p of layer i draws from
    default_rng([seed, i, p]) so a single expert is reproducible on its own.
    routing="one-hot" applies freeze_one_hot_routing to the new adapter.
    """
    if routing not in ROUTINGS:
        raise ValueError(f"routing must be soft or one-hot, got {routing!r}")
    if not foundation.frozen:
        raise ValueError("foundation must be frozen before adaptation")
    if plan.seg_len != foundation.head_out:
        raise ValueError(
            f"plan segment length {plan.seg_len} != foundation head_out "
            f"{foundation.head_out}; the head must predict exactly one segment"
        )
    if n_experts < 1:
        raise ValueError(f"n_experts must be >= 1, got {n_experts}")
    layers = _encoder_weights(foundation)
    for name in layers:
        d_out, d_in = foundation.params[name].shape
        if not 1 <= rank < min(d_out, d_in):
            raise ValueError(
                f"rank must satisfy 1 <= rank < min(d_out, d_in) = "
                f"{min(d_out, d_in)} for layer {name!r}, got {rank}"
            )
    a_stacks: dict[str, np.ndarray] = {}
    b_stacks: dict[str, np.ndarray] = {}
    logits: dict[str, np.ndarray] = {}
    for i, name in enumerate(layers):
        d_out, d_in = foundation.params[name].shape
        a_stacks[name] = np.stack([
            np.random.default_rng([seed, i, p]).normal(0.0, np.sqrt(1.0 / rank), size=(rank, d_in))
            for p in range(n_experts)
        ])
        b_stacks[name] = np.zeros((n_experts, d_out, rank))
        logits[name] = np.zeros((plan.segments, n_experts))
    a_stacks, b_stacks = _packed_stacks(a_stacks, b_stacks)
    adapter = MolaAdapter(
        plan=plan,
        adapted_layers=layers,
        n_experts=n_experts,
        rank=rank,
        a=a_stacks,
        b=b_stacks,
        logits=logits,
        foundation_sha256=foundation_digest(foundation),
    )
    if routing == "one-hot":
        freeze_one_hot_routing(adapter)
    return adapter


def _packed_stacks(a: dict[str, np.ndarray], b: dict[str, np.ndarray]):
    """Copies of the A and B stacks as views into one buffer, layer by layer
    A then B: the order of adaptation_params, so the stacks a one-hot step
    trains are one run of memory (see train.init_adam)."""
    packed = model._packed({f"{name}.{part}": stacks[name]
                            for name in a for part, stacks in (("a", a), ("b", b))})
    return {name: packed[f"{name}.a"] for name in a}, {name: packed[f"{name}.b"] for name in a}


def check_settings(encoder_spec: model.EncoderSpec, horizon: int, segments: int,
                   n_experts: int, rank: int, routing: str = "soft") -> None:
    """Raise the ValueError that adapting with these settings would raise, by
    building the segment plan, a fresh frozen foundation and the adapter.
    Their random draws are local, so no later result changes."""
    plan = make_segment_plan(horizon, segments)
    foundation = model.new_model(encoder_spec, plan.seg_len, seed=0)
    foundation.freeze()
    new_adapter(foundation, plan, n_experts, rank, seed=0, routing=routing)


def _check_stacks(name: str, logits: np.ndarray, a: np.ndarray, b: np.ndarray,
                  segments: int, n_experts: int, rank: int) -> None:
    if (logits.shape != (segments, n_experts) or a.ndim != 3 or b.ndim != 3
            or a.shape[:2] != (n_experts, rank) or b.shape[::2] != (n_experts, rank)):
        raise ValueError(
            f"adapter layer {name!r} has logits {logits.shape}, A {a.shape} and "
            f"B {b.shape}; expected ({segments}, {n_experts}), "
            f"({n_experts}, {rank}, d_in) and ({n_experts}, d_out, {rank})"
        )


def check_fits(adapter: MolaAdapter, foundation: model.FoundationModel) -> None:
    """Raise a ValueError naming the first adapted layer that is not one of
    the foundation's encoder weight matrices, whose logits and expert stacks
    disagree with the adapter's shape, or whose stacks do not match that
    matrix's shape.  These are the checks of effective_weight on the
    arrays segment_grads builds W_eff from."""
    weights = _encoder_weights(foundation)
    for name in adapter.adapted_layers:
        if name not in weights:
            raise ValueError(f"adapter layer {name!r} is not an encoder weight matrix of the "
                             f"foundation; those are {list(weights)}")
        _check_stacks(name, adapter.logits[name], adapter.a[name], adapter.b[name],
                      adapter.plan.segments, adapter.n_experts, adapter.rank)
        d_out, d_in = foundation.params[name].shape
        a, b = adapter.a[name], adapter.b[name]
        if a.shape[2] != d_in or b.shape[1] != d_out:
            raise ValueError(f"adapter layer {name!r} has A {a.shape} and B {b.shape}, but the "
                             f"foundation's {name} is {d_out}x{d_in}")


def _one_hot_logits(segments: int) -> np.ndarray:
    """The (K, K) routing logits that pin segment k to expert k: 0.0 on the
    diagonal and ONE_HOT_OFF_LOGIT elsewhere."""
    logits = np.full((segments, segments), ONE_HOT_OFF_LOGIT)
    np.fill_diagonal(logits, 0.0)
    return logits


def freeze_one_hot_routing(adapter: MolaAdapter) -> None:
    """Pin segment k to expert k and set one-hot routing.  This turns the
    mixture into independent per-segment rank-r updates (the ablation where
    nothing is shared but the backbone)."""
    if adapter.n_experts != adapter.plan.segments:
        raise ValueError(
            f"one-hot routing requires n_experts == segments, got "
            f"{adapter.n_experts} experts for {adapter.plan.segments} segments"
        )
    for name in adapter.adapted_layers:
        adapter.logits[name][:] = _one_hot_logits(adapter.plan.segments)
    adapter.routing = "one-hot"


def _check_segment(adapter: MolaAdapter, k: int) -> None:
    if not 1 <= k <= adapter.plan.segments:
        raise ValueError(f"segment index {k} out of range 1..{adapter.plan.segments}")


def _segment_stacks(adapter: MolaAdapter, k: int | None) -> dict[str, tuple]:
    """Per layer, the A and B views of the experts segment k uses: the whole
    stacks under soft routing, the slice [k-1:k] under one-hot routing.
    With k None (one-hot routing only), all K segments at once: the whole
    stacks, whose expert k is segment k's."""
    a, b = adapter.a, adapter.b
    if k is None:
        if adapter.routing != "one-hot":
            raise ValueError(f"only one-hot routing steps all segments at once, "
                             f"not {adapter.routing!r}")
    else:
        _check_segment(adapter, k)
        if adapter.routing == "one-hot":
            return {name: (a[name][k - 1 : k], b[name][k - 1 : k])
                    for name in adapter.adapted_layers}
    return {name: (a[name], b[name]) for name in adapter.adapted_layers}


def adapted_model(
    foundation: model.FoundationModel, adapter: MolaAdapter, k: int
) -> model.FoundationModel:
    """Materialize the frozen segment-k model.  Adapted weights are fresh
    arrays; everything else aliases the foundation.  Training goes through
    segment_grads, which passes W_eff as overrides instead."""
    params = dict(foundation.params)
    for name, (a, b) in _segment_stacks(adapter, k).items():
        # under one-hot routing expert k alone, at the 1.0 of its softmax row
        weights = (np.ones(1) if adapter.routing == "one-hot"
                   else normalize_weights(adapter.logits[name][k - 1]))
        params[name] = effective_weight(foundation.params[name], a, b, weights)
    return model.FoundationModel(encoder_spec=foundation.encoder_spec,
                                 head_out=foundation.head_out, params=params, frozen=True)


def segment_loss(foundation, adapter, k, batch, target_slice) -> float:
    return model.mse_loss(adapted_model(foundation, adapter, k), batch, target_slice)


def segment_grads(foundation, adapter, k, batch, target_slice):
    """Loss and gradients w.r.t. the segment-k adaptation parameters, keyed
    like adaptation_params.

    Chain rule through W_eff = W + sum_p delta_p B_p A_p with dL/dW_eff = G,
    over the stacks of the experts the segment uses (see _segment_stacks):

        dL/dA = delta * B^T G                (P, r, d_in)
        dL/dB = delta * G A^T                (P, d_out, r)
        dL/ddelta_p = <B_p^T G, A_p> = <G, B_p A_p>   (then softmax backward to logits)

    Under soft routing a zero-weight expert in the stacks gets (signed) zero
    gradients, so it stays put under Adam.  Under one-hot routing the one
    expert's weight is 1.0, so W_eff is W + B @ A, the gradients are B^T G
    and G A^T, and no routing gradient is formed.

    With k None (one-hot routing), this is one step of all K segments at
    once: the batch is K equal batches in segment order, target_slice holds
    one slice per segment, W_eff is one (K, d_out, d_in) stack, and the loss
    is the (K,) array of the segments' losses.  Each segment's loss and
    gradients are bitwise those of its own step.

    W_eff is formed without effective_weight's shape checks, which are
    check_fits' and run once before the fits of train.adapt_all_segments.
    """
    stacks = _segment_stacks(adapter, k)
    if adapter.routing == "one-hot":
        return _one_hot_grads(foundation, stacks, k is not None, batch, target_slice)
    weights = {name: normalize_weights(adapter.logits[name][k - 1]) for name in stacks}
    eff = {name: _effective_weight(foundation.params[name], a, b, weights[name])
           for name, (a, b) in stacks.items()}
    loss, eff_grads = model.loss_and_grads(foundation, batch, target_slice, overrides=eff)
    grads: dict[str, np.ndarray] = {}
    for name, (a, b) in stacks.items():
        g_eff, delta = eff_grads[name], weights[name]
        weight = delta[:, None, None]
        bt_g = b.swapaxes(-1, -2) @ g_eff
        grads[name + ".a"] = weight * bt_g
        grads[name + ".b"] = weight * (g_eff @ a.swapaxes(-1, -2))
        d_delta = np.einsum("prd,prd->p", bt_g, a)
        grads[f"{name}.logits.k{k}"] = delta * (d_delta - float(delta @ d_delta))
    return loss, grads


def _one_hot_grads(foundation, stacks, one_segment: bool, batch, target_slice):
    """segment_grads under one-hot routing, on stacks of one expert per
    segment: (1, ...) slices for one segment, whose W_eff and G are one
    (d_out, d_in) matrix, or the (K, ...) stacks of all K segments."""
    eff = {}
    for name, (a, b) in stacks.items():
        w_eff = foundation.params[name] + b @ a
        eff[name] = w_eff[0] if one_segment else w_eff
    loss, eff_grads = model.loss_and_grads(foundation, batch, target_slice, overrides=eff)
    grads: dict[str, np.ndarray] = {}
    for name, (a, b) in stacks.items():
        g_eff = eff_grads[name]
        grads[name + ".a"] = b.swapaxes(-1, -2) @ g_eff
        grads[name + ".b"] = g_eff @ a.swapaxes(-1, -2)
    return loss, grads


def adaptation_params(adapter: MolaAdapter, k: int | None) -> dict[str, np.ndarray]:
    """Mutable views of everything segment k trains, keyed like the grads
    from segment_grads: per layer the A and B stacks, or under one-hot
    routing their slice [k-1:k], and under soft routing row k of the (K, P)
    logits table.  With k None (one-hot routing), the whole stacks of all K
    segments.  In-place optimizer updates land in the adapter."""
    out: dict[str, np.ndarray] = {}
    for name, (a, b) in _segment_stacks(adapter, k).items():
        out[f"{name}.a"], out[f"{name}.b"] = a, b
        if adapter.routing == "soft":
            out[f"{name}.logits.k{k}"] = adapter.logits[name][k - 1]
    return out


def adapter_state(adapter: MolaAdapter) -> dict:
    layers = [
        {
            "name": name,
            "logits": _io.encode_array(adapter.logits[name]),
            "a": _io.encode_array(adapter.a[name]),
            "b": _io.encode_array(adapter.b[name]),
        }
        for name in adapter.adapted_layers
    ]
    return {
        "format_version": ADAPTER_FORMAT_VERSION,
        "kind": "mola-adapter",
        "tool_version": __version__,
        "plan": {"horizon": adapter.plan.horizon, "segments": adapter.plan.segments},
        "adapted_layers": list(adapter.adapted_layers),
        "n_experts": adapter.n_experts,
        "rank": adapter.rank,
        "foundation_sha256": adapter.foundation_sha256,
        "routing": adapter.routing,
        "layers": layers,
    }


def adapter_from_state(state: dict) -> MolaAdapter:
    if state.get("kind") != "mola-adapter":
        raise ValueError(f"not an adapter checkpoint: kind={state.get('kind')!r}")
    if state.get("format_version") != ADAPTER_FORMAT_VERSION:
        raise ValueError(f"unsupported adapter format version {state.get('format_version')!r}")
    _io.require_keys(state, ("plan", "adapted_layers", "n_experts", "rank", "foundation_sha256",
                             "routing", "layers"), "adapter checkpoint")
    _io.require_keys(state["plan"], ("horizon", "segments"), "adapter plan")
    plan = make_segment_plan(_io.require_type(state["plan"], "horizon", int, "adapter plan"),
                             _io.require_type(state["plan"], "segments", int, "adapter plan"))
    n_experts = _io.require_type(state, "n_experts", int, "adapter checkpoint")
    rank = _io.require_type(state, "rank", int, "adapter checkpoint")
    adapted_layers = _io.require_type(state, "adapted_layers", list, "adapter checkpoint")
    foundation_sha256 = _io.require_type(state, "foundation_sha256", str, "adapter checkpoint")
    routing = _io.require_type(state, "routing", str, "adapter checkpoint")
    if routing not in ROUTINGS:
        raise ValueError(f"adapter routing {routing!r} must be one of {list(ROUTINGS)}")
    if routing == "one-hot" and n_experts != plan.segments:
        raise ValueError(f"adapter routing 'one-hot' needs one expert per segment, but "
                         f"n_experts is {n_experts} for {plan.segments} segments")
    a_stacks: dict[str, np.ndarray] = {}
    b_stacks: dict[str, np.ndarray] = {}
    logits: dict[str, np.ndarray] = {}
    for entry in _io.require_type(state, "layers", list, "adapter checkpoint"):
        _io.require_keys(entry, ("name", "logits", "a", "b"), "adapter layer")
        name = _io.require_type(entry, "name", str, "adapter layer")
        logits[name] = _io.decode_array(entry["logits"])
        a_stacks[name] = _io.decode_array(entry["a"])
        b_stacks[name] = _io.decode_array(entry["b"])
        _check_stacks(name, logits[name], a_stacks[name], b_stacks[name], plan.segments,
                      n_experts, rank)
    if adapted_layers != list(logits):
        raise ValueError(f"adapter adapted_layers {adapted_layers} do not match "
                         f"its layers entries {list(logits)}")
    if routing == "one-hot":
        for name, table in logits.items():
            if not np.array_equal(table, _one_hot_logits(plan.segments)):
                raise ValueError(f"adapter routing 'one-hot' does not match the logits of "
                                 f"layer {name!r}, which must pin segment k to expert k")
    a_stacks, b_stacks = _packed_stacks(a_stacks, b_stacks)
    return MolaAdapter(
        plan=plan,
        adapted_layers=tuple(logits),
        n_experts=n_experts,
        rank=rank,
        a=a_stacks,
        b=b_stacks,
        logits=logits,
        foundation_sha256=foundation_sha256,
        routing=routing,
    )


def save_adapter(adapter: MolaAdapter, path) -> None:
    _io.write_json(path, adapter_state(adapter))


def load_adapter(path) -> MolaAdapter:
    """The adapter in the checkpoint at ``path``; a ValueError names the file."""
    try:
        return adapter_from_state(_io.read_json(path))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
