"""Per-segment low-rank adaptation of a frozen forecasting model.

A foundation model that predicts one segment of S steps is specialized to
each horizon segment k by adding a mixture of rank-r expert updates to a
chosen set of weight matrices:

    W_eff(k) = W + sum_p delta[k, p] * B_p @ A_p,   delta[k] = softmax(logits[k])

Each adapted layer stores its P experts as two stacks, ``a[layer]`` of shape
(P, r, d_in) and ``b[layer]`` of shape (P, d_out, r), next to its (K, P)
routing logits; ``experts[layer][p]`` gives expert p's factors as views into
the stacks.  A training step works on whole stacks: W_eff is one product of
the concatenated factors, and the expert gradients are stacked matmuls, one
gradient per stack.  A segment whose routing row is frozen uses only the
basic slice of experts from its first to its last nonzero weight, so under
one-hot routing segment k touches ``a[layer][k-1:k]`` and
``b[layer][k-1:k]`` and nothing else.

Experts are shared across segments and keep training as later segments are
fitted; the routing logits are one row per segment and can be frozen once
that segment is done.  Biases and the prediction head are never adapted.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _io, model, __version__

ADAPTER_FORMAT_VERSION = 3

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
    weight 1 this is exactly W + B @ A."""
    base = np.asarray(base, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if a.ndim != 3 or b.ndim != 3 or delta.ndim != 1:
        raise ValueError(f"expected (P, r, d_in) and (P, d_out, r) stacks and (P,) weights, "
                         f"got {a.shape}, {b.shape} and {delta.shape}")
    n, d_out, rank = b.shape
    if a.shape[:2] != (n, rank) or delta.size != n:
        raise ValueError(f"expert stacks {a.shape} and {b.shape} do not match {delta.size} "
                         f"mixture weights of rank-{rank} experts")
    if (d_out, a.shape[2]) != base.shape:
        raise ValueError(
            f"expert update is {d_out}x{a.shape[2]}, "
            f"base weight is {base.shape[0]}x{base.shape[1]}"
        )
    b_cat = (b.transpose(1, 0, 2) * delta[:, None]).reshape(d_out, n * rank)
    return base + b_cat @ a.reshape(n * rank, a.shape[2])


def adapter_placement(foundation: model.FoundationModel, requested=None) -> tuple[str, ...]:
    """Resolve which weight matrices get expert updates.

    Default: every encoder weight matrix.  The head stays frozen by design
    (it is the shared readout the segments have in common) and biases are
    never adapted.
    """
    default = tuple(
        n for n in foundation.params.names() if n.startswith("enc") and n.endswith(".w")
    )
    if requested is None:
        return default
    names = foundation.params.names()
    out = []
    for name in requested:
        if name.startswith("head"):
            raise ValueError(f"cannot adapt {name!r}: the head is frozen by design")
        if name.endswith(".b"):
            raise ValueError(f"cannot adapt {name!r}: biases are never adapted")
        if name not in names:
            raise ValueError(f"unknown layer {name!r}; adaptable layers are {list(default)}")
        out.append(name)
    if not out:
        raise ValueError("placement resolved to no layers")
    return tuple(out)


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
    frozen_logits: list[bool] = field(default_factory=list)

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
    for name in foundation.params.names():
        arr = np.ascontiguousarray(foundation.params.get(name), dtype="<f8")
        h.update(f"{name}:{arr.shape};".encode("utf-8"))
        h.update(arr.tobytes())
    return h.hexdigest()


def new_adapter(
    foundation: model.FoundationModel,
    plan: SegmentPlan,
    n_experts: int,
    rank: int,
    seed: int,
    placement=None,
    routing: str = "soft",
) -> MolaAdapter:
    """B starts at zero (adapted model == foundation on step one), A is
    Gaussian with variance 1/rank.  Expert p of layer i draws from
    default_rng([seed, i, p]) so a single expert is reproducible on its own.
    routing="one-hot" applies freeze_one_hot_routing to the new adapter.
    """
    if routing not in ("soft", "one-hot"):
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
    layers = adapter_placement(foundation, requested=placement)
    for name in layers:
        d_out, d_in = foundation.params.get(name).shape
        if not 1 <= rank < min(d_out, d_in):
            raise ValueError(
                f"rank must satisfy 1 <= rank < min(d_out, d_in) = "
                f"{min(d_out, d_in)} for layer {name!r}, got {rank}"
            )
    a_stacks: dict[str, np.ndarray] = {}
    b_stacks: dict[str, np.ndarray] = {}
    logits: dict[str, np.ndarray] = {}
    for i, name in enumerate(layers):
        d_out, d_in = foundation.params.get(name).shape
        a_stacks[name] = np.stack([
            np.random.default_rng([seed, i, p]).normal(0.0, np.sqrt(1.0 / rank), size=(rank, d_in))
            for p in range(n_experts)
        ])
        b_stacks[name] = np.zeros((n_experts, d_out, rank))
        logits[name] = np.zeros((plan.segments, n_experts))
    adapter = MolaAdapter(
        plan=plan,
        adapted_layers=layers,
        n_experts=n_experts,
        rank=rank,
        a=a_stacks,
        b=b_stacks,
        logits=logits,
        foundation_sha256=foundation_digest(foundation),
        frozen_logits=[False] * plan.segments,
    )
    if routing == "one-hot":
        freeze_one_hot_routing(adapter)
    return adapter


def check_settings(encoder_spec: model.EncoderSpec, horizon: int, segments: int,
                   n_experts: int, rank: int, placement=None, routing: str = "soft") -> None:
    """Raise the ValueError that adapting with these settings would raise, by
    building the segment plan, a fresh frozen foundation and the adapter.
    Their random draws are local, so no later result changes."""
    plan = make_segment_plan(horizon, segments)
    foundation = model.new_model(encoder_spec, plan.seg_len, seed=0)
    foundation.freeze()
    new_adapter(foundation, plan, n_experts, rank, seed=0, placement=placement, routing=routing)


def freeze_one_hot_routing(adapter: MolaAdapter) -> None:
    """Pin segment k to expert k and freeze all routing.  This turns the
    mixture into independent per-segment rank-r updates (the ablation where
    nothing is shared but the backbone)."""
    if adapter.n_experts != adapter.plan.segments:
        raise ValueError(
            f"one-hot routing requires n_experts == segments, got "
            f"{adapter.n_experts} experts for {adapter.plan.segments} segments"
        )
    for name in adapter.adapted_layers:
        adapter.logits[name][:] = ONE_HOT_OFF_LOGIT
        np.fill_diagonal(adapter.logits[name], 0.0)
    adapter.frozen_logits[:] = [True] * adapter.plan.segments


def _check_segment(adapter: MolaAdapter, k: int) -> None:
    if not 1 <= k <= adapter.plan.segments:
        raise ValueError(f"segment index {k} out of range 1..{adapter.plan.segments}")


def mixture_weights(adapter: MolaAdapter, layer: str, k: int) -> np.ndarray:
    _check_segment(adapter, k)
    return normalize_weights(adapter.logits[layer][k - 1])


def _expert_span(adapter: MolaAdapter, layer: str, k: int) -> tuple[slice, np.ndarray]:
    """The experts segment k uses in ``layer``, as a basic slice of the
    stacks, and the segment's full mixture weights.  A trainable routing row
    uses every expert, since any weight may move off zero.  A frozen row
    uses those from its first to its last nonzero weight: the rest add
    exactly nothing to W_eff and would get exactly zero gradients."""
    delta = mixture_weights(adapter, layer, k)
    if not adapter.frozen_logits[k - 1]:
        return slice(0, delta.size), delta
    nonzero = delta.nonzero()[0]
    return slice(nonzero[0], nonzero[-1] + 1), delta


def _segment_weight(foundation, adapter: MolaAdapter, layer: str, span: slice,
                    delta: np.ndarray) -> np.ndarray:
    return effective_weight(foundation.params.get(layer), adapter.a[layer][span],
                            adapter.b[layer][span], delta[span])


def adapted_model(
    foundation: model.FoundationModel, adapter: MolaAdapter, k: int
) -> model.FoundationModel:
    """Materialize the segment-k model.  Adapted weights are fresh arrays and
    trainable; everything else aliases the foundation and stays frozen."""
    _check_segment(adapter, k)
    params = model.ParamStore()
    for name in foundation.params.names():
        if name in adapter.adapted_layers:
            eff = _segment_weight(foundation, adapter, name, *_expert_span(adapter, name, k))
            params.add(name, eff, trainable=True)
        else:
            params.add(name, foundation.params.get(name), trainable=False)
    return model.FoundationModel(
        encoder_spec=foundation.encoder_spec, head_out=foundation.head_out, params=params
    )


def segment_loss(foundation, adapter, k, batch, target_slice) -> float:
    return model.mse_loss(adapted_model(foundation, adapter, k), batch, target_slice)


def segment_grads(foundation, adapter, k, batch, target_slice):
    """Loss and gradients w.r.t. the segment-k adaptation parameters, keyed
    like adaptation_params.

    Chain rule through W_eff = W + sum_p delta_p B_p A_p with dL/dW_eff = G,
    over the stacks of the experts the segment uses (see _expert_span):

        dL/dA = delta * B^T G                (P, r, d_in)
        dL/dB = delta * G A^T                (P, d_out, r)
        dL/ddelta_p = <B_p^T G, A_p> = <G, B_p A_p>   (then softmax backward to logits)

    The routing gradient is only formed while the segment's routing row is
    trainable; a zero-weight expert in the stacks gets (signed) zero
    gradients, so it stays put under Adam.
    """
    _check_segment(adapter, k)
    spans = {name: _expert_span(adapter, name, k) for name in adapter.adapted_layers}
    eff = {name: _segment_weight(foundation, adapter, name, span, delta)
           for name, (span, delta) in spans.items()}
    loss, eff_grads = model.loss_and_grads(foundation, batch, target_slice, overrides=eff)
    routed = not adapter.frozen_logits[k - 1]
    grads: dict[str, np.ndarray] = {}
    for name, (span, delta) in spans.items():
        g_eff = eff_grads[name]
        a, b = adapter.a[name][span], adapter.b[name][span]
        weight = delta[span, None, None]
        bt_g = b.transpose(0, 2, 1) @ g_eff
        grads[f"{name}.a"] = weight * bt_g
        grads[f"{name}.b"] = weight * (g_eff @ a.transpose(0, 2, 1))
        if routed:
            d_delta = np.einsum("prd,prd->p", bt_g, a)
            grads[f"{name}.logits.k{k}"] = delta * (d_delta - float(delta @ d_delta))
    return loss, grads


def adaptation_params(adapter: MolaAdapter, k: int) -> dict[str, np.ndarray]:
    """Mutable views of everything segment k trains, keyed like the grads
    from segment_grads: per layer the slices of the A and B stacks that the
    segment uses, and its row of the (K, P) logits table while that row is
    trainable.  In-place optimizer updates land in the adapter."""
    _check_segment(adapter, k)
    out: dict[str, np.ndarray] = {}
    for name in adapter.adapted_layers:
        span, _ = _expert_span(adapter, name, k)
        out[f"{name}.a"] = adapter.a[name][span]
        out[f"{name}.b"] = adapter.b[name][span]
        if not adapter.frozen_logits[k - 1]:
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
        "frozen_logits": list(adapter.frozen_logits),
        "layers": layers,
    }


def adapter_from_state(state: dict) -> MolaAdapter:
    if state.get("kind") != "mola-adapter":
        raise ValueError(f"not an adapter checkpoint: kind={state.get('kind')!r}")
    if state.get("format_version") != ADAPTER_FORMAT_VERSION:
        raise ValueError(f"unsupported adapter format version {state.get('format_version')!r}")
    plan = make_segment_plan(state["plan"]["horizon"], state["plan"]["segments"])
    n_experts, rank = int(state["n_experts"]), int(state["rank"])
    a_stacks: dict[str, np.ndarray] = {}
    b_stacks: dict[str, np.ndarray] = {}
    logits: dict[str, np.ndarray] = {}
    for entry in state["layers"]:
        name = entry["name"]
        logits[name] = _io.decode_array(entry["logits"])
        a_stacks[name] = _io.decode_array(entry["a"])
        b_stacks[name] = _io.decode_array(entry["b"])
        a, b = a_stacks[name], b_stacks[name]
        if (logits[name].shape != (plan.segments, n_experts) or a.ndim != 3 or b.ndim != 3
                or a.shape[:2] != (n_experts, rank) or b.shape[::2] != (n_experts, rank)):
            raise ValueError(
                f"adapter layer {name!r} has logits {logits[name].shape}, A {a.shape} and "
                f"B {b.shape}; expected ({plan.segments}, {n_experts}), "
                f"({n_experts}, {rank}, d_in) and ({n_experts}, d_out, {rank})"
            )
    return MolaAdapter(
        plan=plan,
        adapted_layers=tuple(state["adapted_layers"]),
        n_experts=n_experts,
        rank=rank,
        a=a_stacks,
        b=b_stacks,
        logits=logits,
        foundation_sha256=state["foundation_sha256"],
        frozen_logits=[bool(f) for f in state["frozen_logits"]],
    )


def save_adapter(adapter: MolaAdapter, path) -> None:
    _io.write_json(path, adapter_state(adapter))


def load_adapter(path) -> MolaAdapter:
    return adapter_from_state(_io.read_json(path))
