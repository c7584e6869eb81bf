"""Per-segment low-rank adaptation of a frozen forecasting model.

A foundation model that predicts one segment of S steps is specialized to
each horizon segment k by adding a mixture of rank-r expert updates to
every encoder weight matrix:

    W_eff(k) = W + sum_p delta[k, p] * B_p @ A_p,   delta[k] = softmax(logits[k])

Segment k trains and is scored on ``rows`` label rows from row ``first``:
the seg_len rows from ``plan.first_rows[k - 1]``, the count being what the
foundation's head predicts, so a segment is named by its index alone.

Each adapted layer stores its P experts as two stacks, ``a[layer]`` of shape
(P, r, d_in) and ``b[layer]`` of shape (P, d_out, r), and under soft routing
its (K, P) routing logits; ``experts[layer][p]`` gives expert p's factors as
views into the stacks.  The layers, P, r and the routing are read off these
arrays, so an adapter holds nothing that has to agree with them.  The stacks
of all layers are views into one buffer, layer by layer A then B, so the
arrays one step trains lie back to back and Adam updates them as one run of
memory.  A training step works on whole stacks:
W_eff is one product of the concatenated factors, and the expert gradients
are stacked matmuls, one gradient per stack.

An adapter's ``routing`` says how segments use the experts.  Under soft
routing segment k uses every expert at softmax(logits[k]) and trains its
routing row with them; the experts are shared, so segments fit one after
another.  Under one-hot routing (P == K) the adapter has no logits: segment
k uses expert k alone at weight 1.0.  A step then forms W + B_k @ A_k and
the expert gradients B_k^T G and G A_k^T with no weight at all, since
multiplying by 1.0 changes no bit.
The segments share nothing but the frozen foundation, and one step trains
all K at once on the whole stacks with a K axis: their W_eff form one
(K, d_out, d_in) array.  Biases and the prediction head are never adapted.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _io, model, __version__

ADAPTER_FORMAT_VERSION = 5

ROUTINGS = ("soft", "one-hot")


@dataclass(frozen=True)
class SegmentPlan:
    """Partition of a forecast horizon into equal consecutive segments.
    ``seg_len`` and ``first_rows`` follow from the two fields, so a plan
    cannot disagree with itself; a partition that does not exist raises
    ValueError."""

    horizon: int
    segments: int
    seg_len: int = field(init=False)
    first_rows: tuple[int, ...] = field(init=False)  # 1-based first label row of each segment

    def __post_init__(self):
        if self.segments < 1:
            raise ValueError(f"segments must be >= 1, got {self.segments}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.horizon % self.segments != 0:
            raise ValueError(f"segments must divide horizon exactly: horizon={self.horizon}, "
                             f"segments={self.segments}")
        seg_len = self.horizon // self.segments
        object.__setattr__(self, "seg_len", seg_len)
        object.__setattr__(self, "first_rows", tuple(range(1, self.horizon + 1, seg_len)))


def make_segment_plan(horizon: int, segments: int, lookback: int | None = None) -> SegmentPlan:
    """The plan of ``segments`` segments of ``horizon``; with a ``lookback``,
    a UserWarning when a segment is longer than lookback + 1 rows."""
    plan = SegmentPlan(horizon, segments)
    if lookback is not None and plan.seg_len > lookback + 1:
        warnings.warn(
            f"segment length {plan.seg_len} exceeds lookback+1 = {lookback + 1}; "
            "a single linear readout of the history cannot fit every step of "
            "such a segment exactly, so some residual error is unavoidable",
            UserWarning,
            stacklevel=2,
        )
    return plan


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
    (K segments, say) carry over to the result: (K, d_out, d_in).

    The shapes are not checked here: adapted_model and segment_grads form
    W_eff from adapters that check_fits, the whole rule for an adapter on
    its foundation, has passed."""
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
    a: dict[str, np.ndarray]  # per adapted layer, shape (n_experts, rank, d_in)
    b: dict[str, np.ndarray]  # per adapted layer, shape (n_experts, d_out, rank)
    # per adapted layer, shape (segments, n_experts); None under one-hot routing
    logits: dict[str, np.ndarray] | None
    foundation_sha256: str  # foundation_digest of the model the adapter was fitted on

    @property
    def adapted_layers(self) -> tuple[str, ...]:
        return tuple(self.a)

    @property
    def n_experts(self) -> int:
        return next(iter(self.a.values())).shape[0]

    @property
    def rank(self) -> int:
        return next(iter(self.a.values())).shape[1]

    @property
    def routing(self) -> str:
        """One of ROUTINGS: "soft" with a routing table, "one-hot" without."""
        return "one-hot" if self.logits is None else "soft"

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
    Soft routing starts every segment at uniform weights (zero logits);
    routing="one-hot" applies freeze_one_hot_routing instead.
    """
    if routing not in ROUTINGS:
        raise ValueError(f"routing must be soft or one-hot, got {routing!r}")
    layers = _encoder_weights(foundation)
    for name in layers:
        _check_experts(name, n_experts, rank, foundation.params[name].shape)
    a_stacks: dict[str, np.ndarray] = {}
    b_stacks: dict[str, np.ndarray] = {}
    for i, name in enumerate(layers):
        d_out, d_in = foundation.params[name].shape
        a_stacks[name] = np.stack([
            np.random.default_rng([seed, i, p]).normal(0.0, np.sqrt(1.0 / rank), size=(rank, d_in))
            for p in range(n_experts)
        ])
        b_stacks[name] = np.zeros((n_experts, d_out, rank))
    a_stacks, b_stacks = _packed_stacks(a_stacks, b_stacks)
    adapter = MolaAdapter(plan=plan, a=a_stacks, b=b_stacks, logits=None,
                          foundation_sha256=foundation_digest(foundation))
    if routing == "soft":
        adapter.logits = {name: np.zeros((plan.segments, n_experts)) for name in layers}
    else:
        freeze_one_hot_routing(adapter)
    check_fits(adapter, foundation)
    return adapter


def _packed_stacks(a: dict[str, np.ndarray], b: dict[str, np.ndarray]):
    """Copies of the A and B stacks as views into one buffer, layer by layer
    A then B: the order of adaptation_params, so the stacks a one-hot step
    trains are one run of memory (see train.init_adam)."""
    packed = model.packed({f"{name}.{part}": stacks[name]
                           for name in a for part, stacks in (("a", a), ("b", b))})
    return {name: packed[f"{name}.a"] for name in a}, {name: packed[f"{name}.b"] for name in a}


def check_settings(encoder_spec: model.EncoderSpec, horizon: int, segments: int,
                   n_experts: int, rank: int, routing: str = "soft") -> None:
    """Raise the ValueError that adapting with these settings would raise, by
    building the segment plan, a fresh foundation and the adapter.  Their
    random draws are local, so no later result changes."""
    plan = make_segment_plan(horizon, segments)
    foundation = model.new_model(encoder_spec, plan.seg_len, seed=0)
    new_adapter(foundation, plan, n_experts, rank, seed=0, routing=routing)


def _check_experts(name: str, n_experts: int, rank: int, shape: tuple[int, int]) -> None:
    """The expert and rank rule for adapted layer ``name`` of shape
    (d_out, d_in): at least one expert, each of rank 1 <= r < min(d_out, d_in)."""
    if n_experts < 1:
        raise ValueError(f"n_experts must be >= 1 for layer {name!r}, got {n_experts}")
    if not 1 <= rank < min(shape):
        raise ValueError(f"rank must satisfy 1 <= rank < min(d_out, d_in) = {min(shape)} "
                         f"for layer {name!r}, got {rank}")


def _check_stacks(adapter: MolaAdapter) -> None:
    """Raise a ValueError unless the adapter has layers, every one with A
    and B stacks (P, r, d_in) and (P, d_out, r) of the first layer's P and
    r, and with (K, P) logits under soft routing or P == K under one-hot
    routing: the arrays n_experts, rank and routing are read off."""
    if not adapter.a:
        raise ValueError("an adapter adapts at least one layer")
    n_r = adapter.a[adapter.adapted_layers[0]].shape[:2]
    want_logits = None if adapter.logits is None else (adapter.plan.segments, *n_r[:1])
    for name in adapter.adapted_layers:
        a, b = adapter.a[name], adapter.b[name]
        logits = None if adapter.logits is None else adapter.logits[name].shape
        if (a.ndim != 3 or b.ndim != 3 or a.shape[:2] != n_r or b.shape[::2] != n_r
                or logits != want_logits):
            raise ValueError(
                f"adapter layer {name!r} has A {a.shape}, B {b.shape} and logits {logits}; "
                f"every layer needs A (P, r, d_in) and B (P, d_out, r) with the first "
                f"layer's (P, r) = {n_r}, and logits {want_logits}")
    if adapter.logits is None:
        _check_one_hot(adapter)


def _check_one_hot(adapter: MolaAdapter) -> None:
    if adapter.n_experts != adapter.plan.segments:
        raise ValueError(
            f"one-hot routing requires n_experts == segments, got "
            f"{adapter.n_experts} experts for {adapter.plan.segments} segments"
        )


def check_fits(adapter: MolaAdapter, foundation: model.FoundationModel) -> None:
    """The one rule for an adapter on a foundation: raise a ValueError
    unless the foundation's head predicts one segment of the plan, the
    adapter's arrays hold together (one P and r over its layers, (K, P)
    logits under soft routing, P == K under one-hot routing), its layers are
    the foundation's encoder weight matrices, all of them and in their
    order, each with stacks of that matrix's shape (the shapes
    effective_weight relies on) and at least one expert of rank
    1 <= r < min(d_out, d_in), the rule new_adapter applies, and the
    adapter was fitted on it (foundation_sha256).  Adapting never writes
    into the foundation; the digest check refuses a foundation that changed
    after the adapter was fitted."""
    if adapter.plan.seg_len != foundation.head_out:
        raise ValueError(f"plan segment length {adapter.plan.seg_len} != foundation head_out "
                         f"{foundation.head_out}; the head must predict exactly one segment")
    _check_stacks(adapter)
    weights = _encoder_weights(foundation)
    if adapter.adapted_layers != weights:
        raise ValueError(f"adapter layers {list(adapter.adapted_layers)} are not the "
                         f"foundation's encoder weight matrices {list(weights)}")
    for name in weights:
        d_out, d_in = foundation.params[name].shape
        a, b = adapter.a[name], adapter.b[name]
        if a.shape[2] != d_in or b.shape[1] != d_out:
            raise ValueError(f"adapter layer {name!r} has A {a.shape} and B {b.shape}, but the "
                             f"foundation's {name} is {d_out}x{d_in}")
        _check_experts(name, adapter.n_experts, adapter.rank, (d_out, d_in))
    if adapter.foundation_sha256 != foundation_digest(foundation):
        raise ValueError("the adapter was fitted on another foundation")


def freeze_one_hot_routing(adapter: MolaAdapter) -> None:
    """Pin segment k to expert k (P == K) by dropping the routing logits.
    This turns the mixture into independent per-segment rank-r updates (the
    ablation where nothing is shared but the backbone)."""
    _check_one_hot(adapter)
    adapter.logits = None


def _check_segment(adapter: MolaAdapter, k: int) -> None:
    if (isinstance(k, bool) or not isinstance(k, (int, np.integer))
            or not 1 <= k <= adapter.plan.segments):
        raise ValueError(f"segment index {k!r} is not an int in 1..{adapter.plan.segments}")


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
            return {name: (a[name][k - 1 : k], b[name][k - 1 : k]) for name in a}
    return {name: (a[name], b[name]) for name in a}


def adapted_model(
    foundation: model.FoundationModel, adapter: MolaAdapter, k: int
) -> model.FoundationModel:
    """Materialize the segment-k model, for one segment k in 1..K: the
    foundation's arrays with each adapted weight swapped for a fresh W_eff,
    so its shape is the foundation's and everything else aliases it.
    Training goes through segment_grads, which passes W_eff as overrides."""
    _check_segment(adapter, k)  # a view is one segment's, under either routing
    params = dict(foundation.params)
    for name, (a, b) in _segment_stacks(adapter, k).items():
        # under one-hot routing expert k alone, at weight 1.0
        weights = (np.ones(1) if adapter.routing == "one-hot"
                   else normalize_weights(adapter.logits[name][k - 1]))
        params[name] = effective_weight(foundation.params[name], a, b, weights)
    return model.FoundationModel(params, foundation.activation)


def segment_loss(foundation, adapter, k: int, batch) -> float:
    """MSE of the segment-k model on its seg_len label rows from row
    ``plan.first_rows[k - 1]``."""
    return model.mse_loss(adapted_model(foundation, adapter, k), batch,
                          adapter.plan.first_rows[k - 1])


def segment_grads(foundation, adapter, k: int | None, batch):
    """Loss and gradients w.r.t. the segment-k adaptation parameters, keyed
    like adaptation_params, on segment k's seg_len label rows from row
    ``plan.first_rows[k - 1]``.

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
    once: the batch is K equal batches in segment order, each scored on its
    segment's rows, W_eff is one (K, d_out, d_in) stack, and the loss
    is the (K,) array of the segments' losses.  Each segment's loss and
    gradients are bitwise those of its own step.

    Shapes are not checked per step: check_fits, the whole rule for an
    adapter on its foundation, runs once before the fits of
    train.adapt_all_segments.
    """
    stacks = _segment_stacks(adapter, k)
    first = adapter.plan.first_rows if k is None else adapter.plan.first_rows[k - 1]
    if adapter.routing == "one-hot":
        return _one_hot_grads(foundation, stacks, k is not None, batch, first)
    weights = {name: normalize_weights(adapter.logits[name][k - 1]) for name in stacks}
    eff = {name: effective_weight(foundation.params[name], a, b, weights[name])
           for name, (a, b) in stacks.items()}
    loss, eff_grads = model.loss_and_grads(foundation, batch, first, overrides=eff)
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


def _one_hot_grads(foundation, stacks, one_segment: bool, batch, first):
    """segment_grads under one-hot routing, on stacks of one expert per
    segment: (1, ...) slices for one segment, whose W_eff and G are one
    (d_out, d_in) matrix, or the (K, ...) stacks of all K segments."""
    eff = {}
    for name, (a, b) in stacks.items():
        w_eff = foundation.params[name] + b @ a
        eff[name] = w_eff[0] if one_segment else w_eff
    loss, eff_grads = model.loss_and_grads(foundation, batch, first, overrides=eff)
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
    """The checkpoint: the plan, the foundation digest and per layer its
    stacks, with its logits under soft routing (their absence is one-hot
    routing)."""
    layers = []
    for name in adapter.adapted_layers:
        entry = {"name": name, "a": _io.encode_array(adapter.a[name]),
                 "b": _io.encode_array(adapter.b[name])}
        if adapter.logits is not None:
            entry["logits"] = _io.encode_array(adapter.logits[name])
        layers.append(entry)
    return {
        "format_version": ADAPTER_FORMAT_VERSION,
        "kind": "mola-adapter",
        "tool_version": __version__,
        "plan": {"horizon": adapter.plan.horizon, "segments": adapter.plan.segments},
        "foundation_sha256": adapter.foundation_sha256,
        "layers": layers,
    }


def adapter_from_state(state: dict) -> MolaAdapter:
    if state.get("kind") != "mola-adapter":
        raise ValueError(f"not an adapter checkpoint: kind={state.get('kind')!r}")
    if state.get("format_version") != ADAPTER_FORMAT_VERSION:
        raise ValueError(f"unsupported adapter format version {state.get('format_version')!r}")
    _io.require_keys(state, ("plan", "foundation_sha256", "layers"), "adapter checkpoint")
    _io.require_keys(state["plan"], ("horizon", "segments"), "adapter plan")
    plan = make_segment_plan(_io.require_type(state["plan"], "horizon", int, "adapter plan"),
                             _io.require_type(state["plan"], "segments", int, "adapter plan"))
    foundation_sha256 = _io.require_type(state, "foundation_sha256", str, "adapter checkpoint")
    a_stacks: dict[str, np.ndarray] = {}
    b_stacks: dict[str, np.ndarray] = {}
    logits: dict[str, np.ndarray] = {}
    for entry in _io.require_type(state, "layers", list, "adapter checkpoint"):
        _io.require_keys(entry, ("name", "a", "b"), "adapter layer")
        name = _io.require_type(entry, "name", str, "adapter layer")
        if name in a_stacks:
            raise ValueError(f"adapter layer {name!r} appears twice")
        a_stacks[name] = _io.decode_array(entry["a"])
        b_stacks[name] = _io.decode_array(entry["b"])
        if "logits" in entry:
            logits[name] = _io.decode_array(entry["logits"])
    if logits and len(logits) != len(a_stacks):
        raise ValueError(f"adapter layers {[n for n in a_stacks if n not in logits]} have no "
                         f"logits, but layers {list(logits)} do: soft routing needs them all")
    a_stacks, b_stacks = _packed_stacks(a_stacks, b_stacks)
    adapter = MolaAdapter(plan=plan, a=a_stacks, b=b_stacks, logits=logits or None,
                          foundation_sha256=foundation_sha256)
    _check_stacks(adapter)
    return adapter


def load_adapter(path) -> MolaAdapter:
    """The adapter in the checkpoint at ``path``; a ValueError names the file."""
    try:
        return adapter_from_state(_io.read_json(path))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
