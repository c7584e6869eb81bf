"""Encoder/decoder forecasting core with hand-rolled reverse-mode gradients.

The architecture is deliberately small: a channel-shared temporal encoder
(one affine layer, or two with an activation between), a linear head with
one output per forecast step, and mean-squared-error training.  Every
channel of a multivariate window passes through the same L -> rep_dim
map, so a batch of B windows with D channels is processed as B*D columns.
Gradients are derived by hand for this fixed op set (affine, relu/tanh,
MSE); there is no general autodiff graph.  A loss scores the model on
``rows`` label rows from row ``first`` of each window; the head supplies
the count (rows = head_out), so a caller names only the first row.

A model is its parameters, a plain name -> array dict, and its
activation: whenever a model is made (built, loaded or adapted), the
encoder's kind, widths, lookback and the head length are read off the
arrays' shapes, and a checkpoint stores nothing else.  A loss forms
gradients for the ``overrides`` a caller passes in place of parameters,
and for every parameter when there are none: that is how adaptation
trains low-rank updates on top of a foundation it never changes.

Passes without gradients (encode, decode, forecast, mse_loss) keep no
cache, so each layer's output is formed in place in the array its matmul
allocated, bitwise what the training forward computes; no pass writes
into an array it was handed.  encode, decode and forecast map whatever
column block they are given.  mse_loss reduces the chunks of
``WindowSet.errors``, the pass every evaluation also scores through, one
at a time, so it holds one chunk's rows, never a block of the whole
split.  Its errors are bitwise those of the whole block at once; its
loss sums the chunks' sums in chunk order, so it is bitwise numpy's mean
for a split of one chunk and differs from it only by summation order
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import __version__
from ._io import (decode_array, encode_array, read_json, require_keys, require_type,
                  write_json)
from .data import WindowSet

ENCODER_KINDS = ("linear", "mlp2")
ACTIVATIONS = ("relu", "tanh")
CHECKPOINT_FORMAT_VERSION = 4


@dataclass(frozen=True)
class EncoderSpec:
    """Shape of the channel-shared temporal encoder.

    ``linear`` is a single square affine map (rep_dim = in_len, no
    activation).  ``mlp2`` is affine -> activation -> affine with widths
    ``hidden = (h1, rep_dim)``.
    """

    kind: str
    in_len: int
    hidden: tuple[int, ...] = ()
    activation: str = "relu"

    def __post_init__(self):
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.kind not in ENCODER_KINDS:
            raise ValueError(f"encoder kind must be one of {ENCODER_KINDS}, got {self.kind!r}")
        if self.in_len < 1:
            raise ValueError(f"in_len must be >= 1, got {self.in_len}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"activation must be one of {ACTIVATIONS}, got {self.activation!r}")
        if self.kind == "linear" and self.hidden != ():
            raise ValueError("linear encoders take no hidden widths")
        if self.kind == "mlp2":
            if len(self.hidden) != 2:
                raise ValueError(f"mlp2 needs exactly two hidden widths, got {self.hidden}")
            if min(self.hidden) < 1:
                raise ValueError(f"hidden widths must be >= 1, got {self.hidden}")

    @property
    def rep_dim(self) -> int:
        return self.in_len if self.kind == "linear" else self.hidden[1]

    @property
    def n_layers(self) -> int:
        return 1 if self.kind == "linear" else 2

    def layer_shape(self, i: int) -> tuple[int, int]:
        """(out, in) of encoder layer i."""
        if self.kind == "linear":
            return (self.in_len, self.in_len)
        return (self.hidden[0], self.in_len) if i == 0 else (self.hidden[1], self.hidden[0])

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "in_len": self.in_len,
            "hidden": list(self.hidden),
            "activation": self.activation,
        }


@dataclass(eq=False)
class FoundationModel:
    """Encoder + linear head predicting ``head_out`` future steps at once: the
    arrays of ``_param_shapes`` in its order, and the activation.  The spec,
    head length and lookback are read off the arrays, for every model."""

    params: dict[str, np.ndarray]
    activation: str
    encoder_spec: EncoderSpec = field(init=False)
    head_out: int = field(init=False)

    def __post_init__(self):
        params = self.params
        mlp2 = "enc1.w" in params
        matrices = ("enc0.w", "enc1.w", "head.w") if mlp2 else ("enc0.w", "head.w")
        if any(name not in params or params[name].ndim != 2 for name in matrices):
            raise ValueError(f"parameters {list(params)} give no encoder and head: "
                             f"{', '.join(map(repr, matrices))} must be matrices")
        h1, in_len = params["enc0.w"].shape
        self.encoder_spec = EncoderSpec(kind="mlp2" if mlp2 else "linear", in_len=in_len,
                                        hidden=(h1, params["enc1.w"].shape[0]) if mlp2 else (),
                                        activation=self.activation)
        self.head_out = params["head.w"].shape[0]
        if self.head_out < 1:
            raise ValueError(f"head_out must be >= 1, got {self.head_out}")
        expected = _param_shapes(self.encoder_spec, self.head_out)
        if list(params) != list(expected):
            raise ValueError(f"parameters {list(params)} do not match the {list(expected)} "
                             f"of the encoder spec and head_out={self.head_out}")
        for name, shape in expected.items():
            if params[name].shape != shape:
                raise ValueError(f"parameter {name!r} has shape {params[name].shape}, but "
                                 f"the encoder spec and head_out={self.head_out} imply {shape}")

    @property
    def lookback(self) -> int:
        return self.encoder_spec.in_len


# (weight, bias) names of encoder layers 0 and 1, spelled once
_LAYERS = (("enc0.w", "enc0.b"), ("enc1.w", "enc1.b"))


def _param_shapes(encoder_spec: EncoderSpec, head_out: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter of a model, in creation order."""
    shapes: dict[str, tuple[int, ...]] = {}
    for i, (w_name, b_name) in enumerate(_LAYERS[: encoder_spec.n_layers]):
        out, fan_in = encoder_spec.layer_shape(i)
        shapes[w_name] = (out, fan_in)
        shapes[b_name] = (out,)
    shapes["head.w"] = (head_out, encoder_spec.rep_dim)
    shapes["head.b"] = (head_out,)
    return shapes


def packed(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Copies of ``arrays`` as views into one contiguous float64 buffer, in
    their order, so that an optimizer sees a whole model as one run of
    memory (see ``train.init_adam``)."""
    buffer = np.empty(sum(np.size(a) for a in arrays.values()))
    params, offset = {}, 0
    for name, array in arrays.items():
        view = buffer[offset : offset + np.size(array)].reshape(np.shape(array))
        view[...] = array
        params[name] = view
        offset += view.size
    return params


def new_model(encoder_spec: EncoderSpec, head_out: int, seed: int) -> FoundationModel:
    """Seeded init: weights ~ Uniform(+-1/sqrt(fan_in)), biases zero; the
    arrays are views into one buffer."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in _param_shapes(encoder_spec, head_out).items():
        if len(shape) == 2:
            bound = 1.0 / np.sqrt(shape[1])
            params[name] = rng.uniform(-bound, bound, size=shape)
        else:
            params[name] = np.zeros(shape)
    return FoundationModel(packed(params), encoder_spec.activation)


def _activate(z: np.ndarray, activation: str, out=None) -> np.ndarray:
    return np.maximum(z, 0.0, out=out) if activation == "relu" else np.tanh(z, out=out)


def _activation_grad(z: np.ndarray, a: np.ndarray, activation: str) -> np.ndarray:
    # relu subgradient at 0 is taken as 0
    if activation == "relu":
        return z > 0.0
    square = a * a
    return np.subtract(1.0, square, out=square)


def _encode_cols(m: FoundationModel, x: np.ndarray, keep_cache: bool, weights=None):
    weights = m.params if weights is None else weights
    n_layers = m.encoder_spec.n_layers
    caches = []
    for i, (w_name, b_name) in enumerate(_LAYERS[:n_layers]):
        z = weights[w_name] @ x
        z += weights[b_name][..., None]
        activated = i < n_layers - 1
        if activated:
            # without a cache nothing reads z again, so it is activated in place
            a = _activate(z, m.activation, out=None if keep_cache else z)
        else:
            a = z
        if keep_cache:
            caches.append((x, z, a, activated))
        x = a
    return x, caches


def encode(m: FoundationModel, history: np.ndarray) -> np.ndarray:
    """Representation of one (L, D) history window, shape (rep_dim, D).

    Columns are independent, so an (L, N*D) block of N windows (see
    ``WindowSet.history_block``) encodes to (rep_dim, N*D) in one call."""
    history = np.asarray(history, dtype=np.float64)
    if history.ndim != 2 or history.shape[0] != m.lookback:
        raise ValueError(
            f"history must be (lookback={m.lookback}, D), got {history.shape}"
        )
    rep, _ = _encode_cols(m, history, keep_cache=False)
    return rep


def decode(m: FoundationModel, rep: np.ndarray) -> np.ndarray:
    """Linear head applied per channel: (rep_dim, D) -> (head_out, D)."""
    rep = np.asarray(rep, dtype=np.float64)
    if rep.ndim != 2 or rep.shape[0] != m.encoder_spec.rep_dim:
        raise ValueError(
            f"rep must be (rep_dim={m.encoder_spec.rep_dim}, D), got {rep.shape}"
        )
    out = m.params["head.w"] @ rep
    out += m.params["head.b"][:, None]
    return out


def forecast(m: FoundationModel, history: np.ndarray) -> np.ndarray:
    """(L, D) history -> (head_out, D) forecast; also maps column blocks."""
    return decode(m, encode(m, history))


def _stack_batch(m: FoundationModel, batch: WindowSet, first):
    """The (L, B*D) history and (head_out, B*D) label blocks of a batch,
    copied once: ``WindowSet.blocks`` gathers both from the batch's series
    in one take, reading only the head_out label rows from row ``first``.
    With K first rows, the batch is K equal groups of windows one after
    another, and both blocks gain a leading K axis: group k's label rows
    are the head_out from row first[k]."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    if batch.lookback != m.lookback:
        raise ValueError(f"history length {batch.lookback} != lookback {m.lookback}")
    return batch.blocks(first, m.head_out)


def mse_loss(m: FoundationModel, batch: WindowSet, first: int = 1) -> float:
    """Mean squared error over batch x steps x channels of the head_out
    label rows from row ``first``: the sum of each chunk's sum of squared
    errors from ``batch.errors``, in chunk order, over their count.  With
    one chunk that is bitwise numpy's mean of the block."""
    total, count = 0.0, 0
    for _, _, err in batch.errors(lambda history: forecast(m, history), first, m.head_out):
        total += np.add.reduce(np.multiply(err, err, out=err), axis=None)
        count += err.size
        del err  # dropped before the next chunk is gathered
    return float(total / count)


def loss_and_grads(m: FoundationModel, batch: WindowSet, first=1, overrides=None):
    """Loss plus gradients: for the ``overrides`` when there are some, and
    for every parameter of m otherwise.

    ``overrides`` maps parameter names to arrays used in place of m's
    entries: that is how adaptation trains the effective weights on top of
    a foundation without building a model per step.

    The loss is scored on the head_out label rows from row ``first``.  With
    a sequence of K first rows, the batch is K equal groups of windows (see
    ``_stack_batch``) and every array gains a leading K axis:
    overrides may be (K, ...) stacks, the loss is a (K,) array and each
    gradient is K per-group gradients, each bitwise what the group alone
    would give.
    """
    if overrides:
        unknown = overrides.keys() - m.params.keys()
        if unknown:
            raise ValueError(f"overrides name unknown parameters {sorted(unknown)}")
        trained, weights = overrides, {**m.params, **overrides}
    else:
        trained = weights = m.params
    x, y = _stack_batch(m, batch, first)
    rep, caches = _encode_cols(m, x, keep_cache=True, weights=weights)
    head_w = weights["head.w"]
    diff = head_w @ rep
    diff += weights["head.b"][..., None]
    diff -= y
    count = diff.shape[-2] * diff.shape[-1]
    # the sum over the trailing axes, then one division: what .mean() does
    loss = np.add.reduce(diff * diff, axis=(-2, -1)) / count

    grads: dict[str, np.ndarray] = {}
    d_out = (2.0 / count) * diff
    if "head.w" in trained:
        grads["head.w"] = d_out @ rep.swapaxes(-1, -2)
    if "head.b" in trained:
        grads["head.b"] = np.add.reduce(d_out, axis=-1)
    d_x = head_w.swapaxes(-1, -2) @ d_out
    activation = m.activation
    for i in reversed(range(len(caches))):
        x_in, z, a, activated = caches[i]
        w_name, b_name = _LAYERS[i]
        d_z = d_x * _activation_grad(z, a, activation) if activated else d_x
        if w_name in trained:
            grads[w_name] = d_z @ x_in.swapaxes(-1, -2)
        if b_name in trained:
            grads[b_name] = np.add.reduce(d_z, axis=-1)
        if i > 0:
            d_x = weights[w_name].swapaxes(-1, -2) @ d_z
    return (float(loss) if loss.ndim == 0 else loss), grads


def ar_f_forecast(m: FoundationModel, history: np.ndarray, horizon: int) -> np.ndarray:
    """Recursive one-step roll-out: each prediction is appended to the window.

    Requires a single-output head; this is the autoregressive baseline and
    the place where per-step errors compound.
    """
    if m.head_out != 1:
        raise ValueError(f"ar_f_forecast needs head_out=1, got {m.head_out}")
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    history = np.asarray(history, dtype=np.float64)
    window = history.copy()
    out = np.zeros((horizon, history.shape[1]))
    for t in range(horizon):
        step = forecast(m, window)
        out[t] = step[0]
        window = np.vstack([window[1:], step])
    return out


def model_state(m: FoundationModel) -> dict:
    """The checkpoint: the activation and the arrays, which say the rest."""
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "tool_version": __version__,
        "kind": "foundation-model",
        "activation": m.activation,
        "params": [{"name": name, **encode_array(array)} for name, array in m.params.items()],
    }


def model_from_state(state: dict) -> FoundationModel:
    """The model of a checkpoint: its JSON is checked here, and
    FoundationModel reads the spec off the arrays and checks every shape."""
    if state.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version {state.get('format_version')!r}")
    if state.get("kind") != "foundation-model":
        raise ValueError(f"not a model checkpoint (kind={state.get('kind')!r})")
    require_keys(state, ("activation", "params"), "model checkpoint")
    activation = require_type(state, "activation", str, "model checkpoint")
    entries = require_type(state, "params", list, "model checkpoint")
    for entry in entries:
        require_keys(entry, ("name",), "model checkpoint parameter")
        require_type(entry, "name", str, "model checkpoint parameter")
    params = {entry["name"]: decode_array(entry) for entry in entries}
    if len(params) != len(entries):
        raise ValueError("model checkpoint names a parameter twice")
    return FoundationModel(packed(params), activation)


def save_checkpoint(m: FoundationModel, path) -> None:
    write_json(path, model_state(m))


def load_checkpoint(path) -> FoundationModel:
    """The model in the checkpoint at ``path``; a ValueError names the file."""
    try:
        return model_from_state(read_json(path))
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None
