"""Minimal feed-forward engine: dense layers, inverted dropout, exact
analytic gradients, and SGD with momentum and classical weight decay.

Everything is float64 and deterministic given its seeds. Dropout masks are
sampled per hidden *unit* and shared across the rows of a batch, so a mask
is one realization of a thinned network; evaluation-mode forward passes use
no mask and no rescaling (inverted dropout scales at sampling time). The
one mask type is :class:`MaskStack`, the masks of N passes: ``sample_mask``
draws those of an MC call, and a stack runs its passes as one ``forward``.
"""

from __future__ import annotations

import binascii
import json
from dataclasses import dataclass, field

import numpy as np

from . import rng

ACTIVATIONS = ("relu", "identity")

# 2: each float array is base64 text (``encode_floats``); 1: JSON number
# lists, still read
CHECKPOINT_VERSION = 2


class EngineError(ValueError):
    """Shape mismatch, stale cache, or malformed model."""


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray  # (out,)
    activation: str = "relu"

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise EngineError(
                f"layer expects 2-d weights and 1-d bias, got "
                f"{self.weights.shape} / {self.bias.shape}"
            )
        if self.weights.shape[0] != self.bias.shape[0]:
            raise EngineError(
                f"bias length {self.bias.shape[0]} != output width "
                f"{self.weights.shape[0]}"
            )
        if self.activation not in ACTIVATIONS:
            raise EngineError(f"unknown activation {self.activation!r}")

    @property
    def out_width(self) -> int:
        return self.weights.shape[0]

    @property
    def in_width(self) -> int:
        return self.weights.shape[1]


class MlpModel:
    """Dense layer stack with a fixed dropout rate on hidden activations.

    The final layer emits ``class_count`` logits. A version counter is
    bumped on every parameter update so forward caches can detect staleness.
    """

    def __init__(self, layers: list[DenseLayer], dropout_rate: float = 0.3):
        if not layers:
            raise EngineError("model needs at least one layer")
        if not 0.0 <= dropout_rate < 1.0:
            raise EngineError(f"dropout_rate must be in [0, 1), got {dropout_rate}")
        for prev, cur in zip(layers, layers[1:]):
            if cur.in_width != prev.out_width:
                raise EngineError(
                    f"layer widths do not chain: {prev.out_width} -> {cur.in_width}"
                )
        self.layers = layers
        self.dropout_rate = float(dropout_rate)
        self.version = 0

    @property
    def class_count(self) -> int:
        return self.layers[-1].out_width

    @property
    def input_width(self) -> int:
        return self.layers[0].in_width

    @property
    def hidden_widths(self) -> list[int]:
        return [layer.out_width for layer in self.layers[:-1]]

    @classmethod
    def init(cls, layer_sizes: list[int], dropout_rate: float = 0.3, seed: int = 0):
        """He-initialized MLP with relu hidden layers and identity output.

        ``layer_sizes`` lists widths input-to-output, e.g. ``[2, 32, 32, 3]``.
        """
        if len(layer_sizes) < 2:
            raise EngineError("layer_sizes needs at least input and output width")
        gen = rng.substream(seed, "init")
        layers = []
        n = len(layer_sizes) - 1
        for i, (fan_in, fan_out) in enumerate(zip(layer_sizes, layer_sizes[1:])):
            last = i == n - 1
            scale = np.sqrt(1.0 / fan_in) if last else np.sqrt(2.0 / fan_in)
            w = gen.normal(0.0, scale, size=(fan_out, fan_in))
            layers.append(
                DenseLayer(w, np.zeros(fan_out), "identity" if last else "relu")
            )
        return cls(layers, dropout_rate)

    def copy(self) -> "MlpModel":
        layers = [
            DenseLayer(l.weights.copy(), l.bias.copy(), l.activation)
            for l in self.layers
        ]
        clone = MlpModel(layers, self.dropout_rate)
        clone.version = self.version
        return clone


@dataclass
class MaskStack:
    """The keep masks of N dropout passes, entries in ``{0, 1/(1-p)}``:
    ``scales[i]`` has shape ``(N, 1, width_i)``, one row per pass, or
    ``scales`` is None for N unmasked passes."""

    scales: list[np.ndarray] | None
    passes: int


def sample_mask(model: MlpModel, seed: int, passes: int) -> MaskStack:
    """The one layout of the mask stream: the Bernoulli(1-p) keep decisions
    per hidden unit of an MC call's ``passes`` passes, pre-scaled, as one
    stack (one unmasked pass without dropout); the same seed, the same bits.

    Pass ``i`` draws what ``rng.substream(derive_seed(seed, "mc-pass", i),
    "dropout-mask")`` would: one ``random(width)`` per hidden layer in layer
    order, into row ``i``. ``rng.derive_seeds`` derives the N keys from one
    hashed prefix, and building a Philox costs more than a small net's
    draws, so one generator is re-keyed per pass by changing only the key
    of one ``rng.philox_state``.
    """
    if passes < 1:
        raise ValueError(f"n_samples must be >= 1, got {passes}")
    p = model.dropout_rate
    if p == 0.0:
        return MaskStack(None, 1)
    gen = rng.generator(0)
    state = rng.philox_state(0)
    keys = rng.derive_seeds(seed, "mc-pass", passes, "dropout-mask")
    draws = [np.empty((passes, 1, width)) for width in model.hidden_widths]
    for i, key in enumerate(keys):
        state["state"]["key"] = (key, 0)
        gen.bit_generator.state = state
        for layer in draws:
            gen.random(out=layer[i, 0])
    return MaskStack([(layer >= p) / (1.0 - p) for layer in draws], passes)


def _check_mask(model: MlpModel, mask: MaskStack):
    """One shape check per hidden layer: ``(N, 1, width)`` for a stack of N."""
    scales, widths = mask.scales, model.hidden_widths
    if scales is None:
        return
    if len(scales) != len(widths):
        raise EngineError(
            f"mask has {len(scales)} layers, model has {len(widths)} hidden"
        )
    for i, (scale, width) in enumerate(zip(scales, widths)):
        if scale.shape != (mask.passes, 1, width):
            raise EngineError(
                f"mask layer {i}: shape {scale.shape} != {(mask.passes, 1, width)}")


@dataclass
class ForwardCache:
    """Activation record of one :func:`forward`, consumed by :func:`backward`.

    Under a :class:`MaskStack` of N passes the first layer's input and
    activation stay shared ``(rows, width)`` arrays, every array from the
    first mask on is ``(N, rows, width)``, and the logits are always
    ``(N, rows, class_count)``; without a mask every array is 2-d.
    """

    inputs: list[np.ndarray]  # input to each layer (post-mask activations)
    acts: list[np.ndarray]  # output of each layer, before any mask
    logits: np.ndarray  # the pass's output
    mask: MaskStack | None
    model: MlpModel = field(repr=False)
    model_version: int = 0


def _check_pass(model: MlpModel, x: np.ndarray, mask: MaskStack | None):
    """Every check a pass makes before its layer loop: a 2-d batch of the
    model's feature width and a mask shaped like the hidden layers."""
    if x.ndim != 2:
        raise EngineError(f"batch must be 2-d (rows, features), got shape {x.shape}")
    if x.shape[1] != model.input_width:
        raise EngineError(
            f"batch has {x.shape[1]} features, first layer expects "
            f"{model.input_width}"
        )
    if mask is not None:
        _check_mask(model, mask)


def _layer_loop(layers, a, scales, start, bufs=None, inputs=None, acts=None):
    """The one layer loop of every pass: ``layers[start:]`` from their input
    ``a``, each layer after the first seeing ``a`` scaled by its keep mask
    when ``scales`` is given; returns the last layer's activation. A
    stack's ``(N, 1, width)`` scales give every later array a leading pass
    axis, and ``np.matmul`` makes one gemm per pass slice, as N separate
    passes would; the ``(1, width)`` slices of one pass keep them 2-d.

    Without ``bufs`` every step makes a fresh array, and ``inputs`` and
    ``acts``, when given, collect each layer's (masked) input and
    activation. ``bufs[i] = (masked, out)`` holds arrays for layer ``i``:
    its masked input goes to ``masked``, and its pre-activation and then,
    in place, its activation go to ``out``. Either way every step is the
    same ufunc or gemm call on the same operands, so the values are
    bit-identical.
    """
    for i in range(start, len(layers)):
        layer = layers[i]
        masked, out = (None, None) if bufs is None else bufs[i]
        if scales is not None and i > 0:
            a = np.multiply(a, scales[i - 1], out=masked)
        z = np.matmul(a, layer.weights.T, out=out)
        z += layer.bias
        if inputs is not None:
            inputs.append(a)
            acts.append(z)
        a = np.maximum(z, 0.0, out=z) if layer.activation == "relu" else z
    return a


def _check_logits(logits: np.ndarray) -> np.ndarray:
    if not np.isfinite(logits).all():
        raise EngineError("non-finite logits produced by forward pass")
    return logits


def forward(
    model: MlpModel, batch: np.ndarray, mask: MaskStack | None = None
) -> tuple[np.ndarray, ForwardCache]:
    """Run the stack on a (rows, features) batch.

    Without a mask the pass is the deterministic evaluation-mode function
    of (model, batch) and returns ``(rows, class_count)`` logits. A
    :class:`MaskStack` runs its N passes as one, sharing the first layer,
    each multiplying the post-activation output of every hidden layer by
    its scaled keep mask, and returns ``(N, rows, class_count)`` logits: a
    pass whose logits no mask reached is repeated.
    """
    x = np.asarray(batch, dtype=np.float64)
    _check_pass(model, x, mask)
    scales = mask.scales if mask is not None else None
    inputs, acts = [], []
    logits = _check_logits(_layer_loop(model.layers, x, scales, 0, None, inputs, acts))
    if mask is not None and logits.ndim == 2:
        logits = np.broadcast_to(logits, (mask.passes, *logits.shape))
    return logits, ForwardCache(inputs, acts, logits, mask, model, model.version)


def infer(model: MlpModel, batch: np.ndarray) -> np.ndarray:
    """Evaluation-mode logits of a (rows, features) batch, bit-identical to
    :func:`forward`'s, from the same layer loop without a ``ForwardCache``."""
    x = np.asarray(batch, dtype=np.float64)
    _check_pass(model, x, None)
    return _check_logits(_layer_loop(model.layers, x, None, 0))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction; rows sum to 1."""
    z = np.asarray(logits, dtype=np.float64)
    # a running maximum over the columns is exact and, for the few classes
    # of a batch, much faster than a reduction over the short last axis
    m = z[..., :1]
    for j in range(1, z.shape[-1]):
        m = np.maximum(m, z[..., j:j + 1])
    e = z - m
    np.exp(e, out=e)
    e /= _class_sum(e)
    return e


def _class_sum(z: np.ndarray) -> np.ndarray:
    """``z.sum(axis=-1, keepdims=True)``, bit for bit. numpy adds fewer
    than 8 entries of a row left to right onto +0, which a loop over the
    columns does without numpy's cost per row (most of a 2-class softmax);
    it sums 8 or more pairwise, so those rows keep the reduction."""
    if z.shape[-1] >= 8:
        return z.sum(axis=-1, keepdims=True)
    total = z[..., :1] + 0.0
    for j in range(1, z.shape[-1]):
        total += z[..., j:j + 1]
    return total


def _pass_sum(per_pass: np.ndarray) -> np.ndarray:
    """``per_pass[0] + per_pass[1] + ...`` in pass order, the sum that N
    separate passes' results would give, of a stack every caller allocated
    afresh (C-contiguous); no input is modified, and one pass is returned
    as ``per_pass[0]`` itself.

    numpy reduces such a stack over axis 0 slice by slice in index order,
    and sums pairwise only along the fast axis, which axis 0 is when a pass
    holds one element: those passes are added in a loop.
    """
    if len(per_pass) == 1:
        return per_pass[0]
    if per_pass[0].size > 1:
        return np.add.reduce(per_pass, axis=0)
    total = per_pass[0] + per_pass[1]
    for part in per_pass[2:]:
        total += part
    return total


_GRADIENTS = ("params", "input")


def backward(
    cache: ForwardCache, upstream_grad: np.ndarray, wrt: str
) -> list[tuple[np.ndarray, np.ndarray]] | np.ndarray:
    """Backpropagate an upstream logits gradient through a cached pass.

    ``wrt`` selects the one gradient computed: ``"params"`` returns
    per-layer ``(d_weights, d_bias)`` in layer order (training), ``"input"``
    the gradient with respect to the batch input (gradient-sign attacks),
    and the delta chain skips every product only the other would use. The
    layers are read from ``cache.model``: ``sgd_step``, the only writer of
    layer arrays, bumps the version this checks first.

    A masked cache runs the delta chain once over the pass axis, one gemm
    per pass slice, and sums the gradient over the passes in pass order.
    """
    if wrt not in _GRADIENTS:
        raise EngineError(f"wrt must be one of {_GRADIENTS}, got {wrt!r}")
    if cache.model_version != cache.model.version:
        raise EngineError("stale forward cache: model parameters changed")
    g = np.asarray(upstream_grad, dtype=np.float64)
    if g.shape != cache.logits.shape:
        raise EngineError(
            f"upstream grad shape {g.shape} != logits shape {cache.logits.shape}"
        )

    params = wrt == "params"
    layers = cache.model.layers
    last = len(layers) - 1
    scales = cache.mask.scales if cache.mask is not None else None
    grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(layers)
    delta = g
    for i in range(last, -1, -1):
        # a relu's output is positive exactly where its input is
        gate = cache.acts[i] > 0.0 if layers[i].activation == "relu" else None
        if i == last:
            if gate is not None:
                delta = delta * gate  # not in place: g is the caller's
        else:
            # delta is the fresh product of the layer above
            if scales is not None:
                delta *= scales[i]
            if gate is not None:
                delta *= gate
        if params:
            grads[i] = (np.matmul(delta.swapaxes(-1, -2), cache.inputs[i]),
                        delta.sum(axis=-2))
        if i > 0 or not params:
            delta = delta @ layers[i].weights
    if cache.mask is None:
        return grads if params else delta
    if params:
        return [(_pass_sum(gw), _pass_sum(gb)) for gw, gb in grads]
    return _pass_sum(delta)


@dataclass
class OptimizerState:
    """Momentum buffers mirroring the model's parameter shapes."""

    velocities: list[tuple[np.ndarray, np.ndarray]]
    lr: float
    momentum: float = 0.9
    weight_decay: float = 0.0

    @classmethod
    def for_model(cls, model: MlpModel, lr: float, momentum: float = 0.9,
                  weight_decay: float = 0.0) -> "OptimizerState":
        if lr < 0:
            raise EngineError(f"lr must be non-negative, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise EngineError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise EngineError(f"weight_decay must be non-negative, got {weight_decay}")
        vel = [
            (np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in model.layers
        ]
        return cls(vel, float(lr), float(momentum), float(weight_decay))


def sgd_step(
    model: MlpModel,
    grads: list[tuple[np.ndarray, np.ndarray]],
    state: OptimizerState,
) -> bool:
    """One momentum-SGD update: v <- mu*v + g + wd*theta; theta <- theta - lr*v.

    Returns False (refusing the step, model and state untouched) if any
    gradient entry is non-finite. The caller's gradients are never written.

    With ``weight_decay == 0`` the ``wd*theta`` term is skipped, not added
    as zeros. That can change only the sign of a zero velocity entry (a
    -0.0 gradient plus +0.0 is +0.0), and ``theta - lr*v`` with ``v = ±0.0``
    gives the same ``theta`` unless ``theta`` is -0.0. Training never makes
    a -0.0 parameter: ``x - y`` is -0.0 only when ``x`` already is, weights
    start from He draws and biases at +0.0. So finite parameters stay bit
    for bit those of the full update.
    """
    if len(grads) != len(model.layers):
        raise EngineError(
            f"got {len(grads)} gradient pairs for {len(model.layers)} layers"
        )
    for (gw, gb), layer in zip(grads, model.layers):
        if gw.shape != layer.weights.shape or gb.shape != layer.bias.shape:
            raise EngineError(
                f"gradient shapes {gw.shape}/{gb.shape} do not mirror parameter "
                f"shapes {layer.weights.shape}/{layer.bias.shape}"
            )
    if not all(np.isfinite(gw).all() and np.isfinite(gb).all() for gw, gb in grads):
        return False

    decay = state.weight_decay
    for (gw, gb), (vw, vb), layer in zip(grads, state.velocities, model.layers):
        vw *= state.momentum
        vb *= state.momentum
        if decay:
            vw += gw + decay * layer.weights
            vb += gb + decay * layer.bias
        else:
            vw += gw
            vb += gb
        # fresh arrays keep previously issued forward caches internally
        # consistent; the version bump below invalidates them anyway. The
        # step lr*v is the fresh array the difference is written into
        step = np.multiply(vw, state.lr)
        layer.weights = np.subtract(layer.weights, step, out=step)
        step = np.multiply(vb, state.lr)
        layer.bias = np.subtract(layer.bias, step, out=step)
    model.version += 1
    return True


def encode_floats(array: np.ndarray) -> str:
    """Base64 text of ``array``'s C-order, little-endian float64 bytes."""
    data = np.ascontiguousarray(array, dtype="<f8").tobytes()
    return binascii.b2a_base64(data, newline=False).decode("ascii")


def decode_floats(value, what: str, count: int | None = None) -> np.ndarray:
    """The float64 vector a checkpoint stores for ``what``: ``encode_floats``
    text (format 2) or a JSON number list (format 1).

    Raises ``EngineError`` if the text is not the canonical base64 of whole
    float64 values, if ``count`` is given and the vector has another
    length, or if a value is not finite.
    """
    if isinstance(value, str):
        try:
            data = binascii.a2b_base64(value)
        except ValueError as exc:  # binascii.Error, or non-ASCII text
            raise EngineError(f"{what} is not base64: {exc}") from exc
        # the decoder skips stray characters; re-encoding must give the text
        if binascii.b2a_base64(data, newline=False) != value.encode() or len(data) % 8:
            raise EngineError(f"{what} is not the base64 of float64 values")
        array = np.frombuffer(data, dtype="<f8").astype(np.float64)
    elif isinstance(value, list):
        array = np.array(value, dtype=np.float64)
        if array.ndim != 1:
            raise EngineError(f"{what} is not a flat number list")
    else:
        raise EngineError(f"{what} is neither base64 text nor a number list")
    if count is not None and array.size != count:
        raise EngineError(f"{what} holds {array.size} values, its shape needs {count}")
    if not np.isfinite(array).all():
        raise EngineError(f"{what} holds a value that is not finite")
    return array


def checkpoint_json(model: MlpModel) -> str:
    """Versioned JSON checkpoint; each float array is ``encode_floats``
    text, so it round-trips bit for bit and no float is printed."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "kind": "mlp",
        "dropout_rate": model.dropout_rate,
        "layers": [
            {
                "activation": l.activation,
                "shape": list(l.weights.shape),
                "weights": encode_floats(l.weights),
                "bias": encode_floats(l.bias),
            }
            for l in model.layers
        ],
    }
    return json.dumps(doc, sort_keys=True)


def model_from_checkpoint_dict(doc: dict) -> MlpModel:
    """The model of a ``checkpoint_json`` document of format 1 or 2. An
    unknown version, a shape that is not two non-negative integers, or an
    array whose length does not match it or that holds a non-finite value
    raises ``EngineError`` naming the layer."""
    if doc.get("format_version") not in (1, CHECKPOINT_VERSION):
        raise EngineError(f"unsupported checkpoint version {doc.get('format_version')}")
    layers = []
    for i, spec in enumerate(doc["layers"]):
        shape = spec["shape"]
        if not (isinstance(shape, list) and len(shape) == 2
                and all(type(n) is int and n >= 0 for n in shape)):
            raise EngineError(f"layer {i} shape {shape!r} is not two non-negative integers")
        out_w, in_w = shape
        w = decode_floats(spec["weights"], f"layer {i} weights", out_w * in_w)
        b = decode_floats(spec["bias"], f"layer {i} bias", out_w)
        layers.append(DenseLayer(w.reshape(out_w, in_w), b, spec["activation"]))
    return MlpModel(layers, doc["dropout_rate"])
