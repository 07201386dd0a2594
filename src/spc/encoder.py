"""Stochastic encoder: diagonal-Gaussian codes in the label space.

A single-hidden-layer tanh trunk feeds two linear heads that predict the
mean and log-variance of a Gaussian over the output space (one dimension
per class, or one dimension for regression). Sampling uses the
reparameterization t = mu + exp(log_var / 2) * eps with caller-supplied
eps, so gradients reach mu and log_var but never the noise. Prediction
reads mu (decoded, for VIB): the predicted class is its argmax (softmax(mu),
the predictive distribution, has the same argmax), and a regression
estimate is mu itself.

The VIB baseline is the same encoder into a code of any width, plus a
trainable single-hidden-layer tanh decoder from t to the output space;
`decode` is the identity for a model without one. A model is its
checkpoint's "arch" plus its named tensors (`EncoderParams`). A checkpoint
write streams the json text a chunk of values at a time through
`data.write_atomic`, which replaces the file only once it is complete.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .data import DataError, write_atomic
from .diffcore import ShapeError, Tensor, clip, emit, layer_norm, matmul, mul, param, tanh

# hard bounds on predicted log-variance; keeps the KL term finite on outliers
LOG_VAR_MIN = -8.0
LOG_VAR_MAX = 8.0

CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class GaussianCode:
    """Per-sample posterior parameters (mu, log sigma^2) in the output space;
    log_var is None where `encode` was asked for mu alone."""

    mu: Tensor
    log_var: Tensor | None


# checkpoint kind -> its "arch" keys, in file order; all but use_layer_norm are dimensions
ARCH_KEYS = {
    "encoder": ("input_dim", "hidden_dim", "out_dim", "use_layer_norm"),
    "vib": ("input_dim", "hidden_dim", "latent_dim", "decoder_hidden", "out_dim",
            "use_layer_norm"),
}


@dataclass
class EncoderParams:
    """A model: its checkpoint "arch", which describes it whole (its kind's
    ARCH_KEYS, in file order), and its tensors by name (`tensor_shapes` order).

    Kind "encoder" is the trunk, mean head and log-variance head, its code in
    the output space; kind "vib" (the VIB baseline) adds a decoder from its
    `latent_dim`-wide code t to the `out_dim` outputs. `use_layer_norm`
    standardizes the trunk pre-activation row-wise before the tanh. Dropout,
    when used, is a mask the caller puts on the hidden layer (see `encode`).
    """

    arch: dict
    tensors: dict[str, Tensor]

    @property
    def kind(self) -> str:
        return "vib" if "decoder_hidden" in self.arch else "encoder"

    @property
    def input_dim(self) -> int:
        return self.arch["input_dim"]

    @property
    def latent_dim(self) -> int:
        """Width of the Gaussian code (and of every noise draw)."""
        return self.arch.get("latent_dim", self.out_dim)

    @property
    def out_dim(self) -> int:
        return self.arch["out_dim"]

    def parameters(self) -> list[Tensor]:
        return list(self.tensors.values())


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def tensor_shapes(arch: dict) -> dict[str, tuple[int, int]]:
    """Each tensor's shape under a checkpoint "arch", in checkpoint and init order."""
    d_in, hidden, out = arch["input_dim"], arch["hidden_dim"], arch["out_dim"]
    code = arch.get("latent_dim", out)
    shapes = {"w_in": (d_in, hidden), "b_in": (1, hidden), "w_mu": (hidden, code),
              "b_mu": (1, code), "w_lv": (hidden, code), "b_lv": (1, code)}
    if "decoder_hidden" in arch:
        dec = arch["decoder_hidden"]
        shapes.update(w_dec1=(code, dec), b_dec1=(1, dec), w_dec2=(dec, out), b_dec2=(1, out))
    return shapes


def _check_arch(arch: dict) -> None:
    """Raise ValueError unless each dimension of `arch` is an int >= 1 (not
    a bool) and its use_layer_norm is true or false."""
    for key, value in arch.items():
        if key == "use_layer_norm" and not isinstance(value, bool):
            raise ValueError(f"arch use_layer_norm must be true or false, got {value!r}")
        if key != "use_layer_norm" and (type(value) is not int or value < 1):
            raise ValueError(f"arch {key} must be an integer >= 1, got {value!r}")


def _init(arch: dict, rng: np.random.Generator | int) -> EncoderParams:
    """Glorot-uniform weights, zero biases, drawn in `tensor_shapes` order."""
    _check_arch(arch)
    rng = np.random.default_rng(rng)  # a Generator is returned as it is
    return EncoderParams(arch, {
        name: param(_glorot(rng, *shape) if name.startswith("w") else np.zeros(shape))
        for name, shape in tensor_shapes(arch).items()})


def init_encoder(input_dim: int, hidden_dim: int, out_dim: int,
                 rng: np.random.Generator | int,
                 use_layer_norm: bool = False) -> EncoderParams:
    """Glorot-uniform weights, zero biases. Draw order: w_in, w_mu, w_lv."""
    return _init({"input_dim": input_dim, "hidden_dim": hidden_dim, "out_dim": out_dim,
                  "use_layer_norm": use_layer_norm}, rng)


def init_vib(input_dim: int, hidden_dim: int, latent_dim: int, out_dim: int,
             rng: np.random.Generator | int, use_layer_norm: bool = False) -> EncoderParams:
    """The encoder into a latent_dim-wide code plus a decoder with
    hidden_dim hidden units. Draw order: w_in, w_mu, w_lv, w_dec1, w_dec2."""
    return _init({"input_dim": input_dim, "hidden_dim": hidden_dim, "latent_dim": latent_dim,
                  "decoder_hidden": hidden_dim, "out_dim": out_dim,
                  "use_layer_norm": use_layer_norm}, rng)


def encode(params: EncoderParams, x: Tensor, dropout_mask: np.ndarray | None = None,
           with_log_var: bool = True) -> GaussianCode:
    """Map a feature batch to per-sample (mu, log_var), log_var clamped to [-8, 8].

    The shared trunk is tanh(layer_norm?(x @ w_in + b_in)), times the
    dropout mask if one is given. With `with_log_var=False` the
    log-variance head is neither computed nor taped and log_var is None,
    for callers that read mu alone (predictions, representations, and the
    kinds that neither sample nor take a KL term).
    """
    if x.values.ndim != 2 or x.values.shape[1] != params.input_dim:
        raise ShapeError(
            f"encode: expected input of shape (B, {params.input_dim}), got {x.values.shape}")
    w = params.tensors
    pre = matmul(x, w["w_in"], w["b_in"])
    if params.arch["use_layer_norm"]:
        pre = layer_norm(pre)
    h = tanh(pre)
    if dropout_mask is not None:
        h = mul(h, Tensor(dropout_mask))
    mu = matmul(h, w["w_mu"], w["b_mu"])
    if not with_log_var:
        return GaussianCode(mu=mu, log_var=None)
    log_var = clip(matmul(h, w["w_lv"], w["b_lv"]), LOG_VAR_MIN, LOG_VAR_MAX)
    return GaussianCode(mu=mu, log_var=log_var)


def sample(code: GaussianCode, eps: Tensor | np.ndarray) -> Tensor:
    """Reparameterized draw t = mu + exp(log_var / 2) * eps, as one op.

    `eps` is treated as a constant: it must be drawn from N(0, I) by the
    caller, and no gradient flows into it. The local gradients are g for
    mu and g * eps * sigma * 0.5 for log_var.
    """
    eps = (eps if isinstance(eps, Tensor) else Tensor(eps)).values
    if eps.shape != code.mu.values.shape:
        raise ShapeError(
            f"sample: eps shape {eps.shape} != code shape {code.mu.values.shape}")
    sigma = np.exp(code.log_var.values * 0.5)
    return emit(code.mu.values + sigma * eps,
                (code.mu, lambda g: g), (code.log_var, lambda g: g * eps * sigma * 0.5))


def decode(params: EncoderParams, t: Tensor) -> Tensor:
    """The prediction from a code sample: t itself, or the decoder's output."""
    if params.kind == "encoder":
        return t
    w = params.tensors
    return matmul(tanh(matmul(t, w["w_dec1"], w["b_dec1"])), w["w_dec2"], w["b_dec2"])


# --- checkpoint serialization (versioned JSON of named tensors) ---

# values a checkpoint write turns into text at once
CHECKPOINT_CHUNK_VALUES = 4096


def save_checkpoint(path: str, params: EncoderParams) -> None:
    """Write `params` to `path`: the bytes of `json.dumps` of the payload
    below, streamed one tensor and at most CHECKPOINT_CHUNK_VALUES values at
    a time, so the payload never exists as one string or as Python lists.
    A failed write leaves any earlier file at `path` as it was (`write_atomic`)."""
    head = json.dumps({"format_version": CHECKPOINT_FORMAT_VERSION, "kind": params.kind,
                       "arch": params.arch})
    with write_atomic(path) as fh:
        fh.write(head[:-1] + ', "tensors": {')
        for i, (name, t) in enumerate(params.tensors.items()):
            fh.write(f'{", " if i else ""}{json.dumps(name)}: '
                     f'{{"shape": {json.dumps(list(t.values.shape))}, "values": [')
            values = t.values.ravel()
            for lo in range(0, values.size, CHECKPOINT_CHUNK_VALUES):
                chunk = values[lo:lo + CHECKPOINT_CHUNK_VALUES].tolist()
                fh.write((", " if lo else "") + json.dumps(chunk)[1:-1])
            fh.write("]}")
        fh.write("}}")


def load_checkpoint_payload(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version: {version!r}")
    return payload


def load_checkpoint(path: str) -> EncoderParams:
    """Read a checkpoint. Any malformed content, including an "arch" that
    `_check_arch` rejects, a tensor whose shape disagrees with the arch or a
    tensor that holds a non-finite value, is a DataError naming the file."""
    try:
        payload = load_checkpoint_payload(path)
        kind = payload["kind"]
        if kind not in ARCH_KEYS:
            raise ValueError(f"unknown checkpoint kind {kind!r}")
        arch = {key: payload["arch"][key] for key in ARCH_KEYS[kind]}
        _check_arch(arch)
        tensors = {}
        for name, shape in tensor_shapes(arch).items():
            entry = payload["tensors"][name]
            if tuple(entry["shape"]) != shape:
                raise ValueError(f"tensor {name} has shape {entry['shape']}, "
                                 f"the arch needs {list(shape)}")
            values = np.asarray(entry["values"], dtype=np.float64)
            if not np.isfinite(values).all():
                raise ValueError(f"tensor {name} holds a non-finite value")
            tensors[name] = param(values.reshape(shape))
        return EncoderParams(arch, tensors)
    except (KeyError, TypeError, ValueError) as err:
        raise DataError(f"{path}: not a usable checkpoint ({type(err).__name__}: {err})") from err
