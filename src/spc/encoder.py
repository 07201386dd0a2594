"""Stochastic encoder: diagonal-Gaussian codes in the label space.

A single-hidden-layer tanh trunk feeds two linear heads that predict the
mean and log-variance of a Gaussian over the output space (one dimension
per class, or one dimension for regression). Training samples with the
reparameterization t = mu + exp(log_var / 2) * eps, eps drawn by the
caller, so gradients reach mu and log_var but never the noise. `forward`
computes the layers on plain arrays, for training and readouts alike, and
returns a hand-written backward; its affine layers call `diffcore.matmul`,
the model's affine layer, kept while `bench/tracer.py` counts its flops.
A readout runs `forward` without noise: the predicted class is the argmax
of mu (decoded, for VIB), as of softmax(mu), the predictive distribution,
and a regression estimate is mu itself; `encode` gives a readout's mu.

The VIB baseline is the same encoder into a code of any width, plus a
trainable single-hidden-layer tanh decoder from t to the output space. A
model is its checkpoint's "arch" plus its named tensors (`EncoderParams`).
A checkpoint (format 2) is an uncompressed `.npz`, one float64 member per
tensor and a JSON header, written through `data.write_atomic` (which
replaces the file only once complete). Format 1, JSON text, is still read.
"""

from __future__ import annotations

import json
import zipfile
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .data import DataError, write_atomic
from .diffcore import ShapeError, Tensor, matmul, param

# hard bounds on predicted log-variance; keeps the KL term finite on outliers
LOG_VAR_MIN = -8.0
LOG_VAR_MAX = 8.0

CHECKPOINT_FORMAT_VERSION = 2


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
    when used, is a mask the caller puts on the hidden layer (see `forward`).
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


def _row_mean(a: np.ndarray) -> np.ndarray:
    """`a.mean(axis=1, keepdims=True)` bit for bit: the row sums over the row length."""
    return np.add.reduce(a, axis=1, keepdims=True) / a.shape[1]


def layer_norm_values(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of `a` standardized (no affine parameters), and 1/std."""
    centered = a - _row_mean(a)
    inv_std = 1.0 / np.sqrt(_row_mean(np.square(centered)) + 1e-5)  # a.var(axis=1)'s bits
    centered *= inv_std
    return centered, inv_std


def layer_norm_grad(g: np.ndarray, y: np.ndarray, inv_std: np.ndarray) -> np.ndarray:
    """The local gradient of a row-wise layer norm with output `y`."""
    d = g - _row_mean(g)
    d -= y * _row_mean(g * y)
    d *= inv_std
    return d


def _affine_grads(a: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The gradients of `a @ w + b`'s w and b, given its output gradient `d`."""
    return a.T @ d, np.add.reduce(d, axis=0, keepdims=True)


def forward(params: EncoderParams, x: np.ndarray, eps: np.ndarray | None,
            dropout_mask: np.ndarray | None = None
            ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, Callable]:
    """(mu, log_var, out, backprop) of a B x input_dim batch `x` of plain arrays
    (else a ShapeError): the one forward, of training and readouts alike.
    `dropout_mask` multiplies the trunk's hidden layer. With `eps` (a
    constant B x latent_dim draw) log_var is the clamped log-variance head
    and t = mu + exp(log_var / 2) * eps; without it t = mu and log_var is
    None. `out` is t decoded, so with no eps and no mask mu and out are the
    readouts of x. `backprop(d_out, d_mu, d_log_var)` maps the loss's
    gradients (None where it reaches none) to each tensor's, by name (zeros
    for a head it does not reach), with the expressions and accumulation
    order of the taped ops it replaced (`tests/fused.py`), so with their bits.
    """
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ShapeError(f"forward: expected input of shape (B, {params.input_dim}), got {x.shape}")
    p = params.tensors
    vib, layer_norm = params.kind == "vib", params.arch["use_layer_norm"]
    pre = matmul(Tensor(x), p["w_in"], p["b_in"]).values
    if layer_norm:
        pre, inv_std = layer_norm_values(pre)
    hidden = np.tanh(pre, out=None if layer_norm else pre)  # layer_norm_grad reads pre
    h = hidden if dropout_mask is None else hidden * dropout_mask
    t = mu = matmul(Tensor(h), p["w_mu"], p["b_mu"]).values
    log_var = None
    if eps is not None:
        if eps.shape != mu.shape:
            raise ShapeError(f"forward: eps shape {eps.shape} != code shape {mu.shape}")
        raw = matmul(Tensor(h), p["w_lv"], p["b_lv"]).values
        in_clamp = (raw >= LOG_VAR_MIN) & (raw <= LOG_VAR_MAX)  # where the clamp passes a gradient
        log_var = raw.clip(LOG_VAR_MIN, LOG_VAR_MAX, out=raw)
        sigma = np.exp(log_var * 0.5)
        t = sigma * eps
        t += mu  # mu + sigma * eps, as addition commutes bit for bit
    out = t
    if vib:
        dec = matmul(Tensor(t), p["w_dec1"], p["b_dec1"]).values
        np.tanh(dec, out=dec)
        out = matmul(Tensor(dec), p["w_dec2"], p["b_dec2"]).values

    def backprop(d_out, d_mu, d_log_var):
        # every array written in place below is a temporary made here, so
        # backprop may run again and its arguments keep their values
        grads = {}
        d_t = d_out
        if vib:
            grads["w_dec2"], grads["b_dec2"] = _affine_grads(dec, d_out)
            d_dec = d_out @ p["w_dec2"].values.T
            d_dec *= 1.0 - dec * dec
            grads["w_dec1"], grads["b_dec1"] = _affine_grads(t, d_dec)
            d_t = d_dec @ p["w_dec1"].values.T
        if eps is None:
            grads.update((name, np.zeros_like(p[name].values)) for name in ("w_lv", "b_lv"))
        else:
            d_raw = d_t * eps  # d_t * eps * sigma * 0.5, then d_log_var + it, then * in_clamp
            d_raw *= sigma
            d_raw *= 0.5
            if d_log_var is not None:
                np.add(d_log_var, d_raw, out=d_raw)
            d_raw *= in_clamp
            grads["w_lv"], grads["b_lv"] = _affine_grads(h, d_raw)
        d_mu = d_t if d_mu is None else d_mu + d_t
        grads["w_mu"], grads["b_mu"] = _affine_grads(h, d_mu)
        d_h = d_mu @ p["w_mu"].values.T
        if eps is not None:  # d_raw @ w_lv.T + d_h
            d_h = np.add(d_raw @ p["w_lv"].values.T, d_h, out=d_h)
        if dropout_mask is not None:
            d_h *= dropout_mask
        d_h *= 1.0 - hidden * hidden
        d_pre = layer_norm_grad(d_h, pre, inv_std) if layer_norm else d_h
        grads["w_in"], grads["b_in"] = _affine_grads(x, d_pre)
        return grads

    return mu, log_var, out, backprop


def encode(params: EncoderParams, x: np.ndarray) -> np.ndarray:
    """The code means mu of a feature batch: `forward`'s, with no noise or dropout."""
    return forward(params, x, None)[0]


# --- checkpoint serialization (versioned, named float64 tensors) ---


def save_checkpoint(path: str, params: EncoderParams) -> None:
    """Write `params` to `path` in format 2, an uncompressed `np.savez`: one
    float64 member per tensor, in `tensor_shapes` order, and a 0-d string
    "header", the JSON of the format version, kind and arch. Zip members carry
    a fixed timestamp, so one model always has the same bytes. A failed write
    leaves any earlier file at `path` as it was (`write_atomic`)."""
    header = json.dumps({"format_version": CHECKPOINT_FORMAT_VERSION, "kind": params.kind,
                         "arch": params.arch})
    with write_atomic(path, binary=True) as fh:
        np.savez(fh, **{name: t.values for name, t in params.tensors.items()},
                 header=np.array(header))


def load_checkpoint_payload(path: str) -> dict:
    """A checkpoint's header ("format_version", "kind", "arch") and its
    "tensors", each a "shape" and its "values": format 2's members as stored,
    format 1's (JSON text) flat lists of numbers."""
    with open(path, "rb") as fh:
        is_archive = fh.read(4) == b"PK\x03\x04"  # format 2 is a zip archive, 1 JSON text
        fh.seek(0)
        if not is_archive:
            payload = json.load(fh)
        else:  # np.load reads the open handle: a damaged archive leaves no file open
            tensors = {}
            with np.load(fh, allow_pickle=False) as archive:
                for name in archive.files:
                    try:
                        values = archive[name]
                    except ValueError as err:  # such as an object array, which needs a pickle
                        raise ValueError(f"tensor {name}: {err}") from None
                    tensors[name] = {"shape": list(values.shape), "values": values}
            try:
                payload = {**json.loads(tensors.pop("header")["values"].item()), "tensors": tensors}
            except (TypeError, ValueError) as err:
                raise ValueError(f"header is not a JSON object ({err})") from None
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != (CHECKPOINT_FORMAT_VERSION if is_archive else 1):
        raise ValueError(f"unsupported checkpoint format_version: {version!r}")
    return payload


def load_checkpoint(path: str) -> EncoderParams:
    """Read a checkpoint of either format, without a cast. Any malformed
    content, such as an "arch" that `_check_arch` rejects, or a tensor that
    is missing, disagrees with the arch in shape, is not float64 or holds a
    non-finite value, is a DataError naming the file."""
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
            values = np.asarray(entry["values"])  # float64 for format 1's JSON floats
            if values.dtype != np.float64:
                raise ValueError(f"tensor {name} holds {values.dtype} values, not float64")
            if not np.isfinite(values).all():
                raise ValueError(f"tensor {name} holds a non-finite value")
            tensors[name] = param(values.reshape(shape))
        return EncoderParams(arch, tensors)
    except (KeyError, TypeError, ValueError, zipfile.BadZipFile) as err:
        raise DataError(f"{path}: not a usable checkpoint ({type(err).__name__}: {err})") from err
