"""Stochastic encoder: diagonal-Gaussian codes in the label space.

A single-hidden-layer tanh trunk feeds two linear heads that predict the
mean and log-variance of a Gaussian over the output space (one dimension
per class, or one dimension for regression). Sampling uses the
reparameterization t = mu + exp(log_var / 2) * eps with caller-supplied
eps, so gradients reach mu and log_var but never the noise. Prediction is
non-parametric: softmax of mu for classification, mu itself for regression.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .diffcore import (
    ShapeError,
    Tensor,
    clip,
    exp,
    layer_norm,
    matmul,
    mul,
    param,
    scale,
    tanh,
)

# hard bounds on predicted log-variance; keeps the KL term finite on outliers
LOG_VAR_MIN = -8.0
LOG_VAR_MAX = 8.0

CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class GaussianCode:
    """Per-sample posterior parameters (mu, log sigma^2) in the output space."""

    mu: Tensor
    log_var: Tensor


@dataclass
class EncoderParams:
    """Trunk + mean head + log-variance head.

    `use_layer_norm` standardizes the trunk pre-activation row-wise before
    the tanh. Dropout, when used, is applied by the caller as a mask on the
    hidden layer (see `encode`).
    """

    w_in: Tensor
    b_in: Tensor
    w_mu: Tensor
    b_mu: Tensor
    w_lv: Tensor
    b_lv: Tensor
    use_layer_norm: bool = False

    @property
    def input_dim(self) -> int:
        return self.w_in.values.shape[0]

    @property
    def hidden_dim(self) -> int:
        return self.w_in.values.shape[1]

    @property
    def out_dim(self) -> int:
        return self.w_mu.values.shape[1]

    def parameters(self) -> list[Tensor]:
        return [self.w_in, self.b_in, self.w_mu, self.b_mu, self.w_lv, self.b_lv]

    def named_parameters(self) -> dict[str, Tensor]:
        return {"w_in": self.w_in, "b_in": self.b_in, "w_mu": self.w_mu,
                "b_mu": self.b_mu, "w_lv": self.w_lv, "b_lv": self.b_lv}


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_encoder(input_dim: int, hidden_dim: int, out_dim: int,
                 rng: np.random.Generator | int,
                 use_layer_norm: bool = False) -> EncoderParams:
    """Glorot-uniform weights, zero biases. Draw order: w_in, w_mu, w_lv."""
    if isinstance(rng, int):
        rng = np.random.default_rng(rng)
    return EncoderParams(
        w_in=param(_glorot(rng, input_dim, hidden_dim)),
        b_in=param(np.zeros((1, hidden_dim))),
        w_mu=param(_glorot(rng, hidden_dim, out_dim)),
        b_mu=param(np.zeros((1, out_dim))),
        w_lv=param(_glorot(rng, hidden_dim, out_dim)),
        b_lv=param(np.zeros((1, out_dim))),
        use_layer_norm=use_layer_norm,
    )


def hidden_layer(params: EncoderParams, x: Tensor,
                 dropout_mask: np.ndarray | None = None) -> Tensor:
    """Shared trunk: tanh(layer_norm?(x @ w_in + b_in)), optionally masked."""
    if x.values.ndim != 2 or x.values.shape[1] != params.input_dim:
        raise ShapeError(
            f"encode: expected input of shape (B, {params.input_dim}), got {x.values.shape}")
    pre = matmul(x, params.w_in) + params.b_in
    if params.use_layer_norm:
        pre = layer_norm(pre)
    h = tanh(pre)
    if dropout_mask is not None:
        h = mul(h, Tensor(dropout_mask))
    return h


def encode(params: EncoderParams, x: Tensor,
           dropout_mask: np.ndarray | None = None) -> GaussianCode:
    """Map a feature batch to per-sample (mu, log_var), log_var clamped to [-8, 8]."""
    h = hidden_layer(params, x, dropout_mask)
    mu = matmul(h, params.w_mu) + params.b_mu
    log_var = clip(matmul(h, params.w_lv) + params.b_lv, LOG_VAR_MIN, LOG_VAR_MAX)
    return GaussianCode(mu=mu, log_var=log_var)


def sample(code: GaussianCode, eps: Tensor | np.ndarray) -> Tensor:
    """Reparameterized draw t = mu + exp(log_var / 2) * eps.

    `eps` is treated as a constant: it must be drawn from N(0, I) by the
    caller, and no gradient flows into it.
    """
    eps_t = eps if isinstance(eps, Tensor) else Tensor(eps)
    if eps_t.values.shape != code.mu.values.shape:
        raise ShapeError(
            f"sample: eps shape {eps_t.values.shape} != code shape {code.mu.values.shape}")
    sigma = exp(scale(code.log_var, 0.5))
    return code.mu + mul(sigma, Tensor(eps_t.values))


def softmax_rows(values: np.ndarray) -> np.ndarray:
    shifted = values - values.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def predict(code: GaussianCode, task: str) -> Tensor:
    """Deterministic readout: class probabilities softmax(mu), or mu itself.

    Never samples; consumes no randomness.
    """
    if task == "classification":
        return Tensor(softmax_rows(code.mu.values))
    if task == "regression":
        return Tensor(code.mu.values.copy())
    raise ValueError(f"unknown task kind: {task!r}")


# --- checkpoint serialization (versioned JSON of named tensors) ---

def checkpoint_payload(kind: str, arch: dict, tensors: dict[str, Tensor]) -> dict:
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "kind": kind,
        "arch": arch,
        "tensors": {
            name: {"shape": list(t.values.shape), "values": t.values.ravel().tolist()}
            for name, t in tensors.items()
        },
    }


def save_checkpoint(path: str, kind: str, arch: dict, tensors: dict[str, Tensor]) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(checkpoint_payload(kind, arch, tensors), fh)


def load_checkpoint_payload(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("format_version") if isinstance(payload, dict) else None
    if version != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint format_version: {version!r}")
    return payload


def _tensor_from_entry(entry: dict) -> Tensor:
    values = np.asarray(entry["values"], dtype=np.float64).reshape(entry["shape"])
    return param(values)


def encoder_to_checkpoint(params: EncoderParams) -> tuple[str, dict, dict[str, Tensor]]:
    arch = {
        "input_dim": params.input_dim,
        "hidden_dim": params.hidden_dim,
        "out_dim": params.out_dim,
        "use_layer_norm": params.use_layer_norm,
    }
    return "encoder", arch, params.named_parameters()


def encoder_from_payload(payload: dict) -> EncoderParams:
    if payload["kind"] != "encoder":
        raise ValueError(f"checkpoint kind {payload['kind']!r} is not an encoder")
    t = {name: _tensor_from_entry(entry) for name, entry in payload["tensors"].items()}
    return EncoderParams(
        w_in=t["w_in"], b_in=t["b_in"], w_mu=t["w_mu"], b_mu=t["b_mu"],
        w_lv=t["w_lv"], b_lv=t["b_lv"],
        use_layer_norm=bool(payload["arch"]["use_layer_norm"]),
    )
