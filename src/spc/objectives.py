"""Loss terms, the table of objective kinds, and the one composition.

Every objective in this package is a point in one family:

    total = NLL(out, y) + beta * KL(N(mu, sigma^2) || N(0, I))
            - gamma * H_batch + cp_weight * penalty

where t is a reparameterized sample from the per-sample Gaussian code (or
mu itself, for kinds without beta), out is t or a decoder's output, NLL is
cross-entropy on out (classification) or squared error (regression), KL
is the closed diagonal-Gaussian form, and H_batch is the entropy of the
batch-averaged predicted class distribution (a Jensen upper bound on the
mean per-sample entropy, so maximizing it promotes class-level uniformity
without forcing individual predictions flat).

The per-sample confidence penalty (negative mean per-row entropy) is kept
separate: it regularizes each prediction toward uniform, which is a
different effect from the batch-marginal term above.

`OBJECTIVES` declares each kind once: its task, the weights it takes and
whether it decodes t. Validation, the command-line choices, the sweep
grid and sampling all derive from it; `spc_loss` is the only composition.
It computes every term, their total and their gradients on plain arrays
and floats: the training step (`trainer.batch_loss`) tapes it as one op.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .diffcore import ShapeError, Tensor

WEIGHTS = ("beta", "gamma", "cp_weight")


@dataclass(frozen=True)
class Kind:
    """One objective kind: its task, the weights it takes (a subset of
    WEIGHTS, in sweep-grid order) and whether a decoder maps t to the output.
    A kind samples t exactly when it takes beta; otherwise t is mu."""

    task: str
    weights: tuple[str, ...] = ()
    decoder: bool = False


# Every objective is a point in the family above. pc is spc with gamma
# pinned to 0; ce/mse read out mu with no weights; ce_cp adds the
# confidence penalty; vib/mse_vib put a trainable decoder after the sample.
# Regression kinds never take gamma: with one output dimension the batch
# entropy has no class structure to act on.
OBJECTIVES = {
    "spc": Kind("classification", ("beta", "gamma")),
    "pc": Kind("classification", ("beta",)),
    "ce": Kind("classification"),
    "ce_cp": Kind("classification", ("cp_weight",)),
    "vib": Kind("classification", ("beta",), decoder=True),
    "mse": Kind("regression"),
    "mse_pc": Kind("regression", ("beta",)),
    "mse_vib": Kind("regression", ("beta",), decoder=True),
}
CLASSIFICATION_KINDS = tuple(k for k, spec in OBJECTIVES.items() if spec.task == "classification")

@dataclass
class ObjectiveConfig:
    """Which loss to optimize and with what trade-off weights.

    Every weight is finite and non-negative, and one that the kind does not
    take (see OBJECTIVES) must stay 0; the task is the kind's.
    `structured_from` selects the probabilities fed to the batch-entropy
    term: softmax of the sampled t ("sample", default) or of mu ("mu").
    """

    kind: str = "spc"
    beta: float = 0.0
    gamma: float = 0.0
    cp_weight: float = 0.0
    structured_from: str = "sample"

    def __post_init__(self):
        if self.kind not in OBJECTIVES:
            raise ValueError(f"unknown objective kind {self.kind!r}")
        for name in WEIGHTS:
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")
            if value != 0.0 and name not in OBJECTIVES[self.kind].weights:
                raise ValueError(f"kind {self.kind!r} does not take a {name} term")
        if self.structured_from not in ("sample", "mu"):
            raise ValueError(f"structured_from must be 'sample' or 'mu', got {self.structured_from!r}")

    @property
    def task(self) -> str:
        return OBJECTIVES[self.kind].task

    @property
    def samples(self) -> bool:
        """Whether t is a reparameterized sample (else t = mu)."""
        return "beta" in OBJECTIVES[self.kind].weights


@dataclass
class LossTerms:
    """The scalar loss and its additive components, as plain floats, plus
    `total`, the loss taped as one op, which `trainer.batch_loss` sets.

    Components that a configuration does not compute (weight zero) are
    reported as 0.0. Identity: total_value = nll + beta*kl - gamma*batch_entropy
    + cp_weight*penalty, with each weight taken from the config in force.
    """

    total_value: float
    nll: float = 0.0
    kl: float = 0.0
    batch_entropy: float = 0.0
    penalty: float = 0.0
    total: Tensor | None = None


def xlogx_values(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """p*log(p) and its derivative log(p)+1, both 0 where p = 0; p must be
    non-negative (not checked)."""
    positive = p > 0.0
    log_p = np.log(np.where(positive, p, 1.0))
    return np.where(positive, p * log_p, 0.0), np.where(positive, log_p + 1.0, 0.0)


def log_softmax_values(x: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax of a BxC array, C >= 2, less the row max first."""
    if x.ndim != 2:
        raise ShapeError(f"log_softmax: expected BxC input, got {x.shape}")
    if x.shape[1] < 2:
        raise ShapeError("log_softmax: need at least 2 columns")
    shifted = x - np.maximum.reduce(x, axis=1, keepdims=True)
    return shifted - np.log(np.add.reduce(np.exp(shifted), axis=1, keepdims=True))


def log_softmax_grad(g: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """The local gradient of a row-wise log-softmax, given its output
    gradient `g` and `probs`, the exp of its output."""
    return g - probs * np.add.reduce(g, axis=1, keepdims=True)


def spc_loss(out: np.ndarray, mu: np.ndarray, log_var: np.ndarray | None, y,
             cfg: ObjectiveConfig) -> tuple[LossTerms, Callable]:
    """Compose the objective of any kind from the prediction `out` and the
    code (mu, log_var): the terms, their total untaped, and `grads`.

    NLL(out, y) (mean cross-entropy, or squared error), then + beta*KL(code),
    - gamma*H_batch (of softmax(out), or of softmax(mu)), + cp_weight*penalty,
    added in that order. `out` is t itself, or the decoder's output.
    Zero-weight terms are skipped (not multiplied by 0), so beta = gamma = 0
    with t = mu is plain cross-entropy, exactly. `grads(g)` maps the total's
    gradient g to those of (out, mu, log_var), None where the total does not
    reach one. It computes each term's gradient with the expressions of the
    taped op it replaced (`tests/fused.py`) and adds them in the order
    `backward` reached them in the chain of those ops: the weighted total,
    the penalty, the batch entropy, the KL (G*mu into mu twice), the NLL.
    `Dataset` checks the labels' range once and the softmax rows are a
    distribution by construction, so the terms check neither.
    """
    batch = out.shape[0]
    if cfg.task == "classification":
        log_probs = log_softmax_values(out)
        probs = np.exp(log_probs)
        onehot = np.zeros(log_probs.shape)
        onehot[np.arange(batch), y] = 1.0
        nll = np.add.reduce(log_probs * onehot, axis=None) * (-1.0 / batch)
    else:
        diff = out - np.asarray(y, dtype=np.float64).reshape(-1, 1)
        nll = np.add.reduce(diff * diff, axis=None) / diff.size  # (diff * diff).mean()
    total = nll  # plus term * w, in order; adding H * -gamma has the bits of subtracting H * gamma
    kl = batch_entropy = penalty = 0.0
    if cfg.beta != 0.0:
        var = np.exp(log_var)
        kl = np.add.reduce(mu * mu + var - log_var - 1.0, axis=None) * (0.5 / batch)
        total = total + kl * float(cfg.beta)
    if cfg.gamma != 0.0:
        source_probs = probs if cfg.structured_from == "sample" else np.exp(log_softmax_values(mu))
        marginal = np.add.reduce(source_probs, axis=0, keepdims=True) / batch  # its mean
        entropy_terms, marginal_slope = xlogx_values(marginal)
        batch_entropy = -np.add.reduce(entropy_terms, axis=None)
        total = total + batch_entropy * -float(cfg.gamma)
    if cfg.cp_weight != 0.0:
        entropy_terms, slope = xlogx_values(probs)
        penalty = np.add.reduce(entropy_terms, axis=None) * (1.0 / batch)
        total = total + penalty * float(cfg.cp_weight)
    terms = LossTerms(float(total), float(nll), float(kl), float(batch_entropy), float(penalty))

    # each product of a spread scalar and an array below is one of the taped
    # op's np.full(shape, scalar) * array, with its bits; the batch entropy's
    # (1, C) gradient row broadcasts over the batch, which multiplies the same
    # values as the taped op's B-fold np.repeat, so no copy is needed for the bits
    def grads(g):
        d_out = d_mu = d_log_var = None
        if cfg.cp_weight != 0.0:  # no kind takes both cp_weight and gamma
            d_out = log_softmax_grad(slope * (g * float(cfg.cp_weight) * (1.0 / batch)) * probs,
                                     probs)
        if cfg.gamma != 0.0:
            d_probs = marginal_slope * -(g * -float(cfg.gamma)) / batch
            d_source = log_softmax_grad(d_probs * source_probs, source_probs)
            d_out, d_mu = ((d_source, None) if cfg.structured_from == "sample"
                           else (None, d_source))
        if cfg.beta != 0.0:
            spread = g * float(cfg.beta) * (0.5 / batch)
            d_log_var = var * spread - spread
            mu_spread = mu * spread  # added into d_mu twice
            d_mu = mu_spread + mu_spread if d_mu is None else d_mu + mu_spread + mu_spread
        if cfg.task == "classification":
            d_nll = log_softmax_grad(onehot * (g * (-1.0 / batch)), probs)
        else:
            d_nll = diff * (g / diff.size)
            d_nll += d_nll  # diff * spread + diff * spread
        return (d_nll if d_out is None else d_out + d_nll), d_mu, d_log_var

    return terms, grads
