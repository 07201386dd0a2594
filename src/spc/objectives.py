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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import ShapeError, Tensor, emit
from .encoder import GaussianCode

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
    """A scalar loss tensor plus its additive components as plain floats.

    Components that a configuration does not compute (weight zero) are
    reported as 0.0. Identity: total = nll + beta*kl - gamma*batch_entropy
    + cp_weight*penalty, with each weight taken from the config in force.
    """

    total: Tensor
    nll: float = 0.0
    kl: float = 0.0
    batch_entropy: float = 0.0
    penalty: float = 0.0

    @property
    def total_value(self) -> float:
        return float(self.total.values)


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
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def log_softmax_grad(g: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """The local gradient of a row-wise log-softmax, given its output
    gradient `g` and `probs`, the exp of its output."""
    return g - probs * g.sum(axis=1, keepdims=True)


def softmax_probs(logits: Tensor) -> Tensor:
    """Differentiable row-wise softmax: exp(log_softmax), as one op."""
    probs = np.exp(log_softmax_values(logits.values))
    return emit(probs, (logits, lambda g: log_softmax_grad(g * probs, probs)))


def _task_nll(t: Tensor, y: np.ndarray) -> Tensor:
    """Mean over the batch of -log softmax(t)[i, y[i]], as one op, for B
    labels already known to lie in [0, C)."""
    log_probs = log_softmax_values(t.values)
    batch = log_probs.shape[0]
    onehot = np.zeros(log_probs.shape)
    onehot[np.arange(batch), y] = 1.0
    c = -1.0 / batch
    return emit((log_probs * onehot).sum() * c,
                (t, lambda g: log_softmax_grad(np.full(onehot.shape, g * c) * onehot,
                                               np.exp(log_probs))))


def mse(t: Tensor, y) -> Tensor:
    """Mean of (t_i - y_i)^2 over the batch, as one op."""
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    if t.values.shape != y.shape:
        raise ValueError(f"mse: prediction shape {t.values.shape} != target shape {y.shape}")
    diff = t.values - y

    def d_t(g):
        spread = np.full(diff.shape, g / diff.size)
        return spread * diff + spread * diff

    return emit((diff * diff).mean(), (t, d_t))


def kl_to_std_normal(code: GaussianCode) -> Tensor:
    """Closed-form KL(N(mu, diag sigma^2) || N(0, I)), averaged over the batch.

    Per sample: 0.5 * sum_d (mu_d^2 + sigma_d^2 - 1 - log sigma_d^2).
    Non-negative, zero exactly when mu = 0 and log_var = 0. One op: mu gets
    G*mu twice and log_var gets -G, then G*sigma^2, where G is the output
    gradient times 0.5/B, spread over the batch.
    """
    mu, log_var = code.mu.values, code.log_var.values
    var = np.exp(log_var)
    c = 0.5 / mu.shape[0]

    def spread(g):
        return np.full(mu.shape, g * c)

    # one pair per use, as backward added them to the chain's inputs: a mu
    # that already holds a gradient (structured_from="mu") then gets G*mu
    # added twice, not 2*G*mu once, which rounds differently
    return emit((mu * mu + var - log_var - 1.0).sum() * c,
                (code.log_var, lambda g: -spread(g)), (code.log_var, lambda g: spread(g) * var),
                (code.mu, lambda g: spread(g) * mu), (code.mu, lambda g: spread(g) * mu))


def _batch_entropy(probs: Tensor) -> Tensor:
    """Entropy of the column-mean of a row-stochastic matrix (natural log),
    as one op, for rows known to be non-negative and to sum to 1.

    By Jensen this upper-bounds the mean per-row entropy; it is maximal
    (log C) when the batch-averaged class marginal is uniform and 0 when
    every row concentrates on one shared class.
    """
    batch = probs.values.shape[0]
    entropy_terms, slope = xlogx_values(probs.values.mean(axis=0, keepdims=True))
    return emit(-entropy_terms.sum(),
                (probs, lambda g: np.repeat(np.full(slope.shape, -g) * slope / batch,
                                            batch, axis=0)))


def _confidence_penalty(probs: Tensor) -> Tensor:
    """Negative mean per-row entropy, -(1/B) sum_i H(p_i), in [-log C, 0],
    as one op, for rows known to be a distribution."""
    c = 1.0 / probs.values.shape[0]
    entropy_terms, slope = xlogx_values(probs.values)
    return emit(entropy_terms.sum() * c, (probs, lambda g: np.full(slope.shape, g * c) * slope))


def spc_loss(code: GaussianCode, out: Tensor, y, cfg: ObjectiveConfig) -> LossTerms:
    """Compose the objective of any kind from the prediction `out`.

    NLL(out, y), then + beta*KL(code), - gamma*H_batch, + cp_weight*penalty,
    in that order, each term and their weighted total one taped op. `out`
    is t itself, or the decoder's output. Zero-weight terms are skipped (not
    multiplied by 0), so beta = gamma = 0 with t = mu is plain cross-entropy,
    exactly. `Dataset` checks the labels' range once and the softmax rows
    are a distribution by construction, so the terms check neither.
    """
    nll = _task_nll(out, y) if cfg.task == "classification" else mse(out, y)
    terms = LossTerms(total=nll, nll=float(nll.values))
    weighted = []  # (term, signed weight), added onto the NLL in this order
    if cfg.beta != 0.0:
        kl = kl_to_std_normal(code)
        terms.kl = float(kl.values)
        weighted.append((kl, float(cfg.beta)))
    if cfg.gamma != 0.0:
        source = out if cfg.structured_from == "sample" else code.mu
        lb = _batch_entropy(softmax_probs(source))
        terms.batch_entropy = float(lb.values)
        weighted.append((lb, -float(cfg.gamma)))
    if cfg.cp_weight != 0.0:
        penalty = _confidence_penalty(softmax_probs(out))
        terms.penalty = float(penalty.values)
        weighted.append((penalty, float(cfg.cp_weight)))
    if weighted:
        terms.total = _weighted_total(nll, weighted)
    return terms


def _weighted_total(nll: Tensor, weighted: list[tuple[Tensor, float]]) -> Tensor:
    """nll + term * w for each (term, w) in order, as one op; adding
    H * -gamma has the bits of subtracting H * gamma."""
    total = nll.values
    for term, w in weighted:
        total = total + term.values * w
    return emit(total, (nll, lambda g: g),
                *((term, lambda g, w=w: g * w) for term, w in weighted))
